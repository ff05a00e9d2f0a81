"""Constrained minimization of the Hardy-Sobolev quotient by projected
L-BFGS on cylindrical grid functions, plus the symmetrize-and-compare
experiment and the beta = p endpoint sweep."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, DomainError, UsageError
from .functionals import Params, hs_constraint, hs_quotient
from .grid import CylGrid, DirichletEnergy, GridFunction, make_radial_grid, sphere_area
from .rearrange import double_star
from .sharp_constant import _product_integrals, eps_family_truncated, product_family

__all__ = [
    "DescentOptions",
    "MinimizationTrace",
    "default_init",
    "minimize_hs",
    "symmetrize_and_compare",
    "hardy_endpoint_sweep",
]


DELTA_SCALE = 1e-8  # p-Laplacian regularization for p != 2, relative to grid diameter
LOG_FLOAT_MAX = math.log(np.finfo(float).max)
LBFGS_MEMORY = 5  # (s, y) pairs kept by the L-BFGS two-loop recursion
ARMIJO = 1e-4  # sufficient-decrease constant of the line search
FLOAT_EPS = np.finfo(float).eps  # a predicted decrease at most FLOAT_EPS * Q is rounding


@dataclass(frozen=True)
class DescentOptions:
    """Settings of minimize_hs.

    tol is the stationarity residual at which the run stops (stop_reason
    "residual"); tol = 0 never stops on it, so the run ends on a failed line
    search or at max_iter.  seed draws the "random" start.  The line
    search's first step tau0 and its cap on halvings max_halvings are class
    constants, not fields.  The cap is rarely reached: near the minimizer a
    search ends at the float floor, where the predicted decrease
    tau * (-g.d) falls to FLOAT_EPS * Q (see minimize_hs).
    """

    max_iter: int = 2000
    tol: float = 1e-8
    seed: int = 0
    tau0 = 1.0  # first step: a class constant, not a field
    max_halvings = 40  # cap on line-search halvings: a class constant, not a field


@dataclass
class MinimizationTrace:
    """Iteration history of the constrained descent.

    residuals holds the stationarity residual of each iterate (see
    minimize_hs).  symmetry_deviation is max |u** - u| / max u for the final
    iterate u, with u** its double symmetrization.
    """

    energies: list = field(default_factory=list)
    constraints: list = field(default_factory=list)
    quotients: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    symmetry_deviation: float = 0.0
    final_u: Optional[GridFunction] = None
    converged: bool = False
    stop_reason: str = ""
    delta_reg: float = 0.0
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": 3,
            "energies": self.energies,
            "constraints": self.constraints,
            "quotients": self.quotients,
            "step_sizes": self.step_sizes,
            "residuals": self.residuals,
            "symmetry_deviation": self.symmetry_deviation,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "delta_reg": self.delta_reg,
            "meta": self.meta,
        }


def default_init(grid: CylGrid, kind: str = "bump", seed: int = 0) -> GridFunction:
    """Centered product bump exp(-s^2 - t^2); "random" adds seeded smooth
    positive perturbations of it."""
    s = grid.s_nodes[:, None]
    t = grid.t_nodes[None, :]
    bump = np.exp(-(s**2) - t**2) * np.ones(grid.shape)
    if kind == "bump":
        values = bump
    elif kind == "random":
        rng = np.random.default_rng(seed)
        pert = np.zeros(grid.shape)
        smax = grid.s_grid.r_max
        tmax = grid.t_grid.r_max if grid.t_grid is not None else 1.0
        for _ in range(4):
            cs = rng.uniform(0.0, 0.4 * smax)
            ct = rng.uniform(0.0, 0.4 * tmax)
            width = rng.uniform(0.5, 1.5)
            amp = rng.uniform(-0.4, 0.4)
            pert += amp * np.exp(-((s - cs) ** 2 + (t - ct) ** 2) / width**2)
        values = bump * np.clip(1.0 + pert, 0.1, None)
    else:
        raise UsageError(f"unknown initializer {kind!r}")
    values = values.copy()
    values[-1, :] = 0.0
    if grid.m >= 1:
        values[:, -1] = 0.0
    return GridFunction(grid, values)


def _generalized_eigh(c: np.ndarray, measures: np.ndarray):
    """Eigenpairs of the pencil (A, M), A the 1-D p = 2 stiffness with edge
    weights c (DirichletEnergy.edge_weights) and M = diag(measures):
    V.T A V = diag(lam), V.T M V = I.  A is assembled from its bands as a
    small dense tridiagonal matrix."""
    n = len(measures)
    diagonal, off_diagonal = np.append(0.0, c)[:n] + np.append(c, 0.0)[:n], -c[: n - 1]
    A = np.diag(diagonal) + np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1)
    h = 1.0 / np.sqrt(measures)
    lam, Q = np.linalg.eigh(h[:, None] * A * h[None, :])
    return lam, h[:, None] * Q


def splu(grid: CylGrid, dirichlet: DirichletEnergy):
    """The one factor of the descent's metric K = As⊗Mt + Ms⊗At: the
    wall-ended energy's p = 2 stiffness along each axis, given by its
    edge_weights, tensored with the other axis's cell-measure mass.  Returns
    an object whose solve(R) solves K for an (ns, nt) array.

    K is half the Hessian of the p = 2 energy, so it fixes no length scale.
    The wall edge makes K symmetric positive definite.  On a radial grid
    (m = 0, where ns can be thousands and K is As) As = G^T diag(c) G with
    G u = u[i + 1] - u[i], u = 0 past the wall, so solve is
    revcumsum(cumsum(R) / c).  On a cylinder (m >= 1) it is the fast
    diagonalization method (Lynch, Rice & Thomas 1964): four dense matmuls
    in the generalized eigenbases of the two 1-D pencils.  When the
    t-axis pencil equals the s-axis one exactly (same edge weights and cell
    measures, as on a square grid with one radius and grading), its
    eigenpairs are reused and one eigh serves both axes.  The name is kept
    for the benchmark's tracer, which wraps it to time the factor and each
    solve."""
    c = dirichlet.edge_weights(0)
    if grid.t_grid is None:
        c = c[:, None]
        return SimpleNamespace(solve=lambda R: np.cumsum((np.cumsum(R, axis=0) / c)[::-1], axis=0)[::-1])
    lam_s, Vs = _generalized_eigh(c, grid.s_grid.cell_measures)
    c_t, m_t = dirichlet.edge_weights(1), grid.t_measures
    if np.array_equal(c_t, c) and np.array_equal(m_t, grid.s_grid.cell_measures):
        lam_t, Vt = lam_s, Vs  # one pencil along both axes: one eigh
    else:
        lam_t, Vt = _generalized_eigh(c_t, m_t)
    denom = lam_s[:, None] + lam_t[None, :]
    return SimpleNamespace(solve=lambda R: Vs @ ((Vs.T @ R @ Vt) / denom) @ Vt.T)


def _lbfgs_direction(g, Kg, pairs, gamma):
    """-H g by the L-BFGS two-loop recursion (Nocedal 1980), with H0 =
    gamma K^-1; Kg is K^-1 g, and pairs holds (s, y, K^-1 y, 1 / s.y).
    The recursion's middle solve K^-1 (g - sum alpha_i y_i) is Kg - sum
    alpha_i K^-1 y_i by linearity, so a direction costs no K-solve."""
    if not pairs:
        return -gamma * Kg
    q, r = g.copy(), Kg.copy()
    alphas = []
    for s, y, Ky, rho in reversed(pairs):
        alphas.append(rho * np.vdot(s, q))
        q -= alphas[-1] * y
        r -= alphas[-1] * Ky
    r *= gamma
    for (s, y, _, rho), alpha in zip(pairs, reversed(alphas)):
        r += (alpha - rho * np.vdot(y, r)) * s
    r *= -1.0
    return r


def minimize_hs(
    params: Params,
    grid: CylGrid,
    init: Union[GridFunction, str] = "bump",
    opts: DescentOptions = DescentOptions(),
) -> MinimizationTrace:
    """Projected L-BFGS for S = inf { int |grad u|^p : int |u|^q / |y|^beta = 1 }.

    The Dirichlet energy is a DirichletEnergy with the zero boundary at
    r_max built into the wall edges.  Every iterate lies on the constraint
    set C = 1.  At each one, g is the quotient's gradient there and K the
    metric that splu factors.  The search direction is L-BFGS with
    memory LBFGS_MEMORY and initial inverse Hessian gamma K^-1, gamma = s.y
    / y.K^-1 y from the newest pair; a pair with s.y <= 0 is skipped, and a
    direction d that is not downhill is replaced by -K^-1 g.  Each pair
    keeps K^-1 y = K^-1 g_new - K^-1 g, so an iteration costs one K-solve,
    K^-1 g at the new iterate.  The line search tries tau = tau0, tau0 / 2,
    ... (at most max_halvings halvings): each candidate U + tau d is
    clipped to be nonnegative, rescaled onto the constraint set, and
    accepted only if it lowers the quotient by at least ARMIJO * tau *
    (-g.d) and strictly, so the quotient trace decreases.  A candidate whose
    predicted decrease tau * (-g.d) is at most FLOAT_EPS * Q is not
    evaluated: the float floor, below which no decrease can show, ends the
    search.  The stationarity residual sqrt(g.K^-1 g) / Q is recorded for every
    iterate; neither a rescaling nor a dilation of the iterate changes it.
    The run stops with stop_reason
      "residual" when it is at most opts.tol,
      "step_rejected_at_stationarity" when no candidate is accepted
        (at the float floor or after max_halvings halvings),
      "max_iter" (converged = False) after opts.max_iter accepted steps.
    The constraint and its gradient share one cell weight W =
    grid.cell_weight(-beta), the weight of hs_constraint's sums.
    """
    if params.beta is None:
        raise UsageError("minimize_hs requires Hardy-Sobolev-mode params")
    params.check_grid(grid)
    u0 = default_init(grid, init, seed=opts.seed) if isinstance(init, str) else init
    if u0.values.shape != grid.shape:
        raise UsageError(f"initializer shape {u0.values.shape} does not match grid {grid.shape}")
    if not np.any(u0.values > 0):
        raise DegenerateInputError("all-zero initializer")

    p, q, beta = params.p, params.q, params.beta
    W = grid.cell_weight(-beta)

    diam = math.hypot(grid.s_grid.r_max, grid.t_grid.r_max if grid.t_grid else 0.0)
    delta = DELTA_SCALE * diam if p != 2.0 else 0.0
    dirichlet = DirichletEnergy(grid, wall=True, p=p, delta=delta)
    solve = splu(grid, dirichlet).solve
    trace = MinimizationTrace(delta_reg=delta, meta={"grid": grid.descriptor(), "seed": opts.seed})

    def constraint(V):
        density = V**q
        density *= W
        return float(density.sum())

    def evaluate(V):
        """Rescale V, a fresh array, in place to constraint value 1 (exact by
        q-homogeneity); return its constraint, energy and quotient."""
        c = constraint(V)
        if not np.isfinite(c):
            raise DomainError("constraint integral is not finite")
        if c <= 0:
            raise DegenerateInputError("cannot project: constraint integral is zero")
        V *= c ** (-1.0 / q)
        c = constraint(V)
        e = dirichlet.energy(V)
        return c, e, e / c ** (p / q)

    def stationarity(V, e, c, quotient):
        """The quotient gradient g at V (C = 1), K^-1 g and the residual."""
        g = dirichlet.gradient(V) - (p * e / (q * c)) * (q * V ** (q - 1.0) * W)
        Kg = solve(g)
        return g, Kg, math.sqrt(max(np.vdot(g, Kg), 0.0)) / quotient

    U = np.maximum(u0.values, 0.0)
    c, energy, quotient = evaluate(U)
    g, Kg, res = stationarity(U, energy, c, quotient)
    history = [(energy, c, quotient, 0.0, res)]
    pairs = deque(maxlen=LBFGS_MEMORY)
    gamma = 1.0
    while True:
        if res <= opts.tol:
            trace.stop_reason = "residual"
            break
        if len(history) > opts.max_iter:
            trace.stop_reason = "max_iter"
            break
        d = _lbfgs_direction(g, Kg, pairs, gamma)
        slope = -np.vdot(g, d)
        if not slope > 0:
            d, slope = -Kg, np.vdot(g, Kg)

        tau, accepted = opts.tau0, False
        for _ in range(opts.max_halvings + 1):
            # tau only shrinks, so once the predicted decrease is within
            # rounding of the quotient no later candidate can show one
            if tau * slope <= FLOAT_EPS * quotient:
                break
            cand = U + tau * d
            np.maximum(cand, 0.0, out=cand)
            if (cand > 0).any():
                c_new, e_new, q_new = evaluate(cand)
                decrease = quotient - q_new
                # strict even where ARMIJO * tau * slope underflows to 0:
                # accepting an equal quotient can make zero-progress steps
                if decrease >= ARMIJO * tau * slope and decrease > 0:
                    accepted = True
                    break
            tau *= 0.5
        if not accepted:
            trace.stop_reason = "step_rejected_at_stationarity"
            break
        del d

        g_new, Kg_new, res = stationarity(cand, e_new, c_new, q_new)
        s_step = cand - U
        y = g_new - g
        sy = np.vdot(s_step, y)
        if sy > 0:
            Ky = Kg_new - Kg  # K^-1 y, by linearity
            gamma = sy / np.vdot(y, Ky)
            pairs.append((s_step, y, Ky, 1.0 / sy))
        U, c, energy, quotient, g, Kg = cand, c_new, e_new, q_new, g_new, Kg_new
        history.append((energy, c, quotient, tau, res))

    trace.converged = trace.stop_reason != "max_iter"
    trace.energies, trace.constraints, trace.quotients, trace.step_sizes, trace.residuals = map(list, zip(*history))
    trace.final_u = GridFunction(grid, U)
    deviation = np.max(np.abs(double_star(trace.final_u).values - U)) / max(U.max(), 1e-300)
    trace.symmetry_deviation = float(deviation)
    return trace


def symmetrize_and_compare(u: GridFunction, params: Params) -> dict:
    """Apply the double symmetrization and report quotients before and after.

    Both functions are renormalized to constraint value 1; the quotient is
    scale-invariant so the comparison is unaffected.  On equal-measure grids
    the passes are exact sorts and the quotient does not rise.  On grids
    with unequal cell measures the start-sampled passes are not
    measure-preserving and can raise it by far more than rounding: on two
    geometric n = 128 radii with an origin cell of 1/128, a three-bump input
    goes from 6.635 to 9.060.
    """
    c_before = hs_constraint(u, params)
    if c_before <= 0:
        raise DegenerateInputError("zero constraint integral")
    before = hs_quotient(u, params)
    u_sym = double_star(u)
    c_after = hs_constraint(u_sym, params)
    after = hs_quotient(u_sym, params)
    return {
        "quotient_before": before.value,
        "quotient_after": after.value,
        "energy_before": before.numerator,
        "energy_after": after.numerator,
        "constraint_before": c_before,
        "constraint_after": c_after,
    }


def hardy_endpoint_sweep(
    params: Params,
    ladder: Optional[Sequence] = None,
    *,
    n_s: int = 4096,
    n_t: int = 512,
    log_r_max: float = 100.0,
) -> list:
    """Quotient ladder at the Hardy endpoint beta = p (so q = p).

    Along the product family (truncated plateau family in y, spreading bump
    in z) the quotient decreases monotonically toward ((k - p)/p)^p.  The
    plateau family needs exponentially many e-folds in eps, so the y-grid is
    geometric, with an origin cell of width 1e-3, out to r_max =
    exp(log_r_max), and the spreading scales are proportional to r_max.  The
    z-profile is product_family's bump.  A ConfigurationError names
    n_s or n_t below 2, an n_t too coarse to sample the narrowest bump, a
    log_r_max <= 0 (the plateau family needs r_max > 1), and a log_r_max or
    a ladder whose grid volume, of order
    r_max^k (1.05 lambda_max)^m, overflows float64.

    At p = 2 each rung comes from 1-D factors on the two radii
    (_product_integrals), so the sweep forms no (n_s, n_t) array.  At p != 2
    the energy does not separate: each rung is hs_quotient of product_family,
    released before the next rung is built.
    """
    if params.beta is None or abs(params.beta - params.p) > 1e-12:
        raise DomainError("endpoint sweep requires beta = p (so q = p)")
    if params.p >= params.k:
        raise DomainError("p < k required: the endpoint constant degenerates otherwise")
    k, m, p = params.k, params.m, params.p
    if m < 1:
        raise DomainError("endpoint sweep needs m = N - k >= 1")
    for key, n in (("n_s", n_s), ("n_t", n_t)):
        if n < 2:
            raise ConfigurationError(f"{key} must be >= 2 (the quotient's energy needs 2 cells per radius), got {n}")
    if not log_r_max > 0:
        raise ConfigurationError(f"log_r_max must be > 0 (the plateau family needs r_max > 1), got {log_r_max}")
    # the measure sums reach the volume of the R x 1.05 lambda_max cylinder,
    # sigma_k/k R^k sigma_m/m (1.05 lambda_max)^m; the default ladder has lambda_max = R
    log_sigma = math.log(sphere_area(k) / k * sphere_area(m) / m * 1.05**m)
    log_r_limit = (LOG_FLOAT_MAX - log_sigma) / params.N
    if not log_r_max < log_r_limit:
        raise ConfigurationError(
            f"log_r_max must be < {log_r_limit:.6g} for N = {params.N} (the grid's volume overflows), got {log_r_max}"
        )
    R = math.exp(log_r_max)
    target = ((k - p) / p) ** p

    if ladder is None:
        ladder = [
            (0.1, R / 16.0),
            (0.03, R / 8.0),
            (0.01, R / 4.0),
            (0.003, R / 2.0),
            (0.001, R),
        ]
    if len(ladder) == 0:
        raise ConfigurationError("ladder must be non-empty")
    if min(min(pair) for pair in ladder) <= 0:
        raise ConfigurationError(f"ladder (eps, lambda) pairs must be positive, got {ladder}")
    lam_max = max(lam for _, lam in ladder)
    log_lam_limit = (LOG_FLOAT_MAX - log_sigma - k * log_r_max) / m
    if not math.log(lam_max) < log_lam_limit:
        raise ConfigurationError(
            f"ladder lambdas must have log(lambda) < {log_lam_limit:.6g} for N = {params.N} and "
            f"log_r_max = {log_r_max} (the grid's volume overflows), got lambda = {lam_max:g}"
        )
    s_grid = make_radial_grid(k, R, n_s, "geometric", first_width=1e-3)
    t_grid = make_radial_grid(m, 1.05 * lam_max, n_t, "uniform")
    grid = CylGrid(s_grid, t_grid)

    lam_min = min(lam for _, lam in ladder)
    if t_grid.nodes[0] >= lam_min:
        raise ConfigurationError(
            f"n_t = {n_t} is too small: the first t-cell centre {t_grid.nodes[0]:.4g} lies outside "
            f"the bump's support at lambda = {lam_min:.4g}"
        )

    rows = []
    for eps, lam in ladder:
        v = eps_family_truncated(eps, p, -p, s_grid)
        if p == 2.0:
            numerator, constraint = _product_integrals(v, lam, grid, p, params.q, -params.beta)
            denominator = constraint ** (p / params.q)
            quotient = numerator / denominator
        else:
            rep = hs_quotient(product_family(v, lam, grid), params)
            numerator, denominator, quotient = rep.numerator, rep.denominator, rep.value
        rows.append(
            {
                "eps": eps,
                "lambda": lam,
                "numerator": numerator,
                "denominator": denominator,
                "quotient": quotient,
                "target": target,
                "rel_gap": (quotient - target) / target,
            }
        )
    return rows
