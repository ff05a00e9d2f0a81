"""Constrained minimization of the Hardy-Sobolev quotient by projected
gradient descent on cylindrical grid functions, plus the symmetrize-and-compare
experiment and the beta = p endpoint sweep."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import ConfigurationError, DegenerateInputError, DomainError, UsageError
from .functionals import Params, hs_constraint, hs_quotient
from .grid import CylGrid, GridFunction, StaggeredGradient, make_radial_grid
from .rearrange import double_star
from .sharp_constant import eps_family_truncated, product_family

__all__ = [
    "DescentOptions",
    "MinimizationTrace",
    "default_init",
    "minimize_hs",
    "symmetrize_and_compare",
    "hardy_endpoint_sweep",
]


DELTA_SCALE = 1e-8  # p-Laplacian regularization for p != 2, relative to grid diameter


@dataclass(frozen=True)
class DescentOptions:
    max_iter: int = 2000
    tol: float = 1e-10
    tau0: float = 1.0
    max_halvings: int = 40
    seed: int = 0


@dataclass
class MinimizationTrace:
    """Iteration history of the constrained descent.

    symmetry_deviation is max |u** - u| / max u for the final iterate u,
    with u** its double symmetrization.
    """

    energies: list = field(default_factory=list)
    constraints: list = field(default_factory=list)
    quotients: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    symmetry_deviation: float = 0.0
    final_u: Optional[GridFunction] = None
    converged: bool = False
    stop_reason: str = ""
    delta_reg: float = 0.0
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": 2,
            "energies": self.energies,
            "constraints": self.constraints,
            "quotients": self.quotients,
            "step_sizes": self.step_sizes,
            "symmetry_deviation": self.symmetry_deviation,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "delta_reg": self.delta_reg,
            "meta": self.meta,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


class _StaggeredEnergy(StaggeredGradient):
    """Discrete Dirichlet p-energy with the Dirichlet wall edge at r_max.

    The squared edge gradients of StaggeredGradient are averaged onto cells
    before taking the p/2 power; the gradient is its exact adjoint.
    delta regularizes |grad u|^(p-2) at zero gradient for p != 2.
    """

    def __init__(self, grid: CylGrid, p: float, delta: float):
        super().__init__(grid, wall=True)
        self.p = p
        self.delta = delta
        self.W = np.outer(grid.s_grid.cell_measures, grid.t_measures)

    def value(self, U) -> float:
        g2 = self.cell_squares(U)
        return float(np.sum((g2 + self.delta**2) ** (self.p / 2.0) * self.W))

    def value_and_gradient(self, U):
        gs, gt = self.edges(U)
        g2 = self.average(gs**2, None if gt is None else gt**2)
        phi = (g2 + self.delta**2) ** (self.p / 2.0 - 1.0)
        energy = float(np.sum(phi * (g2 + self.delta**2) * self.W))
        psi = 0.5 * self.p * phi * self.W
        ns, nt = U.shape
        # edge coefficients: half the psi of each adjacent cell
        ks = np.zeros_like(gs)
        ks[1:ns] = 0.5 * (psi[:-1] + psi[1:])
        ks[ns] = 0.5 * psi[-1]
        Fs = 2.0 * ks * gs
        Fs[1:] *= self.inv_ds[:, None]
        grad = Fs[:-1] - Fs[1:]
        if gt is not None:
            kt = np.zeros_like(gt)
            kt[:, 1:nt] = 0.5 * (psi[:, :-1] + psi[:, 1:])
            kt[:, nt] = 0.5 * psi[:, -1]
            Ft = 2.0 * kt * gt
            Ft[:, 1:] *= self.inv_dt[None, :]
            grad = grad + Ft[:, :-1] - Ft[:, 1:]
        return energy, grad


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


def _stiffness_1d(n: int, inv_d: np.ndarray, measures: np.ndarray) -> sp.csr_matrix:
    """1D edge-difference stiffness with zero-flux origin and Dirichlet wall."""
    D = sp.diags([-inv_d, np.concatenate(([0.0], inv_d[:-1]))], [-1, 0], shape=(n + 1, n))
    we = np.concatenate((np.zeros(1), 0.5 * (measures[:-1] + measures[1:]), [0.5 * measures[-1]]))
    return (D.T @ sp.diags(we) @ D).tocsr()


def _generalized_eigh(A: sp.csr_matrix, measures: np.ndarray):
    """Eigenpairs of the pencil (A, M), M = diag(measures): V.T A V = diag(lam), V.T M V = I."""
    h = 1.0 / np.sqrt(measures)
    lam, Q = np.linalg.eigh(h[:, None] * A.toarray() * h[None, :])
    return lam, h[:, None] * Q


def _build_preconditioner(grid: CylGrid, energy: _StaggeredEnergy):
    """H1-type preconditioner As⊗Mt + Ms⊗At + Ms⊗Mt: staggered stiffness
    (p = 2 coefficients) plus the diagonal cell-measure mass.

    The mass term alone makes it symmetric positive definite, so the
    preconditioned gradient always points downhill.  Returns a callable that
    solves it for an (ns, nt) array.  A cylinder grid (m >= 1) gets the fast
    diagonalization method (Lynch, Rice & Thomas 1964): each solve is four
    dense matmuls in the generalized eigenbases of the two 1-D pencils.  A
    radial grid (m = 0, where ns can be thousands) gets a sparse LU of the
    tridiagonal matrix.
    """
    ns, nt = grid.shape
    ms = grid.s_grid.cell_measures
    mt = grid.t_measures
    As = _stiffness_1d(ns, energy.inv_ds, ms)
    if energy.inv_dt is None:
        lu = splu((sp.kron(As, sp.diags(mt)) + sp.diags(np.outer(ms, mt).ravel())).tocsc())
        return lambda R: lu.solve(R.ravel()).reshape(R.shape)
    lam_s, Vs = _generalized_eigh(As, ms)
    lam_t, Vt = _generalized_eigh(_stiffness_1d(nt, energy.inv_dt, mt), mt)
    denom = lam_s[:, None] + lam_t[None, :] + 1.0
    return lambda R: Vs @ ((Vs.T @ R @ Vt) / denom) @ Vt.T


def minimize_hs(
    params: Params,
    grid: CylGrid,
    init: Union[GridFunction, str] = "bump",
    opts: DescentOptions = DescentOptions(),
) -> MinimizationTrace:
    """Projected descent for S = inf { int |grad u|^p : int |u|^q / |y|^beta = 1 }.

    The Dirichlet energy is discretized on staggered edges (see
    _StaggeredEnergy), with the zero boundary at r_max built into the wall
    edges.  Each step moves against the constrained energy gradient,
    preconditioned by an H1 solve, re-imposes nonnegativity, and rescales
    back onto the constraint set.  A step is accepted only if the quotient
    does not increase; backtracking halves the step size.  Convergence is
    declared on relative quotient stagnation.
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
    # constraint factors, summed in hs_constraint's order so the sums match it
    w = grid.s_grid.weight_average(-beta)
    s_weight = w[:, None]
    cell_measures = grid.cell_measures
    Wbeta = np.outer(w * grid.s_grid.cell_measures, grid.t_measures)

    diam = math.hypot(grid.s_grid.r_max, grid.t_grid.r_max if grid.t_grid else 0.0)
    delta = DELTA_SCALE * diam if p != 2.0 else 0.0
    energy_fn = _StaggeredEnergy(grid, p, delta)
    solve = _build_preconditioner(grid, energy_fn)
    trace = MinimizationTrace(delta_reg=delta, meta={"grid": grid.descriptor(), "seed": opts.seed})

    def constraint(V):
        return float(np.sum(V**q * s_weight * cell_measures))

    def evaluate(V):
        """Rescale V to constraint value 1 (exact by q-homogeneity); return it
        with its constraint, energy and quotient."""
        c = constraint(V)
        if not np.isfinite(c):
            raise DomainError("constraint integral is not finite")
        if c <= 0:
            raise DegenerateInputError("cannot project: constraint integral is zero")
        V = V * c ** (-1.0 / q)
        c = constraint(V)
        e = energy_fn.value(V)
        return V, c, e, e / c ** (p / q)

    U, c, energy, quotient = evaluate(np.clip(u0.values, 0.0, None))
    history = [(energy, c, quotient, 0.0)]
    tau = opts.tau0
    for _ in range(opts.max_iter):
        energy, grad_e = energy_fn.value_and_gradient(U)
        theta = p * energy / (q * c)
        grad_c = q * U ** (q - 1.0) * Wbeta
        search = solve(grad_e - theta * grad_c)
        dir_scale = np.max(np.abs(search))
        if dir_scale == 0.0 or not np.isfinite(dir_scale):
            trace.converged, trace.stop_reason = True, "zero_gradient"
            break

        tau = min(2.0 * tau, 1e6)
        for _ in range(opts.max_halvings + 1):
            cand = np.clip(U - tau * search, 0.0, None)
            if np.any(cand > 0):
                V, c_new, e_new, q_new = evaluate(cand)
                if q_new <= quotient:
                    break
            tau *= 0.5
        else:
            # cannot decrease along this search vector: stationary up to line-search floor
            trace.converged, trace.stop_reason = True, "step_rejected_at_stationarity"
            break

        rel_change = abs(quotient - q_new) / max(quotient, 1e-300)
        U, c, energy, quotient = V, c_new, e_new, q_new
        history.append((energy, c, quotient, tau))
        if rel_change < opts.tol:
            trace.converged, trace.stop_reason = True, "quotient_stagnation"
            break
    else:
        trace.stop_reason = "max_iter"
        # monotone trace throughout; flag convergence if the tail is flat
        if len(history) >= 2:
            tail = abs(history[-2][2] - history[-1][2]) / history[-1][2]
            trace.converged = tail < math.sqrt(opts.tol)

    trace.energies, trace.constraints, trace.quotients, trace.step_sizes = map(list, zip(*history))
    trace.final_u = GridFunction(grid, U)
    deviation = np.max(np.abs(double_star(trace.final_u).values - U)) / max(U.max(), 1e-300)
    trace.symmetry_deviation = float(deviation)
    return trace


def symmetrize_and_compare(u: GridFunction, params: Params) -> dict:
    """Apply the double symmetrization and report quotients before and after.

    Both functions are renormalized to constraint value 1; the quotient is
    scale-invariant so the comparison is unaffected.  After-symmetrization
    quotients never exceed the original beyond a refinement-shrinking slack.
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
    first_width: float = 1e-3,
    n_w: int = 1024,
) -> list:
    """Quotient ladder at the Hardy endpoint beta = p (so q = p).

    Along the product family (truncated plateau family in y, spreading bump
    in z) the quotient decreases monotonically toward ((k - p)/p)^p.  The
    plateau family needs exponentially many e-folds in eps, so the y-grid is
    geometric out to r_max = exp(log_r_max) and the spreading scales are
    proportional to r_max.
    """
    if params.beta is None or abs(params.beta - params.p) > 1e-12:
        raise DomainError("endpoint sweep requires beta = p (so q = p)")
    if params.p >= params.k:
        raise DomainError("p < k required: the endpoint constant degenerates otherwise")
    k, m, p = params.k, params.m, params.p
    if m < 1:
        raise DomainError("endpoint sweep needs m = N - k >= 1")
    R = math.exp(log_r_max)
    target = ((k - p) / p) ** p

    s_grid = make_radial_grid(k, R, n_s, "geometric", first_width=first_width)
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
    lam_max = max(lam for _, lam in ladder)
    t_grid = make_radial_grid(m, 1.05 * lam_max, n_t, "uniform")
    grid = CylGrid(s_grid, t_grid)

    w_grid = make_radial_grid(m, 1.0, n_w, "uniform")
    x = w_grid.nodes
    w = GridFunction(w_grid, (1.0 - np.minimum(x * x, 1.0)) ** 2)

    rows = []
    for eps, lam in ladder:
        v = eps_family_truncated(eps, p, -p, s_grid)
        u = product_family(v, w, lam, grid)
        rep = hs_quotient(u, params)
        rows.append(
            {
                "eps": eps,
                "lambda": lam,
                "numerator": rep.numerator,
                "denominator": rep.denominator,
                "quotient": rep.value,
                "target": target,
                "rel_gap": (rep.value - target) / target,
            }
        )
    return rows
