"""Sharp-constant constructions: the optimal Hardy constant, the plateau /
power-decay test family realizing it, the product family for cylindrical
weights, the two-parameter convexity bound, and the product-domain splitting
demo."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DomainError
from .functionals import Params, hardy_quotient, weighted_dirichlet, weighted_p_norm
from .grid import CylGrid, GridFunction, RadialGrid, make_radial_grid, sphere_area

__all__ = [
    "hardy_constant",
    "eps_family",
    "eps_family_truncated",
    "eps_quotient_closed_form",
    "tail_correction",
    "eps_sweep",
    "convexity_bound",
    "product_family",
    "split_infimum_demo",
    "dirichlet_eigenvalue_interval",
]


def hardy_constant(p: float, alpha: float, k: int) -> float:
    """Optimal constant p^p / (alpha + k)^p of the generalized Hardy inequality.

    The infimum of the corresponding Rayleigh quotient is its reciprocal,
    ((alpha + k) / p)^p.  Needs k >= 1, checked here, and then Params.hardy's
    clauses at N = k: a finite p > 1, a finite alpha and alpha + k > 0, each
    refused with a ParameterError (a DomainError); a NaN fails the clause it
    is checked against.  The constant is p**p / (alpha + k)**p wherever that
    is a finite float, and (p / (alpha + k))**p where it is not; a constant
    that is not a positive finite float is refused.
    """
    if not k >= 1:
        raise DomainError("k >= 1 violated")
    Params.hardy(N=k, k=k, p=p, alpha=alpha)
    try:
        constant = p**p / (alpha + k) ** p
    except (OverflowError, ZeroDivisionError):
        constant = math.inf  # a power out of float range
    if constant < math.inf:
        return constant
    try:
        constant = (p / (alpha + k)) ** p
    except OverflowError:
        raise DomainError("p^p / (alpha + k)^p <= float max violated: the constant overflows") from None
    if constant == 0.0:
        raise DomainError("p^p / (alpha + k)^p > 0 violated: the constant underflows to 0")
    return constant


def _decay_exponent(p: float, alpha: float, d: int, eps: float) -> float:
    return (alpha + d) / p + eps


def eps_family(eps: float, params: Params, grid: RadialGrid) -> GridFunction:
    """Plateau / power-decay test function: 1 on r <= 1, r^(-(alpha+N)/p - eps) outside.

    Radial case k = N.  The true function has unbounded support, so grid
    quadrature should be paired with `tail_correction`.
    """
    if eps <= 0:
        raise DomainError("eps > 0 required (decay otherwise non-integrable)")
    if not math.isfinite(eps):
        raise DomainError("eps finite required")
    if params.k != params.N:
        raise DomainError("eps_family is the radial (k = N) construction")
    if grid.r_max < 1.0:
        raise ConfigurationError("grid must contain the unit plateau (r_max >= 1)")
    g = _decay_exponent(params.p, params.alpha, params.N, eps)
    # 1^(-g) is exactly 1, and no power of an r < 1 is formed to overflow
    values = np.maximum(grid.nodes, 1.0) ** (-g)
    return GridFunction(grid, values)


def eps_family_truncated(eps: float, p: float, grid: RadialGrid) -> GridFunction:
    """Compactly supported variant at the Hardy endpoint: eps_family at
    alpha = -p on R^dim, shifted down by its value r_max^(-g) at r_max and
    clipped at 0.  Params.hardy's "alpha + k > 0" refuses a p >= dim.

    Keeps the gradient of the decay piece unchanged while making the function
    admissible on the truncated domain.
    """
    if grid.r_max <= 1.0:
        raise ConfigurationError("r_max > 1 required")
    u = eps_family(eps, Params.hardy(N=grid.dim, k=grid.dim, p=p, alpha=-p), grid)
    g = _decay_exponent(p, -p, grid.dim, eps)
    return GridFunction(grid, np.clip(u.values - grid.r_max ** (-g), 0.0, None))


def eps_quotient_closed_form(eps: float, p: float, alpha: float, N: int) -> float:
    """Exact Rayleigh quotient Q(eps) of the plateau / power-decay family.

    Q(eps) = ((alpha+N)/p + eps)^p * (alpha+N) / (alpha+N + p*eps), obtained by
    exact radial integration of the two pieces; Q decreases to ((alpha+N)/p)^p
    as eps -> 0 and is strictly increasing in eps.  Params.hardy checks (N,
    p, alpha) at k = N, and a Q(eps) out of the float range is refused.
    """
    Params.hardy(N=N, k=N, p=p, alpha=alpha)
    if eps <= 0:
        raise DomainError("eps > 0 required")
    if not math.isfinite(eps):
        raise DomainError("eps finite required")
    g = (alpha + N) / p + eps
    try:
        value = g**p * (alpha + N) / (alpha + N + p * eps)
    except OverflowError:
        value = math.inf  # g**p past the float range
    if not 0.0 < value < math.inf:
        raise DomainError(f"0 < Q(eps) <= float max violated: Q({eps:g}) at p = {p:g}, alpha = {alpha:g} is {value:g}")
    return value


def tail_correction(amplitude: float, exponent: float, grid: RadialGrid, p: float, a: float) -> float:
    """Closed-form integral of |amplitude r^exponent|^p r^a over
    (r_max, infinity) in R^dim, the power tail beyond the grid.

    Added by callers to grid quadrature of functionals of power-decay
    families.  Raises if the remainder integral diverges, or if it is not a
    finite float (|amplitude|^p past the float range).
    """
    if amplitude == 0.0:
        return 0.0
    e = p * exponent + a + grid.dim
    if e >= 0:
        raise DomainError(
            f"tail integral diverges (combined exponent {e} >= 0); need faster decay"
        )
    try:
        value = sphere_area(grid.dim) * abs(amplitude) ** p * grid.r_max**e / (-e)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(
            f"tail integral <= float max violated: the integral of |{amplitude:g} r^{exponent:g}|^{p:g} "
            f"r^{a:g} past r = {grid.r_max:g} overflows"
        )
    return value


def eps_sweep(
    params: Params,
    eps_values: Sequence[float] = (1.0, 0.5, 0.1, 0.05, 0.01, 1e-3),
) -> list:
    """Evaluate the Hardy quotient of the plateau family across an eps ladder.

    Returns one row per eps with hardy_quotient's numerator and denominator
    on a split grid of 4096 cells out to r = 1000, analytic tail corrections
    beyond it, and the closed-form value for comparison.
    """
    if len(eps_values) == 0:
        raise ConfigurationError("eps ladder must be non-empty")
    grid = make_radial_grid(params.N, 1e3, 4096, "split", r_break=1.0)
    p, alpha = params.p, params.alpha
    rows = []
    for eps in sorted(eps_values, reverse=True):
        u = eps_family(eps, params, grid)
        g = _decay_exponent(p, alpha, params.N, eps)
        rep = hardy_quotient(u, params)
        num, den = rep.numerator, rep.denominator
        tail_num = tail_correction(g, -g - 1.0, grid, p, alpha + p)
        tail_den = tail_correction(1.0, -g, grid, p, alpha)
        quotient = (num + tail_num) / (den + tail_den)
        closed = eps_quotient_closed_form(eps, p, alpha, params.N)
        rows.append(
            {
                "eps": eps,
                "numerator": num + tail_num,
                "denominator": den + tail_den,
                "quotient": quotient,
                "closed_form": closed,
                "rel_err": abs(quotient - closed) / closed,
                "tail_correction_num": tail_num,
                "tail_correction_den": tail_den,
            }
        )
    return rows


def convexity_bound(s, t, lam, p):
    """Two-sided evaluation of (s^2+t^2)^(p/2) <= (1-lam)^(1-p) s^p + lam^(1-p) t^p,
    elementwise over scalars or arrays that broadcast together.

    Returns (lhs, rhs).  Each clause below is refused by name; a NaN fails
    the first clause it is checked against.
    """
    if not np.all((0.0 < lam) & (lam < 1.0)):
        raise DomainError("lambda in (0, 1) violated")
    if not np.all(p > 1):
        raise DomainError("p > 1 violated")
    if not np.all(p < np.inf):
        raise DomainError("p finite violated")
    if not (np.all(s >= 0) and np.all(t >= 0)):
        raise DomainError("s, t >= 0 violated")
    if not (np.all(s < np.inf) and np.all(t < np.inf)):
        raise DomainError("s, t finite violated")
    lhs = np.hypot(s, t) ** p  # s * s underflows to a subnormal below s ~ 1e-154
    rhs = (1.0 - lam) ** (1.0 - p) * s**p + lam ** (1.0 - p) * t**p
    return lhs, rhs


def _bump(v: GridFunction, lambda_scale: float, grid: CylGrid) -> np.ndarray:
    """The t-factor w(|z| / lambda_scale) of the product family at the
    cylinder's t-nodes, with w(x) = (1 - min(x, 1)^2)^2 the bump supported on
    [0, 1], once v and lambda_scale are checked against the cylinder."""
    if lambda_scale <= 0:
        raise DomainError("lambda_scale must be positive")
    if grid.m < 1:
        raise DomainError("product family needs m = N - k >= 1")
    if v.grid is not grid.s_grid:
        differs = [
            name
            for name in ("dim", "edges", "nodes", "cell_measures")
            if not np.array_equal(getattr(v.grid, name, None), getattr(grid.s_grid, name))
        ]
        if differs:
            raise ConfigurationError(f"v must live on the cylinder's s-grid; its {', '.join(differs)} differ")
    if lambda_scale > grid.t_grid.r_max:
        raise ConfigurationError(
            f"scaled support {lambda_scale:g} exceeds t-grid r_max {grid.t_grid.r_max:g}"
        )
    return (1.0 - np.minimum(grid.t_nodes / lambda_scale, 1.0) ** 2) ** 2


def product_family(v: GridFunction, lambda_scale: float, grid: CylGrid) -> GridFunction:
    """Cylindrical sampling of u(y, z) = v(|y|) * w(|z| / lambda_scale), with
    w(x) = (1 - min(x, 1)^2)^2 the bump supported on [0, 1].

    Spreading w (lambda_scale -> infinity) makes the z-contribution to the
    Dirichlet energy vanish relative to its mass, which is how the cylindrical
    sharp constant is approached from above.  hardy_endpoint_sweep builds it
    only at p != 2; at p = 2 its quotients, and all of split_infimum_demo's,
    come from 1-D factors (_product_integrals).
    """
    return GridFunction(grid, np.outer(v.values, _bump(v, lambda_scale, grid)))


def _product_integrals(v: GridFunction, lambda_scale: float, grid: CylGrid, a: float) -> tuple:
    """(weighted_dirichlet(u, 2), weighted_p_norm(u, 2, a)) of
    u = product_family(v, lambda_scale, grid), equal up to rounding, with no
    (n_s, n_t) array: the norm is the product of the 1-D norms of v and w,
    and the p = 2 energy splits exactly, E(v w) = E_s(v) M_t(w) +
    M_s(v) E_t(w), into 1-D energies E and squared norms M on the two radii.
    """
    w = GridFunction(grid.t_grid, _bump(v, lambda_scale, grid))
    v = GridFunction(grid.s_grid, v.values)  # the cylinder's own s-radius
    m_v, m_w = weighted_p_norm(v, 2.0, 0.0), weighted_p_norm(w, 2.0, 0.0)
    energy = weighted_dirichlet(v, 2.0) * m_w + m_v * weighted_dirichlet(w, 2.0)
    return energy, weighted_p_norm(v, 2.0, a) * m_w


def dirichlet_eigenvalue_interval(width: float, n: int = 8192) -> float:
    """First eigenvalue of the 1D second-difference Dirichlet Laplacian on n
    intervals of (0, width), in closed form: (2n / width)^2 sin^2(pi / 2n),
    which must be a finite positive float."""
    if n < 2:
        raise ConfigurationError(f"need n >= 2 intervals (one interior node), got {n}")
    try:  # a width <= 0 or nan gives 0; an eigenvalue past the float range, 0 or inf
        value = (2.0 * n / width) ** 2 * math.sin(math.pi / (2.0 * n)) ** 2 if width > 0 else 0.0
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ConfigurationError(f"width must be positive with a finite positive eigenvalue at n = {n}, got {width!r}")
    return value


def split_infimum_demo(
    omega_width: float = 1.0,
    lambda_scales: Sequence[float] = (1.0, 4.0, 16.0, 64.0),
) -> dict:
    """Product-domain splitting: the p = 2 quotient of v(x1) * w(x2 / lambda)
    on Omega x R approaches the Omega-only infimum as lambda grows.

    Omega = (0, omega_width) is folded about its midpoint onto a d = 1 radial
    grid of 256 cells on [0, omega_width / 2], so the cells have the spacing
    of the 512-interval oracle `dirichlet_eigenvalue_interval`.  The ladder
    is relative to Omega, lambda = lambda_scale * omega_width, and the
    x2-grid has 2048 cells out to 1.05 max(lambda), so the demo scales with
    omega_width and each rung's gap to the oracle does not depend on it.
    v(r) = cos(pi r / omega_width) is the first Dirichlet eigenfunction and w
    product_family's bump.  Each rung comes from 1-D factors
    (_product_integrals), with the wall at both outer ends.  Returns
    per-lambda quotients plus the discrete Omega-only infimum.
    """
    if len(lambda_scales) == 0:
        raise ConfigurationError("lambda ladder must be non-empty")
    if min(lambda_scales) <= 0:
        raise ConfigurationError(f"lambda_scales must be positive, got {lambda_scales}")
    # the first x2-cell centre, 1.05 max(lambda) / 4096, must lie inside the narrowest bump
    if not max(lambda_scales) < 3900.0 * min(lambda_scales):
        raise ConfigurationError(f"lambda_scales must span a ratio below 3900, got {lambda_scales}")
    try:
        omega_infimum = dirichlet_eigenvalue_interval(omega_width, 512)
    except ConfigurationError as exc:  # its message starts with "width"
        raise ConfigurationError(f"omega_{exc}") from None
    lambdas = sorted(scale * omega_width for scale in lambda_scales)
    if not 1.05 * lambdas[-1] < math.inf:
        raise ConfigurationError(f"lambda_scales times omega_width must stay in the float range, got {lambdas[-1]:g}")
    grid = CylGrid(
        make_radial_grid(1, omega_width / 2.0, 256, "uniform"),
        make_radial_grid(1, 1.05 * lambdas[-1], 2048, "uniform"),
    )
    v = GridFunction(grid.s_grid, np.cos(math.pi * grid.s_nodes / omega_width))
    rows = []
    for lam in lambdas:
        num, den = _product_integrals(v, lam, grid, 0.0)
        rows.append(
            {
                "lambda": lam,
                "numerator": num,
                "denominator": den,
                "quotient": num / den,
                "omega_infimum": omega_infimum,
            }
        )
    return {"rows": rows, "omega_infimum": omega_infimum}
