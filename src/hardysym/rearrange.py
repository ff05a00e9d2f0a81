"""Double Schwarz symmetrization on weighted grids.

Rearrangement keeps cell geometry fixed and reassigns values.  On
equal-measure grids each pass is an exact descending sort; on weighted grids
the sorted layer-cake profile is sampled at each cell's cumulative-measure
start, which preserves superlevel-set measures up to single-cell granularity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, UsageError
from .functionals import weighted_dirichlet
from .grid import GridFunction, as_2d, integrate

__all__ = [
    "LayerProfile",
    "layer_profile",
    "decreasing_rearrangement_1d",
    "granularity_mismatch",
    "schwarz_y",
    "schwarz_z",
    "double_star",
    "is_double_star_fixed",
    "hardy_littlewood_check",
    "PolyaSzegoReport",
    "polya_szego_check",
    "monotone_weight_constraint",
]


@dataclass(frozen=True)
class LayerProfile:
    """Superlevel-set structure: mu({u > level}) per decreasing level."""

    thresholds: np.ndarray
    superlevel_measures: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.thresholds) > 0):
            raise UsageError("thresholds must be nonincreasing")
        if np.any(np.diff(self.superlevel_measures) < 0):
            raise UsageError("superlevel measures must be nondecreasing as level decreases")


def layer_profile(values, measures) -> LayerProfile:
    """Layer-cake profile of a cellwise function with cell measures."""
    values = np.asarray(values, dtype=float).ravel()
    measures = np.asarray(measures, dtype=float).ravel()
    levels = np.unique(values)[::-1]
    sup = np.array([measures[values > lvl].sum() for lvl in levels])
    return LayerProfile(levels, sup)


def _validate_1d(values: np.ndarray, measures: np.ndarray) -> None:
    if values.shape != measures.shape:
        raise UsageError("values and measures must have matching length")
    if np.any(values < 0):
        raise DomainError("rearrangement requires nonnegative values")
    if np.any(measures <= 0):
        raise ConfigurationError("zero or negative cell measures")


def _equal_measures(measures: np.ndarray) -> bool:
    return bool(np.all(np.abs(measures - measures[0]) <= 1e-9 * measures[0]))


def decreasing_rearrangement_1d(values, measures) -> np.ndarray:
    """Weighted decreasing rearrangement of cell values along one radius.

    Cells are assumed ordered by increasing radius.  Returns the nonincreasing
    cell assignment whose superlevel sets occupy initial segments of matching
    cumulative measure, up to single-cell granularity; on equal-measure cells
    this is exactly the descending sort.  Ties keep input order.
    """
    values = np.asarray(values, dtype=float)
    measures = np.asarray(measures, dtype=float)
    _validate_1d(values, measures)
    if _equal_measures(measures):
        return np.sort(values)[::-1]
    order = np.argsort(-values, kind="stable")
    sorted_vals = values[order]
    sorted_cum = np.cumsum(measures[order])
    starts = np.concatenate(([0.0], np.cumsum(measures)[:-1]))
    idx = np.searchsorted(sorted_cum, starts, side="right")
    idx = np.minimum(idx, len(sorted_vals) - 1)
    return sorted_vals[idx]


def granularity_mismatch(values, measures, rearranged=None) -> float:
    """Largest superlevel-measure mismatch between input and its rearrangement."""
    values = np.asarray(values, dtype=float)
    measures = np.asarray(measures, dtype=float)
    if rearranged is None:
        rearranged = decreasing_rearrangement_1d(values, measures)
    worst = 0.0
    for lvl in np.unique(values):
        mu_in = measures[values > lvl].sum()
        mu_out = measures[rearranged > lvl].sum()
        worst = max(worst, abs(mu_in - mu_out))
    return worst


def _wrap_like(u: GridFunction, values: np.ndarray) -> GridFunction:
    return GridFunction(u.grid, values.reshape(u.values.shape))


def schwarz_y(u: GridFunction) -> GridFunction:
    """Slice-wise decreasing rearrangement in |y| for each fixed |z|."""
    values, grid = as_2d(u)
    ms = grid.s_grid.cell_measures
    if _equal_measures(ms):
        out = -np.sort(-values, axis=0)
    else:
        out = np.empty_like(values)
        for j in range(values.shape[1]):
            out[:, j] = decreasing_rearrangement_1d(values[:, j], ms)
    return _wrap_like(u, out)


def schwarz_z(u: GridFunction) -> GridFunction:
    """Slice-wise decreasing rearrangement in |z| for each fixed |y|."""
    values, grid = as_2d(u)
    mt = grid.t_measures
    if values.shape[1] == 1:
        return u
    if _equal_measures(mt):
        out = -np.sort(-values, axis=1)
    else:
        out = np.empty_like(values)
        for i in range(values.shape[0]):
            out[i, :] = decreasing_rearrangement_1d(values[i, :], mt)
    return _wrap_like(u, out)


def double_star(u: GridFunction) -> GridFunction:
    """Schwarz rearrangement in y followed by Schwarz rearrangement in z.

    Output is nonincreasing in t along every s-row; the fixed-point class is
    exactly the functions nonincreasing in both coordinates.
    """
    return schwarz_z(schwarz_y(u))


def is_double_star_fixed(u: GridFunction, rtol: float = 1e-12) -> bool:
    fixed = double_star(u)
    scale = float(u.values.max()) if u.values.size else 0.0
    if scale == 0.0:
        return True
    return bool(np.max(np.abs(fixed.values - u.values)) <= rtol * scale)


def hardy_littlewood_check(u: GridFunction, v: GridFunction):
    """Evaluate both sides of int u v <= int u** v for a double-star-fixed weight v.

    Returns (plain, symmetrized).  On equal-measure grids the inequality is
    exact; on weighted grids it holds up to single-cell granularity.
    """
    if u.grid is not v.grid:
        raise UsageError("u and v must live on the same grid")
    if not is_double_star_fixed(v):
        raise UsageError("v must be a double_star fixed point")
    plain = integrate(u.grid, u.values * v.values)
    symmetrized = integrate(u.grid, double_star(u).values * v.values)
    return plain, symmetrized


@dataclass(frozen=True)
class PolyaSzegoReport:
    """Dirichlet p-energies along the two-pass symmetrization chain."""

    energy_plain: float
    energy_star: float
    energy_double_star: float

    @property
    def slack(self) -> float:
        """Measured violation of the chain E(u**) <= E(u*) <= E(u)."""
        return max(
            0.0,
            self.energy_star - self.energy_plain,
            self.energy_double_star - self.energy_star,
        )


def polya_szego_check(u: GridFunction, p: float) -> PolyaSzegoReport:
    """p-energies of u, schwarz_y(u), double_star(u) and the measured violation.

    The continuum chain is an inequality; discretely it holds within a slack
    that shrinks under refinement for smooth inputs.
    """
    e_plain = weighted_dirichlet(u, p, 0.0)
    u_star = schwarz_y(u)
    e_star = weighted_dirichlet(u_star, p, 0.0)
    e_dstar = weighted_dirichlet(schwarz_z(u_star), p, 0.0)
    return PolyaSzegoReport(e_plain, e_star, e_dstar)


def _require_nonincreasing(profile: np.ndarray, name: str) -> None:
    tol = 1e-12 * max(1.0, float(np.max(np.abs(profile))))
    if np.any(np.diff(profile) > tol):
        raise DomainError(f"{name} must be nonincreasing")


def monotone_weight_constraint(u: GridFunction, g, h, q: float):
    """Both sides of int u^q g(|y|) h(|z|) <= int (u**)^q g h for nonincreasing g, h.

    g(s) h(t) is its own double star, so the generalized Hardy-Littlewood
    inequality applies with the same granularity contract.
    """
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    _require_nonincreasing(g, "g")
    _require_nonincreasing(h, "h")
    values, grid = as_2d(u)
    if g.shape != (values.shape[0],) or h.shape != (values.shape[1],):
        raise UsageError("g and h must match the grid's s and t cell counts")
    weight = np.outer(g, h)
    measures = grid.cell_measures
    plain = float(np.sum(values**q * weight * measures))
    symmetrized = float(np.sum(as_2d(double_star(u))[0] ** q * weight * measures))
    return plain, symmetrized
