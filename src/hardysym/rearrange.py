"""Double Schwarz symmetrization on weighted grids.

Rearrangement keeps cell geometry fixed and reassigns values.  One routine,
`_rearrange`, rearranges every slice of a 2-D array at once: on equal-measure
cells each slice is an exact descending sort; on weighted cells the sorted
layer-cake profile is sampled at each cell's cumulative-measure start, which
preserves superlevel-set measures up to single-cell granularity.  The Schwarz
passes in |y| and in |z| are that routine along each axis.  On a grid with
no t-axis (k = N) the |z| pass is the identity and returns its input, so
`double_star` there is the |y| pass alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, UsageError
from .functionals import weighted_dirichlet
from .grid import GridFunction, as_2d, integrate

__all__ = [
    "decreasing_rearrangement_1d",
    "schwarz_y",
    "schwarz_z",
    "double_star",
    "is_double_star_fixed",
    "hardy_littlewood_check",
    "PolyaSzegoReport",
    "polya_szego_check",
]


def _rearrange(values: np.ndarray, measures: np.ndarray) -> np.ndarray:
    """Weighted decreasing rearrangement of every column of `values` along axis 0.

    `measures` are the cell measures along axis 0, cells ordered by
    increasing radius.  Each column becomes the nonincreasing assignment
    whose superlevel sets occupy initial segments of matching cumulative
    measure, up to single-cell granularity; on equal measures this is
    exactly the descending sort.  Ties keep input order.
    """
    if values.ndim != 2 or measures.shape != values.shape[:1]:
        raise UsageError("values and measures must have matching length")
    if not (values >= 0).all():
        raise DomainError("rearrangement requires nonnegative values")
    if (measures <= 0).any():
        raise ConfigurationError("zero or negative cell measures")
    if (np.abs(measures - measures[0]) <= 1e-9 * measures[0]).all():
        return -np.sort(-values, axis=0)
    order = np.argsort(-values, axis=0, kind="stable")
    sorted_vals = np.take_along_axis(values, order, axis=0)
    sorted_cum = np.cumsum(measures[order], axis=0)
    starts = np.concatenate(([0.0], np.cumsum(measures)[:-1]))
    idx = np.column_stack([np.searchsorted(cum, starts, side="right") for cum in sorted_cum.T])
    return np.take_along_axis(sorted_vals, np.minimum(idx, len(measures) - 1), axis=0)


def decreasing_rearrangement_1d(values, measures) -> np.ndarray:
    """Weighted decreasing rearrangement of cell values along one radius,
    cells ordered by increasing radius (see `_rearrange`)."""
    values = np.asarray(values, dtype=float)
    measures = np.asarray(measures, dtype=float)
    return _rearrange(values[..., None], measures)[:, 0]


def schwarz_y(u: GridFunction) -> GridFunction:
    """Slice-wise decreasing rearrangement in |y| for each fixed |z|."""
    values, grid = as_2d(u)
    out = _rearrange(values, grid.s_grid.cell_measures)
    return GridFunction(u.grid, out.reshape(u.values.shape))


def schwarz_z(u: GridFunction) -> GridFunction:
    """Slice-wise decreasing rearrangement in |z| for each fixed |y|.

    On a grid with no t-axis (k = N) it returns u itself: `as_2d` views that
    grid as one t-cell of measure 1, where a rearrangement is the identity.
    """
    values, grid = as_2d(u)
    if grid.t_grid is None:
        return u
    out = _rearrange(values.T, grid.t_measures).T
    return GridFunction(u.grid, out.reshape(u.values.shape))


def double_star(u: GridFunction) -> GridFunction:
    """Schwarz rearrangement in y followed by Schwarz rearrangement in z.

    Output is nonincreasing in t along every s-row; the fixed-point class is
    exactly the functions nonincreasing in both coordinates.
    """
    return schwarz_z(schwarz_y(u))


def is_double_star_fixed(u: GridFunction) -> bool:
    """Whether double_star moves u by at most 1e-12 of its maximum."""
    fixed = double_star(u)
    scale = float(u.values.max()) if u.values.size else 0.0
    if scale == 0.0:
        return True
    return bool(np.max(np.abs(fixed.values - u.values)) <= 1e-12 * scale)


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
