"""Integral functionals: weighted norms, Dirichlet energies, Rayleigh quotients."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DegenerateInputError, DomainError, ParameterError, UsageError
from .grid import CylGrid, DirichletEnergy, GridFunction, as_2d, sum_over_row_blocks

__all__ = [
    "Params",
    "QuotientReport",
    "weighted_p_norm",
    "weighted_dirichlet",
    "hardy_quotient",
    "hs_constraint",
    "hs_quotient",
]


@dataclass(frozen=True)
class Params:
    """Problem tuple (N, k, p, alpha, beta, q).

    Hardy mode is active when alpha is set (requires alpha + k > 0);
    Hardy-Sobolev mode when beta is set, and then q is always derived from
    (N, p, beta) via condition (H): q = p (N - beta) / (N - p).  q is not a
    constructor argument.
    """

    N: int
    k: int
    p: float
    alpha: Optional[float] = None
    beta: Optional[float] = None
    q: Optional[float] = field(default=None, init=False)

    def __post_init__(self):
        if self.N < 1:
            raise ParameterError("N >= 1 violated")
        if not (1 <= self.k <= self.N):
            raise ParameterError("1 <= k <= N violated")
        if not self.p > 1:
            raise ParameterError("p > 1 violated")
        if self.alpha is None and self.beta is None:
            raise ParameterError("either alpha (Hardy mode) or beta (Hardy-Sobolev mode) required")
        if self.alpha is not None and not (self.alpha + self.k > 0):
            raise ParameterError("alpha + k > 0 violated")
        if self.beta is not None:
            if not self.p < self.N:
                raise ParameterError("p < N violated")
            if not self.beta >= 0:
                raise ParameterError("beta >= 0 violated")
            if not self.beta < self.k:
                raise ParameterError("beta < k violated")
            if not self.beta <= self.p:
                raise ParameterError("beta <= p violated")
            object.__setattr__(self, "q", self.p * (self.N - self.beta) / (self.N - self.p))

    @classmethod
    def hardy(cls, N: int, k: int, p: float, alpha: float) -> "Params":
        return cls(N=N, k=k, p=p, alpha=alpha)

    @classmethod
    def hardy_sobolev(cls, N: int, k: int, p: float, beta: float) -> "Params":
        return cls(N=N, k=k, p=p, beta=beta)

    @property
    def m(self) -> int:
        return self.N - self.k

    def check_grid(self, grid: CylGrid) -> None:
        """Raise UsageError unless grid has this problem's (k, m)."""
        if (grid.k, grid.m) != (self.k, self.m):
            raise UsageError(f"grid (k, m) = ({grid.k}, {grid.m}) does not match params ({self.k}, {self.m})")


@dataclass(frozen=True)
class QuotientReport:
    """Numerator, denominator and value of a Rayleigh-type quotient."""

    numerator: float
    denominator: float
    value: float

    def __post_init__(self):
        if self.denominator <= 0:
            raise DegenerateInputError("quotient denominator must be positive")
        if abs(self.value - self.numerator / self.denominator) > 8 * np.finfo(float).eps * abs(self.value):
            raise UsageError("QuotientReport: value != numerator / denominator")


def weighted_p_norm(u: GridFunction, p: float, a: float) -> float:
    """integral of u^p |y|^a over R^N, reduced to the grid and summed by row
    blocks (sum_over_row_blocks)."""
    if p <= 0:
        raise DomainError("exponent p must be positive")
    values, grid = as_2d(u)
    weight = grid.s_grid.weight_average(a)
    s_measures, t_measures = grid.s_grid.cell_measures, grid.t_measures

    def block_norm(i0, i1):
        measures = np.outer(s_measures[i0:i1], t_measures)
        # the cell weight first, as minimize_hs forms its constraint weight
        return (values[i0:i1] ** p * (weight[i0:i1, None] * measures)).sum()

    return sum_over_row_blocks(values.shape, block_norm)


def weighted_dirichlet(u: GridFunction, p: float, a: float, wall: bool = False) -> float:
    """integral of |grad u|^p |y|^a: the energy of DirichletEnergy.

    The outer end of each radius is natural by default; `wall=True` adds the
    Dirichlet wall edge that joins the last cell to zero at r_max.
    """
    if p <= 0:
        raise DomainError("exponent p must be positive")
    values, grid = as_2d(u)
    s_weight = grid.s_grid.weight_average(a) * grid.s_grid.cell_measures
    return DirichletEnergy(grid, wall, p, s_weight).energy(values)


def hardy_quotient(u: GridFunction, params: Params) -> QuotientReport:
    """Rayleigh quotient int |grad u|^p |y|^(a+p) / int |u|^p |y|^a."""
    if params.alpha is None:
        raise UsageError("hardy_quotient requires Hardy-mode params (alpha set)")
    params.check_grid(as_2d(u)[1])
    num = weighted_dirichlet(u, params.p, params.alpha + params.p)
    den = weighted_p_norm(u, params.p, params.alpha)
    if den <= 0:
        raise DegenerateInputError("hardy_quotient: zero denominator")
    return QuotientReport(num, den, num / den)


def hs_constraint(u: GridFunction, params: Params) -> float:
    """Constraint integral int |u|^q |y|^(-beta) of the minimization problem."""
    if params.beta is None:
        raise UsageError("hs_constraint requires Hardy-Sobolev-mode params (beta set)")
    params.check_grid(as_2d(u)[1])
    return weighted_p_norm(u, params.q, -params.beta)


def hs_quotient(u: GridFunction, params: Params) -> QuotientReport:
    """Scale-invariant quotient int |grad u|^p / (int |u|^q / |y|^beta)^(p/q)."""
    c = hs_constraint(u, params)
    if c <= 0:
        raise DegenerateInputError("hs_quotient: zero constraint integral")
    num = weighted_dirichlet(u, params.p, 0.0)
    den = c ** (params.p / params.q)
    return QuotientReport(num, den, num / den)
