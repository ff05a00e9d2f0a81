"""Weighted radial and cylindrical grids.

Everything downstream reduces N-dimensional integrals with power weights in
|y| to low-dimensional sums over these grids.  Cell measures are computed by
exact integration of r^(d-1) over each cell, so singular-but-integrable
weights near the origin carry no quadrature penalty.  DirichletEnergy is the
one discrete p-Dirichlet energy on them: its energy and exact gradient are
computed from cell values alone, and the edge weights of its p = 2
stiffness state the minimizer's metric.  The module needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ConfigurationError, DomainError, UsageError

__all__ = [
    "sphere_area",
    "RadialGrid",
    "CylGrid",
    "GridFunction",
    "make_radial_grid",
    "radial_grid_from_edges",
    "as_2d",
    "integrate",
    "DirichletEnergy",
    "BLOCK_CELLS",
    "sum_over_row_blocks",
    "grid_function_to_csv",
]

BLOCK_CELLS = 1 << 16  # cells per row block of a blocked sum: 512 KB per float64 temporary


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere in R^d: 2 pi^(d/2) / Gamma(d/2)."""
    if d < 1:
        raise DomainError("sphere_area: dimension d >= 1 required")
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _power_integral(edges: np.ndarray, e: float) -> np.ndarray:
    """Exact per-cell integral of r^e dr, for e > -1."""
    return np.diff(edges ** (e + 1.0)) / (e + 1.0)


@dataclass(frozen=True)
class RadialGrid:
    """1D radial discretization of R^dim reduced to the radius.

    cell_measures[i] = sigma(dim) * integral of r^(dim-1) over cell i, so the
    sum of measures is the volume of the ball of radius r_max.
    """

    dim: int
    edges: np.ndarray
    nodes: np.ndarray
    cell_measures: np.ndarray
    grading: dict = field(default_factory=dict)

    def __post_init__(self):
        for arr in (self.edges, self.nodes, self.cell_measures):
            arr.setflags(write=False)
        if self.dim < 1:
            raise DomainError("RadialGrid: dim >= 1 required")
        if len(self.nodes) < 1:
            raise ConfigurationError("RadialGrid: need at least one cell")
        if not np.all(np.diff(self.edges) > 0):
            raise ConfigurationError("RadialGrid: edges must be strictly increasing")
        if not np.all(np.diff(self.nodes) > 0):
            raise ConfigurationError("RadialGrid: nodes must be strictly increasing")
        if np.any(self.nodes <= self.edges[:-1]) or np.any(self.nodes >= self.edges[1:]):
            raise ConfigurationError("RadialGrid: each node must lie inside its cell")
        if not (np.isfinite(self.cell_measures) & (self.cell_measures > 0)).all():
            raise ConfigurationError("RadialGrid: all cell measures must be positive and finite")

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def r_max(self) -> float:
        return float(self.edges[-1])

    def weight_average(self, a: float, rows: slice = slice(None)) -> np.ndarray:
        """Exact cell average of r^a against the cell's r^(dim-1) measure,
        for the cells `rows` only.  At a = 0 both power integrals are the
        same finite positive numbers, so the averages are exactly 1.

        Requires a + dim > 0 so the weight is integrable in the origin cell,
        and edges^(a + dim) within the float range: a power past it makes an
        inf or nan integral, which is refused by name.
        """
        if a + self.dim <= 0.0:
            raise DomainError(f"weight r^{a} not cell-integrable: a + dim <= 0")
        i0, i1, _ = rows.indices(self.n)
        edges = self.edges[i0 : i1 + 1]
        with np.errstate(over="ignore", invalid="ignore"):
            weighted = _power_integral(edges, a + self.dim - 1)
        if not np.isfinite(weighted).all():
            raise DomainError(
                f"r_max^(a + dim) <= float max violated: the power integral of r^{a + self.dim - 1:g} "
                f"overflows on cells out to r = {edges[-1]:g}"
            )
        return weighted / _power_integral(edges, self.dim - 1)

    @cached_property
    def rearrangement_starts(self) -> Optional[np.ndarray]:
        """The layout of a decreasing rearrangement over the cells, formed on
        first use: None when every cell measure is within 1e-9 of the first,
        so the rearrangement is the descending sort, and otherwise the
        cumulative measure below each cell (0 for the first), read-only
        because the grid shares it with every caller."""
        measures = self.cell_measures
        if (np.abs(measures - measures[0]) <= 1e-9 * measures[0]).all():
            return None
        starts = np.concatenate(([0.0], np.cumsum(measures)[:-1]))
        starts.setflags(write=False)
        return starts

    @cached_property
    def as_cylinder(self) -> "CylGrid":
        """The grid as a cylinder with no t-axis, the view `as_2d` returns."""
        return CylGrid(self)

    def descriptor(self) -> dict:
        return {
            "kind": "radial",
            "d": self.dim,
            "r_max": self.r_max,
            "n": self.n,
            "grading": dict(self.grading),
        }


def radial_grid_from_edges(d: int, edges, grading: Optional[dict] = None) -> RadialGrid:
    """Build a RadialGrid from explicit cell edges (edges[0] must be 0)."""
    edges = np.asarray(edges, dtype=float)
    if len(edges) < 2:
        raise ConfigurationError("need at least one cell")
    if edges[0] != 0.0:
        raise ConfigurationError("radial grid edges must start at 0")
    nodes = 0.5 * (edges[:-1] + edges[1:])
    # differences of the rounded powers edges^d: merging two cells keeps
    # their summed measure only to rounding, a few ulps, not exactly.  A
    # power past the float range makes an inf or nan measure, which
    # RadialGrid rejects by name.
    with np.errstate(over="ignore", invalid="ignore"):
        measures = sphere_area(d) / d * np.diff(edges ** d)
    return RadialGrid(d, edges, nodes, measures, grading or {"kind": "explicit"})


def _solve_ln_ratio(length: float, n: int, first_width: float) -> float:
    """ln(ratio) such that geometric widths starting at first_width span length.

    Bisects at most 200 times, but stops once the midpoint equals an end of
    the bracket: the bracket keeps f(lo) <= 0 <= f(hi), so from then on no
    halving moves it, and the result is the float 200 halvings would give.
    The grids built here reach that point after about 60 halvings."""
    if not 0 < first_width < math.inf:
        raise ConfigurationError(f"first_width must be positive and finite, got {first_width}")
    if first_width * n == length:
        return 0.0

    j = np.arange(n)

    def f(x):
        if abs(x) < 1e-14:
            return first_width * n - length
        if (n - 1) * x > 700.0:  # sum would overflow; certainly larger than length
            return math.inf
        return first_width * float(np.sum(np.exp(j * x))) - length

    # f is monotone increasing in x; bracket then bisect
    lo, hi = -1.0, 1.0
    while f(lo) > 0:
        lo *= 2
        if lo < -200:
            raise ConfigurationError("geometric grading: cannot bracket ratio")
    while f(hi) < 0:
        hi *= 2
        if hi > 200:
            raise ConfigurationError("geometric grading: cannot bracket ratio")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _geometric_edges(start: float, end: float, n: int, first_width: float) -> tuple:
    """(edges, ln_ratio): the n cell edges past `start` of cells whose widths
    grow in geometric progression from first_width, the ratio exp(ln_ratio)
    solved so that they span [start, end].  The widths are normalized to sum
    to end - start, and the last edge is pinned to `end`."""
    length = end - start
    ln_ratio = _solve_ln_ratio(length, n, first_width)
    if abs(ln_ratio) < 1e-14:
        widths = np.full(n, length / n)
    else:
        x = np.arange(n) * ln_ratio
        widths = np.exp(x - x.max())
        widths *= length / widths.sum()
    edges = start + np.cumsum(widths)
    edges[-1] = end
    return edges, ln_ratio


def make_radial_grid(
    d: int,
    r_max: float,
    n: int,
    grading: str = "uniform",
    *,
    r_break: Optional[float] = None,
    first_width: Optional[float] = None,
) -> RadialGrid:
    """Construct a radial grid on [0, r_max].

    grading:
      - "uniform": equal cell widths.
      - "geometric": widths in geometric progression, the origin cell of
        width `first_width`; the successive width ratio is solved for.
      - "split": uniform cells on [0, r_break] (half the cell budget), then a
        width-continuous geometric tail up to r_max.  A cell edge lands
        exactly on r_break.
      - "equimeasure": edges r_max * (i/n)^(1/d), all cell measures equal.

    r_max must be positive and finite.  first_width is read only by
    "geometric" and r_break only by "split"; either given to another
    grading is refused, as is a first_width that is not positive and finite.
    """
    if not 0 < r_max < math.inf:
        raise ConfigurationError(f"r_max must be positive and finite, got {r_max}")
    if n < 1:
        raise ConfigurationError("need at least one cell")
    for keyword, value, reader in (("first_width", first_width, "geometric"), ("r_break", r_break, "split")):
        if value is not None and grading != reader:
            raise ConfigurationError(f"{keyword} is read only by {reader!r} grading, not {grading!r}")

    if grading == "uniform":
        edges = np.linspace(0.0, r_max, n + 1)
        desc = {"kind": "uniform"}
    elif grading == "geometric":
        if first_width is None:
            raise ConfigurationError("geometric grading needs first_width")
        outer, ln_ratio = _geometric_edges(0.0, r_max, n, first_width)
        edges = np.concatenate(([0.0], outer))
        desc = {"kind": "geometric", "ratio": math.exp(ln_ratio)}
    elif grading == "split":
        if r_break is None or not (0.0 < r_break < r_max):
            raise ConfigurationError("split grading: r_break must satisfy 0 < r_break < r_max")
        n1 = max(1, n // 2)
        n2 = n - n1
        if n2 < 1:
            raise ConfigurationError("split grading: need at least 2 cells")
        # the tail's first width is the inner spacing: widths continuous across the break
        outer, _ = _geometric_edges(r_break, r_max, n2, r_break / n1)
        edges = np.concatenate((np.linspace(0.0, r_break, n1 + 1), outer))
        desc = {"kind": "split", "r_break": r_break}
    elif grading == "equimeasure":
        edges = r_max * (np.arange(n + 1) / n) ** (1.0 / d)
        desc = {"kind": "equimeasure"}
    else:
        raise ConfigurationError(f"unknown grading kind: {grading!r}")

    return radial_grid_from_edges(d, edges, desc)


@dataclass(frozen=True)
class CylGrid:
    """Product grid for (|y|, |z|) with x = (y, z) in R^k x R^m, m = N - k.

    The degenerate case m = 0 (k = N) is represented by a single t-cell of
    measure 1, so downstream code is dimension-agnostic.
    """

    s_grid: RadialGrid
    t_grid: Optional[RadialGrid] = None

    @property
    def k(self) -> int:
        return self.s_grid.dim

    @property
    def m(self) -> int:
        return 0 if self.t_grid is None else self.t_grid.dim

    @property
    def N(self) -> int:
        return self.k + self.m

    @property
    def s_nodes(self) -> np.ndarray:
        return self.s_grid.nodes

    @property
    def t_nodes(self) -> np.ndarray:
        if self.t_grid is None:
            return np.array([0.0])
        return self.t_grid.nodes

    @property
    def t_measures(self) -> np.ndarray:
        if self.t_grid is None:
            return np.array([1.0])
        return self.t_grid.cell_measures

    @property
    def shape(self) -> tuple:
        return (self.s_grid.n, len(self.t_nodes))

    @property
    def cell_measures(self) -> np.ndarray:
        return self.cell_weight(0.0)

    def cell_weight(self, a: float, rows: slice = slice(None)) -> np.ndarray:
        """Cell measure times the exact cell average of |y|^a, for the s-rows
        `rows`: the weight of each cell in a sum of f |y|^a over the grid.
        At a = 0 it is the cell measure itself."""
        weight = np.outer(self.s_grid.cell_measures[rows], self.t_measures)
        if a != 0.0:
            weight *= self.s_grid.weight_average(a, rows)[:, None]
        return weight

    def descriptor(self) -> dict:
        return {
            "kind": "cyl",
            "k": self.k,
            "m": self.m,
            "s": self.s_grid.descriptor(),
            "t": None if self.t_grid is None else self.t_grid.descriptor(),
        }


@dataclass(frozen=True)
class GridFunction:
    """Nonnegative cell values of a function of (|y|, |z|) on a grid."""

    grid: object  # RadialGrid | CylGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        expected = self.grid.shape if isinstance(self.grid, CylGrid) else (self.grid.n,)
        if values.shape != expected:
            raise UsageError(f"values shape {values.shape} does not match grid {expected}")
        if not np.isfinite(values).all():
            raise DomainError("grid function values must be finite")
        if (values < 0).any():
            raise DomainError("grid function values must be nonnegative")
        values.setflags(write=False)

    def scaled(self, c: float) -> "GridFunction":
        return GridFunction(self.grid, c * self.values)


def integrate(grid, cell_values) -> float:
    """Sum of cell_values * cell_measures over the grid."""
    cell_values = np.asarray(cell_values, dtype=float)
    measures = grid.cell_measures
    if cell_values.shape != measures.shape:
        raise UsageError(
            f"cell_values shape {cell_values.shape} does not match grid {measures.shape}"
        )
    return float(np.sum(cell_values * measures))


def as_2d(u: GridFunction) -> tuple:
    """(values as an (ns, nt) array, CylGrid) for radial or cylindrical input.

    A radial grid is viewed as a cylinder with no t-axis (m = 0): the one
    `as_cylinder` view the grid keeps.
    """
    if isinstance(u.grid, CylGrid):
        return u.values, u.grid
    return u.values[:, None], u.grid.as_cylinder


def sum_over_row_blocks(shape: tuple, block_sum) -> float:
    """Sum of block_sum(i0, i1) over the row windows i0 <= i < i1 that cover
    the s-axis of an (ns, nt) array in blocks of about BLOCK_CELLS cells (at
    least one row each).

    A grid sum taken block by block keeps every temporary at block size.  An
    array of at most BLOCK_CELLS cells is one block, summed as a whole.  The
    partial sums are added by np.add.reduce, which is the whole array's own
    pairwise order for up to eight equal blocks of 2^j cells.
    """
    ns, nt = shape
    rows = max(1, BLOCK_CELLS // nt)
    return float(np.add.reduce([block_sum(i0, min(i0 + rows, ns)) for i0 in range(0, ns, rows)]))


def _inverse_spacings(grid: RadialGrid, wall: bool) -> np.ndarray:
    """Inverse node-to-node distances across the interior edges, plus, with a
    wall, the inverse distance from the last node to r_max."""
    gaps = np.diff(grid.nodes)
    if wall:
        gaps = np.concatenate((gaps, [grid.r_max - grid.nodes[-1]]))
    return 1.0 / gaps


def _spread(cell: np.ndarray, axis: int) -> np.ndarray:
    """Adjoint of the two-edge cell average along `axis`: each edge receives
    half the value of each cell it bounds."""
    zero = np.zeros_like(np.take(cell, [0], axis=axis))
    return 0.5 * (np.concatenate((cell, zero), axis) + np.concatenate((zero, cell), axis))


class DirichletEnergy:
    """The discrete p-Dirichlet energy, the sum over cells of
    (|grad u|^2 + delta^2)^(p/2) * grid.cell_weight(a), with its exact
    gradient and the edge weights of its p = 2 stiffness.

    grad u is taken by forward differences on cell edges.  Along each
    radius the edges are the origin edge, the interior edges between
    neighbouring cells, and an outer edge at r_max.  The origin edge carries
    zero gradient (radial symmetry).  With `wall` the outer edge joins the
    last cell to the Dirichlet zero boundary.  Without it the outer edge
    carries zero gradient (natural end), which only hardy_quotient asks
    for.  Squared edge gradients averaged onto the two edges of each cell
    give |grad u|^2 per cell.  Unlike centred differences, this scheme has
    no oscillatory null mode.

    `energy(values)` sums the energy of (ns, nt) cell values by row blocks,
    so no temporary is larger than a block.  `energy_and_gradient(values)`
    gives the same energy, bit for bit, and the exact gradient, from one
    pass over the whole array.  Neither call keeps anything from one call
    to the next.
    """

    def __init__(self, grid: CylGrid, wall: bool, p: float, a: float = 0.0, delta: float = 0.0):
        if not wall and (grid.s_grid.n < 2 or (grid.t_grid is not None and grid.t_grid.n < 2)):
            raise UsageError("a natural-end gradient needs at least 2 cells along each radius")
        self.grid, self.wall, self.p, self.a, self.delta = grid, wall, p, a, delta
        self.inv_ds = _inverse_spacings(grid.s_grid, wall)
        self.inv_dt = None if grid.t_grid is None else _inverse_spacings(grid.t_grid, wall)

    def _edges(self, values: np.ndarray, rows: Optional[tuple] = None) -> tuple:
        """Edge gradients (gs, gt) of (ns, nt) cell values, for the rows
        i0 <= i < i1 of the window `rows` = (i0, i1) (default: all rows).

        gs holds the s-edges i0..i1, shape (i1 - i0 + 1, nt): s-edge i lies
        below cell row i, so edge 0 is the origin edge and edge ns the outer
        edge.  gt holds the t-edges of rows i0..i1 - 1, shape (i1 - i0, nt + 1);
        it is None when the grid has no t-axis (m = 0).
        """
        ns, nt = values.shape
        i0, i1 = (0, ns) if rows is None else rows
        gs = np.zeros((i1 - i0 + 1, nt))
        lo, hi = max(i0, 1), min(i1, ns - 1)  # the interior s-edges in the window
        inner = gs[lo - i0 : hi - i0 + 1]
        np.subtract(values[lo : hi + 1], values[lo - 1 : hi], out=inner)
        inner *= self.inv_ds[lo - 1 : hi, None]
        if self.wall and i1 == ns:
            gs[-1] = -values[-1] * self.inv_ds[-1]
        if self.inv_dt is None:
            return gs, None
        block = values[i0:i1]
        gt = np.zeros((i1 - i0, nt + 1))
        np.subtract(block[:, 1:], block[:, :-1], out=gt[:, 1:nt])
        gt[:, 1:nt] *= self.inv_dt[: nt - 1]
        if self.wall:
            gt[:, nt] = -block[:, -1] * self.inv_dt[-1]
        return gs, gt

    def _density(self, values: np.ndarray, rows: Optional[tuple] = None) -> tuple:
        """(gs, gt, g2) for the window `rows` of `_edges`: its edge gradients,
        and per cell g2 = |grad u|^2 + delta^2, with |grad u|^2 the squared
        edge gradients averaged over the two edges of the cell along each
        axis, 0.5 (gs[i]^2 + gs[i+1]^2) + 0.5 (gt[j]^2 + gt[j+1]^2)."""
        gs, gt = self._edges(values, rows)
        sq = np.square(gs)
        g2 = sq[:-1] + sq[1:]
        g2 *= 0.5
        if gt is not None:
            del sq  # freed before the t-squares, so a block's energy holds at most five block arrays
            sq = np.square(gt)
            half_t = sq[:, :-1] + sq[:, 1:]
            half_t *= 0.5
            g2 += half_t
        if self.delta:
            g2 += self.delta**2
        return gs, gt, g2

    def energy(self, values: np.ndarray) -> float:
        """The energy of (ns, nt) cell values, summed by row blocks
        (sum_over_row_blocks) so that no temporary is larger than a block."""

        def block_energy(i0, i1):
            density = self._density(values, (i0, i1))[2] ** (self.p / 2.0)
            density *= self.grid.cell_weight(self.a, slice(i0, i1))
            return density.sum()

        return sum_over_row_blocks(values.shape, block_energy)

    def energy_and_gradient(self, values: np.ndarray) -> tuple:
        """(energy, gradient) at (ns, nt) cell values, from one `_density`
        pass over the whole array.

        The energy density g2^(p/2) * weight is summed by the row windows
        of `energy`, taken as slices of the whole-array density: each
        window holds the same numbers as `energy`'s block, so the sum has
        the same bits.  The gradient is psi = (p/2) g2^(p/2 - 1) * weight
        per cell, spread to the edges (_flux_weights) and times the edge
        gradients, then the transposed differences of `_edges`.  At p = 2,
        g2^1 is g2 itself and psi is the weight itself."""
        gs, gt, g2 = self._density(values)
        if self.p == 2.0:
            weight_s, weight_t = self._p2_flux_weights
            density = g2
        else:
            density = g2 ** (self.p / 2.0)
            psi = g2
            psi **= self.p / 2.0 - 1.0  # in place, by the same ufunc dispatch as g2 ** (p/2 - 1)
            psi *= 0.5 * self.p
            psi *= self._weight
            weight_s, weight_t = self._flux_weights(psi)
        density *= self._weight
        energy = sum_over_row_blocks(values.shape, lambda i0, i1: density[i0:i1].sum())
        gs *= weight_s
        gs[1 : 1 + len(self.inv_ds)] *= self.inv_ds[:, None]
        grad = gs[:-1] - gs[1:]
        if gt is not None:
            gt *= weight_t
            gt[:, 1 : 1 + len(self.inv_dt)] *= self.inv_dt
            grad += gt[:, :-1]
            grad -= gt[:, 1:]
        return energy, grad

    def edge_weights(self, axis: int) -> np.ndarray:
        """The edge weights c = k inv_d^2 of the 1-D p = 2 stiffness
        D^T diag(k) D along s (axis 0) or t (axis 1), D the edge differences
        and k the cell measures spread to the edges: the interior edges
        first, then the wall edge when `wall` is set.  The origin edge
        carries none.  The stiffness is tridiagonal, with the bands
        append(0, c)[:n] + append(c, 0)[:n] and -c[:n - 1]."""
        radial, inv_d = (self.grid.s_grid, self.inv_ds) if axis == 0 else (self.grid.t_grid, self.inv_dt)
        return (inv_d * _spread(radial.cell_measures, 0)[1 : 1 + len(inv_d)]) * inv_d

    # energy_and_gradient's loop invariants, formed on its first use: a
    # one-shot `energy` forms only block-sized weights.
    @cached_property
    def _weight(self) -> np.ndarray:
        """The whole-grid cell weight grid.cell_weight(a)."""
        return self.grid.cell_weight(self.a)

    @cached_property
    def _p2_flux_weights(self) -> tuple:
        """The flux weights at p = 2, where psi is exactly the weight: g2^0 is 1
        whatever delta is."""
        return self._flux_weights(self._weight)

    def _flux_weights(self, psi: np.ndarray) -> tuple:
        """2 * spread(psi) along s and t: the chain rule back through the cell average."""
        return 2.0 * _spread(psi, 0), None if self.inv_dt is None else 2.0 * _spread(psi, 1)


def grid_function_to_csv(u: GridFunction, path) -> None:
    """Export a grid function as rows (s, t, value, cell_measure).

    The bytes are those of a default `csv.writer` (comma-separated, CRLF
    line ends) with every cell formatted as `%.17g`; no cell needs quoting.
    Each node is formatted once, and the file is written one s-row at a time,
    so no whole-file string is formed.
    """
    values, grid = as_2d(u)
    t_cells = ["%.17g" % t for t in grid.t_nodes.tolist()]
    t_measures = grid.t_measures
    with open(path, "w", newline="") as fh:
        fh.write("s,t,value,cell_measure\r\n")
        for s, row, s_measure in zip(grid.s_nodes.tolist(), values, grid.s_grid.cell_measures.tolist()):
            prefix = "%.17g," % s
            # s_measure * t_measures is the row of np.outer in cell_measures
            cells = zip(t_cells, row.tolist(), (s_measure * t_measures).tolist())
            fh.write("".join(["%s%s,%.17g,%.17g\r\n" % (prefix, t, v, m) for t, v, m in cells]))
