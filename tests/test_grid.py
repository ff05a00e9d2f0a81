import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hardysym import (
    ConfigurationError,
    CylGrid,
    DomainError,
    GridFunction,
    UsageError,
    double_star,
    integrate,
    make_radial_grid,
    radial_grid_from_edges,
    sphere_area,
    weighted_dirichlet,
)
import hardysym.grid as grid_module
from hardysym.grid import BLOCK_CELLS, DirichletEnergy, as_2d

GRADINGS = [
    ("uniform", {}),
    ("geometric", {"first_width": 1e-3}),
    ("split", {"r_break": 1.0}),
    ("equimeasure", {}),
]


def test_sphere_area_known_values():
    assert sphere_area(1) == pytest.approx(2.0)
    assert sphere_area(2) == pytest.approx(2 * math.pi)
    assert sphere_area(3) == pytest.approx(4 * math.pi)


def test_total_measure_is_ball_volume():
    for d in (1, 2, 3, 4):
        for grading, kw in GRADINGS:
            g = make_radial_grid(d, 2.0, 50, grading, **kw)
            vol = sphere_area(d) * 2.0**d / d
            assert g.cell_measures.sum() == pytest.approx(vol, rel=1e-12)


def test_nodes_inside_cells_and_increasing():
    for grading, kw in GRADINGS:
        g = make_radial_grid(3, 5.0, 40, grading, **kw)
        assert np.all(np.diff(g.nodes) > 0)
        assert np.all(g.nodes > g.edges[:-1])
        assert np.all(g.nodes < g.edges[1:])
        assert np.all(g.cell_measures > 0)


def test_geometric_first_width_honored():
    g = make_radial_grid(3, 100.0, 64, "geometric", first_width=0.01)
    assert g.edges[1] == pytest.approx(0.01, rel=1e-8)
    assert g.r_max == 100.0


def test_split_grading_edge_lands_on_break():
    g = make_radial_grid(3, 1e3, 128, "split", r_break=1.0)
    assert np.any(np.abs(g.edges - 1.0) < 1e-12)


def _reference_ln_ratio(length, n, first_width):
    """The geometric-ratio bisection with all 200 halvings, no early stop."""
    if first_width <= 0:
        raise ConfigurationError(f"first_width must be positive, got {first_width}")
    if first_width * n == length:
        return 0.0
    j = np.arange(n)

    def f(x):
        if abs(x) < 1e-14:
            return first_width * n - length
        if (n - 1) * x > 700.0:
            return math.inf
        return first_width * float(np.sum(np.exp(j * x))) - length

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
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize(
    "length, n, first_width",
    [
        (999.0, 2048, 1 / 2048),  # eps-sweep's split tail
        (math.exp(100.0), 4096, 1e-3),  # product-sweep's s-grid
        (1000.0, 200, 1e-2),  # the radial benchmark grid
        (8.0, 128, 1 / 128),
        (1.0, 4, 0.5),  # ratio below 1
        (1.0, 2, 0.3),
        (1.0, 1, 1.0),  # n = 1 with the equal-width shortcut
        (1.0, 16, 1 / 16),  # equal-width shortcut
    ],
)
def test_ratio_bisection_stops_at_its_fixed_point(monkeypatch, length, n, first_width):
    # the early stop returns the float that 200 halvings return, bit for bit,
    # and evaluates the sum far fewer than 200 times
    expected = _reference_ln_ratio(length, n, first_width)
    calls = []
    exp = np.exp
    monkeypatch.setattr(np, "exp", lambda x: calls.append(1) or exp(x))
    assert grid_module._solve_ln_ratio(length, n, first_width) == expected
    assert len(calls) < 100


def test_ratio_bisection_without_a_root_still_raises():
    # one cell narrower than the length has no ratio, with or without the stop
    for solve in (_reference_ln_ratio, grid_module._solve_ln_ratio):
        with pytest.raises(ConfigurationError, match="cannot bracket"):
            solve(1.0, 1, 0.3)


@pytest.mark.parametrize(
    "d, r_max, n, grading, kw",
    [
        (3, 1e3, 4096, "split", {"r_break": 1.0}),  # eps-sweep
        (3, math.exp(100.0), 4096, "geometric", {"first_width": 1e-3}),  # product-sweep
        (3, math.exp(100.0), 8192, "geometric", {"first_width": 1e-3}),  # product-sweep --refine 1
    ],
)
def test_cli_grids_match_the_full_bisection(monkeypatch, d, r_max, n, grading, kw):
    edges = make_radial_grid(d, r_max, n, grading, **kw).edges
    monkeypatch.setattr(grid_module, "_solve_ln_ratio", _reference_ln_ratio)
    assert np.array_equal(edges, make_radial_grid(d, r_max, n, grading, **kw).edges)


def test_equimeasure_cells_equal():
    g = make_radial_grid(2, 8.0, 64, "equimeasure")
    m = g.cell_measures
    assert np.max(np.abs(m - m[0])) <= 1e-9 * m[0]


def test_quadrature_exact_for_power_weights():
    # integrate r^a over the ball reduces to sigma(d) * r_max^(a+d) / (a+d)
    for grading, kw in GRADINGS:
        g = make_radial_grid(3, 2.0, 37, grading, **kw)
        for a in (0, 1, 2):
            u = GridFunction(g, g.weight_average(a))
            exact = sphere_area(3) * 2.0 ** (a + 3) / (a + 3)
            assert integrate(g, u.values) == pytest.approx(exact, rel=1e-10)


def test_integrate_linear_example():
    g = make_radial_grid(1, 1.0, 1000, "uniform")
    val = integrate(g, g.nodes)  # f(r) = r, d=1: 2 * int_0^1 r dr = 1
    assert val == pytest.approx(1.0, abs=1e-5)


def test_integrate_all_zeros():
    g = make_radial_grid(3, 1.0, 8, "uniform")
    assert integrate(g, np.zeros(8)) == 0.0


def test_refinement_convergence_exp():
    errors = []
    r = np.linspace(0, 2, 200001)
    exact = sphere_area(3) * np.trapezoid(np.exp(-r) * r**2, r)
    for n in (32, 64, 128, 256, 512, 1024):
        g = make_radial_grid(3, 2.0, n, "uniform")
        val = integrate(g, np.exp(-g.nodes))
        errors.append(abs(val - exact))
    floor = 1e-13 * abs(exact)
    for a, b in zip(errors, errors[1:]):
        assert b <= a or b < floor


def test_measure_additivity_under_cell_merge():
    # measures are differences of rounded powers edges^d, so merging two
    # cells keeps their summed measure only to rounding: over every single
    # interior merge of these 60 grids, 301 of the 900 merged cells differ
    # from the sum of the two, by at most 2 ulps
    for first_width in np.linspace(0.01, 0.3, 60):
        g = make_radial_grid(3, 5.0, 16, "geometric", first_width=first_width)
        total = g.cell_measures.sum()
        for j in range(1, g.n):
            merged = radial_grid_from_edges(3, np.delete(g.edges, j)).cell_measures
            pair = g.cell_measures[j - 1] + g.cell_measures[j]
            assert abs(merged[j - 1] - pair) <= 4 * np.spacing(pair)
            assert abs(merged.sum() - total) <= 4 * np.spacing(total)


def test_make_radial_grid_validation():
    with pytest.raises(ConfigurationError):
        make_radial_grid(3, -1.0, 10, "uniform")
    with pytest.raises(ConfigurationError):
        make_radial_grid(3, 1.0, 0, "uniform")
    with pytest.raises(ConfigurationError):
        make_radial_grid(3, 1.0, 10, "nope")
    with pytest.raises(ConfigurationError):
        make_radial_grid(3, 1.0, 10, "split", r_break=2.0)
    with pytest.raises(ConfigurationError):
        make_radial_grid(3, 1.0, 10, "geometric")


def test_weight_average_singularity_guard():
    g = make_radial_grid(2, 1.0, 8, "uniform")
    with pytest.raises(DomainError):
        g.weight_average(-2.0)
    # integrable singular weight is fine and exact
    w = g.weight_average(-1.0)
    assert np.all(np.isfinite(w))


@pytest.mark.parametrize("a", [0.0, -1.0, 1.5])
def test_cell_weight_row_windows_tile_the_whole_grid(a):
    # a blocked sum weights each block by its row window of cell_weight;
    # this grid has four row blocks, the last one ragged
    grid = PARITY_GRIDS["blocks"]()
    ns, nt = grid.shape
    rows = BLOCK_CELLS // nt
    windows = [grid.cell_weight(a, slice(i0, min(i0 + rows, ns))) for i0 in range(0, ns, rows)]
    assert len(windows) == 4
    assert np.array_equal(np.concatenate(windows), grid.cell_weight(a))


def test_cell_weight_at_zero_is_the_cell_measure():
    for grid in (PARITY_GRIDS["blocks"](), PARITY_GRIDS["radial"]()):
        expected = np.outer(grid.s_grid.cell_measures, grid.t_measures)
        assert np.array_equal(grid.cell_weight(0.0), expected)
        assert np.array_equal(grid.cell_measures, expected)


@pytest.mark.parametrize("a", [0.0, -1.0, 1.5])
def test_cell_weight_sums_to_the_weighted_volume(a):
    # int over |y| < R_s, |z| < R_t of |y|^a = sigma_k R_s^(a+k)/(a+k) * sigma_m R_t^m/m
    grid = PARITY_GRIDS["blocks"]()
    k, m = grid.k, grid.m
    r_s, r_t = grid.s_grid.r_max, grid.t_grid.r_max
    exact = sphere_area(k) * r_s ** (a + k) / (a + k) * sphere_area(m) * r_t**m / m
    assert float(grid.cell_weight(a).sum()) == pytest.approx(exact, rel=1e-13)


def natural_energy(u, p, a):
    """The natural-end energy of u, the one hardy_quotient takes."""
    values, grid = as_2d(u)
    return DirichletEnergy(grid, False, p, a).energy(values)


def test_dirichlet_constant_is_zero():
    g = make_radial_grid(3, 1.0, 16, "uniform")
    assert natural_energy(GridFunction(g, np.ones(16)), 2.0, 0.0) == 0.0
    assert weighted_dirichlet(GridFunction(g, np.ones(16)), 2.0, 0.0) > 0.0


def test_dirichlet_linear_profile_edge_sum():
    # unit slope on every interior edge; the zero-flux origin edge and the
    # natural outer end give the first and last cells half weight
    for grading, kw in GRADINGS:
        g = make_radial_grid(2, 3.0, 40, grading, **kw)
        half = np.ones(40)
        half[[0, -1]] = 0.5
        u = GridFunction(g, g.nodes)
        for p in (2.0, 3.0):
            exact = float(np.sum(half ** (p / 2) * g.cell_measures))
            assert natural_energy(u, p, 0.0) == pytest.approx(exact, rel=1e-12)


def test_dirichlet_quadratic_converges():
    # u = 1 - r^2 in R^1: int |u'|^2 = 2 int_0^1 4 r^2 dr = 8/3
    errors = []
    for n in (50, 100, 200, 400):
        g = make_radial_grid(1, 1.0, n, "uniform")
        u = GridFunction(g, 1.0 - g.nodes**2)
        errors.append(abs(weighted_dirichlet(u, 2.0, 0.0) - 8.0 / 3.0))
    assert errors[-1] < 1e-4
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_dirichlet_cylindrical_linear_profile():
    # u = s + 2t: |grad u|^2 = 1 + 4 on cells away from the ends; each end
    # cell loses half of the component normal to that end
    sg = make_radial_grid(2, 2.0, 20, "uniform")
    tg = make_radial_grid(2, 3.0, 25, "uniform")
    g = CylGrid(sg, tg)
    s = g.s_nodes[:, None]
    t = g.t_nodes[None, :]
    u = GridFunction(g, (s + 2 * t) * np.ones(g.shape))
    ws = np.ones((20, 1))
    ws[[0, -1]] = 0.5
    wt = np.ones((1, 25))
    wt[:, [0, -1]] = 0.5
    exact = float(np.sum((ws + 4 * wt) * g.cell_measures))
    assert natural_energy(u, 2.0, 0.0) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize(
    "grid, wall",
    [
        (CylGrid(make_radial_grid(2, 6.0, 24, "uniform"), make_radial_grid(2, 4.0, 40, "uniform")), True),
        (CylGrid(make_radial_grid(2, 6.0, 24, "uniform"), make_radial_grid(2, 4.0, 40, "uniform")), False),
        (CylGrid(make_radial_grid(3, 100.0, 64, "geometric", first_width=1e-2)), True),
    ],
)
def test_energy_gradient_is_exact_adjoint(grid, wall):
    # the minimizer's descent direction is only as good as this gradient,
    # including at p != 2 where the delta regularization enters
    rng = np.random.default_rng(7)
    s = grid.s_nodes[:, None]
    t = grid.t_nodes[None, :]
    U = np.exp(-(s**2) / 9.0 - t**2 / 4.0) * (1.0 + 0.1 * rng.uniform(size=grid.shape))
    V = rng.standard_normal(grid.shape)
    for p, delta in ((3.0, 1e-3), (2.0, 0.0)):
        dirichlet = DirichletEnergy(grid, wall, p, 1.0, delta)
        energy = dirichlet.energy(U)
        grad = dirichlet.gradient(U)
        h = 1e-5
        slope = (dirichlet.energy(U + h * V) - dirichlet.energy(U - h * V)) / (2 * h)
        assert slope == pytest.approx(float(np.sum(grad * V)), rel=1e-6)
        if p == 2.0:
            assert energy == pytest.approx(0.5 * float(np.sum(grad * U)), rel=1e-12)


def inverse_spacings(radial, wall):
    """Inverse node gaps across the interior edges, then, with a wall, to r_max."""
    gaps = np.diff(radial.nodes)
    if wall:
        gaps = np.concatenate((gaps, [radial.r_max - radial.nodes[-1]]))
    return 1.0 / gaps


def spread(cell, axis):
    """Each edge gets half the value of each cell it bounds along `axis`."""
    zero = np.zeros_like(np.take(cell, [0], axis=axis))
    return 0.5 * (np.concatenate((cell, zero), axis) + np.concatenate((zero, cell), axis))


def whole_array_energy(grid, wall, values, p, s_weight, delta):
    """DirichletEnergy.energy written out on whole arrays: one difference
    per edge (origin edge zero, outer edge the wall or zero), squared,
    averaged onto cells, weighted and summed once."""
    ns, nt = values.shape
    inv_ds = inverse_spacings(grid.s_grid, wall)
    gs = np.zeros((ns + 1, nt))
    gs[1:ns] = (values[1:] - values[:-1]) * inv_ds[: ns - 1, None]
    if wall:
        gs[ns] = -values[-1] * inv_ds[-1]
    density = 0.5 * (gs[:-1] ** 2 + gs[1:] ** 2)
    if grid.t_grid is not None:
        inv_dt = inverse_spacings(grid.t_grid, wall)
        gt = np.zeros((ns, nt + 1))
        gt[:, 1:nt] = (values[:, 1:] - values[:, :-1]) * inv_dt[: nt - 1]
        if wall:
            gt[:, nt] = -values[:, -1] * inv_dt[-1]
        density += 0.5 * (gt[:, :-1] ** 2 + gt[:, 1:] ** 2)
    if delta:
        density += delta**2
    return float(np.sum(density ** (p / 2.0) * (s_weight[:, None] * grid.t_measures)))


def bumpy(grid, seed):
    """Positive values with structure on every row, so each block edge matters."""
    rng = np.random.default_rng(seed)
    s = grid.s_nodes[:, None] / grid.s_grid.r_max
    t = grid.t_nodes[None, :] / (grid.t_grid.r_max if grid.t_grid is not None else 1.0)
    return np.exp(-4.0 * s**2 - 3.0 * t**2) * (1.0 + 0.2 * rng.uniform(size=grid.shape))


ENERGY_CASES = [(wall, p, delta) for wall in (True, False) for p, delta in ((2.0, 0.0), (3.0, 1e-3))]


@pytest.mark.parametrize("wall, p, delta", ENERGY_CASES)
def test_blocked_energy_matches_whole_array(wall, p, delta):
    # four row blocks, the last one ragged (5 rows)
    nt = 64
    ns = 3 * (BLOCK_CELLS // nt) + 5
    grid = CylGrid(make_radial_grid(2, 6.0, ns, "geometric", first_width=3e-4), make_radial_grid(2, 4.0, nt, "uniform"))
    values = bumpy(grid, 11)
    s_weight = grid.s_grid.weight_average(1.0) * grid.s_grid.cell_measures
    energy = DirichletEnergy(grid, wall, p, 1.0, delta).energy(values)
    assert energy == pytest.approx(whole_array_energy(grid, wall, values, p, s_weight, delta), rel=1e-13)


@pytest.mark.parametrize("wall, p, delta", ENERGY_CASES)
def test_single_block_energy_is_whole_array_arithmetic(wall, p, delta):
    # at most BLOCK_CELLS cells: the exact sum of the whole-array reference,
    # for C-ordered and Fortran-ordered values and for a radial grid
    cyl = CylGrid(make_radial_grid(2, 8.0, 96, "uniform"), make_radial_grid(2, 8.0, 80, "uniform"))
    radial = CylGrid(make_radial_grid(3, 100.0, 200, "geometric", first_width=1e-2))
    fortran = double_star(GridFunction(cyl, bumpy(cyl, 5)[::-1].copy())).values
    assert fortran.flags["F_CONTIGUOUS"] and not fortran.flags["C_CONTIGUOUS"]
    for grid, values in ((cyl, bumpy(cyl, 5)), (cyl, fortran), (radial, bumpy(radial, 6))):
        assert values.size <= BLOCK_CELLS
        s_weight = grid.s_grid.cell_measures
        energy = DirichletEnergy(grid, wall, p, 0.0, delta).energy(values)
        assert energy == whole_array_energy(grid, wall, values, p, s_weight, delta)


def test_eight_power_of_two_blocks_add_in_whole_array_order():
    # the split-demo grid: 8 blocks of 2^16 cells, whose partial sums add up
    # in the whole array's pairwise order, so the quotients keep every bit
    grid = CylGrid(make_radial_grid(1, 0.5, 256, "uniform"), make_radial_grid(1, 67.2, 2048, "uniform"))
    assert grid.shape[0] * grid.shape[1] == 8 * BLOCK_CELLS
    # for these values, adding the 8 partial sums left to right, or exactly
    # rounded (math.fsum), gives a different last bit than the pairwise order
    values = np.random.default_rng(0).uniform(size=grid.shape)
    s_weight = grid.s_grid.cell_measures
    energy = DirichletEnergy(grid, True, 2.0).energy(values)
    assert energy == whole_array_energy(grid, True, values, 2.0, s_weight, 0.0)


def whole_array_gradient(grid, wall, values, p, s_weight, delta):
    """DirichletEnergy.gradient written out on whole arrays: the cell
    density's psi = (p/2) (|grad u|^2 + delta^2)^(p/2 - 1) * weight, spread
    by halves onto the edges of each cell, times twice the edge gradient,
    then back through the transposed differences."""
    ns, nt = values.shape
    inv_ds = inverse_spacings(grid.s_grid, wall)
    gs = np.zeros((ns + 1, nt))
    gs[1:ns] = (values[1:] - values[:-1]) * inv_ds[: ns - 1, None]
    if wall:
        gs[ns] = -values[-1] * inv_ds[-1]
    g2 = 0.5 * (gs[:-1] ** 2 + gs[1:] ** 2)
    if grid.t_grid is not None:
        inv_dt = inverse_spacings(grid.t_grid, wall)
        gt = np.zeros((ns, nt + 1))
        gt[:, 1:nt] = (values[:, 1:] - values[:, :-1]) * inv_dt[: nt - 1]
        if wall:
            gt[:, nt] = -values[:, -1] * inv_dt[-1]
        g2 += 0.5 * (gt[:, :-1] ** 2 + gt[:, 1:] ** 2)
    g2 += delta**2
    psi = 0.5 * p * g2 ** (p / 2.0 - 1.0) * (s_weight[:, None] * grid.t_measures)
    flux_s = 2.0 * spread(psi, 0) * gs
    flux_s[1 : 1 + len(inv_ds)] *= inv_ds[:, None]
    grad = flux_s[:-1] - flux_s[1:]
    if grid.t_grid is not None:
        flux_t = 2.0 * spread(psi, 1) * gt
        flux_t[:, 1 : 1 + len(inv_dt)] *= inv_dt
        grad += flux_t[:, :-1]
        grad -= flux_t[:, 1:]
    return grad


PARITY_GRIDS = {
    # the radial benchmark grid, a one-block cylinder, and four row blocks
    "radial": lambda: CylGrid(make_radial_grid(3, 1000.0, 200, "geometric", first_width=1e-2)),
    "cylinder": lambda: CylGrid(make_radial_grid(2, 8.0, 96, "uniform"), make_radial_grid(2, 8.0, 80, "uniform")),
    "blocks": lambda: CylGrid(
        make_radial_grid(2, 6.0, 3 * (BLOCK_CELLS // 64) + 5, "geometric", first_width=3e-4),
        make_radial_grid(2, 4.0, 64, "uniform"),
    ),
}


@pytest.mark.parametrize("name", sorted(PARITY_GRIDS))
@pytest.mark.parametrize("p, delta", [(2.0, 0.0), (3.0, 1e-3)])
def test_state_energy_and_gradient_are_bit_identical(name, p, delta):
    # a descent calls energy and gradient on many arrays with one instance:
    # each call must give exactly the whole-array result for its own values,
    # whatever calls on other arrays came before, so no call leaves state behind
    grid = PARITY_GRIDS[name]()
    s_weight = grid.s_grid.cell_measures
    dirichlet = DirichletEnergy(grid, True, p, 0.0, delta)
    first, second = bumpy(grid, 1), bumpy(grid, 2)
    for _ in range(2):
        for values in (first, second):
            energy = dirichlet.energy(values)
            if values.size <= BLOCK_CELLS:
                assert energy == whole_array_energy(grid, True, values, p, s_weight, delta)
            else:
                assert energy == pytest.approx(whole_array_energy(grid, True, values, p, s_weight, delta), rel=1e-13)
            expected = whole_array_gradient(grid, True, values, p, s_weight, delta)
            assert np.array_equal(dirichlet.gradient(values), expected)


def tridiagonal(c, n):
    """The bands (diagonal, off_diagonal) of the n x n symmetric tridiagonal
    stiffness with edge weights c: append(0, c)[:n] + append(c, 0)[:n] and -c[:n - 1]."""
    return np.append(0.0, c)[:n] + np.append(c, 0.0)[:n], -c[: n - 1]


def dense(bands):
    diagonal, off_diagonal = bands
    return np.diag(diagonal) + np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1)


@pytest.mark.parametrize("name", sorted(PARITY_GRIDS))
@pytest.mark.parametrize("wall", [True, False])
def test_stiffness_bands_equal_the_sparse_product(name, wall):
    # the bands of the edge weights are D^T diag(k) D bit for bit, D the edge
    # differences and k the cell measures spread to the edges, as a sparse
    # product forms it from the test's own spacings
    grid = PARITY_GRIDS[name]()
    dirichlet = DirichletEnergy(grid, wall, 2.0)
    for axis, radial in enumerate([grid.s_grid] if grid.t_grid is None else [grid.s_grid, grid.t_grid]):
        n, inv_d = radial.n, inverse_spacings(radial, wall)
        D = sp.diags([-np.append(inv_d, 0.0)[:n], np.append(0.0, inv_d)[:n]], [-1, 0], shape=(n + 1, n))
        reference = D.T @ sp.diags(spread(radial.cell_measures, 0)) @ D
        c = dirichlet.edge_weights(axis)
        assert c.shape == inv_d.shape  # the interior edges, then the wall edge
        bands = diagonal, off_diagonal = tridiagonal(c, n)
        if n <= 256:
            assert np.array_equal(dense(bands), reference.toarray())
        else:  # compared band by band: a dense copy of the blocks grid's s-axis is 76 MB
            assert np.array_equal(diagonal, reference.diagonal(0))
            assert np.array_equal(off_diagonal, reference.diagonal(1))
            assert np.array_equal(off_diagonal, reference.diagonal(-1))
            assert sp.triu(reference, 2).count_nonzero() == sp.tril(reference, -2).count_nonzero() == 0


@pytest.mark.parametrize("name", ["radial", "cylinder"])
def test_wall_stiffness_is_positive_definite(name):
    # the Dirichlet wall edge alone makes each 1-D p = 2 stiffness SPD
    grid = PARITY_GRIDS[name]()
    dirichlet = DirichletEnergy(grid, True, 2.0)
    for axis, radial in enumerate([grid.s_grid] if grid.t_grid is None else [grid.s_grid, grid.t_grid]):
        np.linalg.cholesky(dense(tridiagonal(dirichlet.edge_weights(axis), radial.n)))


def test_dirichlet_single_cell_errors():
    g = make_radial_grid(3, 1.0, 1, "uniform")
    with pytest.raises(UsageError):
        natural_energy(GridFunction(g, np.ones(1)), 2.0, 0.0)
    cyl = CylGrid(make_radial_grid(2, 1.0, 4, "uniform"), make_radial_grid(2, 1.0, 1, "uniform"))
    with pytest.raises(UsageError):
        natural_energy(GridFunction(cyl, np.ones((4, 1))), 2.0, 0.0)


def test_degenerate_t_grid():
    sg = make_radial_grid(3, 1.0, 10, "uniform")
    g = CylGrid(sg)
    assert g.m == 0
    assert g.N == 3
    assert g.shape == (10, 1)
    assert g.t_measures.tolist() == [1.0]
    values = np.exp(-sg.nodes)
    for energy in (natural_energy, weighted_dirichlet):
        cyl = energy(GridFunction(g, values[:, None]), 2.0, 1.0)
        radial = energy(GridFunction(sg, values), 2.0, 1.0)
        assert cyl == radial


def test_grid_function_validation():
    g = make_radial_grid(3, 1.0, 4, "uniform")
    with pytest.raises(UsageError):
        GridFunction(g, np.ones(5))
    with pytest.raises(DomainError):
        GridFunction(g, np.array([1.0, -1.0, 0.0, 0.0]))
    with pytest.raises(DomainError):
        GridFunction(g, np.array([1.0, np.inf, 0.0, 0.0]))


def test_grid_function_csv_round_trip(tmp_path):
    from hardysym import grid_function_to_csv

    sg = make_radial_grid(2, 1.0, 3, "uniform")
    tg = make_radial_grid(1, 1.0, 2, "uniform")
    u = GridFunction(CylGrid(sg, tg), np.arange(6, dtype=float).reshape(3, 2))
    path = tmp_path / "u.csv"
    grid_function_to_csv(u, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "s,t,value,cell_measure"
    assert len(lines) == 7


def reference_grid_function_csv(u, path):
    """The csv.writer export that grid_function_to_csv must match byte for byte."""
    import csv

    values, grid = as_2d(u)
    measures = grid.cell_measures
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "t", "value", "cell_measure"])
        for i, s in enumerate(grid.s_nodes):
            for j, t in enumerate(grid.t_nodes):
                writer.writerow([f"{s:.17g}", f"{t:.17g}", f"{values[i, j]:.17g}", f"{measures[i, j]:.17g}"])


STRESS_VALUES = [0.1, 1.0 / 3.0, 1e-300, 0.0, 1.2345678901234567]


@pytest.mark.parametrize(
    "case",
    ["cylinder", "radial", "radial-cylinder", "stress"],
)
def test_grid_function_csv_matches_the_csv_writer_bytes(tmp_path, case):
    from hardysym import grid_function_to_csv

    rng = np.random.default_rng(31)
    sg = make_radial_grid(2, 8.0, 12, "geometric", first_width=1e-3)
    tg = make_radial_grid(2, 8.0, 7, "equimeasure")
    if case == "cylinder":
        u = GridFunction(CylGrid(sg, tg), rng.uniform(size=(12, 7)))
    elif case == "radial":
        u = GridFunction(sg, rng.uniform(size=12))
    elif case == "radial-cylinder":
        u = GridFunction(CylGrid(sg), rng.uniform(size=(12, 1)))
    else:
        g = make_radial_grid(3, 1.0, len(STRESS_VALUES), "uniform")
        u = GridFunction(g, np.array(STRESS_VALUES))
    path, expected = tmp_path / "u.csv", tmp_path / "reference.csv"
    grid_function_to_csv(u, path)
    reference_grid_function_csv(u, expected)
    assert path.read_bytes() == expected.read_bytes()
    lines = path.read_bytes().split(b"\r\n")
    assert lines[-1] == b"" and len(lines) == 2 + u.values.size
    if case != "cylinder":
        assert all(line.split(b",")[1] == b"0" for line in lines[1:-1])
    if case == "stress":
        cells = [line.split(b",")[2] for line in lines[1:-1]]
        assert cells == [b"0.10000000000000001", b"0.33333333333333331", b"1e-300", b"0", b"1.2345678901234567"]


@given(
    d=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=2, max_value=60),
    r_max=st.floats(min_value=0.1, max_value=100.0),
)
@settings(max_examples=50, deadline=None)
def test_total_measure_property(d, n, r_max):
    g = make_radial_grid(d, r_max, n, "uniform")
    vol = sphere_area(d) * r_max**d / d
    assert g.cell_measures.sum() == pytest.approx(vol, rel=1e-12)
