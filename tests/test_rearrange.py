import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardysym import (
    ConfigurationError,
    CylGrid,
    DomainError,
    GridFunction,
    Params,
    RadialGrid,
    UsageError,
    double_star,
    hardy_littlewood_check,
    integrate,
    is_double_star_fixed,
    make_radial_grid,
    polya_szego_check,
    schwarz_y,
    schwarz_z,
    symmetrize_and_compare,
)


def eq_grid(n=64, r_max=8.0):
    return CylGrid(
        make_radial_grid(2, r_max, n, "equimeasure"),
        make_radial_grid(2, r_max, n, "equimeasure"),
    )


def grid_with_measures(measures):
    """A d = 1 radial grid of unit-width cells carrying the given measures."""
    n = len(measures)
    edges = np.arange(n + 1.0)
    return RadialGrid(1, edges, edges[:-1] + 0.5, np.asarray(measures, dtype=float))


def kernel(values, measures):
    """The 1-D kernel: schwarz_y of a copy of `values` on a radial grid of
    these cell measures, as a 1-D array."""
    return schwarz_y(GridFunction(grid_with_measures(measures), np.array(values, dtype=float))).values


def granularity_mismatch(values, measures, rearranged) -> float:
    """Largest superlevel-measure mismatch between input and its rearrangement."""
    values = np.asarray(values, dtype=float)
    measures = np.asarray(measures, dtype=float)
    worst = 0.0
    for lvl in np.unique(values):
        mu_in = measures[values > lvl].sum()
        mu_out = measures[rearranged > lvl].sum()
        worst = max(worst, abs(mu_in - mu_out))
    return worst


# ---------------------------------------------------------------------------
# 1D kernel


def test_kernel_equal_measures_is_sort():
    out = kernel([1.0, 3.0, 2.0], [1.0, 1.0, 1.0])
    assert out.tolist() == [3.0, 2.0, 1.0]


def test_kernel_weighted_example():
    # values (1, 3) on measures (2, 1): the level-3 set has measure 1, which
    # cannot fill the first cell of measure 2 exactly; the assignment is
    # (3, 1) with a single-cell granularity mismatch of 1.
    out = kernel([1.0, 3.0], [2.0, 1.0])
    assert out.tolist() == [3.0, 1.0]
    assert granularity_mismatch([1.0, 3.0], [2.0, 1.0], out) == pytest.approx(1.0)


def test_kernel_already_sorted_is_fixed_point_any_measures():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = rng.integers(2, 40)
        vals = np.sort(rng.uniform(size=n))[::-1].copy()
        meas = rng.uniform(0.1, 2.0, size=n)
        out = kernel(vals, meas)
        assert np.array_equal(out, vals)


def test_kernel_validation():
    with pytest.raises(UsageError):
        kernel([1.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        kernel([-1.0, 1.0], [1.0, 1.0])


@pytest.mark.parametrize(
    "values, measures, error, match",
    [
        ([], [], ConfigurationError, "need at least one cell"),
        ([np.nan, 1.0], [1.0, 1.0], DomainError, "finite"),
        ([1.0, np.nan], [1.0, 2.0], DomainError, "finite"),
        ([1.0, np.inf], [1.0, 2.0], DomainError, "finite"),
    ],
)
def test_kernel_rejects_empty_or_non_finite_values(values, measures, error, match):
    with pytest.raises(error, match=match):
        kernel(values, measures)


@pytest.mark.parametrize("measures", [[1.0, 0.0], [1.0, -2.0], [1.0, np.nan], [np.inf, 1.0]])
def test_kernel_rejects_bad_measures(measures):
    with pytest.raises(ConfigurationError):
        kernel([1.0, 2.0], measures)


def test_nonincreasing_input_is_returned_as_a_copy_on_weighted_grids():
    g = CylGrid(make_radial_grid(2, 8.0, 24, "uniform"), make_radial_grid(2, 8.0, 16, "uniform"))
    rng = np.random.default_rng(24)
    profile = np.repeat(np.linspace(1.0, 0.0, 12), 2)  # ties included
    line = GridFunction(g.s_grid, profile.copy())
    out = schwarz_y(line).values
    assert np.array_equal(out, profile)
    assert not np.shares_memory(out, profile)
    assert not np.shares_memory(out, line.values)
    # nonincreasing in s for each t, unsorted in t
    u = GridFunction(g, np.outer(profile, rng.uniform(0.5, 1.0, size=16)))
    star_y = schwarz_y(u).values
    assert np.array_equal(star_y, u.values)
    assert not np.shares_memory(star_y, u.values)
    # nonincreasing in t for each s, unsorted in s
    v = GridFunction(g, np.outer(rng.uniform(0.5, 1.0, size=24), profile[:16]))
    star_z = schwarz_z(v).values
    assert np.array_equal(star_z, v.values)
    assert not np.shares_memory(star_z, v.values)
    # a monotone product weight g(s) h(t) is its own double star
    weight = GridFunction(g, np.outer(np.exp(-g.s_nodes / 2), 1.0 / (1.0 + g.t_nodes)))
    assert is_double_star_fixed(weight)


@given(st.lists(st.floats(min_value=0, max_value=100), min_size=2, max_size=50))
@settings(max_examples=200, deadline=None)
def test_kernel_properties_equal_measures(values):
    vals = np.asarray(values)
    meas = np.ones(len(vals))
    out = kernel(vals, meas)
    # equimeasurable, nonincreasing, idempotent
    assert np.array_equal(np.sort(out), np.sort(vals))
    assert np.all(np.diff(out) <= 0)
    assert np.array_equal(kernel(out, meas), out)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=10), st.floats(min_value=0.1, max_value=3)
        ),
        min_size=2,
        max_size=30,
    )
)
@settings(max_examples=200, deadline=None)
def test_kernel_weighted_properties(pairs):
    vals = np.array([a for a, _ in pairs])
    meas = np.array([b for _, b in pairs])
    out = kernel(vals, meas)
    assert np.all(np.diff(out) <= 0)
    # output values are drawn from the input multiset
    assert set(out.tolist()) <= set(vals.tolist())
    # granularity mismatch bounded by the largest single cell
    assert granularity_mismatch(vals, meas, out) <= meas.max() + 1e-12


def test_order_preservation_equal_measures():
    rng = np.random.default_rng(11)
    meas = np.ones(30)
    for _ in range(100):
        u = rng.uniform(size=30)
        v = u + rng.uniform(size=30)
        ru = kernel(u, meas)
        rv = kernel(v, meas)
        assert np.all(ru <= rv)


# ---------------------------------------------------------------------------
# 2D passes


def test_schwarz_passes_monotone_output():
    g = eq_grid(32)
    rng = np.random.default_rng(2)
    u = GridFunction(g, rng.uniform(size=g.shape))
    assert np.all(np.diff(schwarz_y(u).values, axis=0) <= 0)
    assert np.all(np.diff(schwarz_z(u).values, axis=1) <= 0)
    star = double_star(u)
    assert np.all(np.diff(star.values, axis=0) <= 0)
    assert np.all(np.diff(star.values, axis=1) <= 0)


def test_double_star_equimeasurable_and_idempotent():
    g = eq_grid(32)
    rng = np.random.default_rng(4)
    for _ in range(25):
        u = GridFunction(g, rng.uniform(size=g.shape))
        star = double_star(u)
        assert np.array_equal(np.sort(u.values.ravel()), np.sort(star.values.ravel()))
        assert np.max(np.abs(double_star(star).values - star.values)) == 0.0
        assert is_double_star_fixed(star)


def test_double_star_preserves_integrals_equal_measures():
    g = eq_grid(32)
    rng = np.random.default_rng(9)
    u = GridFunction(g, rng.uniform(size=g.shape))
    star = double_star(u)
    for q in (1.0, 2.0, 3.5):
        assert integrate(g, star.values**q) == pytest.approx(
            integrate(g, u.values**q), rel=1e-12
        )


def test_radial_grid_function_supported():
    g = make_radial_grid(3, 1.0, 16, "uniform")
    u = GridFunction(g, np.linspace(0, 1, 16))
    star = double_star(u)
    assert star.values.shape == (16,)
    assert np.all(np.diff(star.values) <= 0)


def per_slice_reference(values, measures):
    """Weighted rearrangement of one slice, written independently: the
    stable descending sort sampled at each cell's cumulative-measure start,
    or the sort itself when every measure is within 1e-9 relative of the
    first, the rule by which the passes treat measures as equal."""
    if all(abs(m - measures[0]) <= 1e-9 * measures[0] for m in measures):
        return -np.sort(-values, kind="stable")
    order = np.argsort(-values, kind="stable")
    sorted_cum = np.cumsum(measures[order])
    starts = np.concatenate(([0.0], np.cumsum(measures)[:-1]))
    idx = np.searchsorted(sorted_cum, starts, side="right")
    return values[order][np.minimum(idx, len(values) - 1)]


@pytest.mark.parametrize("grading, options", [("uniform", {}), ("geometric", {"first_width": 0.1})])
def test_schwarz_weighted_path_matches_per_slice_reference(grading, options):
    # non-square, unequal cell measures along both axes, tied values
    g = CylGrid(
        make_radial_grid(2, 8.0, 24, grading, **options),
        make_radial_grid(3, 8.0, 40, grading, **options),
    )
    ms, mt = g.s_grid.cell_measures, g.t_measures
    rng = np.random.default_rng(21)
    u = GridFunction(g, rng.integers(0, 6, size=g.shape) / 5.0)
    expect_y = np.column_stack([per_slice_reference(u.values[:, j], ms) for j in range(40)])
    expect_z = np.vstack([per_slice_reference(u.values[i], mt) for i in range(24)])
    # the weighted path differs from a plain sort on these inputs
    assert not np.array_equal(expect_y, -np.sort(-u.values, axis=0))
    assert not np.array_equal(expect_z, -np.sort(-u.values, axis=1))
    assert np.array_equal(schwarz_y(u).values, expect_y)
    assert np.array_equal(schwarz_z(u).values, expect_z)


def test_radial_weighted_path_matches_per_slice_reference():
    g = make_radial_grid(3, 1.0, 30, "geometric", first_width=6e-3)
    rng = np.random.default_rng(22)
    u = GridFunction(g, rng.integers(0, 6, size=30) / 5.0)
    expect = per_slice_reference(u.values, g.cell_measures)
    assert not np.array_equal(expect, -np.sort(-u.values))
    assert np.array_equal(schwarz_y(u).values, expect)
    assert np.array_equal(double_star(u).values, expect)
    assert np.array_equal(schwarz_z(u).values, u.values)


def measures_of_length(n):
    """Cell measures from 1e-6 to 1e6, or those of a uniform or geometric grid."""
    gradings = [make_radial_grid(2, 8.0, n, "uniform").cell_measures]
    if n > 1:
        gradings.append(make_radial_grid(2, 8.0, n, "geometric", first_width=2.0 / n).cell_measures)
    drawn = st.lists(st.floats(-6.0, 6.0).map(lambda e: 10.0**e), min_size=n, max_size=n)
    return st.one_of(drawn, st.sampled_from(gradings))


def layout(a):
    return a.flags.c_contiguous, a.flags.f_contiguous


def layout_after(weighted, axis, values):
    """Layout of a Schwarz pass's output: a weighted pass along axis 0
    returns C and along axis 1 returns F; a sort keeps the input's."""
    return layout(np.empty(values.shape, order="CF"[axis])) if weighted else layout(values)


@pytest.mark.parametrize("ns, nt", [(1, 1), (6, 1), (1, 5), (3, 7), (8, 4)])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_schwarz_passes_match_per_slice_reference(ns, nt, data):
    ms = np.asarray(data.draw(measures_of_length(ns)), dtype=float)
    mt = np.asarray(data.draw(measures_of_length(nt)), dtype=float)
    g = CylGrid(grid_with_measures(ms), grid_with_measures(mt))
    levels = data.draw(st.lists(st.integers(0, 3), min_size=ns * nt, max_size=ns * nt))
    vals = np.reshape(levels, (ns, nt)) / 3.0  # few levels, so many ties
    pattern = data.draw(st.sampled_from(["raw", "zero_edges", "sorted_s", "sorted_t", "sorted_both"]))
    if pattern == "zero_edges":
        vals[-1, :] = 0.0
        vals[:, -1] = 0.0
    if pattern in ("sorted_s", "sorted_both"):
        vals = -np.sort(-vals, axis=0)
    if pattern in ("sorted_t", "sorted_both"):
        vals = -np.sort(-vals, axis=1)
    u = GridFunction(g, np.array(vals, order=data.draw(st.sampled_from("CF"))))

    expect_y = np.column_stack([per_slice_reference(u.values[:, j], ms) for j in range(nt)])
    expect_z = np.vstack([per_slice_reference(u.values[i], mt) for i in range(ns)])
    star_y, star_z, star = schwarz_y(u), schwarz_z(u), double_star(u)
    assert np.array_equal(star_y.values, expect_y)
    assert np.array_equal(star_z.values, expect_z)
    expect = np.vstack([per_slice_reference(expect_y[i], mt) for i in range(ns)])
    assert np.array_equal(star.values, expect)

    s_weighted = not np.allclose(ms, ms[0], rtol=1e-9, atol=0.0)
    t_weighted = not np.allclose(mt, mt[0], rtol=1e-9, atol=0.0)
    assert layout(star_y.values) == layout_after(s_weighted, 0, u.values)
    assert layout(star_z.values) == layout_after(t_weighted, 1, u.values)
    assert layout(star.values) == layout_after(t_weighted, 1, star_y.values)


def test_nearly_equal_measures_are_sorted():
    # measures within 1e-9 relative count as equal, and a plain sort is
    # the rearrangement: sampling at the cell starts would give [1/3, 1/3, 0]
    # here, because the largest value's measure 10**1e-12 exceeds the
    # second cell's start 1
    ms = np.array([1.0, 1.0, 10**1e-12])
    g = CylGrid(grid_with_measures(ms), grid_with_measures([1.0]))
    u = GridFunction(g, np.array([[0.0], [0.0], [1 / 3]]))
    expect = per_slice_reference(u.values[:, 0], ms)
    assert expect.tolist() == [1 / 3, 0.0, 0.0]
    assert np.array_equal(schwarz_y(u).values[:, 0], expect)
    assert np.array_equal(double_star(u).values[:, 0], expect)
    assert np.array_equal(kernel(u.values[:, 0], ms), expect)


def test_weighted_pass_clamps_to_the_last_sorted_value():
    # 1 + 1 + 1e-20 rounds to 2, the last cell's start, so the index runs
    # past the last sorted value at that cell and is clamped to it
    measures = np.array([1.0, 1.0, 1e-20])
    values = np.array([0.0, 1.0, 0.5])
    expect = per_slice_reference(values, measures)
    assert expect.tolist() == [1.0, 0.0, 0.0]
    assert np.array_equal(kernel(values, measures), expect)
    g = CylGrid(grid_with_measures(measures), grid_with_measures([2.0, 1.0]))
    u = GridFunction(g, np.column_stack([values, values[::-1]]))
    assert np.array_equal(schwarz_y(u).values[:, 0], expect)


@pytest.mark.parametrize("cylinder", [False, True])
def test_schwarz_z_is_the_identity_without_a_t_axis(cylinder):
    # a grid with no t-axis is one t-cell of measure 1: schwarz_z returns its
    # input, and double_star is schwarz_y alone
    s_grid = make_radial_grid(3, 1.0, 30, "geometric", first_width=6e-3)
    g = CylGrid(s_grid) if cylinder else s_grid
    rng = np.random.default_rng(23)
    u = GridFunction(g, rng.uniform(size=(30, 1) if cylinder else 30))
    assert schwarz_z(u) is u
    assert np.array_equal(schwarz_z(u).values, u.values)
    assert np.array_equal(double_star(u).values, schwarz_y(u).values)


# ---------------------------------------------------------------------------
# the array path: double_star and the checks built on it run the passes on
# arrays and wrap once, or not at all


def array_path_cases():
    """(label, u, weight): values with ties on a radial grid, an m = 0
    cylinder and equimeasure, uniform, geometric and split cylinders, and
    Fortran-ordered inputs on two of them, each with a double-star-fixed
    weight."""
    rng = np.random.default_rng(37)
    radial = make_radial_grid(3, 4.0, 20, "geometric", first_width=0.05)
    s_grids = {
        "equimeasure": make_radial_grid(2, 8.0, 24, "equimeasure"),
        "uniform": make_radial_grid(2, 8.0, 24, "uniform"),
        "geometric": make_radial_grid(2, 8.0, 24, "geometric", first_width=0.05),
        "split": make_radial_grid(2, 8.0, 24, "split", r_break=2.0),
    }
    grids = {"radial": radial, "m = 0 cylinder": CylGrid(radial)}
    grids.update((name, CylGrid(s, make_radial_grid(1, 3.0, 9, "uniform"))) for name, s in s_grids.items())
    cases = []
    for label, g in grids.items():
        shape = g.shape if isinstance(g, CylGrid) else (g.n,)
        s_nodes = g.s_nodes if isinstance(g, CylGrid) else g.nodes
        t_weight = 1.0 / (1.0 + g.t_nodes) if isinstance(g, CylGrid) else np.ones(1)
        weight = GridFunction(g, np.outer(np.exp(-s_nodes / 2), t_weight).reshape(shape))
        values = np.round(rng.uniform(size=shape), 1)  # ties
        cases.append((label, GridFunction(g, values), weight))
        if label in ("equimeasure", "uniform"):  # the sort path and the weighted one
            cases.append((f"{label}, Fortran-ordered", GridFunction(g, np.asfortranarray(values)), weight))
    return cases


ARRAY_PATH_CASES = array_path_cases()
ARRAY_PATH_IDS = [label for label, _, _ in ARRAY_PATH_CASES]


def reference_is_double_star_fixed(u):
    fixed = schwarz_z(schwarz_y(u))
    scale = float(u.values.max())
    return scale == 0.0 or bool(np.max(np.abs(fixed.values - u.values)) <= 1e-12 * scale)


def reference_hardy_littlewood(u, v):
    return integrate(u.grid, u.values * v.values), integrate(u.grid, schwarz_z(schwarz_y(u)).values * v.values)


@pytest.mark.parametrize("label, u, weight", ARRAY_PATH_CASES, ids=ARRAY_PATH_IDS)
def test_double_star_array_path_matches_the_two_passes(label, u, weight):
    star = double_star(u)
    assert star.grid is u.grid
    assert star.values.shape == u.values.shape
    assert star.values.tobytes() == schwarz_z(schwarz_y(u)).values.tobytes()
    # a fixed point whose last s-row is raised past the one before it by
    # 1e-6 of its maximum is moved by that much, so it is not fixed
    nearly = star.values.copy()
    nearly[-1] = nearly[-2] + 1e-6 * nearly.max()
    nearly = GridFunction(u.grid, nearly)
    for v in (u, star, weight, u.scaled(0.0), nearly):
        assert is_double_star_fixed(v) is reference_is_double_star_fixed(v)
    assert reference_is_double_star_fixed(star) and reference_is_double_star_fixed(weight)
    assert not reference_is_double_star_fixed(u) and not reference_is_double_star_fixed(nearly)
    plain, symmetrized = hardy_littlewood_check(u, weight)
    assert (plain, symmetrized) == reference_hardy_littlewood(u, weight)
    assert symmetrized >= plain


@pytest.mark.parametrize("label, u, weight", ARRAY_PATH_CASES, ids=ARRAY_PATH_IDS)
def test_pass_results_are_read_only_and_share_no_memory(label, u, weight):
    passes = [schwarz_y(u), double_star(u), double_star(weight)]
    if isinstance(u.grid, CylGrid) and u.grid.t_grid is not None:
        passes.append(schwarz_z(u))
    else:
        assert schwarz_z(u) is u  # the identity returns its input
    for result, source in zip(passes, [u, u, weight, u]):
        assert not result.values.flags.writeable
        assert not np.shares_memory(result.values, source.values)
        with pytest.raises(ValueError):
            result.values[0] = 0.0


# ---------------------------------------------------------------------------
# inequalities


def test_hardy_littlewood_two_cell_example():
    # d=1 cells on [0,1], u=(1,2), v=(2,1): plain = 1*2*m + 2*1*m = 2,
    # symmetrized uses u**=(2,1): 2*2*m + 1*1*m = 2.5 (cell measure m = 1)
    g = make_radial_grid(1, 1.0, 2, "uniform")
    assert np.allclose(g.cell_measures, [1.0, 1.0])
    u = GridFunction(g, np.array([1.0, 2.0]))
    v = GridFunction(g, np.array([2.0, 1.0]))
    plain, symmetrized = hardy_littlewood_check(u, v)
    assert plain == pytest.approx(4.0)
    assert symmetrized == pytest.approx(5.0)


def test_hardy_littlewood_constant_weight_equality():
    g = eq_grid(16)
    rng = np.random.default_rng(6)
    u = GridFunction(g, rng.uniform(size=g.shape))
    v = GridFunction(g, np.ones(g.shape))
    plain, symmetrized = hardy_littlewood_check(u, v)
    assert plain == pytest.approx(symmetrized, rel=1e-12)


def test_hardy_littlewood_random_trials_reference_weight():
    # v = |y|^{-beta} on |z| <= R: nonincreasing in both coordinates
    g = eq_grid(64)
    beta = 1.0
    prof_s = g.s_grid.weight_average(-beta) * 1.0
    prof_t = (g.t_nodes <= 4.0).astype(float)
    v = GridFunction(g, np.outer(np.sort(prof_s)[::-1], prof_t))
    assert is_double_star_fixed(v)
    rng = np.random.default_rng(8)
    for _ in range(200):
        u = GridFunction(g, rng.uniform(size=g.shape))
        plain, symmetrized = hardy_littlewood_check(u, v)
        assert symmetrized >= plain - 1e-12 * abs(plain)


def test_hardy_littlewood_rejects_unsorted_weight():
    g = eq_grid(8)
    rng = np.random.default_rng(3)
    u = GridFunction(g, rng.uniform(size=g.shape))
    v = GridFunction(g, rng.uniform(size=g.shape))
    with pytest.raises(UsageError):
        hardy_littlewood_check(u, v)


def test_hardy_littlewood_rejects_other_grid():
    # same shape, different cell measures: the integrals would mix two grids
    u = GridFunction(eq_grid(8), np.ones((8, 8)))
    other = CylGrid(make_radial_grid(2, 8.0, 8, "uniform"), make_radial_grid(2, 8.0, 8, "uniform"))
    v = GridFunction(other, np.ones((8, 8)))
    with pytest.raises(UsageError):
        hardy_littlewood_check(u, v)


def shifted_bump(grid, s0=2.0):
    s = grid.s_nodes[:, None]
    t = grid.t_nodes[None, :]
    vals = np.exp(-((s - s0) ** 2) - t**2) * np.ones(grid.shape)
    vals[-1, :] = 0.0
    vals[:, -1] = 0.0
    return GridFunction(grid, vals)


def test_polya_szego_fixed_point_equality():
    g = eq_grid(32)
    s = g.s_nodes[:, None]
    t = g.t_nodes[None, :]
    u = double_star(GridFunction(g, np.exp(-(s**2) - t**2) * np.ones(g.shape)))
    rep = polya_szego_check(u, 2.0)
    assert rep.slack == 0.0
    assert rep.energy_plain == pytest.approx(rep.energy_double_star, rel=1e-12)


def test_polya_szego_shifted_bump_and_refinement():
    # the discrete chain holds exactly for this input at every n
    for n in (64, 128):
        rep = polya_szego_check(shifted_bump(eq_grid(n)), 2.0)
        assert rep.energy_double_star <= rep.energy_star <= rep.energy_plain
        assert rep.slack == 0.0


@pytest.mark.xfail(
    strict=True,
    reason="the weighted pass samples each cell's measure start, so it is not "
    "measure-preserving on unequal cells",
)
def test_double_star_does_not_raise_the_quotient_on_a_geometric_grid():
    # N = 4, k = 2, beta = 1 on two geometric radii with an origin cell of
    # 1/128: Q rises 6.63492 -> 9.05956 and E, E*, E** read 338.39, 365.98
    # and 484.29 with start-sampled cells
    radial = make_radial_grid(2, 8.0, 128, "geometric", first_width=1 / 128)
    g = CylGrid(radial, radial)
    s, t = g.s_nodes[:, None], g.t_nodes[None, :]
    bumps = ((0.481, 0.094, 1.521, 0.234), (0.21, 1.65, 1.338, 0.863), (0.518, 3.473, 1.286, 0.882))
    vals = sum(h * np.exp(-((s - cs) ** 2 + (t - ct) ** 2) / w**2) for cs, ct, w, h in bumps)
    vals[-1, :] = 0.0
    vals[:, -1] = 0.0
    u = GridFunction(g, vals)
    report = symmetrize_and_compare(u, Params.hardy_sobolev(N=4, k=2, p=2.0, beta=1.0))
    assert report["quotient_after"] <= report["quotient_before"]
    assert polya_szego_check(u, 2.0).slack == 0.0


def test_monotone_weight_constraint():
    # int u^q g(|y|) h(|z|) <= int (u**)^q g h for nonincreasing g, h: the
    # product weight is its own double star and (u^q)** = (u**)^q
    g = eq_grid(32)
    rng = np.random.default_rng(12)
    u = GridFunction(g, rng.uniform(size=g.shape))
    gs = np.exp(-g.s_nodes)
    ht = 1.0 / (1.0 + g.t_nodes)
    weight = GridFunction(g, np.outer(gs, ht))
    for _ in range(50):
        u = GridFunction(g, rng.uniform(size=g.shape))
        plain, symmetrized = hardy_littlewood_check(GridFunction(g, u.values**2.0), weight)
        assert symmetrized >= plain - 1e-12 * abs(plain)
    # constant weights: both sides equal
    ones = GridFunction(g, np.ones(g.shape))
    plain, symmetrized = hardy_littlewood_check(GridFunction(g, u.values**2.0), ones)
    assert plain == pytest.approx(symmetrized, rel=1e-12)
    with pytest.raises(UsageError):
        hardy_littlewood_check(u, GridFunction(g, np.outer(g.s_nodes, ht)))
