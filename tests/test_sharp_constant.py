import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scipy.linalg import eigh_tridiagonal

from hardysym import (
    ConfigurationError,
    CylGrid,
    DomainError,
    GridFunction,
    Params,
    PowerTail,
    convexity_bound,
    dirichlet_eigenvalue_interval,
    eps_family,
    eps_quotient_closed_form,
    eps_sweep,
    hardy_constant,
    make_radial_grid,
    product_family,
    split_infimum_demo,
    sphere_area,
    tail_correction,
)


def test_hardy_constant_values():
    assert hardy_constant(2, 0, 3) == pytest.approx(4.0 / 9.0, abs=1e-15)
    assert hardy_constant(2, -2, 3) == pytest.approx(4.0, abs=1e-15)
    assert hardy_constant(3, 1, 4) == pytest.approx(27.0 / 125.0, abs=1e-15)


def test_hardy_constant_validation():
    with pytest.raises(DomainError, match="p > 1"):
        hardy_constant(1, 0, 3)
    with pytest.raises(DomainError, match="alpha \\+ k > 0"):
        hardy_constant(2, -3, 3)
    # NaN fails its clause, and no constant is given for p or alpha infinite
    # or for a space of dimension k <= 0
    for args, clause in [
        ((math.nan, 0, 3), "p > 1"),
        ((math.inf, 0, 3), "p finite"),
        ((2, math.nan, 3), "alpha finite"),
        ((2, math.inf, 3), "alpha finite"),
        ((2, -math.inf, 3), "alpha finite"),
        ((2, 1, 0), "k >= 1"),
        ((2, 5, -3), "k >= 1"),
    ]:
        with pytest.raises(DomainError, match=clause):
            hardy_constant(*args)


def test_closed_form_quotient_against_quadrature_oracle():
    # independent oracle: dense log-spaced quadrature of both integrals of the
    # plateau / power-decay family
    for (p, alpha, N, eps) in [(2, 0, 3, 0.3), (2, -2, 3, 0.5), (3, 1, 4, 0.2)]:
        gamma = (alpha + N) / p + eps
        r = np.logspace(0, 8, 400001)
        tail_num = sphere_area(N) * np.trapezoid((gamma * r ** (-gamma - 1)) ** p * r ** (alpha + p + N - 1), r)
        tail_den = sphere_area(N) * np.trapezoid(r ** (-gamma * p) * r ** (alpha + N - 1), r)
        plateau_den = sphere_area(N) / (alpha + N)  # int_0^1 r^{alpha+N-1}
        oracle = tail_num / (plateau_den + tail_den)
        assert eps_quotient_closed_form(eps, p, alpha, N) == pytest.approx(oracle, rel=1e-3)


def test_closed_form_quotient_monotone_decreasing_to_limit():
    limit = ((0 + 3) / 2.0) ** 2
    values = [eps_quotient_closed_form(e, 2, 0, 3) for e in (1, 0.3, 0.1, 0.01, 1e-4)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] > limit
    assert values[-1] == pytest.approx(limit, rel=1e-3)


def test_eps_family_shape():
    g = make_radial_grid(3, 10.0, 200, "split", r_break=1.0)
    params = Params.hardy(N=3, k=3, p=2, alpha=0)
    u = eps_family(0.5, params, g)
    inside = g.nodes <= 1.0
    assert np.all(u.values[inside] == 1.0)
    assert np.all(np.diff(u.values[~inside]) < 0)
    with pytest.raises(DomainError):
        eps_family(0.0, params, g)


def test_eps_sweep_matches_closed_form():
    params = Params.hardy(N=3, k=3, p=2, alpha=0)
    rows = eps_sweep(params)
    for row in rows:
        assert row["rel_err"] < 5e-3
    assert rows[-1]["eps"] == pytest.approx(1e-3)
    assert abs(rows[-1]["quotient"] - 2.25) / 2.25 < 0.01
    with pytest.raises(ConfigurationError):
        eps_sweep(params, eps_values=())


def test_tail_correction_examples():
    g = make_radial_grid(3, 10.0, 16, "uniform")
    # u = r^-2 outside r=10 in R^3, p=1, a=0: 4 pi int_10^inf r^-2 r^2 dr diverges
    with pytest.raises(DomainError):
        tail_correction(PowerTail(1.0, -2.0), g, 1.0, 0.0)
    # p=2: 4 pi int_10^inf r^-4 r^2 dr = 4 pi / 10
    val = tail_correction(PowerTail(1.0, -2.0), g, 2.0, 0.0)
    assert val == pytest.approx(4 * math.pi / 10.0, rel=1e-12)
    assert tail_correction(PowerTail(0.0, -2.0), g, 1.0, 0.0) == 0.0


def test_convexity_bound_basic():
    lhs, rhs = convexity_bound(1.0, 1.0, 0.5, 2.0)
    assert lhs == pytest.approx(2.0)
    assert rhs == pytest.approx(4.0)
    assert lhs <= rhs
    with pytest.raises(DomainError):
        convexity_bound(1.0, 1.0, 0.0, 2.0)
    with pytest.raises(DomainError):
        convexity_bound(1.0, 1.0, 0.5, 1.0)
    with pytest.raises(DomainError):
        convexity_bound(-1.0, 1.0, 0.5, 2.0)


def test_convexity_bound_approaches_equality_at_degenerate_boundary():
    # with t = 0 the bound reads s^p <= (1-lam)^{1-p} s^p, tight as lam -> 0
    gaps = []
    for lam in (0.1, 0.01, 0.001):
        lhs, rhs = convexity_bound(2.0, 0.0, lam, 3.0)
        gaps.append(rhs - lhs)
    assert all(g >= 0 for g in gaps)
    assert gaps[0] > gaps[1] > gaps[2]


@given(
    s=st.floats(min_value=0.0, max_value=10.0),
    t=st.floats(min_value=0.0, max_value=10.0),
    lam=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    p=st.floats(min_value=1.0 + 1e-6, max_value=6.0),
)
@example(s=2.051014302081488e-158, t=0.0, lam=1e-06, p=1.001953125)  # s * s is subnormal
@settings(max_examples=300, deadline=None)
def test_convexity_bound_property(s, t, lam, p):
    lhs, rhs = convexity_bound(s, t, lam, p)
    assert lhs <= rhs * (1 + 1e-12) + 1e-300


def test_dirichlet_eigenvalue_oracle():
    assert dirichlet_eigenvalue_interval(1.0) == pytest.approx(math.pi**2, rel=1e-6)
    assert dirichlet_eigenvalue_interval(2.0) == pytest.approx(math.pi**2 / 4, rel=1e-6)


@pytest.mark.parametrize("n", [2, 3, 512])
def test_dirichlet_eigenvalue_is_the_tridiagonal_eigenvalue(n):
    # the smallest eigenvalue of tridiag(-1, 2, -1) / h^2 on the n - 1 interior
    # nodes; the solver's relative error is about kappa * eps, with kappa =
    # cot^2(pi / 2n) the matrix's condition number
    kappa = 1.0 / math.tan(math.pi / (2 * n)) ** 2
    for width in (1.0, 0.7):
        h = width / n
        diagonal, off = np.full(n - 1, 2.0 / h**2), np.full(n - 2, -1.0 / h**2)
        reference = eigh_tridiagonal(diagonal, off, select="i", select_range=(0, 0), eigvals_only=True)[0]
        rel = 4.0 * kappa * np.finfo(float).eps
        assert dirichlet_eigenvalue_interval(width, n) == pytest.approx(reference, rel=rel)
    with pytest.raises(ConfigurationError):
        dirichlet_eigenvalue_interval(1.0, 1)


@pytest.mark.parametrize("width", [-1.0, 0.0, 1e-160, 1e300, math.nan])
def test_interval_width_without_a_finite_positive_oracle_rejected(width):
    # negative, zero, overflowing, underflowing and nan widths
    with pytest.raises(ConfigurationError, match="width"):
        dirichlet_eigenvalue_interval(width)
    with pytest.raises(ConfigurationError, match="omega_width"):
        split_infimum_demo(omega_width=width)


def test_product_family_is_v_times_the_scaled_bump():
    grid = CylGrid(make_radial_grid(3, 2.0, 12, "uniform"), make_radial_grid(2, 5.0, 40, "uniform"))
    v = GridFunction(grid.s_grid, np.exp(-grid.s_nodes))
    lam = 3.0
    u = product_family(v, lam, grid)
    x = grid.t_nodes / lam
    inside = x < 1.0
    assert np.array_equal(u.values[:, inside], np.outer(v.values, (1.0 - x[inside] ** 2) ** 2))
    assert np.all(u.values[:, ~inside] == 0.0) and np.any(~inside)
    assert np.array_equal(product_family(v, 5.0, grid).values > 0, np.ones(grid.shape, bool))
    with pytest.raises(ConfigurationError):
        product_family(v, 5.5, grid)


def test_product_family_rejects_v_from_another_s_grid():
    grid = CylGrid(make_radial_grid(3, 5.0, 12, "uniform"), make_radial_grid(1, 5.0, 40, "uniform"))
    other = make_radial_grid(3, 2.0, 12, "geometric", first_width=0.01)
    with pytest.raises(ConfigurationError, match="its edges, nodes, cell_measures differ"):
        product_family(GridFunction(other, np.ones(12)), 3.0, grid)
    with pytest.raises(ConfigurationError, match="its dim, cell_measures differ"):
        product_family(GridFunction(make_radial_grid(2, 5.0, 12, "uniform"), np.ones(12)), 3.0, grid)
    # an equal grid built separately is the cylinder's s-grid
    twin = make_radial_grid(3, 5.0, 12, "uniform")
    assert twin is not grid.s_grid
    v = GridFunction(twin, np.exp(-twin.nodes))
    assert np.array_equal(product_family(v, 3.0, grid).values, product_family(GridFunction(grid.s_grid, v.values), 3.0, grid).values)


def test_split_infimum_demo_converges():
    result = split_infimum_demo()
    rows = result["rows"]
    quotients = [r["quotient"] for r in rows]
    assert all(a > b for a, b in zip(quotients, quotients[1:]))
    oracle = dirichlet_eigenvalue_interval(1.0)
    assert abs(quotients[-1] - oracle) / oracle < 0.02
    with pytest.raises(ConfigurationError):
        split_infimum_demo(lambda_scales=())


def test_split_infimum_demo_ladder_is_relative_to_omega():
    # lambda = lambda_scale * omega_width, so the whole demo scales with
    # omega and the last rung's gap to the oracle does not depend on it
    def gap(width):
        result = split_infimum_demo(omega_width=width)
        assert [row["lambda"] for row in result["rows"]] == [s * width for s in (1.0, 4.0, 16.0, 64.0)]
        return result["rows"][-1]["quotient"] / result["omega_infimum"] - 1.0

    reference = gap(1.0)
    gaps = {width: gap(width) for width in (0.1, 10.0, 100.0, 1000.0)}
    print(f"split-demo rel_gap {reference:.6e} at omega = 1; at other omega: {gaps}")
    assert 7e-5 < reference < 8e-5
    assert all(abs(value - reference) <= 1e-12 for value in gaps.values()), gaps
    with pytest.raises(ConfigurationError, match="lambda_scales times omega_width"):
        split_infimum_demo(omega_width=1e10, lambda_scales=(1e300,))
