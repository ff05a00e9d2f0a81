import math

import numpy as np
import pytest

from hardysym import (
    CylGrid,
    DegenerateInputError,
    GridFunction,
    ParameterError,
    Params,
    UsageError,
    double_star,
    hardy_quotient,
    hs_constraint,
    hs_quotient,
    make_radial_grid,
    sphere_area,
    weighted_dirichlet,
    weighted_p_norm,
)
from hardysym.grid import BLOCK_CELLS, DirichletEnergy, as_2d


def cyl_grid(n=64, r_max=8.0, k=2, m=2):
    return CylGrid(
        make_radial_grid(k, r_max, n, "uniform"),
        make_radial_grid(m, r_max, n, "uniform"),
    )


# ---------------------------------------------------------------------------
# Params validation


def test_params_hardy_mode():
    p = Params.hardy(N=3, k=3, p=2, alpha=0)
    assert p.alpha == 0
    assert p.m == 0


def test_params_hs_mode_derives_q():
    p = Params.hardy_sobolev(N=4, k=2, p=2, beta=1)
    assert p.q == pytest.approx(3.0)


@pytest.mark.parametrize(
    "kwargs, clause",
    [
        (dict(N=0, k=1, p=2, alpha=0), "N >= 1"),
        (dict(N=3, k=4, p=2, alpha=0), "1 <= k <= N"),
        (dict(N=3, k=3, p=1, alpha=0), "p > 1"),
        (dict(N=3, k=3, p=2, alpha=-3), "alpha + k > 0"),
        (dict(N=3, k=3, p=2), "either alpha"),
        (dict(N=4, k=2, p=5, beta=1), "p < N"),
        (dict(N=4, k=2, p=2, beta=-1), "beta >= 0"),
        (dict(N=4, k=1, p=2, beta=1), "beta < k"),
        (dict(N=4, k=3, p=2, beta=2.5), "beta <= p"),
        (dict(N=3, k=3, p=math.nan, alpha=0), "p > 1"),
        (dict(N=3, k=3, p=math.inf, alpha=0), "p finite"),
        (dict(N=3, k=3, p=2, alpha=math.inf), "alpha finite"),
        (dict(N=3, k=3, p=2, alpha=-math.inf), "alpha finite"),
        (dict(N=3, k=3, p=2, alpha=math.nan), "alpha finite"),
        (dict(N=4, k=2, p=2, beta=math.inf), "beta finite"),
        (dict(N=4, k=2, p=2, beta=math.nan), "beta finite"),
        (dict(N=2.5, k=2.5, p=2, alpha=0), "N integer"),
        (dict(N=4.5, k=2, p=2, beta=1), "N integer"),
        (dict(N=3, k=2.0, p=2, alpha=0), "k integer"),
        (dict(N=math.inf, k=3, p=2, alpha=0), "N integer"),
    ],
)
def test_params_named_clause_errors(kwargs, clause):
    import re

    with pytest.raises(ParameterError, match=re.escape(clause)):
        Params(**kwargs)


def test_params_take_numpy_integer_dimensions():
    params = Params.hardy_sobolev(N=np.int64(4), k=np.int32(2), p=2, beta=1)
    assert params.q == Params.hardy_sobolev(N=4, k=2, p=2, beta=1).q == 3.0


def test_params_q_is_not_a_constructor_argument():
    # q is always derived from (N, p, beta), so there is nothing to pass
    with pytest.raises(TypeError):
        Params(N=4, k=2, p=2, beta=1, q=3)


# ---------------------------------------------------------------------------
# weighted norms


def test_weighted_p_norm_constant_radial():
    g = make_radial_grid(3, 2.0, 64, "uniform")
    u = GridFunction(g, np.ones(64))
    exact = sphere_area(3) * 2.0**3 / 3
    assert weighted_p_norm(u, 2.0, 0.0) == pytest.approx(exact, rel=1e-12)


def test_weighted_p_norm_singular_weight_exact():
    # int_{|y|<1, R^2} |y|^{-1} dy = 2 pi; exact per-cell averages, any grading
    g = make_radial_grid(2, 1.0, 16, "geometric", first_width=5e-3)
    u = GridFunction(g, np.ones(16))
    assert weighted_p_norm(u, 3.0, -1.0) == pytest.approx(2 * math.pi, rel=1e-12)


def test_weighted_p_norm_homogeneity():
    g = cyl_grid(n=16)
    rng = np.random.default_rng(3)
    u = GridFunction(g, rng.uniform(size=g.shape))
    base = weighted_p_norm(u, 3.0, -1.0)
    assert weighted_p_norm(u.scaled(2.0), 3.0, -1.0) == pytest.approx(8 * base, rel=1e-12)


def whole_array_norm(u, p, a):
    """weighted_p_norm as one whole-array expression, summed once."""
    values, grid = as_2d(u)
    return float(np.sum(values**p * grid.s_grid.weight_average(a)[:, None] * grid.cell_measures))


def bumpy(grid, seed):
    rng = np.random.default_rng(seed)
    s = grid.s_nodes[:, None] / grid.s_grid.r_max
    t = grid.t_nodes[None, :] / grid.t_grid.r_max
    return np.exp(-4.0 * s**2 - 3.0 * t**2) * (1.0 + 0.2 * rng.uniform(size=grid.shape))


@pytest.mark.parametrize("p, a", [(2.0, 0.0), (3.0, -1.0)])
def test_blocked_weighted_p_norm_matches_whole_array(p, a):
    # four row blocks, the last one ragged (5 rows)
    nt = 64
    ns = 3 * (BLOCK_CELLS // nt) + 5
    g = CylGrid(make_radial_grid(2, 6.0, ns, "geometric", first_width=3e-4), make_radial_grid(2, 4.0, nt, "uniform"))
    u = GridFunction(g, bumpy(g, 11))
    assert weighted_p_norm(u, p, a) == pytest.approx(whole_array_norm(u, p, a), rel=1e-13)


@pytest.mark.parametrize("p, a", [(2.0, 0.0), (3.0, -1.0)])
def test_single_block_weighted_p_norm_is_whole_array_arithmetic(p, a):
    # at most BLOCK_CELLS cells: the exact whole-array sum, also for the
    # Fortran-ordered output of double_star, which is summed in memory order
    g = cyl_grid(n=96)
    u = GridFunction(g, bumpy(g, 5))
    fortran = double_star(GridFunction(g, u.values[::-1].copy()))
    assert fortran.values.flags["F_CONTIGUOUS"] and not fortran.values.flags["C_CONTIGUOUS"]
    radial = make_radial_grid(3, 100.0, 200, "geometric", first_width=1e-2)
    for v in (u, fortran, GridFunction(radial, np.exp(-radial.nodes))):
        assert v.values.size <= BLOCK_CELLS
        assert weighted_p_norm(v, p, a) == whole_array_norm(v, p, a)


def test_weighted_dirichlet_constant_is_zero():
    # at the natural end, hardy_quotient's; the wall charges the jump to zero
    g = cyl_grid(n=16)
    u = GridFunction(g, np.ones(g.shape))
    assert DirichletEnergy(g, False, 2.0, 0.0).energy(u.values) == 0.0
    assert weighted_dirichlet(u, 2.0) > 0.0


# ---------------------------------------------------------------------------
# quotients


def test_hardy_quotient_tent_function_1d():
    # d=1, alpha=0: quotient of the tent is close to its analytic value
    g = make_radial_grid(1, 1.0, 4000, "uniform")
    u = GridFunction(g, 1.0 - g.nodes)
    rep = hardy_quotient(u, Params.hardy(N=1, k=1, p=2, alpha=0))
    # int_0^1 r^2 dr / int_0^1 (1-r)^2 dr = (1/3)/(1/3) = 1
    assert rep.value == pytest.approx(1.0, rel=1e-3)


def test_hardy_quotient_scale_invariance():
    g = make_radial_grid(3, 2.0, 256, "uniform")
    u = GridFunction(g, np.exp(-g.nodes**2))
    params = Params.hardy(N=3, k=3, p=2, alpha=0)
    r1 = hardy_quotient(u, params).value
    r2 = hardy_quotient(u.scaled(7.0), params).value
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_hs_quotient_aubin_talenti_oracle():
    # (1 + r^2)^(-1/2) optimizes the beta=0, p=2, N=3 Sobolev quotient (q=6).
    # Oracle: the same quotient from dense 1D quadrature with analytic gradient.
    params = Params.hardy_sobolev(N=3, k=3, p=2, beta=0)
    assert params.q == pytest.approx(6.0)
    # The bubble is shifted down to vanish at r_max, where hs_quotient's
    # energy has its Dirichlet wall.
    r_max = 50.0
    g = CylGrid(make_radial_grid(3, r_max, 8000, "geometric", first_width=1e-3))

    def bubble(r):
        return (1 + r**2) ** -0.5 - (1 + r_max**2) ** -0.5

    u = GridFunction(g, bubble(g.s_nodes)[:, None])
    rep = hs_quotient(u, params)

    rr = np.linspace(0, r_max, 400001)
    f = bubble(rr)
    df = -rr * (1 + rr**2) ** -1.5
    num = sphere_area(3) * np.trapezoid(df**2 * rr**2, rr)
    den = (sphere_area(3) * np.trapezoid(f**6 * rr**2, rr)) ** (2.0 / 6.0)
    assert rep.value == pytest.approx(num / den, rel=1e-5)


def test_hs_quotient_scale_invariance_and_report():
    g = cyl_grid(n=32)
    s = g.s_nodes[:, None]
    t = g.t_nodes[None, :]
    u = GridFunction(g, np.exp(-(s**2) - t**2) * np.ones(g.shape))
    params = Params.hardy_sobolev(N=4, k=2, p=2, beta=1)
    r1 = hs_quotient(u, params)
    r2 = hs_quotient(u.scaled(3.0), params)
    assert r1.value == pytest.approx(r2.value, rel=1e-12)
    assert r1.value == pytest.approx(r1.numerator / r1.denominator, rel=1e-14)


def test_hs_constraint_zero_function():
    g = cyl_grid(n=8)
    u = GridFunction(g, np.zeros(g.shape))
    params = Params.hardy_sobolev(N=4, k=2, p=2, beta=1)
    assert hs_constraint(u, params) == 0.0
    with pytest.raises(DegenerateInputError):
        hs_quotient(u, params)


def test_functionals_reject_grid_not_matching_params():
    # N=4, k=2 params on a (k, m) = (3, 3) grid and on an m = 0 grid
    params = Params.hardy_sobolev(N=4, k=2, p=2, beta=1)
    for g in (cyl_grid(n=16, k=3, m=3), CylGrid(make_radial_grid(2, 8.0, 16, "uniform"))):
        u = GridFunction(g, np.ones(g.shape))
        with pytest.raises(UsageError):
            hs_constraint(u, params)
        with pytest.raises(UsageError):
            hs_quotient(u, params)
    radial = make_radial_grid(2, 1.0, 16, "uniform")
    u = GridFunction(radial, 1.0 - radial.nodes)
    with pytest.raises(UsageError):
        hardy_quotient(u, Params.hardy(N=3, k=3, p=2, alpha=0))
    with pytest.raises(UsageError):
        hardy_quotient(u, Params.hardy(N=3, k=2, p=2, alpha=0))


def test_quotient_mode_mismatch():
    g = cyl_grid(n=8)
    u = GridFunction(g, np.ones(g.shape))
    with pytest.raises(UsageError):
        hardy_quotient(u, Params.hardy_sobolev(N=4, k=2, p=2, beta=1))
    with pytest.raises(UsageError):
        hs_quotient(u, Params.hardy(N=4, k=2, p=2, alpha=0))
