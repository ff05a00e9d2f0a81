import json

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from hardysym import (
    CylGrid,
    DegenerateInputError,
    DescentOptions,
    DomainError,
    GridFunction,
    UsageError,
    Params,
    default_init,
    double_star,
    hardy_endpoint_sweep,
    hs_constraint,
    hs_quotient,
    make_radial_grid,
    minimize_hs,
    symmetrize_and_compare,
)
from hardysym.minimizer import _build_preconditioner, _StaggeredEnergy, _stiffness_1d

HS_PARAMS = Params.hardy_sobolev(N=4, k=2, p=2, beta=1)


def hs_grid(n=48, r_max=8.0):
    return CylGrid(
        make_radial_grid(2, r_max, n, "uniform"),
        make_radial_grid(2, r_max, n, "uniform"),
    )


def test_projection_exact():
    g = hs_grid(16)
    tr = minimize_hs(HS_PARAMS, g, opts=DescentOptions(max_iter=1))
    assert abs(tr.constraints[0] - 1.0) <= 1e-12


def test_all_zero_init_rejected():
    g = hs_grid(8)
    u0 = GridFunction(g, np.zeros(g.shape))
    with pytest.raises(DegenerateInputError):
        minimize_hs(HS_PARAMS, g, init=u0)


def test_trace_monotone_and_serializable():
    g = hs_grid(32)
    tr = minimize_hs(HS_PARAMS, g, opts=DescentOptions(max_iter=200))
    q = tr.quotients
    assert all(b <= a for a, b in zip(q, q[1:]))
    assert max(abs(c - 1.0) for c in tr.constraints) <= 1e-8
    payload = json.loads(tr.to_json())
    assert payload["quotients"] == q
    assert payload["converged"] == tr.converged


def test_scale_consistency():
    g = hs_grid(24)
    u0 = default_init(g, "bump")
    tr1 = minimize_hs(HS_PARAMS, g, init=u0)
    tr2 = minimize_hs(HS_PARAMS, g, init=u0.scaled(10.0))
    assert tr1.quotients[-1] == pytest.approx(tr2.quotients[-1], rel=1e-10)


def test_near_optimal_init_is_stable():
    # Sobolev optimizer surrogate (beta=0, p=2, k=N=3): quotient should move
    # by well under 0.5% over 200 iterations from the analytic profile
    params = Params.hardy_sobolev(N=3, k=3, p=2, beta=0)
    g = CylGrid(make_radial_grid(3, 4000.0, 2000, "geometric", first_width=1e-2))
    r = g.s_nodes
    # Shift the analytic profile so it vanishes at the outer wall; otherwise
    # the built-in Dirichlet edge sees a spurious boundary-layer gradient.
    # The large radius keeps the truncation loss well below the drift budget.
    prof = (1 + r**2) ** -0.5 - (1 + 4000.0**2) ** -0.5
    u0 = GridFunction(g, np.clip(prof, 0.0, None)[:, None])
    tr = minimize_hs(params, g, init=u0, opts=DescentOptions(max_iter=200))
    assert abs(tr.quotients[-1] - tr.quotients[0]) / tr.quotients[0] < 5e-3


def test_symmetric_class_closure():
    g = hs_grid(32)
    u0 = double_star(default_init(g, "random", seed=3))
    tr = minimize_hs(HS_PARAMS, g, init=u0, opts=DescentOptions(max_iter=300))
    u = tr.final_u.values
    tol = 1e-6 * u.max()
    assert np.all(np.diff(u, axis=0) <= tol)
    assert np.all(np.diff(u, axis=1) <= tol)


def test_self_consistency_across_seeds():
    g = hs_grid(48)
    finals = []
    for seed in range(3):
        init = "bump" if seed == 0 else "random"
        tr = minimize_hs(HS_PARAMS, g, init=init, opts=DescentOptions(seed=seed))
        assert tr.converged
        finals.append(tr.quotients[-1])
    assert (max(finals) - min(finals)) / min(finals) < 0.02


def test_minimizer_and_hs_quotient_share_the_energy():
    # the minimizer's energy differs from hs_quotient's only by the wall edge
    for n in (32, 64):
        tr = minimize_hs(HS_PARAMS, hs_grid(n))
        assert hs_quotient(tr.final_u, HS_PARAMS).value == pytest.approx(tr.quotients[-1], rel=1e-3)


def test_symmetry_deviation_is_that_of_the_final_iterate():
    # On uniform grids the iterates alternate between the symmetric class and
    # a point about 3e-4 outside it; the trace reports the final iterate's.
    g = hs_grid(64)
    s = g.s_nodes[:, None]
    t = g.t_nodes[None, :]
    u0 = GridFunction(g, np.exp(-((s - 1.01) ** 2 + (t - 0.28) ** 2) / 0.97**2))
    tr = minimize_hs(HS_PARAMS, g, init=u0, opts=DescentOptions(max_iter=100, tol=0.0))
    u = tr.final_u.values
    assert tr.symmetry_deviation == np.max(np.abs(double_star(tr.final_u).values - u)) / u.max()
    assert tr.symmetry_deviation == pytest.approx(4.15e-4, rel=1e-2)
    assert json.loads(tr.to_json())["symmetry_deviation"] == tr.symmetry_deviation


@pytest.mark.parametrize(
    "params, grid",
    [
        (HS_PARAMS, hs_grid(32)),
        (
            Params.hardy_sobolev(N=3, k=3, p=2, beta=1),
            CylGrid(make_radial_grid(3, 100.0, 64, "geometric", first_width=1e-2)),
        ),
    ],
)
def test_trace_constraint_is_hs_constraint(params, grid):
    tr = minimize_hs(params, grid, opts=DescentOptions(max_iter=50))
    assert tr.constraints[-1] == hs_constraint(tr.final_u, params)


def test_grid_not_matching_params_rejected():
    # N=4, k=2 params on a (k, m) = (3, 3) grid
    g = CylGrid(make_radial_grid(3, 8.0, 16, "uniform"), make_radial_grid(3, 8.0, 16, "uniform"))
    with pytest.raises(UsageError):
        minimize_hs(HS_PARAMS, g, opts=DescentOptions(max_iter=1))
    with pytest.raises(UsageError):
        symmetrize_and_compare(default_init(g, "bump"), HS_PARAMS)


def test_initializer_on_another_grid_rejected():
    with pytest.raises(UsageError):
        minimize_hs(HS_PARAMS, hs_grid(16), init=default_init(hs_grid(8), "bump"))


@pytest.mark.parametrize(
    "s_grid, t_grid",
    [
        (make_radial_grid(2, 8.0, 48, "uniform"), make_radial_grid(2, 8.0, 24, "uniform")),
        (make_radial_grid(2, 8.0, 24, "uniform"), make_radial_grid(1, 5.0, 40, "uniform")),
        (make_radial_grid(3, 8.0, 48, "equimeasure"), make_radial_grid(1, 6.0, 24, "equimeasure")),
        (make_radial_grid(2, 8.0, 20, "equimeasure"), make_radial_grid(2, 4.0, 36, "equimeasure")),
        (make_radial_grid(3, 100.0, 64, "geometric", first_width=1e-2), None),
    ],
)
def test_preconditioner_matches_direct_solve(s_grid, t_grid):
    # ns != nt on every cylinder, so a transposed eigenbasis cannot pass
    g = CylGrid(s_grid, t_grid)
    ns, nt = g.shape
    energy = _StaggeredEnergy(g, 2.0, 0.0)
    ms, mt = s_grid.cell_measures, g.t_measures
    P = sp.kron(_stiffness_1d(ns, energy.inv_ds, ms), sp.diags(mt)) + sp.diags(g.cell_measures.ravel())
    if t_grid is not None:
        P = P + sp.kron(sp.diags(ms), _stiffness_1d(nt, energy.inv_dt, mt))
    R = np.random.default_rng(3).standard_normal(g.shape)
    expected = spsolve(P.tocsc(), R.ravel()).reshape(g.shape)
    solve = _build_preconditioner(g, energy)
    assert np.max(np.abs(solve(R) - expected)) <= 1e-12 * np.max(np.abs(expected))
    # the matrix is the p = 2 energy's Hessian plus the mass
    _, grad = energy.value_and_gradient(R)
    back = solve(0.5 * grad + g.cell_measures * R)
    assert np.max(np.abs(back - R)) <= 1e-12 * np.max(np.abs(R))


def test_symmetrize_and_compare_fixed_point():
    g = hs_grid(32)
    u = double_star(default_init(g, "bump"))
    rep = symmetrize_and_compare(u, HS_PARAMS)
    assert rep["quotient_after"] == pytest.approx(rep["quotient_before"], rel=1e-12)


def test_symmetrize_and_compare_off_center_bump():
    for n in (64, 128):
        g = CylGrid(
            make_radial_grid(2, 8.0, n, "equimeasure"),
            make_radial_grid(2, 8.0, n, "equimeasure"),
        )
        s = g.s_nodes[:, None]
        t = g.t_nodes[None, :]
        vals = np.exp(-((s - 2.0) ** 2) - (t - 1.0) ** 2) * np.ones(g.shape)
        vals[-1, :] = 0.0
        vals[:, -1] = 0.0
        rep = symmetrize_and_compare(GridFunction(g, vals), HS_PARAMS)
        assert rep["energy_after"] < rep["energy_before"]
        assert rep["constraint_after"] > rep["constraint_before"]
        assert rep["quotient_after"] <= rep["quotient_before"]


def test_symmetrize_and_compare_zero_input():
    g = hs_grid(8)
    with pytest.raises(DegenerateInputError):
        symmetrize_and_compare(GridFunction(g, np.zeros(g.shape)), HS_PARAMS)


def test_endpoint_sweep_monotone_toward_target():
    params = Params.hardy_sobolev(N=4, k=3, p=2, beta=2)
    rows = hardy_endpoint_sweep(params, n_s=1024, n_t=256)
    quotients = [r["quotient"] for r in rows]
    assert all(a > b for a, b in zip(quotients, quotients[1:]))
    assert rows[-1]["target"] == pytest.approx(0.25)
    assert rows[-1]["rel_gap"] > 0


def test_endpoint_sweep_validation():
    with pytest.raises(DomainError):
        hardy_endpoint_sweep(Params.hardy_sobolev(N=4, k=2, p=2, beta=1))
    # p >= k degenerates the endpoint constant
    with pytest.raises(DomainError):
        hardy_endpoint_sweep(Params.hardy_sobolev(N=8, k=2, p=2, beta=2))
