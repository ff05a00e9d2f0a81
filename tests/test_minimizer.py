import json
import tracemalloc

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
    weighted_dirichlet,
)
from hardysym import minimizer
from hardysym.grid import DirichletEnergy
from hardysym.minimizer import _generalized_eigh, _lbfgs_direction, splu

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
    payload = json.loads(json.dumps(tr.to_dict()))
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
    # the minimizer's energy is weighted_dirichlet with the wall edge, and
    # differs from hs_quotient's only by that edge
    for n in (32, 64):
        tr = minimize_hs(HS_PARAMS, hs_grid(n))
        assert tr.energies[-1] == weighted_dirichlet(tr.final_u, 2.0, 0.0, wall=True)
        assert hs_quotient(tr.final_u, HS_PARAMS).value == pytest.approx(tr.quotients[-1], rel=1e-3)
    params = Params.hardy_sobolev(N=3, k=3, p=2, beta=1)
    g = CylGrid(make_radial_grid(3, 100.0, 64, "geometric", first_width=1e-2))
    tr = minimize_hs(params, g, opts=DescentOptions(max_iter=200))
    assert tr.energies[-1] == weighted_dirichlet(tr.final_u, 2.0, 0.0, wall=True)


def test_symmetry_deviation_is_that_of_the_final_iterate():
    # a run cut off before it converges ends outside the symmetric class;
    # the trace reports that final iterate's own deviation
    g = hs_grid(64)
    s = g.s_nodes[:, None]
    t = g.t_nodes[None, :]
    u0 = GridFunction(g, np.exp(-((s - 1.01) ** 2 + (t - 0.28) ** 2) / 0.97**2))
    tr = minimize_hs(HS_PARAMS, g, init=u0, opts=DescentOptions(max_iter=2))
    assert tr.stop_reason == "max_iter" and not tr.converged
    u = tr.final_u.values
    assert tr.symmetry_deviation == np.max(np.abs(double_star(tr.final_u).values - u)) / u.max()
    assert tr.symmetry_deviation > 0
    assert json.loads(json.dumps(tr.to_dict()))["symmetry_deviation"] == tr.symmetry_deviation


def test_stop_does_not_depend_on_the_scale_of_the_start():
    # the benchmark's radial grid; the quotient cannot see a rescaling, and
    # neither can the residual stop
    params = Params.hardy_sobolev(N=3, k=3, p=2, beta=1)
    g = CylGrid(make_radial_grid(3, 1000.0, 200, "geometric", first_width=1e-2))
    u0 = default_init(g, "bump")
    traces = [minimize_hs(params, g, init=u0.scaled(a)) for a in (1.0, 1.0 + 1e-12, 10.0)]
    assert all(tr.stop_reason == "residual" for tr in traces)
    assert len({len(tr.quotients) for tr in traces}) == 1
    finals = [tr.quotients[-1] for tr in traces]
    assert (max(finals) - min(finals)) / min(finals) <= 1e-12


@pytest.mark.parametrize("init, seed", [("bump", 0), ("random", 1), ("random", 2)])
def test_residual_stop(init, seed):
    g = hs_grid(64)
    opts = DescentOptions(seed=seed)
    tr = minimize_hs(HS_PARAMS, g, init=init, opts=opts)
    assert tr.stop_reason == "residual" and tr.converged
    assert len(tr.quotients) - 1 <= 100
    assert tr.residuals[-1] <= opts.tol
    assert len(tr.residuals) == len(tr.quotients)
    assert json.loads(json.dumps(tr.to_dict()))["residuals"] == tr.residuals


def test_residual_stop_at_p_3():
    params = Params.hardy_sobolev(N=5, k=3, p=3, beta=1)
    g = CylGrid(make_radial_grid(3, 8.0, 32, "uniform"), make_radial_grid(2, 8.0, 32, "uniform"))
    tr = minimize_hs(params, g)
    assert tr.stop_reason == "residual"
    assert len(tr.quotients) - 1 <= 500
    assert tr.residuals[-1] <= DescentOptions().tol


def zero_tol_runs():
    """Centred and off-centre starts on cylinders, and a radial grid."""
    runs = [(HS_PARAMS, hs_grid(24), "bump")]
    for n in (32, 64):
        g = hs_grid(n)
        s, t = g.s_nodes[:, None], g.t_nodes[None, :]
        runs.append((HS_PARAMS, g, "bump"))
        for cs, ct, width in ((1.01, 0.28, 0.97), (2.5, 1.5, 1.0)):
            runs.append((HS_PARAMS, g, GridFunction(g, np.exp(-((s - cs) ** 2 + (t - ct) ** 2) / width**2))))
    radial = CylGrid(make_radial_grid(3, 100.0, 64, "geometric", first_width=1e-2))
    runs.append((Params.hardy_sobolev(N=3, k=3, p=2, beta=1), radial, "bump"))
    return runs


def test_zero_tol_never_stops_on_the_residual():
    # a rejected step reports converged = True, so it must come at
    # stationarity: these runs end there at residuals of 1.5e-9 to 1.2e-8
    for params, grid, init in zero_tol_runs():
        tr = minimize_hs(params, grid, init=init, opts=DescentOptions(max_iter=200, tol=0.0))
        assert tr.stop_reason in ("step_rejected_at_stationarity", "max_iter")
        assert tr.residuals[-1] > 0
        if tr.stop_reason == "step_rejected_at_stationarity":
            assert tr.converged and tr.residuals[-1] <= 1e-7


def test_line_search_evaluates_no_candidate_below_the_float_floor(monkeypatch):
    # every candidate whose energy is summed must predict a decrease
    # tau * slope above eps * Q; a search ends, rejected, at the first tau
    # that does not.  The direction and slope of each iteration are read
    # off _lbfgs_direction's arguments, the candidates off energy's calls
    eps = np.finfo(float).eps
    searches, energy_calls = [], [0]
    direction, energy = minimizer._lbfgs_direction, DirichletEnergy.energy

    def recording_direction(g, Kg, pairs, gamma):
        d = direction(g, Kg, pairs, gamma)
        slope = -np.vdot(g, d)
        searches.append((slope if slope > 0 else np.vdot(g, Kg), energy_calls[0]))
        return d

    def counting_energy(self, values):
        energy_calls[0] += 1
        return energy(self, values)

    monkeypatch.setattr(minimizer, "_lbfgs_direction", recording_direction)
    monkeypatch.setattr(DirichletEnergy, "energy", counting_energy)
    tau0 = DescentOptions.tau0
    for params, grid, init in zero_tol_runs():
        searches.clear()
        energy_calls[0] = 0
        tr = minimize_hs(params, grid, init=init, opts=DescentOptions(max_iter=200, tol=0.0))
        assert len(searches) == len(tr.quotients) - (tr.stop_reason == "max_iter")
        ends = [start for _, start in searches[1:]] + [energy_calls[0]]
        for i, ((slope, start), end) in enumerate(zip(searches, ends)):
            evaluated = end - start
            if i + 1 < len(tr.quotients):  # accepted at the last candidate
                assert evaluated == round(np.log2(tau0 / tr.step_sizes[i + 1])) + 1
            else:
                assert tr.stop_reason == "step_rejected_at_stationarity"
                # the next halving would have been at or below the floor
                assert tau0 * 0.5**evaluated * slope <= eps * tr.quotients[i]
            if evaluated:
                assert tau0 * 0.5 ** (evaluated - 1) * slope > eps * tr.quotients[i]


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


class RecordingEnergy(DirichletEnergy):
    """Remembers, for each gradient call, a copy of its values and the
    gradient returned."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def gradient(self, values):
        grad = super().gradient(values)
        self.calls.append((values.copy(), grad))
        return grad


@pytest.mark.parametrize(
    "params, grid",
    [
        (HS_PARAMS, hs_grid(24)),
        (Params.hardy_sobolev(N=4, k=2, p=3, beta=1), hs_grid(24)),
        (
            Params.hardy_sobolev(N=3, k=3, p=2, beta=1),
            CylGrid(make_radial_grid(3, 100.0, 64, "geometric", first_width=1e-2)),
        ),
    ],
)
def test_each_gradient_is_that_of_the_accepted_iterate(monkeypatch, params, grid):
    # iteration k's gradient must be, bit for bit, the gradient of iterate
    # k itself, and that iterate's energy the one in the trace
    made = []

    def recording(*args, **kwargs):
        made.append(RecordingEnergy(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr("hardysym.minimizer.DirichletEnergy", recording)
    tr = minimize_hs(params, grid, opts=DescentOptions(max_iter=40))
    (dirichlet,) = made
    assert len(dirichlet.calls) >= len(tr.quotients) - 1 >= 10
    fresh = DirichletEnergy(grid, True, params.p, 0.0, tr.delta_reg)
    for energy, (values, grad) in zip(tr.energies, dirichlet.calls):
        assert fresh.energy(values) == energy
        assert np.array_equal(grad, fresh.gradient(values))


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


def wall_stiffness(radial):
    """D^T diag(k) D as a sparse product from the grid's own node spacings:
    D the edge differences with the wall edge to r_max, k the cell measures
    spread to the edges."""
    n, measures = radial.n, radial.cell_measures
    inv_d = 1.0 / np.append(np.diff(radial.nodes), radial.r_max - radial.nodes[-1])
    D = sp.diags([-inv_d, np.append(0.0, inv_d[:-1])], [-1, 0], shape=(n + 1, n))
    k = 0.5 * (np.append(measures, 0.0) + np.append(0.0, measures))
    return D.T @ sp.diags(k) @ D


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
    ms, mt = s_grid.cell_measures, g.t_measures
    dirichlet = DirichletEnergy(g, True, 2.0)
    P = sp.kron(wall_stiffness(s_grid), sp.diags(mt))
    if t_grid is not None:
        P = P + sp.kron(sp.diags(ms), wall_stiffness(t_grid))
    R = np.random.default_rng(3).standard_normal(g.shape)
    expected = spsolve(P.tocsc(), R.ravel()).reshape(g.shape)
    solve = splu(g, dirichlet).solve
    assert np.max(np.abs(solve(R) - expected)) <= 1e-12 * np.max(np.abs(expected))
    # the matrix is half the p = 2 energy's Hessian
    grad = dirichlet.gradient(R)
    back = solve(0.5 * grad)
    assert np.max(np.abs(back - R)) <= 1e-12 * np.max(np.abs(R))


def reference_two_loop(g, pairs, gamma, solve):
    """The L-BFGS two-loop recursion with its middle K-solve, pairs (s, y)."""
    r, alphas = g.copy(), []
    for s, y in reversed(pairs):
        alphas.append(np.vdot(s, r) / np.vdot(s, y))
        r = r - alphas[-1] * y
    r = gamma * solve(r)
    for (s, y), alpha in zip(pairs, reversed(alphas)):
        r = r + (alpha - np.vdot(y, r) / np.vdot(s, y)) * s
    return -r


def test_lbfgs_direction_matches_the_two_loop_with_a_middle_solve():
    # the stored K^-1 y stand in for the middle solve by linearity
    g = CylGrid(make_radial_grid(2, 8.0, 40, "uniform"), make_radial_grid(3, 6.0, 24, "uniform"))
    dirichlet = DirichletEnergy(g, True, 2.0)
    solve = splu(g, dirichlet).solve
    rng = np.random.default_rng(11)
    grad = rng.standard_normal(g.shape)
    pairs = []
    for _ in range(5):
        s = rng.standard_normal(g.shape)
        y = dirichlet.gradient(s) + 0.5 * rng.standard_normal(g.shape)
        assert np.vdot(s, y) > 0
        pairs.append((s, y))
    s, y = pairs[-1]
    gamma = np.vdot(s, y) / np.vdot(y, solve(y))
    expected = reference_two_loop(grad, pairs, gamma, solve)
    stored = [(s, y, solve(y), 1.0 / np.vdot(s, y)) for s, y in pairs]
    d = _lbfgs_direction(grad, solve(grad), stored, gamma)
    assert np.max(np.abs(d - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize(
    "t_grid, eighs",
    [(make_radial_grid(2, 8.0, 48, "uniform"), 1), (make_radial_grid(3, 8.0, 48, "uniform"), 2)],
    ids=["equal-pencils", "same-size-other-pencil"],
)
def test_equal_pencils_are_factored_once(monkeypatch, t_grid, eighs):
    # ns = nt on both grids; only equal edge weights and measures share
    g = CylGrid(make_radial_grid(2, 8.0, 48, "uniform"), t_grid)
    dirichlet = DirichletEnergy(g, True, 2.0)
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    solve = splu(g, dirichlet).solve
    assert len(calls) == eighs
    monkeypatch.undo()
    # sharing is bit for bit what a second eigh gives
    shared = _generalized_eigh(dirichlet.edge_weights(0), g.s_grid.cell_measures)
    separate = _generalized_eigh(dirichlet.edge_weights(1), g.t_measures)
    assert all(np.array_equal(a, b) for a, b in zip(shared, separate)) == (eighs == 1)
    P = sp.kron(wall_stiffness(g.s_grid), sp.diags(g.t_measures))
    P = P + sp.kron(sp.diags(g.s_grid.cell_measures), wall_stiffness(t_grid))
    R = np.random.default_rng(4).standard_normal(g.shape)
    expected = spsolve(P.tocsc(), R.ravel()).reshape(g.shape)
    assert np.max(np.abs(solve(R) - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize(
    "radial",
    [
        make_radial_grid(3, 1000.0, 200, "geometric", first_width=1e-2),
        make_radial_grid(3, 1000.0, 500, "geometric", first_width=1e-2),
        make_radial_grid(4, 8.0, 64, "equimeasure"),
        make_radial_grid(3, 8.0, 4096, "uniform"),
        make_radial_grid(3, 8.0, 1, "uniform"),
    ],
    ids=["geometric-200", "geometric-500", "equimeasure-64", "uniform-4096", "one-cell"],
)
def test_radial_factor_matches_sparse_solve(radial):
    # the two cumulative sums against a sparse direct solve of the same stiffness
    g = CylGrid(radial)
    K = wall_stiffness(radial).tocsc()
    lu = splu(g, DirichletEnergy(g, True, 2.0))
    for b in np.random.default_rng(5).standard_normal((20, radial.n)):
        x = lu.solve(b[:, None])
        assert x.shape == (radial.n, 1)
        x = x[:, 0]
        expected = spsolve(K, b)
        assert np.max(np.abs(x - expected)) <= 1e-10 * np.max(np.abs(expected))
        assert np.max(np.abs(K @ x - b)) <= 1e-10 * np.max(np.abs(b))


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


@pytest.mark.parametrize("p", [2.0, 2.5])
def test_endpoint_sweep_holds_one_rung_at_a_time(p):
    # a rung is one n_s x n_t float64 product function; the energy's row
    # blocks add a few 512 KB arrays, a second rung alive would add 8 MB
    params = Params.hardy_sobolev(N=4, k=3, p=p, beta=p)
    n_s, n_t = 2048, 512
    tracemalloc.start()
    try:
        rows = hardy_endpoint_sweep(params, n_s=n_s, n_t=n_t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 5
    assert peak < 1.5 * n_s * n_t * 8
    if p == 2.0:
        # the p = 2 rungs are taken from 1-D factors: no rung is ever built
        # (measured peak: about 0.02 of a rung)
        assert peak < 0.1 * n_s * n_t * 8


def test_endpoint_sweep_validation():
    with pytest.raises(DomainError):
        hardy_endpoint_sweep(Params.hardy_sobolev(N=4, k=2, p=2, beta=1))
    # p >= k degenerates the endpoint constant
    with pytest.raises(DomainError):
        hardy_endpoint_sweep(Params.hardy_sobolev(N=8, k=2, p=2, beta=2))
