"""End-to-end acceptance checks for the workbench.

Each test prints a single PASS/FAIL line with the measured figure of merit,
so the suite doubles as a run report.
"""

import numpy as np
import pytest

from hardysym import (
    CylGrid,
    GridFunction,
    Params,
    convexity_bound,
    default_init,
    dirichlet_eigenvalue_interval,
    double_star,
    eps_sweep,
    hardy_constant,
    hardy_endpoint_sweep,
    hardy_littlewood_check,
    hs_constraint,
    is_double_star_fixed,
    make_radial_grid,
    minimize_hs,
    polya_szego_check,
    split_infimum_demo,
    symmetrize_and_compare,
)

HS_PARAMS = Params.hardy_sobolev(N=4, k=2, p=2, beta=1)


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def eq_grid(n, r_max=8.0):
    return CylGrid(
        make_radial_grid(2, r_max, n, "equimeasure"),
        make_radial_grid(2, r_max, n, "equimeasure"),
    )


def uniform_grid(n, r_max=8.0):
    return CylGrid(
        make_radial_grid(2, r_max, n, "uniform"),
        make_radial_grid(2, r_max, n, "uniform"),
    )


def test_acceptance_1_sharp_constant_formula():
    err1 = abs(hardy_constant(2, 0, 3) - 4.0 / 9.0)
    err2 = abs(hardy_constant(2, -2, 3) - 4.0)
    ok = err1 <= 1e-15 and err2 <= 1e-15
    report("sharp constant formula", ok, f"|C(2,0,3)-4/9|={err1:.1e}, |C(2,-2,3)-4|={err2:.1e}")


def test_acceptance_2_radial_family_sharpness():
    rows = eps_sweep(Params.hardy(N=3, k=3, p=2, alpha=0))
    worst = max(r["rel_err"] for r in rows)
    last = rows[-1]
    limit_gap = abs(last["quotient"] - 2.25) / 2.25
    ok = worst < 5e-3 and last["eps"] == pytest.approx(1e-3) and limit_gap < 0.01
    report(
        "radial family vs closed form",
        ok,
        f"worst rel err {worst:.2e} (tol 5e-3), Q(1e-3) gap to 2.25 = {limit_gap:.2e} (tol 1e-2)",
    )


def test_acceptance_3_cylindrical_sharpness():
    rows = hardy_endpoint_sweep(4, 3, 2)
    quotients = [r["quotient"] for r in rows]
    monotone = all(a > b for a, b in zip(quotients, quotients[1:]))
    best_gap = min(r["rel_gap"] for r in rows)
    ok = monotone and 0 <= best_gap < 0.05
    report(
        "cylindrical product-family sharpness",
        ok,
        f"ladder monotone={monotone}, best quotient {min(quotients):.4f} vs 0.25 "
        f"(rel gap {best_gap:.3f}, tol 0.05)",
    )


def test_acceptance_4_convexity_bound():
    rng = np.random.default_rng(2024)
    n = 100_000
    s = rng.uniform(0, 10, n)
    t = rng.uniform(0, 10, n)
    lam = rng.uniform(1e-9, 1 - 1e-9, n)
    p = rng.uniform(1 + 1e-9, 6, n)
    lhs = (s**2 + t**2) ** (p / 2)
    rhs = (1 - lam) ** (1 - p) * s**p + lam ** (1 - p) * t**p
    violations = int(np.sum(lhs > rhs * (1 + 1e-12)))
    # spot-check the vectorized sweep against the scalar operation
    for i in range(0, n, 20_000):
        l2, r2 = convexity_bound(s[i], t[i], lam[i], p[i])
        assert l2 == pytest.approx(lhs[i]) and r2 == pytest.approx(rhs[i])
    ok = violations == 0
    report("convexity bound", ok, f"{violations} violations in {n} samples")


def test_acceptance_5_rearrangement_suite():
    g = eq_grid(64)
    rng = np.random.default_rng(5)
    prof_s = np.sort(rng.uniform(size=64))[::-1]
    prof_t = np.sort(rng.uniform(size=64))[::-1]
    v = GridFunction(g, np.outer(prof_s, prof_t).copy())
    assert is_double_star_fixed(v)
    eq_fail = hl_fail = idem_fail = 0
    for _ in range(1000):
        u = GridFunction(g, rng.uniform(size=g.shape))
        star = double_star(u)
        if np.max(np.abs(np.sort(u.values.ravel()) - np.sort(star.values.ravel()))) > 1e-12:
            eq_fail += 1
        if np.max(np.abs(double_star(star).values - star.values)) > 1e-12:
            idem_fail += 1
        plain, sym = hardy_littlewood_check(u, v)
        if sym < plain - 1e-12 * abs(plain):
            hl_fail += 1

    def smooth(grid):
        s = grid.s_nodes[:, None]
        t = grid.t_nodes[None, :]
        vals = np.exp(-((s - 2.0) ** 2) - (t - 1.0) ** 2) * np.ones(grid.shape)
        vals[-1, :] = 0.0
        vals[:, -1] = 0.0
        return GridFunction(grid, vals)

    # the Polya-Szego chain E(u**) <= E(u*) <= E(u) holds exactly at each n
    ps = [polya_szego_check(smooth(eq_grid(n)), 2.0) for n in (64, 128)]
    ps_ok = all(r.slack == 0.0 and r.energy_double_star <= r.energy_star <= r.energy_plain for r in ps)
    ok = eq_fail == 0 and hl_fail == 0 and idem_fail == 0 and ps_ok
    report(
        "rearrangement suite",
        ok,
        f"equimeasurability/HL/idempotence failures {eq_fail}/{hl_fail}/{idem_fail} "
        f"in 1000 trials; PS energies u/u*/u** "
        + ", ".join(f"{r.energy_plain:.1f}/{r.energy_star:.1f}/{r.energy_double_star:.1f}" for r in ps),
    )


def test_acceptance_6_symmetrization_never_increases_quotient():
    g = eq_grid(128)
    rng = np.random.default_rng(6)
    s = g.s_nodes[:, None]
    t = g.t_nodes[None, :]
    worst = -np.inf
    for _ in range(100):
        vals = np.zeros(g.shape)
        for _ in range(3):
            cs, ct = rng.uniform(0, 4.0, size=2)
            w = rng.uniform(0.8, 2.0)
            vals += rng.uniform(0.2, 1.0) * np.exp(-((s - cs) ** 2 + (t - ct) ** 2) / w**2)
        vals[-1, :] = 0.0
        vals[:, -1] = 0.0
        rep = symmetrize_and_compare(GridFunction(g, vals), HS_PARAMS)
        worst = max(worst, (rep["quotient_after"] - rep["quotient_before"]) / rep["quotient_before"])
    ok = worst < 0.02
    report(
        "symmetrization comparison",
        ok,
        f"worst relative quotient increase {worst:.3e} over 100 trials (tol 0.02)",
    )


def test_acceptance_7_minimizer_self_consistency():
    finals = []
    for n in (64, 128):
        g = uniform_grid(n)
        for seed in range(5):
            init = None if seed == 0 else default_init(g, "random", seed=seed)
            tr = minimize_hs(HS_PARAMS, g, init=init)
            q = tr.quotients
            assert tr.converged, f"n={n} seed={seed} did not converge ({tr.stop_reason})"
            assert all(b <= a for a, b in zip(q, q[1:])), "non-monotone trace"
            assert abs(hs_constraint(tr.final_u, HS_PARAMS) - 1.0) <= 1e-8
            dev = np.max(np.abs(double_star(tr.final_u).values - tr.final_u.values))
            dev /= tr.final_u.values.max()
            assert dev <= 1e-4, f"double-star deviation {dev:.2e}"
            finals.append(q[-1])
    spread = (max(finals) - min(finals)) / min(finals)
    ok = spread < 0.02
    report(
        "minimizer self-consistency",
        ok,
        f"final quotients spread {spread:.4f} across 5 inits x (64^2, 128^2) (tol 0.02)",
    )


def test_acceptance_8_product_domain_splitting():
    result = split_infimum_demo(lambda_scales=(1.0, 4.0, 16.0, 64.0))
    last = result["rows"][-1]
    oracle = dirichlet_eigenvalue_interval(1.0)
    gap = abs(last["quotient"] - oracle) / oracle
    ok = last["lambda"] == 64.0 and gap < 0.02
    report(
        "product-domain splitting",
        ok,
        f"quotient at lambda=64 is {last['quotient']:.5f} vs oracle {oracle:.5f} "
        f"(rel gap {gap:.2e}, tol 0.02)",
    )
