"""The product family's quotients at p = 2 are taken from 1-D factors,
E(v w) = E_s(v) M_t(w) + M_s(v) E_t(w), and a factored norm.  These tests hold
them to the 2-D grid function they factor, and the t-factor to its closed form."""

import math

import numpy as np
import pytest

import hardysym.minimizer
from hardysym import (
    CylGrid,
    GridFunction,
    Params,
    eps_family_truncated,
    hardy_endpoint_sweep,
    hs_quotient,
    make_radial_grid,
    product_family,
    split_infimum_demo,
    weighted_dirichlet,
    weighted_p_norm,
)
from hardysym.sharp_constant import _product_integrals

PARITY = 1e-14  # relative, against the 2-D path


def assert_rel(actual, reference, tol=PARITY):
    assert abs(actual - reference) <= tol * abs(reference), (actual, reference)


def reference_sweep_rows(params, rows, n_s, n_t, log_r_max=100.0):
    """The sweep's numerator, denominator and quotient per row, from
    hs_quotient of product_family's 2-D grid function on the sweep's grid."""
    k, m, p = params.k, params.m, params.p
    R = math.exp(log_r_max)
    lam_max = max(row["lambda"] for row in rows)
    grid = CylGrid(
        make_radial_grid(k, R, n_s, "geometric", first_width=1e-3),
        make_radial_grid(m, 1.05 * lam_max, n_t, "uniform"),
    )
    reference = []
    for row in rows:
        v = eps_family_truncated(row["eps"], p, -p, grid.s_grid)
        rep = hs_quotient(product_family(v, row["lambda"], grid), params)
        reference.append((rep.numerator, rep.denominator, rep.value))
    return reference


@pytest.mark.parametrize("ladder", [None, [[0.1, 50.0], [0.01, 400.0]]])
def test_endpoint_sweep_at_p_2_matches_the_2d_product(ladder):
    params = Params.hardy_sobolev(N=4, k=3, p=2, beta=2)
    n_s, n_t = 512, 128
    rows = hardy_endpoint_sweep(params, ladder, n_s=n_s, n_t=n_t)
    assert len(rows) == (5 if ladder is None else len(ladder))
    for row, (num, den, quotient) in zip(rows, reference_sweep_rows(params, rows, n_s, n_t)):
        assert_rel(row["numerator"], num)
        assert_rel(row["denominator"], den)
        assert_rel(row["quotient"], quotient)


def test_endpoint_sweep_at_p_not_2_builds_the_product(monkeypatch):
    # the energy does not separate at p != 2: every rung is the 2-D product,
    # and the rows are exactly hs_quotient's
    params = Params.hardy_sobolev(N=4, k=3, p=2.5, beta=2.5)
    n_s, n_t = 512, 128
    built = []

    def counting_product_family(v, lambda_scale, grid):
        built.append(lambda_scale)
        return product_family(v, lambda_scale, grid)

    monkeypatch.setattr(hardysym.minimizer, "product_family", counting_product_family)
    rows = hardy_endpoint_sweep(params, n_s=n_s, n_t=n_t)
    assert len(rows) == 5
    assert built == [row["lambda"] for row in rows]
    reference = reference_sweep_rows(params, rows, n_s, n_t)
    assert [(r["numerator"], r["denominator"], r["quotient"]) for r in rows] == reference


def split_demo_grid():
    """split_infimum_demo's default cylinder and its cosine s-factor."""
    grid = CylGrid(make_radial_grid(1, 0.5, 256, "uniform"), make_radial_grid(1, 1.05 * 64.0, 2048, "uniform"))
    return grid, GridFunction(grid.s_grid, np.cos(math.pi * grid.s_nodes))


@pytest.mark.parametrize("wall", [True, False])
def test_product_integrals_at_p_2_match_the_2d_product_on_the_split_demo_rungs(wall):
    grid, v = split_demo_grid()
    for lam in (1.0, 4.0, 16.0, 64.0):
        u = product_family(v, lam, grid)
        energy, norm = _product_integrals(v, lam, grid, 2.0, 2.0, 0.0, wall)
        energy_2d, norm_2d = weighted_dirichlet(u, 2.0, 0.0, wall=wall), weighted_p_norm(u, 2.0, 0.0)
        assert_rel(energy, energy_2d)
        assert_rel(norm, norm_2d)
        assert_rel(energy / norm, energy_2d / norm_2d)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_split_infimum_demo_matches_the_2d_product(p):
    grid, v = split_demo_grid()
    for row in split_infimum_demo(p=p)["rows"]:
        u = product_family(v, row["lambda"], grid)
        num, den = weighted_dirichlet(u, p, 0.0, wall=True), weighted_p_norm(u, p, 0.0)
        assert_rel(row["numerator"], num)
        assert_rel(row["denominator"], den)
        assert_rel(row["quotient"], num / den)


def test_bump_energy_ratio_converges_at_second_order():
    # for the m = 1 bump w(x) = (1 - x^2)^2 at x = |z| / lambda, the continuum
    # ratio E_t(w) / M_t(w) is 3 / lambda^2 (128/105 over 128/315); the t-grids
    # are the default product sweep's, uniform out to 1.05 R
    R = math.exp(100.0)
    s_grid = make_radial_grid(3, 1.0, 2, "uniform")
    orders = {}
    for lam in (R / 16.0, R / 8.0, R / 4.0, R / 2.0, R):
        errors = []
        for n_t in (512, 1024, 2048, 4096):
            grid = CylGrid(s_grid, make_radial_grid(1, 1.05 * R, n_t, "uniform"))
            w = GridFunction(grid.t_grid, product_family(GridFunction(s_grid, np.ones(2)), lam, grid).values[0])
            errors.append(lam**2 * weighted_dirichlet(w, 2.0, 0.0) / weighted_p_norm(w, 2.0, 0.0) / 3.0 - 1.0)
        orders[lam / R] = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    ok = all(1.9 <= order <= 2.1 for ladder in orders.values() for order in ladder)
    detail = "; ".join(f"lambda = R/{1 / x:g}: " + ", ".join(f"{o:.3f}" for o in ladder) for x, ladder in orders.items())
    print(f"{'PASS' if ok else 'FAIL'} bump energy ratio vs 3/lambda^2, observed order log2(e_h/e_h/2) in [1.9, 2.1]: {detail}")
    assert ok, detail
