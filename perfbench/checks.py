"""Independent references and output checks for the hardysym benchmark.

Every check takes plain numbers or arrays and returns a list of failure
messages (empty when the output is right). Nothing here imports hardysym:
the references are closed forms and dense quadratures written out again,
so that a fault in the package cannot also fault its own reference.
"""

from __future__ import annotations

import math

import numpy as np


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


# ---------------------------------------------------------------------------
# references


def shell_integral(edges, dim: int, a: float) -> np.ndarray:
    """Closed-form integral of |x|^a over each spherical shell of R^dim.

    Shell i is edges[i] <= |x| < edges[i+1]; requires a + dim > 0.
    """
    edges = np.asarray(edges, dtype=float)
    e = a + dim
    return sphere_area(dim) * np.diff(edges**e) / e


def constraint_integral(values, s_edges, t_edges, k: int, m: int, q: float, beta: float) -> float:
    """int u^q |y|^(-beta) dx for a cellwise-constant u(|y|, |z|) on R^k x R^m."""
    ws = shell_integral(s_edges, k, -beta)
    wt = shell_integral(t_edges, m, 0.0) if m > 0 else np.ones(1)
    return float(np.sum(np.asarray(values, dtype=float) ** q * np.outer(ws, wt)))


def sobolev_constant(N: int) -> float:
    """Aubin-Talenti constant S_N = pi N (N-2) (Gamma(N/2)/Gamma(N))^(2/N) (p = 2, beta = 0)."""
    return math.pi * N * (N - 2) * (math.gamma(N / 2.0) / math.gamma(N)) ** (2.0 / N)


def hardy_sobolev_constant(N: int, beta: float, n_points: int = 400001) -> float:
    """Hardy-Sobolev constant for p = 2, k = N by dense quadrature of the extremal.

    The extremal is u(r) = (1 + r^(2-beta))^(-(N-2)/(2-beta)) (Lieb 1983;
    Ghoussoub & Yuan 2000). The quotient int |u'|^2 / (int u^q r^(-beta))^(2/q)
    over R^N is integrated in x = log r on [-40, 40] by the trapezoid rule.
    """
    q = 2.0 * (N - beta) / (N - 2.0)
    a = 2.0 - beta
    e = (N - 2.0) / a
    x = np.linspace(-40.0, 40.0, n_points)
    r = np.exp(x)
    ra = r**a
    u = (1.0 + ra) ** (-e)
    du = e * a * ra / r * (1.0 + ra) ** (-e - 1.0)
    num = np.trapezoid(du**2 * r**N, x)
    den = np.trapezoid(u**q * r ** (N - beta), x)
    sigma = sphere_area(N)
    return float(sigma * num / (sigma * den) ** (2.0 / q))


def radial_oracle(N: int, beta: float) -> float:
    """Exact constant for the k = N problem: closed form at beta = 0, quadrature otherwise."""
    if beta == 0:
        return sobolev_constant(N)
    return hardy_sobolev_constant(N, beta)


def hardy_constant(p: float, alpha: float, k: int) -> float:
    return p**p / (alpha + k) ** p


def eps_family_quotient(eps: float, p: float, alpha: float, N: int) -> float:
    """Quotient of the plateau / power-decay family, by exact radial integration."""
    g = (alpha + N) / p + eps
    return g**p * (alpha + N) / (alpha + N + p * eps)


def endpoint_constant(k: int, p: float) -> float:
    return ((k - p) / p) ** p


def interval_eigenvalue(width: float) -> float:
    """First Dirichlet eigenvalue of -u'' on (0, width)."""
    return math.pi**2 / width**2


# ---------------------------------------------------------------------------
# checks


def rel_gap(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def check_nonincreasing(name: str, trace) -> list:
    trace = list(trace)
    bad = [i for i in range(1, len(trace)) if trace[i] > trace[i - 1]]
    if bad:
        i = bad[0]
        return [f"{name}: quotient rises at step {i}: {trace[i - 1]!r} -> {trace[i]!r}"]
    return []


def check_close(name: str, value: float, reference: float, rtol: float) -> list:
    if not (math.isfinite(value) and rel_gap(value, reference) <= rtol):
        return [f"{name}: {value!r} is not within {rtol:g} of {reference!r}"]
    return []


def check_agree(name: str, values, rtol: float) -> list:
    values = list(values)
    spread = (max(values) - min(values)) / min(values)
    if not spread <= rtol:
        return [f"{name}: values spread by {spread:.3e} > {rtol:g}: {values!r}"]
    return []


def check_symmetric(name: str, values, fixed, rtol: float) -> list:
    """values is within rtol (of its maximum) of its own double symmetrization."""
    values = np.asarray(values, dtype=float)
    dev = float(np.max(np.abs(np.asarray(fixed) - values)) / values.max())
    if not dev <= rtol:
        return [f"{name}: double_star deviation {dev:.3e} > {rtol:g} of the maximum"]
    return []


def check_equimeasurable(name: str, values, rearranged) -> list:
    a = np.sort(np.asarray(values, dtype=float), axis=None)
    b = np.sort(np.asarray(rearranged, dtype=float), axis=None)
    if a.shape != b.shape or not np.array_equal(a, b):
        return [f"{name}: rearrangement does not hold the same values"]
    return []


def check_identical(name: str, first, second) -> list:
    if not np.array_equal(np.asarray(first), np.asarray(second)):
        return [f"{name}: not idempotent"]
    return []


def check_not_below(name: str, after: float, before: float, rtol: float = 1e-12) -> list:
    if not after >= before * (1.0 - rtol):
        return [f"{name}: {after!r} fell below {before!r}"]
    return []


def check_not_above(name: str, after: float, before: float, rtol: float = 1e-12) -> list:
    if not after <= before * (1.0 + rtol):
        return [f"{name}: {after!r} rose above {before!r} by more than {rtol:g}"]
    return []


def check_product_ladder(name: str, quotients, k: int, p: float) -> list:
    """Product-family quotients fall strictly, stay above the endpoint constant
    and end within 5% of it."""
    target = endpoint_constant(k, p)
    errors = []
    if any(b >= a for a, b in zip(quotients, quotients[1:])):
        errors.append(f"{name}: quotients do not decrease strictly: {list(quotients)!r}")
    if min(quotients) < target:
        errors.append(f"{name}: a quotient {min(quotients)!r} is below the constant {target!r}")
    errors += check_close(f"{name} best", min(quotients), target, 0.05)
    return errors


def check_zero_counts(name: str, counts: dict) -> list:
    bad = {key: v for key, v in counts.items() if v != 0}
    if bad:
        return [f"{name}: violations {bad!r}"]
    return []
