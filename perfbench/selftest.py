"""Self-test of the benchmark's checks: each must pass a right answer and
reject a deliberately wrong one.

    python3 perfbench/selftest.py

Exits 0 and prints one line per case when every check behaves; exits 1
otherwise.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402

CASES = []


def case(name):
    def register(fn):
        CASES.append((name, fn))
        return fn

    return register


def lieb_constant(N, beta):
    """Lieb's closed form of the p = 2 Hardy-Sobolev constant, a second oracle."""
    a = 2.0 - beta
    b = (N - beta) / a
    inner = checks.sphere_area(N) * math.gamma(b) ** 2 / (a * math.gamma(2.0 * b))
    return (N - 2.0) * (N - beta) * inner ** (a / (N - beta))


# each case returns (errors for the right answer, errors for the wrong answer)


@case("quotient trace rises once")
def _():
    return checks.check_nonincreasing("t", [3.0, 2.0, 2.0, 1.5]), checks.check_nonincreasing("t", [3.0, 2.0, 2.1, 1.5])


@case("constraint integral off by 5%")
def _():
    q, beta = 4.0, 1.0
    # one cell: |y| < 1 in R^2 with weight |y|^-1 has measure 2 pi; |z| < 1 in R^2 has pi
    u = (2.0 * math.pi**2) ** (-1.0 / q)
    split = checks.constraint_integral(np.full((2, 1), u), [0.0, 0.3, 1.0], [0.0, 1.0], 2, 2, q, beta)
    right = checks.check_close("c", split, 1.0, 1e-8)
    wrong = checks.constraint_integral(np.full((1, 1), u * 1.05 ** (1.0 / q)), [0.0, 1.0], [0.0, 1.0], 2, 2, q, beta)
    return right, checks.check_close("c", wrong, 1.0, 1e-8)


@case("final iterate 1e-3 outside the symmetric class")
def _():
    u = np.outer([3.0, 2.0, 1.0], [1.0, 0.5])
    fixed = u.copy()
    fixed[1, 0] += 3e-3
    return checks.check_symmetric("s", u, u, 1e-4), checks.check_symmetric("s", u, fixed, 1e-4)


@case("starts disagree by 5%")
def _():
    return checks.check_agree("a", [3.0, 3.0001, 3.0002], 1e-3), checks.check_agree("a", [3.0, 3.15], 1e-3)


@case("radial quotient off its oracle by 5%")
def _():
    oracle = checks.radial_oracle(3, 1.0)
    return checks.check_close("r", oracle * 1.005, oracle, 1e-2), checks.check_close("r", oracle * 1.05, oracle, 1e-2)


@case("quadrature oracle against Lieb's closed form")
def _():
    right = []
    for N, beta in ((3, 0.0), (3, 1.0), (4, 1.0), (5, 1.5)):
        right += checks.check_close(f"N={N} beta={beta}", checks.hardy_sobolev_constant(N, beta), lieb_constant(N, beta), 1e-8)
    right += checks.check_close("S_3", checks.sobolev_constant(3), lieb_constant(3, 0.0), 1e-12)
    wrong = checks.check_close("r", checks.hardy_sobolev_constant(3, 1.0), lieb_constant(3, 0.5), 1e-2)
    return right, wrong


@case("rearrangement changes a value")
def _():
    u = np.array([[1.0, 3.0], [2.0, 0.5]])
    star = np.array([[3.0, 1.0], [2.0, 0.5]])
    bad = np.array([[3.0, 2.0], [2.0, 0.5]])
    return checks.check_equimeasurable("e", u, star), checks.check_equimeasurable("e", u, bad)


@case("double_star not idempotent")
def _():
    star = np.array([[3.0, 1.0], [2.0, 0.5]])
    return checks.check_identical("i", star, star.copy()), checks.check_identical("i", star, star + 1e-15)


@case("constraint falls under symmetrization")
def _():
    return checks.check_not_below("c", 1.2, 1.0), checks.check_not_below("c", 0.95, 1.0)


@case("quotient rises under symmetrization")
def _():
    return checks.check_not_above("q", 2.9, 3.0), checks.check_not_above("q", 3.0 * (1 + 1e-9), 3.0)


@case("quotient rises 5% on a uniform grid")
def _():
    return checks.check_not_above("q", 3.03, 3.0, 0.02), checks.check_not_above("q", 3.15, 3.0, 0.02)


@case("sharp constant off by 5%")
def _():
    c = checks.hardy_constant(2.0, 0.0, 3)
    return checks.check_close("k", 4.0 / 9.0, c, 1e-14), checks.check_close("k", c * 1.05, c, 1e-14)


@case("eps-sweep row off by 1%")
def _():
    ref = checks.eps_family_quotient(0.1, 2.0, 0.0, 3)
    return checks.check_close("e", 2.4, ref, 5e-3), checks.check_close("e", ref * 1.01, ref, 5e-3)


@case("product ladder not monotone")
def _():
    good = [0.40, 0.33, 0.29, 0.27, 0.256]
    return checks.check_product_ladder("p", good, 3, 2.0), checks.check_product_ladder("p", [0.40, 0.29, 0.33, 0.27, 0.256], 3, 2.0)


@case("product ladder below its constant")
def _():
    return [], checks.check_product_ladder("p", [0.40, 0.33, 0.29, 0.27, 0.24], 3, 2.0)


@case("product ladder ends 10% above its constant")
def _():
    return [], checks.check_product_ladder("p", [0.40, 0.33, 0.30, 0.29, 0.275], 3, 2.0)


@case("split-demo off by 5%")
def _():
    ref = checks.interval_eigenvalue(1.0)
    return checks.check_close("s", 9.8702, ref, 0.02), checks.check_close("s", ref * 1.05, ref, 0.02)


@case("properties reports a violation")
def _():
    ok = {"convexity_violations": 0, "idempotence_failures": 0}
    return checks.check_zero_counts("p", ok), checks.check_zero_counts("p", {**ok, "idempotence_failures": 1})


class FakeWorkload:
    """A workload whose second round answers differently from its first."""

    name = "fake"

    def __init__(self, answers):
        self.answers = list(answers)

    def begin_round(self, state):
        pass

    def end_round(self, state):
        pass

    def ops(self, state, tracer):
        answer = self.answers.pop(0)

        def fail():
            raise ValueError("deliberate failure")

        return [lambda: answer, fail]

    def check(self, state, refs, results):
        return []

    def fingerprint(self, state, results):
        return results[0]

    def facts(self, state, refs, results):
        return {}


@case("repeated rounds differ; a failing call is counted")
def _():
    import contextlib
    import io

    import run
    from tracing import NullTracer

    outcome = []
    for answers in ((b"same", b"same"), (b"same", b"other")):
        rounds = run.Rounds()
        with contextlib.redirect_stderr(io.StringIO()):
            rounds.run(FakeWorkload(answers), None, None, NullTracer(), 0.0, 2)
        if (rounds.attempted, rounds.failed) != (4, 2):
            return ["failed calls not counted"], ["failed calls not counted"]
        outcome.append(rounds.errors)
    return outcome


@case("line-search candidate count")
def _():
    import workloads

    opts = SimpleNamespace(tau0=1.0, max_halvings=40)
    # steps 1, 1, 0.5 after doubling from 1, 1, 1: 1 + 1 + 2 halvings
    count = workloads.line_search_candidates([0.0, 1.0, 1.0, 0.5], "max_iter", opts)
    right = [] if count == 7 else [f"counted {count}, not 7"]
    stopped = workloads.line_search_candidates([0.0, 1.0], "step_rejected_at_stationarity", opts)
    wrong = [] if stopped == 2 else [f"a rejected last step adds {stopped - 2} candidates"]
    return right, wrong


def main():
    bad = 0
    for name, fn in CASES:
        right, wrong = fn()
        ok = not right and bool(wrong)
        bad += not ok
        status = "ok" if ok else "FAIL"
        detail = f"accepts the right answer: {not right}; rejects the wrong one: {bool(wrong)}"
        print(f"{status:4} {name}: {detail}")
        for error in right:
            print(f"     right answer rejected: {error}")
    print(f"{len(CASES) - bad}/{len(CASES)} checks behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
