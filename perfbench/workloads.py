"""The four benchmark workloads.

Each workload builds its inputs in `setup` (timed as set-up), computes its
references in `references` (not timed: that is the benchmark's own work),
returns the program calls of one round from `ops`, and checks a round's
results in `check`. Every round makes the same calls on the same inputs, so
a round's results must repeat exactly; `fingerprint` is what is compared.
`facts` gives per-round counts read off the program's public outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import hardysym
import hardysym.cli

import checks


def line_search_candidates(step_sizes, stop_reason, opts) -> int:
    """Quotient evaluations made by minimize_hs's line search.

    Each iteration doubles the previous step (capped at 1e6), then halves it
    until the quotient does not rise; the accepted step in the trace gives
    the number of halvings. A run that stops on a rejected step also tried
    max_halvings + 1 candidates on its last iteration.
    """
    count = 0
    prev = opts.tau0
    for tau in step_sizes[1:]:
        count += round(math.log2(min(2.0 * prev, 1e6) / tau)) + 1
        prev = tau
    if stop_reason == "step_rejected_at_stationarity":
        count += opts.max_halvings + 1
    return count


def _bump(grid, cs, ct, width):
    """exp(-((s - cs)^2 + (t - ct)^2) / width^2), zero on the outer cells."""
    s = grid.s_nodes[:, None]
    t = grid.t_nodes[None, :]
    values = np.exp(-((s - cs) ** 2 + (t - ct) ** 2) / width**2)
    values[-1, :] = 0.0
    if grid.m >= 1:
        values[:, -1] = 0.0
    return hardysym.GridFunction(grid, values)


def _uniform_edges(r_max, n):
    return np.linspace(0.0, r_max, n + 1)


def _equimeasure_edges(r_max, n, d):
    return r_max * (np.arange(n + 1) / n) ** (1.0 / d)


class Workload:
    name = ""

    def begin_round(self, state):
        pass

    def end_round(self, state):
        pass

    def facts(self, state, refs, results) -> dict:
        return {}


def _minimizer_facts(traces, opts_list) -> dict:
    iterations = candidates = 0
    for tr, opts in zip(traces, opts_list):
        if tr is None:
            continue
        iterations += len(tr.quotients) - 1
        candidates += line_search_candidates(tr.step_sizes, tr.stop_reason, opts)
    return {"minimizer.iterations": iterations, "minimizer.candidates": candidates}


class Descent(Workload):
    """minimize_hs for N=4, k=2, p=2, beta=1 on uniform cylinder grids.

    On each grid: one run from the centred bump and runs from off-centre
    bumps drawn from the seed. Off-centre runs do exactly their iteration
    budget, with the relative-change stop turned off (tol=0): left to that
    rule they stop after 340 to 1400 iterations, depending on the start, so
    a round would do different work for different seeds. At n=128 the start
    lies nearer the axis, and its budget is large enough for both odd and
    even iterates to be within 1e-4 of the symmetric class: there the
    iterates alternate between the class and a point about 3e-4 outside it,
    a distance that decays by about 0.6 per 100 iterations.
    """

    name = "descent"
    N, k, p, beta, r_max = 4, 2, 2.0, 1.0, 8.0
    # n, off-centre starts, (cs range, ct range, width range), iteration budget
    plan = (
        (64, 2, ((2.0, 3.0), (1.0, 2.0), (0.8, 1.2)), 400),
        (128, 1, ((0.6, 1.1), (0.25, 0.6), (0.95, 1.2)), 700),
    )

    def setup(self, seed):
        params = hardysym.Params.hardy_sobolev(N=self.N, k=self.k, p=self.p, beta=self.beta)
        rng = np.random.default_rng(seed)
        runs = []
        for n, n_off, ranges, budget in self.plan:
            grid = hardysym.CylGrid(
                hardysym.make_radial_grid(self.k, self.r_max, n, "uniform"),
                hardysym.make_radial_grid(self.N - self.k, self.r_max, n, "uniform"),
            )
            runs.append((n, grid, _bump(grid, 0.0, 0.0, 1.0), hardysym.DescentOptions(max_iter=budget)))
            fixed = hardysym.DescentOptions(max_iter=budget, tol=0.0)
            for _ in range(n_off):
                cs, ct, w = (rng.uniform(lo, hi) for lo, hi in ranges)
                runs.append((n, grid, _bump(grid, cs, ct, w), fixed))
        return SimpleNamespace(params=params, runs=runs)

    def references(self, state):
        return None

    def ops(self, state, tracer):
        return [
            (lambda grid=grid, u0=u0, opts=opts: hardysym.minimize_hs(state.params, grid, init=u0, opts=opts))
            for _, grid, u0, opts in state.runs
        ]

    def check(self, state, refs, results):
        errors = []
        finals = {}
        par = state.params
        for (n, grid, _, _), tr in zip(state.runs, results):
            if tr is None:
                continue
            label = f"descent n={n}"
            errors += checks.check_nonincreasing(label, tr.quotients)
            u = tr.final_u.values
            edges = _uniform_edges(self.r_max, n)
            c = checks.constraint_integral(u, edges, edges, self.k, self.N - self.k, par.q, par.beta)
            errors += checks.check_close(f"{label} constraint", c, 1.0, 1e-8)
            errors += checks.check_symmetric(label, u, hardysym.double_star(tr.final_u).values, 1e-4)
            finals.setdefault(n, []).append(tr.quotients[-1])
        for n, values in finals.items():
            errors += checks.check_agree(f"descent n={n} final quotients", values, 1e-3)
        return errors

    def fingerprint(self, state, results):
        return [None if tr is None else (len(tr.quotients), tr.quotients[-1]) for tr in results]

    def facts(self, state, refs, results):
        return _minimizer_facts(results, [run[3] for run in state.runs])


class Radial(Workload):
    """minimize_hs with k = N = 3 on a geometric grid, from a bump and from
    fixed rescalings of it, checked against the exact constants.

    The inputs do not depend on the seed: the relative-change stopping rule
    makes the iteration count jump under any change of the start, even a
    rescaling by 1 + 1e-12, so seeded starts would make the round's work
    differ from seed to seed.
    """

    name = "radial"
    N, p, n, r_max, first_width = 3, 2.0, 200, 1000.0, 1e-2
    betas = (0.0, 1.0)
    scales = (1.0, 1.0 + 1e-12, 10.0)
    max_iter = 20000

    def setup(self, seed):
        grid = hardysym.CylGrid(
            hardysym.make_radial_grid(self.N, self.r_max, self.n, "geometric", first_width=self.first_width)
        )
        bump = _bump(grid, 0.0, 0.0, 1.0)
        opts = hardysym.DescentOptions(max_iter=self.max_iter)
        runs = []
        for beta in self.betas:
            params = hardysym.Params.hardy_sobolev(N=self.N, k=self.N, p=self.p, beta=beta)
            for scale in self.scales:
                runs.append((beta, params, bump.scaled(scale)))
        return SimpleNamespace(grid=grid, runs=runs, opts=opts)

    def references(self, state):
        return {beta: checks.radial_oracle(self.N, beta) for beta in self.betas}

    def ops(self, state, tracer):
        return [
            (lambda params=params, u0=u0: hardysym.minimize_hs(params, state.grid, init=u0, opts=state.opts))
            for _, params, u0 in state.runs
        ]

    def _finals(self, state, results):
        finals = {}
        for (beta, _, _), tr in zip(state.runs, results):
            if tr is not None:
                finals.setdefault(beta, []).append(tr.quotients[-1])
        return finals

    def check(self, state, refs, results):
        errors = []
        for (beta, _, _), tr in zip(state.runs, results):
            if tr is None:
                continue
            label = f"radial N={self.N} beta={beta:g}"
            errors += checks.check_nonincreasing(label, tr.quotients)
            errors += checks.check_close(f"{label} vs oracle", tr.quotients[-1], refs[beta], 1e-2)
        for beta, values in self._finals(state, results).items():
            errors += checks.check_agree(f"radial beta={beta:g} scaled starts", values, 1e-2)
        return errors

    def fingerprint(self, state, results):
        return [None if tr is None else (len(tr.quotients), tr.quotients[-1]) for tr in results]

    def facts(self, state, refs, results):
        facts = _minimizer_facts(results, [state.opts] * len(results))
        gaps, spreads = [0.0], [0.0]
        for beta, values in self._finals(state, results).items():
            gaps += [checks.rel_gap(v, refs[beta]) for v in values]
            spreads.append((max(values) - min(values)) / min(values))
        facts["minimizer.oracle_rel_gap"] = max(gaps)
        facts["minimizer.scale_spread"] = max(spreads)
        return facts


class Symmetry(Workload):
    """Double symmetrization of seeded off-centre inputs, N=4, k=2, p=2, beta=1.

    Equimeasure grids take rearrange's sort path; uniform grids take its
    weighted per-column path.
    """

    name = "symmetry"
    N, k, p, beta, r_max = 4, 2, 2.0, 1.0, 8.0
    grids = (("equimeasure", 64), ("equimeasure", 128), ("uniform", 64), ("uniform", 128))
    inputs_per_grid = 6

    def setup(self, seed):
        params = hardysym.Params.hardy_sobolev(N=self.N, k=self.k, p=self.p, beta=self.beta)
        rng = np.random.default_rng(seed)
        cases = []
        for grading, n in self.grids:
            grid = hardysym.CylGrid(
                hardysym.make_radial_grid(self.k, self.r_max, n, grading),
                hardysym.make_radial_grid(self.N - self.k, self.r_max, n, grading),
            )
            weight = hardysym.GridFunction(grid, np.outer(np.exp(-grid.s_nodes / 2), np.exp(-grid.t_nodes / 2)))
            for _ in range(self.inputs_per_grid):
                # two off-centre bumps of random height
                u = sum(
                    rng.uniform(0.5, 1.0) * _bump(grid, rng.uniform(1.0, 3.0), rng.uniform(0.5, 2.0), rng.uniform(0.7, 1.3)).values
                    for _ in range(2)
                )
                cases.append((grading, n, hardysym.GridFunction(grid, u), weight))
        return SimpleNamespace(params=params, cases=cases)

    def references(self, state):
        return None

    def ops(self, state, tracer):
        ops = []
        for _, _, u, weight in state.cases:
            ops += [
                lambda u=u: hardysym.symmetrize_and_compare(u, state.params),
                lambda u=u: hardysym.double_star(u),
                lambda u=u: hardysym.polya_szego_check(u, self.p),
                lambda u=u, weight=weight: hardysym.hardy_littlewood_check(u, weight),
            ]
        return ops

    def _edges(self, grading, n, d):
        if grading == "uniform":
            return _uniform_edges(self.r_max, n)
        return _equimeasure_edges(self.r_max, n, d)

    def check(self, state, refs, results):
        errors = []
        par = state.params
        for i, (grading, n, u, _) in enumerate(state.cases):
            report, star, _, hl = results[4 * i : 4 * i + 4]
            label = f"symmetry {grading} n={n} input {i % self.inputs_per_grid}"
            if star is not None:
                s_edges = self._edges(grading, n, self.k)
                t_edges = self._edges(grading, n, self.N - self.k)
                c_before = checks.constraint_integral(u.values, s_edges, t_edges, self.k, self.N - self.k, par.q, par.beta)
                c_after = checks.constraint_integral(star.values, s_edges, t_edges, self.k, self.N - self.k, par.q, par.beta)
                if report is not None:
                    errors += checks.check_close(f"{label} constraint before", report["constraint_before"], c_before, 1e-10)
                    errors += checks.check_close(f"{label} constraint after", report["constraint_after"], c_after, 1e-10)
            if grading == "equimeasure":
                if star is not None:
                    errors += checks.check_equimeasurable(label, u.values, star.values)
                    errors += checks.check_identical(label, hardysym.double_star(star).values, star.values)
                    errors += checks.check_not_below(f"{label} constraint", c_after, c_before)
                if report is not None:
                    errors += checks.check_not_above(f"{label} quotient", report["quotient_after"], report["quotient_before"])
                if hl is not None:
                    errors += checks.check_not_below(f"{label} Hardy-Littlewood", hl[1], hl[0])
            elif report is not None:
                errors += checks.check_not_above(f"{label} quotient", report["quotient_after"], report["quotient_before"], 0.02)
        return errors

    def fingerprint(self, state, results):
        out = []
        for i in range(0, len(results), 4):
            report, star, ps, hl = results[i : i + 4]
            out.append((
                None if report is None else report["quotient_after"],
                None if star is None else star.values.tobytes(),
                None if ps is None else ps.energy_double_star,
                hl,
            ))
        return out


class Cli(Workload):
    """Every hardysym subcommand, in-process through hardysym.cli.main.

    The seed picks the `constant` arguments and the `symmetrize` and
    `properties` seeds. `minimize` keeps seed 0 (the bump start): its other
    seeds use default_init("random"), whose iteration count varies with the
    seed. Artifacts go to a fresh directory under the checkout each round.
    """

    name = "cli"
    CONSTANT_CHOICES = ((2.0, 0.0, 3), (3.0, 0.0, 3), (2.0, -2.0, 3), (2.5, 1.0, 2))

    def __init__(self, work_root):
        self.work_root = Path(work_root)

    def setup(self, seed):
        p, alpha, k = self.CONSTANT_CHOICES[seed % len(self.CONSTANT_CHOICES)]
        commands = [
            ("constant", ["constant", "--p", repr(p), "--alpha", repr(alpha), "--k", str(k)]),
            ("eps-sweep", ["eps-sweep"]),
            ("product-sweep", ["product-sweep"]),
            ("symmetrize", ["symmetrize", "--seed", str(seed)]),
            ("minimize", ["minimize"]),
            ("split-demo", ["split-demo"]),
            ("properties", ["properties", "--seed", str(seed)]),
        ]
        return SimpleNamespace(constant=(p, alpha, k), commands=commands, out=None)

    def references(self, state):
        defaults = hardysym.cli.DEFAULTS
        p, alpha, k = state.constant
        eps = defaults["eps-sweep"]
        product = defaults["product-sweep"]
        return {
            "constant": checks.hardy_constant(p, alpha, k),
            "eps": lambda e: checks.eps_family_quotient(e, eps["p"], eps["alpha"], eps["N"]),
            "product": (product["k"], product["p"]),
            "split": checks.interval_eigenvalue(defaults["split-demo"]["omega_width"]),
        }

    def begin_round(self, state):
        self.work_root.mkdir(parents=True, exist_ok=True)
        state.out = Path(tempfile.mkdtemp(prefix="cli-", dir=self.work_root))

    def end_round(self, state):
        shutil.rmtree(state.out)
        state.out = None

    def ops(self, state, tracer):
        def call(name, args):
            with tracer.span("cli." + name.replace("-", "_")):
                return hardysym.cli.main([*args, "--out", str(state.out)])

        def op(name, args):
            def run():
                code = call(name, args)
                if code != 0:
                    raise RuntimeError(f"hardysym {name} exited with {code}")
                return code

            return run

        return [op(name, args) for name, args in state.commands]

    @staticmethod
    def _csv(path):
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]

    def check(self, state, refs, results):
        errors = []
        out = state.out
        ok = {name: r is not None for (name, _), r in zip(state.commands, results)}
        if ok["constant"]:
            value = self._csv(out / "constant.csv")[0]["constant"]
            errors += checks.check_close("constant", value, refs["constant"], 1e-14)
        if ok["eps-sweep"]:
            for row in self._csv(out / "eps_sweep.csv"):
                errors += checks.check_close(f"eps-sweep eps={row['eps']:g}", row["quotient"], refs["eps"](row["eps"]), 5e-3)
        if ok["product-sweep"]:
            quotients = [row["quotient"] for row in self._csv(out / "product_sweep.csv")]
            errors += checks.check_product_ladder("product-sweep", quotients, *refs["product"])
        if ok["minimize"]:
            trace = json.loads((out / "minimize_trace.json").read_text())
            errors += checks.check_nonincreasing("minimize", trace["quotients"])
        if ok["split-demo"]:
            best = self._csv(out / "split_demo.csv")[-1]["quotient"]
            errors += checks.check_close("split-demo", best, refs["split"], 0.02)
        if (out / "properties.json").exists():
            counts = json.loads((out / "properties.json").read_text())
            counts.pop("schema_version", None)
            errors += checks.check_zero_counts("properties", counts)
        return errors

    def fingerprint(self, state, results):
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(state.out.iterdir())}

    def facts(self, state, refs, results):
        facts = {"cli.artifact_bytes": sum(p.stat().st_size for p in state.out.iterdir())}
        path = state.out / "minimize_trace.json"
        if path.exists():
            trace = json.loads(path.read_text())
            opts = hardysym.DescentOptions()
            facts["minimizer.iterations"] = len(trace["quotients"]) - 1
            facts["minimizer.candidates"] = line_search_candidates(trace["step_sizes"], trace["stop_reason"], opts)
        return facts


def make(name, work_root):
    workloads = {"descent": Descent, "radial": Radial, "symmetry": Symmetry}
    if name == "cli":
        return Cli(work_root)
    return workloads[name]()

