"""Benchmark for the hardysym workbench.

    python3 perfbench/run.py --workload descent --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from
./src. One run sets the workload up, then repeats whole rounds of the same
program calls until --seconds have passed, checking every round's results
against the benchmark's own references. The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics:
  wall_s       median wall time of one round's program calls
  setup_s      median over five fresh processes of importing hardysym and
               building the workload's grids, parameters and starts
  peak_rss_mb  peak resident memory of this process
--trace 1 spends the first half of --seconds on untraced rounds and the
second half on traced ones, and reports the per-layer metrics, per round.

Each run also writes a record (git sha, versions, thread settings, every
round time) to .perfbench/results/ in the checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 4

CLI_COMMANDS = ("constant", "eps_sweep", "product_sweep", "symmetrize", "minimize", "split_demo", "properties")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("descent", "radial", "symmetry", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help="time set-up once, print it and exit")
    return parser.parse_args(argv)


def timed_setup(name, seed):
    """Import hardysym (numpy and scipy with it) and build the workload's inputs."""
    t0 = time.perf_counter()
    import hardysym  # noqa: F401

    import workloads

    workload = workloads.make(name, STATE_DIR / "work")
    state = workload.setup(seed)
    return time.perf_counter() - t0, workload, state


def probe_setup(name, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-probe"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def execute(ops):
    """Run one round's program calls; returns results, failures, wall and CPU time spent."""
    results, failed, elapsed, cpu = [], 0, 0.0, 0.0
    with redirect_stdout(io.StringIO()):
        for op in ops:
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                result = op()
            except Exception:
                result = None
                failed += 1
                traceback.print_exc(file=sys.stderr)
            elapsed += time.perf_counter() - t0
            cpu += time.process_time() - c0
            results.append(result)
    return results, failed, elapsed, cpu


class Rounds:
    """Outcome of the rounds run so far."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.first = None

    def run(self, workload, state, refs, tracer, seconds, min_rounds):
        """Whole rounds until `seconds` have passed; returns their wall and CPU times and facts."""
        times, cpus, facts = [], [], []
        start = time.perf_counter()
        while len(times) < min_rounds or time.perf_counter() - start < seconds:
            workload.begin_round(state)
            ops = workload.ops(state, tracer)
            tracer.install()
            try:
                results, failed, elapsed, cpu = execute(ops)
            finally:
                tracer.uninstall()
            self.attempted += len(ops)
            self.failed += failed
            try:
                self.errors += workload.check(state, refs, results)
                fingerprint = workload.fingerprint(state, results)
                facts.append(workload.facts(state, refs, results))
            except Exception as exc:  # a malformed output is a wrong answer, not a crash
                traceback.print_exc(file=sys.stderr)
                self.errors.append(f"checking raised {exc!r}")
                fingerprint = None
            finally:
                workload.end_round(state)
            if self.first is None:
                self.first = fingerprint
            elif fingerprint != self.first:
                self.errors.append(f"round results differ from the first round's: {workload.name}")
            times.append(elapsed)
            cpus.append(cpu)
        return times, cpus, facts


def per_layer(tracer, rounds, facts, setup_tracer, traced, untraced):
    def t(name):
        return tracer.time[name] / rounds

    def n(name):
        return tracer.calls[name] / rounds

    def fact(name):
        return statistics.fmean(f.get(name, 0) for f in facts)

    iterations = fact("minimizer.iterations")
    candidates = fact("minimizer.candidates")
    minimize_s = t("minimizer.minimize")
    m = {
        "grid.build_s": (setup_tracer.time["grid.build"], "s"),
        "grid.build_calls": (setup_tracer.calls["grid.build"], "count"),
        "functionals.hs_constraint_s": (t("functionals.hs_constraint"), "s"),
        "functionals.hs_constraint_calls": (n("functionals.hs_constraint"), "count"),
        "functionals.hs_quotient_s": (t("functionals.hs_quotient"), "s"),
        "functionals.weighted_dirichlet_s": (t("functionals.weighted_dirichlet"), "s"),
        "functionals.weighted_dirichlet_calls": (n("functionals.weighted_dirichlet"), "count"),
        "rearrange.double_star_s": (t("rearrange.double_star"), "s"),
        "rearrange.double_star_calls": (n("rearrange.double_star"), "count"),
        "rearrange.polya_szego_s": (t("rearrange.polya_szego"), "s"),
        "rearrange.hardy_littlewood_s": (t("rearrange.hardy_littlewood"), "s"),
        "sharp_constant.eps_sweep_s": (t("sharp_constant.eps_sweep"), "s"),
        "sharp_constant.product_family_s": (t("sharp_constant.product_family"), "s"),
        "sharp_constant.eps_family_truncated_s": (t("sharp_constant.eps_family_truncated"), "s"),
        "sharp_constant.split_demo_s": (t("sharp_constant.split_demo"), "s"),
        "minimizer.minimize_s": (minimize_s, "s"),
        "minimizer.iterations": (iterations, "count"),
        "minimizer.s_per_iter": (minimize_s / iterations if iterations else 0.0, "s"),
        "minimizer.candidates": (candidates, "count"),
        "minimizer.accept_ratio": (iterations / candidates if candidates else 0.0, "ratio"),
        "minimizer.splu_factor_s": (t("minimizer.splu_factor"), "s"),
        "minimizer.splu_solve_s": (t("minimizer.splu_solve"), "s"),
        "minimizer.splu_solves": (n("minimizer.splu_solve"), "count"),
        "minimizer.gridfunction_builds": (n("minimizer.gridfunction"), "count"),
        "minimizer.gridfunction_s": (t("minimizer.gridfunction"), "s"),
        "minimizer.symmetry_track_s": (tracer.inside["minimizer.minimize", "rearrange.double_star"] / rounds, "s"),
        "minimizer.self_s": (minimize_s - tracer.children["minimizer.minimize"] / rounds, "s"),
        "minimizer.oracle_rel_gap": (fact("minimizer.oracle_rel_gap"), "ratio"),
        "minimizer.scale_spread": (fact("minimizer.scale_spread"), "ratio"),
        **{f"cli.{c}_s": (t(f"cli.{c}"), "s") for c in CLI_COMMANDS},
        "cli.grid_function_to_csv_s": (t("cli.grid_function_to_csv"), "s"),
        "cli.artifact_bytes": (fact("cli.artifact_bytes"), "bytes"),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(untraced), "s"),
    }
    # grid builds in a round (cli's endpoint sweep) add to those of set-up
    m["grid.build_s"] = (m["grid.build_s"][0] + t("grid.build"), "s")
    m["grid.build_calls"] = (m["grid.build_calls"][0] + n("grid.build"), "count")
    return m


def git_sha():
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def write_record(args, record):
    out = STATE_DIR / "results"
    out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hardysym" / "__init__.py").is_file():
        print(f"error: no hardysym source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(HERE), str(SRC)]

    if args.setup_probe:
        print(repr(timed_setup(args.workload, args.seed)[0]))
        return 0

    setup_samples = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    seconds, workload, state = timed_setup(args.workload, args.seed)
    setup_samples.append(seconds)

    from tracing import NullTracer, Tracer

    refs = workload.references(state)
    rounds = Rounds()
    record = {"args": vars(args), "environment": environment(), "setup_s_samples": setup_samples}
    if args.trace:
        untraced, _, _ = rounds.run(workload, state, refs, NullTracer(), args.seconds / 2, 1)
        setup_tracer = Tracer()
        setup_tracer.install()
        try:
            workload.setup(args.seed)
        finally:
            setup_tracer.uninstall()
        tracer = Tracer()
        traced, _, facts = rounds.run(workload, state, refs, tracer, args.seconds / 2, 1)
        metrics = per_layer(tracer, len(traced), facts, setup_tracer, traced, untraced)
        record.update(untraced_round_s=untraced, traced_round_s=traced)
    else:
        times, cpus, _ = rounds.run(workload, state, refs, NullTracer(), args.seconds, 2)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": (statistics.median(times), "s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        record.update(round_s=times, round_cpu_s=cpus)

    for error in dict.fromkeys(rounds.errors):
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": not rounds.errors,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record.update(result=result, errors=list(dict.fromkeys(rounds.errors)))
    write_record(args, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
