"""The benchmark's tracer (`perfbench/tracing.py`, run by `perfbench/run.py
--trace 1`) replaces package names by looking them up in each calling module.
A refactor that drops or renames one of them must fail here first."""

import importlib
from pathlib import Path

from hardysym import DescentOptions

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    targets = [(module, attr) for module, attr, _ in tracing.WRAPPED]
    targets.append(("hardysym.minimizer", "splu"))
    originals = {
        (module, attr): getattr(importlib.import_module(module), attr) for module, attr in targets
    }
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (module, attr), original in originals.items():
            assert getattr(importlib.import_module(module), attr) is not original
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original


def test_line_search_constants_read_by_the_benchmark_exist():
    # the benchmark's per-round facts read these off DescentOptions
    assert DescentOptions.tau0 > 0
    assert isinstance(DescentOptions.max_halvings, int) and DescentOptions.max_halvings > 0


def test_tracer_times_the_metric_factor_and_solves_on_a_cylinder(monkeypatch):
    # the cylinder's fast diagonalization is built and solved through
    # minimizer.splu, so the tracer's splu spans cover it: one factor per
    # run, and one solve per iterate (K^-1 g; the L-BFGS direction reuses
    # the stored K^-1 y and solves nothing)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    hardysym = importlib.import_module("hardysym")
    params = hardysym.Params.hardy_sobolev(N=4, k=2, p=2, beta=1)
    grid = hardysym.CylGrid(
        hardysym.make_radial_grid(2, 8.0, 16, "uniform"), hardysym.make_radial_grid(2, 8.0, 12, "uniform")
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traces = [hardysym.minimize_hs(params, grid, init, DescentOptions(max_iter=30)) for init in ("bump", "random")]
    finally:
        tracer.uninstall()
    iterations = sum(len(trace.quotients) - 1 for trace in traces)
    assert iterations > 0
    assert tracer.calls["minimizer.minimize"] == 2
    assert tracer.calls["minimizer.splu_factor"] == 2
    assert tracer.calls["minimizer.splu_solve"] == iterations + len(traces)
    assert tracer.inside["minimizer.minimize", "minimizer.splu_solve"] > 0
