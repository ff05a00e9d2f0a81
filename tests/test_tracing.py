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
