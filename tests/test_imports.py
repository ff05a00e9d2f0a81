"""The project declares no linter, so these tests guard two lint rules.
Every package module other than `__init__` uses each name it imports: the
benchmark's tracer wraps names such as `hardysym.minimizer.hs_constraint`,
and an import kept only for it would time nothing.  Every private
module-level function or method is referenced somewhere in the package, so
dead helpers are deleted rather than kept beside their replacements.  And
only `grid` forms the |y|^a cell weight: no other module calls
`weight_average`.  Only `functionals.hardy_quotient`, whose test functions
have power tails past r_max, builds a `DirichletEnergy` with the natural
outer end: every other energy has the Dirichlet wall.  A guard keeps
scipy out of `import hardysym`, of every default subcommand and of a radial
(k = N) minimization: scipy is a test dependency only.  A last guard keeps
`import hardysym.cli` from building the argument parser, whose cost would
land in every caller's import, and checks that `main` builds it only once."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hardysym"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def unreferenced_private_definitions(sources) -> list:
    """Private module-level functions and methods (`_name`, not dunder)
    defined in `sources` that no source references by name or attribute."""
    defined, referenced = set(), set()
    for source in sources:
        tree = ast.parse(source)
        classes = [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
        for body in [tree.body, *classes]:
            defined.update(node.name for node in body if isinstance(node, ast.FunctionDef))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    dunder = {name for name in defined if name.startswith("__") and name.endswith("__")}
    return sorted({name for name in defined if name.startswith("_")} - dunder - referenced)


def test_guard_finds_an_unused_import():
    source = "from __future__ import annotations\nimport numpy as np\nfrom typing import Iterable, Sequence\nx: Sequence = np.ones(1)\n"
    assert unused_imports(source) == ["Iterable"]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.stem
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_finds_an_unreferenced_private_definition():
    source = (
        "def _used():\n    pass\n\n\ndef _unused():\n    pass\n\n\n"
        "class A:\n    def __init__(self):\n        self._helper()\n\n"
        "    def _helper(self):\n        _used()\n\n    def _stale(self):\n        pass\n"
    )
    assert unreferenced_private_definitions([source]) == ["_stale", "_unused"]


def test_no_unreferenced_private_definitions():
    assert unreferenced_private_definitions(p.read_text() for p in sorted(PACKAGE.glob("*.py"))) == []


def weight_average_calls(source: str) -> int:
    """Number of calls of a `weight_average` attribute in `source`."""
    return sum(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "weight_average"
        for node in ast.walk(ast.parse(source))
    )


def test_guard_finds_a_weight_average_call():
    assert weight_average_calls("w = grid.s_grid.weight_average(-beta)[:, None] * grid.cell_measures\n") == 1
    assert weight_average_calls("w = grid.cell_weight(-beta)\n") == 0


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "grid.py"), ids=lambda p: p.stem
)
def test_only_grid_forms_the_cell_weight(path):
    assert weight_average_calls(path.read_text()) == 0


def natural_end_calls(source: str) -> list:
    """The enclosing function ("Class.method" for a method) of each
    `DirichletEnergy(...)` call in `source` whose wall argument, the second
    positional or `wall=`, is not the literal True."""
    calls = []

    def walled(call):
        wall = call.args[1] if len(call.args) > 1 else next((k.value for k in call.keywords if k.arg == "wall"), None)
        return isinstance(wall, ast.Constant) and wall.value is True

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                if name == "DirichletEnergy" and not walled(child):
                    calls.append(scope)
            visit(child, scope)

    visit(ast.parse(source), "")
    return calls


def test_guard_finds_a_natural_end_call():
    source = (
        "def f(g):\n    return DirichletEnergy(g, False, 2.0)\n\n\n"
        "class A:\n    def m(self, g, wall):\n        DirichletEnergy(g, wall=True, p=2.0)\n"
        "        return grid.DirichletEnergy(g, wall, 2.0)\n"
    )
    assert natural_end_calls(source) == ["f", "A.m"]


def test_only_hardy_quotient_takes_the_natural_end():
    calls = [f"{path.stem}.{scope}" for path in sorted(PACKAGE.glob("*.py")) for scope in natural_end_calls(path.read_text())]
    assert calls == ["functionals.hardy_quotient"]


SCIPY_GUARD = """
import contextlib, io, json, sys
import hardysym.cli
from hardysym import CylGrid, DescentOptions, Params, make_radial_grid, minimize_hs

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

loaded = {"import": scipy_modules()}
for command in hardysym.cli.DEFAULTS:
    with contextlib.redirect_stdout(io.StringIO()):
        loaded[command + " exit"] = hardysym.cli.main([command, "--out", sys.argv[1]])
loaded["subcommands"] = scipy_modules()
grid = CylGrid(make_radial_grid(3, 10.0, 32, "geometric", first_width=0.05))
minimize_hs(Params.hardy_sobolev(N=3, k=3, p=2, beta=1), grid, "bump", DescentOptions(max_iter=5))
loaded["radial minimize"] = scipy_modules()
import scipy.sparse
loaded["explicit import"] = scipy_modules()
print(json.dumps(loaded))
"""


def test_no_scipy_is_imported_at_runtime(tmp_path):
    # a fresh interpreter, so that no other test's scipy import is seen
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_GUARD, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["import"] == []
    assert loaded["subcommands"] == []
    assert all(loaded[key] == 0 for key in loaded if key.endswith(" exit"))
    assert loaded["radial minimize"] == []
    # the guard is live: it sees an explicit scipy import
    assert "scipy.sparse" in loaded["explicit import"]


PARSER_GUARD = """
import argparse, contextlib, io, json, sys
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import hardysym.cli
counts = {"import": len(built)}
for call in ("first", "second"):
    with contextlib.redirect_stdout(io.StringIO()):
        hardysym.cli.main(["constant", "--out", sys.argv[1]])
    counts[call] = len(built)
print(json.dumps(counts))
"""


def test_cli_import_builds_no_parser(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", PARSER_GUARD, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.splitlines()[-1])
    assert counts["import"] == 0
    # the guard is live: the first call builds the parser and its subparsers
    assert counts["first"] > 0
    assert counts["second"] == counts["first"]
