"""The project declares no linter, so these tests guard two lint rules.
Every package module other than `__init__` uses each name it imports: the
benchmark's tracer wraps names such as `hardysym.minimizer.hs_constraint`,
and an import kept only for it would time nothing.  Every private
module-level function or method is referenced somewhere in the package, so
dead helpers are deleted rather than kept beside their replacements.  And
only `grid` forms the |y|^a cell weight: no other module calls
`weight_average`.  Only `functionals.hardy_quotient`, whose test functions
have power tails past r_max, builds a `DirichletEnergy` with the natural
outer end: every other energy has the Dirichlet wall.  `minimizer`
evaluates its `DirichletEnergy` only through `energy_and_gradient`, one
pass per candidate; of the other methods it calls only `edge_weights`,
which states the metric.  No function in `rearrange` takes cell
`measures` or a `starts` layout: each pass takes both from its RadialGrid,
the one place a rearrangement's layout is formed.  Only `rearrange`, whose
passes rearrange values that were checked, names `GridFunction._unchecked`,
the build that skips the checks.  A guard keeps
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


def dirichlet_methods() -> set:
    """Names of the functions defined in the body of grid.DirichletEnergy."""
    tree = ast.parse((PACKAGE / "grid.py").read_text())
    (cls,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "DirichletEnergy"]
    return {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}


def second_dirichlet_evaluations(source: str, methods: set) -> list:
    """The attributes in `source` named after one of `methods` other than
    energy_and_gradient and edge_weights, in order of appearance."""
    allowed = {"energy_and_gradient", "edge_weights"}
    nodes = sorted(
        (node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)),
        key=lambda node: (node.lineno, node.col_offset),
    )
    return [node.attr for node in nodes if node.attr in methods - allowed]


def test_guard_finds_a_second_dirichlet_evaluation():
    methods = dirichlet_methods()
    assert {"energy", "energy_and_gradient", "edge_weights", "_density", "_edges"} <= methods
    source = (
        "e, grad = dirichlet.energy_and_gradient(V)\n"
        "c = dirichlet.edge_weights(0)\n"
        "e = dirichlet.energy(V)\n"
        "gs, gt = self.dirichlet._edges(V)\n"
        "energies = trace.energies\n"
    )
    assert second_dirichlet_evaluations(source, methods) == ["energy", "_edges"]
    # a gradient method of its own, were it added back, would be caught too
    assert second_dirichlet_evaluations("g = dirichlet.gradient(V)\n", methods | {"gradient"}) == ["gradient"]


def test_minimizer_evaluates_the_energy_only_through_energy_and_gradient():
    source = (PACKAGE / "minimizer.py").read_text()
    assert second_dirichlet_evaluations(source, dirichlet_methods()) == []
    assert "energy_and_gradient" in {node.attr for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)}


def layout_parameters(source: str) -> list:
    """The functions in `source` that take a parameter named `measures` or
    `starts`, as "function(parameter)", in order of appearance."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            found += [f"{node.name}({a.arg})" for a in params if a is not None and a.arg in ("measures", "starts")]
    return found


def test_guard_finds_a_layout_parameter():
    source = (
        "def _rearrange(values, measures, starts):\n    pass\n\n\n"
        "def decreasing_rearrangement_1d(values, *, measures=None):\n    pass\n\n\n"
        "def schwarz_y(u):\n    measures = u.grid.s_grid.cell_measures\n"
    )
    assert layout_parameters(source) == [
        "_rearrange(measures)",
        "_rearrange(starts)",
        "decreasing_rearrangement_1d(measures)",
    ]


def test_rearrange_takes_its_layout_from_the_radial_grid():
    assert layout_parameters((PACKAGE / "rearrange.py").read_text()) == []


def unchecked_builds(source: str) -> int:
    """Number of `_unchecked` attributes in `source`: calls of the
    GridFunction build that runs no checks, or aliases of it."""
    return sum(isinstance(node, ast.Attribute) and node.attr == "_unchecked" for node in ast.walk(ast.parse(source)))


def test_guard_finds_an_unchecked_build():
    assert unchecked_builds("u = GridFunction._unchecked(grid, out)\nv = GridFunction(grid, out)\n") == 1
    assert unchecked_builds("build = grid.GridFunction._unchecked\nu = build(g, values)\n") == 1
    assert unchecked_builds("def _unchecked(cls, grid, values):\n    pass\n") == 0


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_only_rearrange_skips_the_grid_function_checks(path):
    builds = unchecked_builds(path.read_text())
    assert builds > 0 if path.name == "rearrange.py" else builds == 0


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
minimize_hs(Params.hardy_sobolev(N=3, k=3, p=2, beta=1), grid, None, DescentOptions(max_iter=5))
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
