"""The project declares no linter, so these tests guard two lint rules.
Every package module other than `__init__` uses each name it imports: the
benchmark's tracer wraps names such as `hardysym.minimizer.hs_constraint`,
and an import kept only for it would time nothing.  Every private
module-level function or method is referenced somewhere in the package, so
dead helpers are deleted rather than kept beside their replacements.  And
only `grid` forms the |y|^a cell weight: no other module calls
`weight_average`.  A last guard keeps scipy out of `import hardysym` and of
every default subcommand: only a radial (k = N) minimization imports it."""

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
print(json.dumps(loaded))
"""


def test_scipy_is_imported_only_to_factor_a_radial_metric(tmp_path):
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
    # the guard is live: the radial metric's sparse LU does load scipy
    assert "scipy.sparse.linalg" in loaded["radial minimize"]
