"""The project declares no linter, so this test guards one lint rule: every
package module other than `__init__` uses each name it imports.  The
benchmark's tracer wraps names such as `hardysym.minimizer.hs_constraint`,
and an import kept only for it would time nothing."""

import ast
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


def test_guard_finds_an_unused_import():
    source = "from __future__ import annotations\nimport numpy as np\nfrom typing import Iterable, Sequence\nx: Sequence = np.ones(1)\n"
    assert unused_imports(source) == ["Iterable"]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.stem
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
