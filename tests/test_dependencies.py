"""The package's runtime imports: the standard library, numpy and the
package itself, as ``pyproject.toml`` promises numpy as the only runtime
dependency."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import gammadesign

MODULES = sorted(Path(gammadesign.__file__).parent.glob("*.py"))
ALLOWED = sys.stdlib_module_names | {"numpy", "gammadesign"}


def _imported_roots(tree: ast.Module) -> set[str]:
    """Top-level names of every absolute import; relative imports are the package's own."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_imports_only_stdlib_and_numpy(path):
    assert _imported_roots(ast.parse(path.read_text(), str(path))) <= ALLOWED
