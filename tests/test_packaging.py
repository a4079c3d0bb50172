"""The package stays standard-library only.

Every absolute import in ``src/conftc`` names a standard-library module or
``conftc`` itself, and ``pyproject.toml`` declares no runtime dependency.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "conftc").glob("*.py"))


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_are_standard_library_or_conftc(path):
    tops = {name.split(".")[0] for name in absolute_imports(path)}
    assert tops <= set(sys.stdlib_module_names) | {"conftc"}


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
