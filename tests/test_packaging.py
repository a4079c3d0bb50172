"""The package stays standard-library only, and its start-up stays lean.

Every absolute import in ``src/conftc`` names a standard-library module or
``conftc`` itself, and ``pyproject.toml`` declares no runtime dependency.
Importing the command line loads no module that only division needs.
"""

import ast
import os
import subprocess
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


def fresh_python(code):
    """Run code in a fresh interpreter that imports ``conftc`` from this tree; its stdout."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_start_up_imports_only_what_a_run_uses():
    # dataclasses pulls in inspect, ast, dis and tokenize; fractions pulls in
    # decimal.  No run needs them before it divides.
    added = fresh_python(
        "import sys; before = set(sys.modules); import conftc.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))"
    ).split()
    assert "conftc.cli" in added
    assert not {"dataclasses", "inspect", "fractions", "decimal"} & set(added), added


def test_rationals_divide_in_a_fresh_interpreter():
    out = fresh_python(
        "from fractions import Fraction\n"
        "from conftc.fields import RATIONALS\n"
        "from conftc.linalg import GradedSubspace\n"
        "space = GradedSubspace([0], RATIONALS)\n"
        "assert space.insert({0: 2, 1: 1}, 0)\n"
        "tail = space.reduce({0: 1}, 0)\n"
        "assert tail == {1: Fraction(-1, 2)} and type(tail[1]) is Fraction, tail\n"
        "assert RATIONALS.inverse(2) == Fraction(1, 2)\n"
        "print('ok')"
    )
    assert out == "ok\n"
