"""The traced-run contract of ``perfbench/tracer.py``.

It is checked on the table, lemmas and certify paths, certify in both
rings.  A traced invocation must exit 0 and print exactly what the plain
CLI prints.  The counting pass must give the same work counts and quotient
dimensions whatever the hash seed, and find the dimensions
``perfbench/baseline.json`` holds (or, for the two certify cases at
``(g, n) = (2, 4)``, which the baseline lacks, the dimensions this file
pins); it also runs the full elimination (``dimension``) of every quotient
the command asks for.  The spans pass wraps every public function and the
methods it names in ``SPANNED_METHODS``, and must write a summary line
with a span for the CLI.  Span coverage is not checked: these cells are
too short for a stable figure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

CASES = [
    (
        ["table", "--genus", "2,3", "--points", "1,2", "--stages", "2,3"],
        {"B:g2n1": 6, "B:g2n2": 24, "B:g3n1": 8, "B:g3n2": 36},
    ),
    (["lemmas", "--genus", "2", "--points", "3"], {"A:g2n3": 108}),
    (["lemmas", "--genus", "2", "--points", "4"], {"A:g2n4": 405}),
    (["certify", "--genus", "2", "--points", "4", "--stages", "2", "--ring", "E"], {"E:g2n4": 571}),
    (["certify", "--genus", "2", "--points", "4", "--stages", "2"], {"B:g2n4": 180}),
]


def _run(argv, seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)


@pytest.mark.parametrize("args, dims", CASES, ids=["table", "lemmas", "lemmas_g2n4", "certify_e", "certify_b"])
def test_counting_pass_keeps_stdout_counts_and_dims(args, dims):
    plain = _run([sys.executable, "-m", "conftc.cli", *args], 1)
    assert plain.returncode == 0, plain.stderr
    summaries = []
    for seed in (1, 2):
        traced = _run([sys.executable, str(TRACER), "counts", "--", *args], seed)
        assert traced.returncode == 0, traced.stderr
        assert traced.stdout == plain.stdout
        summaries.append(json.loads(traced.stderr.strip().splitlines()[-1]))
    assert summaries[0] == summaries[1]
    assert summaries[0]["dims"] == dims


SPAN_CASES = [
    ["lemmas", "--genus", "2", "--points", "3"],
    ["certify", "--genus", "2", "--points", "3", "--stages", "3"],
]


@pytest.mark.parametrize("args", SPAN_CASES, ids=["lemmas", "certify"])
def test_spans_pass_keeps_stdout(args):
    plain = _run([sys.executable, "-m", "conftc.cli", *args], 1)
    assert plain.returncode == 0, plain.stderr
    traced = _run([sys.executable, str(TRACER), "spans", "--", *args], 1)
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    summary = json.loads(traced.stderr.strip().splitlines()[-1])
    assert summary["root_s"] > 0
    assert summary["by_name"]["cli.main"][0] == 1
