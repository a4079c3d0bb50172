"""Tests of the benchmark's oracle, tracer and result contract.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys

import pytest

import oracle
import run

SRC = run.ROOT / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))


def cli_json(*args):
    out = subprocess.run(
        [sys.executable, "-m", "conftc.cli", *args],
        cwd=run.ROOT, env=ENV, capture_output=True, text=True, check=True,
    )
    return out.stdout


@pytest.fixture(scope="module")
def validator():
    return oracle.load_validator(SRC / "conftc" / "records.schema.json")


TABLE = {"command": "table", "genus": (2, 3), "points": (1, 2), "stages": (2, 3)}
CERTIFY = {"command": "certify", "genus": (2,), "points": (2,), "stages": (2, 3), "ring": "B"}
CERTIFY_E = dict(CERTIFY, ring="E")
LEMMAS = {"command": "lemmas", "genus": (2,), "points": (2,)}


@pytest.fixture(scope="module")
def outputs():
    return {
        "table": cli_json(*run.cli_args(TABLE)),
        "certify": cli_json(*run.cli_args(CERTIFY)),
        "certify_e": cli_json(*run.cli_args(CERTIFY_E)),
        "lemmas": cli_json(*run.cli_args(LEMMAS)),
    }


@pytest.mark.parametrize(
    "key, spec",
    [("table", TABLE), ("certify", CERTIFY), ("certify_e", CERTIFY_E), ("lemmas", LEMMAS)],
)
def test_oracle_accepts_program_output(outputs, validator, key, spec):
    assert oracle.check_output(spec, outputs[key], validator) == []


def corrupt(text, edit):
    doc = json.loads(text)
    edit(doc["records"])
    return json.dumps(doc)


def _set(index, field, value):
    def edit(records):
        records[index][field] = value

    return edit


@pytest.mark.parametrize(
    "key, spec, edit",
    [
        ("table", TABLE, _set(0, "certified", False)),
        ("table", TABLE, _set(1, "tc", 99)),
        ("table", TABLE, _set(2, "lower", 1)),
        ("table", TABLE, _set(0, "provenance", "certified")),  # not in the schema
        ("table", TABLE, lambda r: r.pop()),
        ("table", TABLE, lambda r: r.append(dict(r[0]))),
        ("certify", CERTIFY, _set(0, "nonzero", False)),
        ("certify", CERTIFY, _set(1, "factor_count", 8)),
        ("certify", CERTIFY, _set(0, "closed_form_match", None)),
        ("certify", CERTIFY, _set(1, "support_matches_expected", None)),
        ("certify", CERTIFY, _set(0, "ring", "BASE_AXIS")),
        ("certify_e", CERTIFY_E, _set(1, "support_matches_expected", False)),
        ("lemmas", LEMMAS, _set(0, "failed", 1)),
        ("lemmas", LEMMAS, lambda r: r[0]["checks"][0].update(ok=False)),
    ],
)
def test_oracle_counts_corrupted_record(outputs, validator, key, spec, edit):
    assert oracle.check_output(spec, corrupt(outputs[key], edit), validator)


def test_oracle_rejects_wrong_command_and_non_json(outputs, validator):
    assert oracle.check_output(CERTIFY, outputs["table"], validator)
    assert oracle.check_output(TABLE, "not json", validator)


def test_closed_form_table():
    assert [oracle.closed_form_tc(0, n, 3) for n in (1, 2, 3, 4)] == [3, 3, 6, 9]
    assert oracle.closed_form_tc(1, 2, 3) == 7
    assert oracle.closed_form_tc(2, 5, 3) == 18


def tracer(mode, *args):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "tracer.py"), mode, "--", *args],
        cwd=run.ROOT, env=ENV, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stderr.strip().splitlines()[-1])


def test_tracing_leaves_stdout_unchanged_and_covers_the_run():
    args = run.cli_args(dict(CERTIFY, points=(4,), stages=(3,)))
    plain = cli_json(*args)
    traced, spans = tracer("spans", *args)
    counted, counts = tracer("counts", *args)
    assert traced == plain and counted == plain
    assert spans["covered_s"] / spans["root_s"] >= run.COVERAGE_MIN
    values = run._span_values(spans)
    assert values["quotients.ideal_span_s.B"] > 0 and values["quotients.ideal_span_s.E"] == 0
    assert counts == tracer("counts", *args)[1]
    assert counts["dims"] == {"B:g2n4": 180}
    assert counts["counts"]["linalg.insert_useful"] <= counts["counts"]["linalg.insert_calls"]


def test_sampled_launcher_output_matches_the_cli_and_reports_peak_memory(monkeypatch):
    # Stopping the child to time the reference kernel must not change its output.
    monkeypatch.setattr(run, "SAMPLE_EVERY_S", 0.02)
    args = run.cli_args(dict(CERTIFY, points=(3,), stages=(3,)))
    argv = [sys.executable, "-c", run.CLI_LAUNCHER, *args]
    inv = run.spawn(argv, ENV, min(os.sched_getaffinity(0)), sample=True)
    assert inv.code == 0 and inv.stdout.decode() == cli_json(*args)
    assert inv.peak_rss_mb() > 1.0
    assert len(inv.samples) >= 3 and inv.scale() > 0


def test_peak_memory_is_the_childs_not_the_harness():
    ballast = bytearray(64 << 20)  # noqa: F841 - raises this process's high-water RSS
    harness_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    inv = run.spawn([sys.executable, "-c", run.HWM_HOOK], ENV, min(os.sched_getaffinity(0)))
    assert harness_mb > 64 and inv.peak_rss_mb() < harness_mb - 32


def test_reference_kernel_does_fixed_work():
    # wall_norm_s is comparable across commits only while this work stays the same.
    import reference

    assert (reference.row_reduce(), reference.dict_build()) == (135, 100_000)


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(json.loads((run.HERE / "baseline.json").read_text())) == set(run.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify_b_g2n5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "no conftc sources" in proc.stderr
