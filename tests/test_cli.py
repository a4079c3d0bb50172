import gc
import io
import json
import os
import subprocess
import sys
import weakref
from functools import lru_cache
from pathlib import Path

import pytest

import conftc
from conftc import quotients, surfaces

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from conftc.cli import RunConfig, build_parser, main, run, schema_path
from conftc.surfaces import HandleReducedAlgebra, SurfacePowerAlgebra

needs_jsonschema = pytest.mark.skipif(jsonschema is None, reason="jsonschema not installed")


def run_config(**kw):
    out = io.StringIO()
    code = run(RunConfig(**kw), out)
    return code, out.getvalue()


def validate(payload):
    schema = json.loads(schema_path().read_text())
    jsonschema.validate(json.loads(payload), schema)


def test_table_certified_cell():
    code, out = run_config(command="table", genus=(2,), points=(2,), stages=(2,))
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "table"
    (rec,) = payload["records"]
    assert rec == {
        "genus": 2,
        "n": 2,
        "s": 2,
        "upper": 6,
        "lower": 6,
        "tc": 6,
        "certified": True,
    }


def test_table_genus_zero_formula_only():
    code, out = run_config(command="table", genus=(0,), points=(2,), stages=(4,))
    assert code == 0
    (rec,) = json.loads(out)["records"]
    assert rec["tc"] == 4
    assert rec["certified"] is False


def test_table_is_sorted_and_deterministic():
    kw = dict(command="table", genus=(2, 1), points=(2, 1), stages=(3, 2))
    code1, out1 = run_config(**kw)
    code2, out2 = run_config(**kw)
    assert code1 == code2 == 0
    assert out1 == out2
    cells = [(r["genus"], r["n"], r["s"]) for r in json.loads(out1)["records"]]
    assert cells == sorted(cells)


def test_table_csv_format():
    code, out = run_config(
        command="table", genus=(1,), points=(1,), stages=(2, 3), fmt="csv"
    )
    assert code == 0
    assert out == (
        "genus,n,s,upper,lower,tc,certified\n"
        "1,1,2,2,2,2,true\n"
        "1,1,3,4,4,4,true\n"
    )


def test_csv_only_for_table():
    with pytest.raises(ValueError, match="csv"):
        run_config(command="rp3", stages=(2,), fmt="csv")


def test_certify_transcript():
    code, out = run_config(command="certify", genus=(1,), points=(1,), stages=(2,))
    assert code == 0
    (rec,) = json.loads(out)["records"]
    assert rec["factor_count"] == 2
    assert rec["nonzero"] is True
    assert rec["ring"] == "CERTIFICATE"
    kinds = [f["kind"] for f in rec["factors"]]
    assert kinds == ["BAR", "TILDE"]


def test_lemmas_command():
    code, out = run_config(command="lemmas", genus=(2,), points=(2,))
    assert code == 0
    (rec,) = json.loads(out)["records"]
    assert rec["ok"] is True
    assert rec["failed"] == 0


def test_rp3_command():
    code, out = run_config(command="rp3", stages=(2, 3))
    assert code == 0
    records = json.loads(out)["records"]
    assert [r["zcl"] for r in records] == [3, 6]


def test_search_command():
    code, out = run_config(command="search-zcl", genus=(1,), points=(1,), stages=(2,))
    assert code == 0
    (rec,) = json.loads(out)["records"]
    assert rec["bound"] >= 2
    assert rec["strategy"] == "EXHAUSTIVE_TINY"
    assert all(w["slot"] == 2 for w in rec["witness"])


def test_basis_command():
    code, out = run_config(command="basis", genus=(2,), points=(2,))
    assert code == 0
    (rec,) = json.loads(out)["records"]
    assert rec["dimension"] == 36
    assert rec["dim_reduced"] == rec["reduced_basis_count"] == rec["shifted_basis_count"] == 27
    assert len(rec["monomial_basis"]) == 36
    words = {e["monomial"] for e in rec["monomial_basis"]}
    assert "1" in words and "w1*w2" in words


@pytest.mark.parametrize(
    "command, genus, points",
    [("lemmas", (2, 3), (3, 4)), ("basis", (2, 3), (2, 3))],
    ids=["lemmas", "basis"],
)
def test_handle_reduced_words_are_listed_once_per_cell(monkeypatch, command, genus, points):
    # a fresh cache of algebras and their quotients, so each cell lists A's words here
    monkeypatch.setattr(quotients, "_surface", lru_cache(None)(quotients._surface.__wrapped__))
    calls = []
    listing = surfaces.reduced_monomials

    def counted(algebra):
        calls.append((algebra.genus, algebra.points))
        return listing(algebra)

    monkeypatch.setattr(surfaces, "reduced_monomials", counted)
    code, _out = run_config(command=command, genus=genus, points=points)
    assert code == 0
    assert calls == [(g, n) for g in genus for n in points]


@needs_jsonschema
@pytest.mark.parametrize(
    "kw",
    [
        dict(command="table", genus=(0, 1, 2), points=(1, 2), stages=(2, 3)),
        dict(command="certify", genus=(2,), points=(2,), stages=(2, 3)),
        dict(command="certify", genus=(1,), points=(2,), stages=(2,), ring="E"),
        dict(command="basis", genus=(2,), points=(2,)),
        dict(command="lemmas", genus=(2,), points=(2, 3)),
        dict(command="rp3", stages=(2, 3, 4)),
        dict(command="search-zcl", genus=(1,), points=(1,), stages=(2,)),
    ],
)
def test_json_outputs_validate_against_schema(kw):
    code, out = run_config(**kw)
    assert code == 0
    validate(out)


@pytest.mark.parametrize(
    "kw",
    [
        dict(command="table", genus=(1,), points=(1,), stages=(2,)),
        dict(command="certify", genus=(2,), points=(2,), stages=(2,)),
        dict(command="basis", genus=(2,), points=(2,)),
        dict(command="lemmas", genus=(2,), points=(2,)),
        dict(command="rp3", stages=(2,)),
        dict(command="search-zcl", genus=(1,), points=(1,), stages=(2,)),
    ],
)
def test_text_format_renders_every_command(kw):
    code, out = run_config(fmt="text", **kw)
    assert code == 0
    assert out.strip()


def test_basis_text_lists_monomials_with_degrees():
    code, out = run_config(command="basis", genus=(1,), points=(1,), fmt="text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("genus 1 n 1: dimension 4")
    assert "  deg 0  1" in lines
    assert "  deg 1  a1(1)" in lines
    assert "  deg 2  w1" in lines


def test_guard_refusal_exit_code(capsys):
    code, out = run_config(command="rp3", stages=(6,))
    assert code == 2
    # the transcript of bar(x_2, 17) would hold 17 * 2^16 > 10^6 terms
    code, out = run_config(command="certify", genus=(2,), points=(2,), stages=(17,))
    assert code == 2 and out == ""
    assert "xbar2 holds 1114112 tensor terms" in capsys.readouterr().err
    # the former term estimate refused this cell at 4,976,640 terms
    code, _ = run_config(command="certify", genus=(2,), points=(5,), stages=(6,))
    assert code == 0


def test_guard_refusals_name_the_listed_basis(capsys):
    cases = (
        (dict(command="certify", genus=(2,), points=(9,)), "handle-reduced basis size 196830"),
        (dict(command="certify", ring="E", genus=(2,), points=(7,)), "ambient basis size 279936"),
        (dict(command="basis", genus=(1,), points=(9,)), "ambient basis size 262144"),
    )
    for kw, named in cases:
        code, out = run_config(**kw)
        assert code == 2 and out == ""
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("refused: " + named) and line.endswith("limit 100000")


# One refusal per guard, its whole stderr line pinned.  The exhaustive
# search's slot bound is pinned in a subprocess (test_exhaustive_search_ends_within_its_bound).
REFUSALS = [
    ("certify --genus 2 --points 9 --stages 2",
     "handle-reduced basis size 196830 for genus 2 with 9 points exceeds the limit 100000"),
    ("certify --genus 50000",
     "letter count 100002 for genus 50000 with 2 points exceeds the limit 100000"),
    ("certify --points 60 --allow-large",
     "60 points exceed 59: every basis would hold at least 2^60 words, "
     "past the 1152921504606846975 entries a list can hold"),
    ("certify --genus 2 --points 2 --stages 17",
     "factor xbar2 holds 1114112 tensor terms, which exceeds the limit 1000000"),
    ("certify --genus 2 --points 3 --stages 10000",
     "the product writes at least 100060000 tensor slots, which exceeds the limit 100000000"),
    ("rp3 --stages 6", "stage count 6 exceeds the guarded range (tensor basis 4^6)"),
    ("search-zcl --genus 2 --points 2 --stages 2 --strategy EXHAUSTIVE_TINY",
     "exhaustive search requires total dimension at most 8, got 24"),
]


@pytest.mark.parametrize("argv,message", REFUSALS, ids=[a for a, _ in REFUSALS])
def test_each_guard_refuses_with_its_one_line(monkeypatch, capsys, argv, message):
    monkeypatch.delenv("TCCONF_MAX_BASIS", raising=False)
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"refused: {message}\n"


def test_certify_and_table_list_no_basis(monkeypatch):
    def refusing(kind):
        def listing(self):
            raise AssertionError(f"the {kind} basis was listed")

        return listing

    # A fresh guard value keys fresh cached algebras and quotients.
    monkeypatch.setenv("TCCONF_MAX_BASIS", "99991")
    monkeypatch.setattr(SurfacePowerAlgebra, "_monomials", refusing("ambient"))
    # lemmas lists A for its shifted basis, never the ambient one
    code, out = run_config(command="lemmas", genus=(2,), points=(3,))
    assert code == 0 and out
    monkeypatch.setattr(HandleReducedAlgebra, "_monomials", refusing("handle-reduced"))
    for kw in (
        dict(command="certify", genus=(2,), points=(4,), stages=(3,)),
        dict(command="certify", ring="E", genus=(2,), points=(3,), stages=(2, 3)),
        dict(command="certify", ring="E", genus=(1,), points=(2,), stages=(2,)),
        dict(command="table", genus=(1, 2), points=(2, 3), stages=(2, 3)),
    ):
        code, out = run_config(**kw)
        assert code == 0 and out
    with pytest.raises(AssertionError, match="the ambient basis was listed"):
        run_config(command="basis", genus=(2,), points=(2,))


def test_a_grid_holds_one_algebra_at_a_time(monkeypatch):
    built = []
    build = quotients.build_quotient

    def noted(algebra, kind):
        gc.collect()
        # no quotient of an earlier (g, n) is alive while the next one is built
        cell = (algebra.genus, algebra.points)
        held = [c for c, *refs in built if c[:2] != cell and refs[2]() is not None]
        assert held == [], f"{held} still alive while building {cell + (kind,)}"
        q = build(algebra, kind)
        refs = (weakref.ref(algebra), weakref.ref(q.parent), weakref.ref(q))
        built.append(((algebra.genus, algebra.points, kind), *refs))
        return q

    # A fresh guard value keys fresh cached algebras and quotients.
    monkeypatch.setenv("TCCONF_MAX_BASIS", "99989")
    monkeypatch.setattr(quotients, "build_quotient", noted)
    code, _out = run_config(command="table", genus=(1, 2), points=(2, 3), stages=(2, 3))
    assert code == 0
    # each (g, s) row runs at its largest n first; a smaller cell reads its
    # prefix and checks its own factors in its own quotient
    assert [cell for cell, *_refs in built] == [(g, n, "B") for g in (1, 2) for n in (3, 2)]
    gc.collect()
    # the cells past the first (g, n) freed its algebra, A included, and its
    # quotient; the last is held
    for _cell, *refs in built[:-1]:
        assert [ref() for ref in refs] == [None, None, None]
    assert None not in [ref() for ref in built[-1][1:]]
    # certify and search-zcl build B once per (g, n), basis A and E
    for limit, kw, kinds in (
        (99988, dict(command="certify", genus=(2, 3), points=(2, 3), stages=(2, 3)), "B"),
        (99987, dict(command="search-zcl", genus=(1, 2), points=(1, 2), stages=(2,)), "B"),
        (99986, dict(command="basis", genus=(2,), points=(2, 3)), "AE"),
    ):
        monkeypatch.setenv("TCCONF_MAX_BASIS", str(limit))
        del built[:]
        assert run_config(**kw)[0] == 0
        cells = [(g, n, kind) for g in kw["genus"] for n in kw["points"] for kind in kinds]
        assert [cell for cell, *_refs in built] == cells


def test_config_validation_errors():
    with pytest.raises(ValueError, match="stages"):
        run_config(command="table", stages=(1,))
    with pytest.raises(ValueError, match="points"):
        run_config(command="table", points=(0,))
    with pytest.raises(ValueError, match="genus 0"):
        run_config(command="certify", genus=(0,), points=(3,), stages=(2,))
    with pytest.raises(ValueError, match="lemmas"):
        run_config(command="lemmas", genus=(1,), points=(2,))
    with pytest.raises(ValueError, match="ring"):
        run_config(command="table", ring="Q")


def test_main_with_out_file(tmp_path):
    out_file = tmp_path / "table.json"
    code = main(
        ["table", "--genus", "1", "--points", "1", "--stages", "2", "--out", str(out_file)]
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["records"][0]["tc"] == 2


def test_unopenable_out_file_exits_two_with_one_line(tmp_path):
    bad = tmp_path / "missing" / "table.json"
    src = str(Path(conftc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "conftc.cli", "table", "--genus", "1", "--points", "1",
         "--out", str(bad)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and str(bad) in lines[0], proc.stderr
    assert not bad.parent.exists()


def _cli(*args, stdout=subprocess.PIPE, **kw):
    src = str(Path(conftc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "conftc.cli", *args],
        env=env,
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        **kw,
    )


def test_closed_stdout_exits_two_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        proc = _cli("table", "--genus", "2", "--points", "1,2", "--stages", "2,3", stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: cannot write to stdout: Broken pipe"]


def test_out_file_is_written_only_after_output(tmp_path):
    out = tmp_path / "x.json"
    proc = _cli("rp3", "--stages", "6", "--out", str(out))
    assert proc.returncode == 2
    assert not out.exists()
    out.write_text("kept\n")
    proc = _cli("rp3", "--stages", "6", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "refused: stage count 6 exceeds the guarded range (tensor basis 4^6)"
    ]
    assert out.read_text() == "kept\n"
    proc = _cli("rp3", "--stages", "2", "--out", str(out))
    assert proc.returncode == 0 and proc.stdout == ""
    assert out.read_text() == _cli("rp3", "--stages", "2").stdout


def test_main_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--stages", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["lemmas", "--genus", "2", "--points", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: conftc")
    assert err.endswith("error: the lemmas command requires at least 2 points\n")


def test_parser_int_lists():
    parser = build_parser()
    args = parser.parse_args(["table", "--genus", "2,1,2", "--stages", "3,2"])
    assert args.genus == (1, 2)
    assert args.stages == (2, 3)


def test_allow_large_warns(capsys):
    # Each warning names the basis the command lists: the handle-reduced one
    # (3^n + n(2g-1)3^(n-1)) for the B/A commands, the ambient (2g+2)^n for
    # basis and ring E.
    for kw, basis in (
        (dict(command="table"), "handle-reduced basis 27"),
        (dict(command="certify", ring="E"), "ambient basis 36"),
        (dict(command="basis"), "ambient basis 36"),
    ):
        code, out = run_config(genus=(2,), points=(2,), stages=(2,), allow_large=True, **kw)
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == (
            f"warning: size guards overridden for genus=2 n=2 s=2: {basis}\n"
        )


def test_allow_large_does_not_warn_for_rp3(capsys):
    # rp3 lists no surface basis, and --allow-large does not lift its stage limit
    code = main(["rp3", "--stages", "6", "--allow-large"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "refused: stage count 6 exceeds the guarded range (tensor basis 4^6)\n"
    )


@pytest.mark.parametrize("value", ["abc", "", "-5"])
@pytest.mark.parametrize("command", ["certify", "basis"])
def test_invalid_basis_limit_exits_two_with_one_line(command, value):
    src = str(Path(conftc.__file__).resolve().parents[1])
    env = dict(os.environ, TCCONF_MAX_BASIS=value)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "conftc.cli", command, "--genus", "2", "--points", "2"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "TCCONF_MAX_BASIS" in lines[0], proc.stderr


HUGE = "99999999999999999999"


def _limit_memory():
    # A run that allocates before its guard fails here instead of on the host.
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize(
    "args,named",
    [
        (("certify", "--genus", HUGE), "letter count 200000000000000000000 for genus"),
        (("certify", "--genus", HUGE, "--allow-large"), "letter count 2000000000000"),
        (("certify", "--genus", "50000"), "letter count 100002 for genus 50000"),
        (("certify", "--genus", str(10**17), "--allow-large"), "the run needs more memory"),
        (("certify", "--points", HUGE), f"{HUGE} points exceed 59"),
        (("certify", "--points", HUGE, "--allow-large"), f"{HUGE} points exceed 59"),
        (("certify", "--points", "1000", "--ring", "E"), "1000 points exceed 59"),
        (("certify", "--points", "59", "--ring", "E"), f"ambient basis size {6**59} for"),
        (("certify", "--points", "59", "--allow-large"), "handle-reduced basis size 8478"),
        (("basis", "--genus", HUGE), "letter count"),
        (("lemmas", "--genus", HUGE), "letter count"),
        (("lemmas", "--points", HUGE), f"{HUGE} points exceed 59"),
        (("search-zcl", "--genus", HUGE), "letter count"),
        (("basis", "--genus", "200", "--points", "3"), "ambient basis size 64964808 for"),
        (("rp3", "--stages", HUGE), f"stage count {HUGE} exceeds the guarded range"),
        (("certify", "--stages", "100000"), "the product writes at least 10000400000 tensor"),
        (("rp3", "--stages", HUGE, "--allow-large"), "stage count"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else None,
)
def test_huge_sizes_are_refused_before_anything_is_allocated(args, named):
    proc = _cli(*args, timeout=60, preexec_fn=_limit_memory)
    assert proc.returncode == 2 and proc.stdout == ""
    *warnings, line = proc.stderr.splitlines()
    assert line.startswith("refused: " + named), proc.stderr
    assert all(w.startswith("warning: size guards overridden") for w in warnings)


@pytest.mark.parametrize(
    "genus,points,stages", [(158, 2, 2), (1000, 3, 3)], ids=lambda v: str(v)
)
def test_large_genus_cells_are_certified_under_the_default_guards(genus, points, stages):
    # The letter rule holds O(g) products, so only the letter count and the
    # handle-reduced basis (here 1,899 and 54,000 words) limit the genus.
    proc = _cli("certify", "--genus", str(genus), "--points", str(points),
                "--stages", str(stages), timeout=60, preexec_fn=_limit_memory)
    assert proc.returncode == 0 and proc.stderr == ""
    (rec,) = json.loads(proc.stdout)["records"]
    assert rec["genus"] == genus and rec["nonzero"] is True
    checks = [rec["closed_form_match"], rec["support_matches_expected"]]
    assert True in checks and False not in checks
    assert rec["factor_count"] == stages * (points + 1)


def test_exhaustive_search_ends_within_its_bound():
    # Its walk grows about sevenfold per stage; before the slot bound this
    # cell ran for more than a minute.
    proc = _cli("search-zcl", "--genus", "3", "--points", "1", "--stages", "6",
                timeout=30, preexec_fn=_limit_memory)
    assert proc.returncode in (0, 2)
    if proc.returncode == 2:
        assert proc.stdout == ""
        assert proc.stderr.startswith("refused: exhaustive search exceeds ")
        assert proc.stderr.count("\n") == 1 and "--strategy GREEDY" in proc.stderr


def test_table_skips_a_cell_past_the_slot_guard_within_seconds():
    # 100,004 factors of 100,000 slots: refused before any factor is built,
    # where the product once ran with no end in sight, growing as s^2.
    proc = _cli("table", "--genus", "2", "--points", "2", "--stages", "100000",
                timeout=10, preexec_fn=_limit_memory)
    assert proc.returncode == 0 and proc.stderr == ""
    (rec,) = json.loads(proc.stdout)["records"]
    assert rec["certified"] is False and rec["tc"] == 300000


def test_table_skips_a_cell_whose_algebra_is_refused():
    proc = _cli("table", "--genus", HUGE, "--points", "2", "--stages", "2",
                timeout=60, preexec_fn=_limit_memory)
    assert proc.returncode == 0 and proc.stderr == ""
    (rec,) = json.loads(proc.stdout)["records"]
    assert rec["certified"] is False and rec["tc"] == 6
