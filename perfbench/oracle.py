"""Output oracle for the benchmark's ``conftc`` invocations.

The oracle reads the JSON the CLI printed and checks what it claims, not
how it is laid out: a record may gain a field (as long as the program's own
schema admits it) without counting as a failure.  Every problem found is
returned as one line of text; an empty list means the output is correct.

The expected complexity values come from the paper's closed-form table,
written out here rather than taken from the program.
"""

from __future__ import annotations

import json

RING_LABELS = {"B": "CERTIFICATE", "E": "BASE_AXIS"}


def closed_form_tc(genus, n, s):
    """TC_s(Conf(Sigma_g, n)) from the paper's table."""
    if genus == 0:
        return s if n <= 2 else s * n - 3
    if genus == 1:
        return s * (n + 1) - 2
    return s * (n + 1)


def load_validator(schema_path):
    """A JSON-schema validator for the CLI's record formats."""
    import jsonschema

    with open(schema_path, encoding="utf-8") as fh:
        schema = json.load(fh)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def check_output(spec, text, validator):
    """Problems with one invocation's stdout for a workload ``spec``.

    ``spec`` holds ``command``, the ``genus``/``points``/``stages`` grids
    and, for ``certify``, the ``ring``.
    """
    try:
        doc = json.loads(text)
    except ValueError as e:
        return [f"stdout is not JSON: {e}"]
    problems = [f"schema: {e.message}" for e in validator.iter_errors(doc)]
    if problems:
        return problems
    if doc["command"] != spec["command"]:
        return [f"command {doc['command']!r}, expected {spec['command']!r}"]
    check = {"table": _check_table, "certify": _check_certify, "lemmas": _check_lemmas}
    return check[spec["command"]](spec, doc["records"])


def _cells(spec):
    return [(g, n, s) for g in spec["genus"] for n in spec["points"] for s in spec["stages"]]


def _keyed(records, keys, expected, problems):
    """Index records by ``keys``; report missing, extra and repeated cells."""
    out = {}
    for rec in records:
        k = tuple(rec[f] for f in keys)
        if k in out:
            problems.append(f"cell {k} reported twice")
        out[k] = rec
    for k in expected:
        if k not in out:
            problems.append(f"cell {k} missing")
    for k in out:
        if k not in expected:
            problems.append(f"unexpected cell {k}")
    return out


def _check_table(spec, records):
    problems = []
    cells = _cells(spec)
    by_cell = _keyed(records, ("genus", "n", "s"), cells, problems)
    for cell, rec in by_cell.items():
        if cell not in cells:
            continue
        want = closed_form_tc(*cell)
        if rec["certified"] is not True:
            problems.append(f"cell {cell} not certified")
        for f in ("tc", "lower", "upper"):
            if rec[f] != want:
                problems.append(f"cell {cell} {f} = {rec[f]}, expected {want}")
    return problems


def _check_certify(spec, records):
    problems = []
    cells = _cells(spec)
    by_cell = _keyed(records, ("genus", "n", "s"), cells, problems)
    ring = RING_LABELS[spec["ring"]]
    for cell, rec in by_cell.items():
        if cell not in cells:
            continue
        want = closed_form_tc(*cell)
        if rec["ring"] != ring:
            problems.append(f"cell {cell} evaluated in {rec['ring']}, expected {ring}")
        if rec["nonzero"] is not True:
            problems.append(f"cell {cell} product is zero")
        if rec["factor_count"] != want:
            problems.append(f"cell {cell} factor_count = {rec['factor_count']}, expected {want}")
        # The program makes the two-term support claim in the certificate
        # ring only (s >= 3; s = 2 is the closed-form claim).  Where it makes
        # a claim it must hold; where it makes none it must not report false.
        claim = "closed_form_match" if cell[2] == 2 else "support_matches_expected"
        if ring == RING_LABELS["B"] and rec[claim] is not True:
            problems.append(f"cell {cell} {claim} = {rec[claim]}")
        for f in ("closed_form_match", "support_matches_expected"):
            if rec[f] is False:
                problems.append(f"cell {cell} {f} is false")
    return problems


def _check_lemmas(spec, records):
    problems = []
    cells = [(g, n) for g in spec["genus"] for n in spec["points"]]
    by_cell = _keyed(records, ("genus", "n"), cells, problems)
    for cell, rec in by_cell.items():
        if cell not in cells:
            continue
        failed = [c["name"] for c in rec["checks"] if c["ok"] is not True]
        if rec["failed"] != 0 or failed or rec["ok"] is not True:
            problems.append(f"cell {cell} failed checks: {failed[:3]} (failed = {rec['failed']})")
        if not rec["checks"] or rec["passed"] != len(rec["checks"]):
            problems.append(f"cell {cell} passed = {rec['passed']} of {len(rec['checks'])} checks")
    return problems
