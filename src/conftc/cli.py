"""Batch command-line surface for certified complexity tables.

Commands: ``table`` (the certified TC table over a (genus, points,
stages) grid), ``certify`` (full certificate transcripts), ``basis``
(monomial-basis dumps), ``lemmas`` (the identity suites), ``rp3`` (the
mod-2 truncated-polynomial check) and ``search-zcl`` (best-effort
cup-length search).  Output is JSON (default), CSV (table only) or text,
deterministic byte-for-byte for a fixed configuration.

Exit codes: 0 when all requested verifications pass, 1 on a verification
failure, 2 on a guard refusal, a usage error, an invalid setting or an
output that cannot be written (an unopenable ``--out`` file, a closed stdout).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .certificates import (
    certificate_record,
    evaluate_certificate,
    rp3_zcl_check,
    tc_value,
    verify_lemma_identities,
    zcl_search,
)
from .errors import ConfigurationError, SizeGuardError, VerificationError
from .quotients import cached_quotient, cached_surface
from .surfaces import reduced_basis_count, shifted_basis_products

COMMANDS = ("table", "certify", "basis", "lemmas", "search-zcl", "rp3")
FORMATS = ("json", "csv", "text")
CSV_COLUMNS = ("genus", "n", "s", "upper", "lower", "tc", "certified")


@dataclass
class RunConfig:
    command: str
    genus: tuple = (2,)
    points: tuple = (2,)
    stages: tuple = (2,)
    ring: str = "B"
    fmt: str = "json"
    allow_large: bool = False
    strategy: str = None

    def validate(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.fmt not in FORMATS:
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.fmt == "csv" and self.command != "table":
            raise ValueError("csv output is only available for the table command")
        if self.ring not in ("B", "E"):
            raise ValueError(f"unknown ring {self.ring!r}; expected B or E")
        for s in self.stages:
            if s < 2:
                raise ValueError("stages must be at least 2")
        for n in self.points:
            if n < 1:
                raise ValueError("points must be at least 1")
            if n < 2 and self.command == "lemmas":
                raise ValueError("the lemmas command requires at least 2 points")
        for g in self.genus:
            if g < 0:
                raise ValueError("genus must be nonnegative")
            if g == 0 and self.command != "table":
                raise ValueError("genus 0 is only available for the table command")
            if g < 2 and self.command == "lemmas":
                raise ValueError("the lemmas command requires genus at least 2")
        if self.strategy is not None and self.strategy not in (
            "EXHAUSTIVE_TINY",
            "GREEDY",
        ):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        return self


def _grid(config):
    for g in sorted(config.genus):
        for n in sorted(config.points):
            for s in sorted(config.stages):
                yield g, n, s


def _warn_override(config, stream):
    # Name the basis the command lists: 'basis' and ring E list the ambient
    # basis, the other commands only the handle-reduced one.  'rp3' lists
    # none, and --allow-large does not lift its stage limit.
    if config.command == "rp3":
        return
    ambient = config.command == "basis" or (
        config.command in ("certify", "search-zcl") and config.ring == "E"
    )
    for g, n, s in _grid(config):
        if g == 0:
            continue
        basis = (2 * g + 2) ** n if ambient else reduced_basis_count(g, n)
        print(
            f"warning: size guards overridden for genus={g} n={n} s={s}: "
            f"{'ambient' if ambient else 'handle-reduced'} basis {basis}",
            file=stream,
        )


def _run_table(config):
    records, failures = [], 0
    for g, n, s in _grid(config):
        rec = tc_value(g, n, s, allow_large=config.allow_large)
        if rec.note == "failed":
            failures += 1
        records.append(rec.as_dict())
    return records, failures


def _run_certify(config):
    records, failures = [], 0
    for g, n, s in _grid(config):
        cert = evaluate_certificate(g, n, s, ring=config.ring, allow_large=config.allow_large)
        ok = cert.nonzero and cert.support_matches_expected is not False
        ok = ok and cert.closed_form_match is not False
        if not ok:
            failures += 1
        records.append(certificate_record(cert))
    return records, failures


def _run_basis(config):
    records = []
    for g in sorted(config.genus):
        for n in sorted(config.points):
            alg = cached_surface(g, n, config.allow_large)
            dims = alg.dimensions_by_degree()  # lists the ambient basis, under its guard
            qa = cached_quotient(g, n, "A", config.allow_large)
            qe = cached_quotient(g, n, "E", config.allow_large)
            shifted = [e for _, e in shifted_basis_products(qa.parent)]
            records.append(
                {
                    "genus": g,
                    "n": n,
                    "dimension": sum(dims),
                    "dimensions_by_degree": dims,
                    "dim_reduced": qa.dimension,
                    # informational: no published value to compare against
                    "dim_base_axis": qe.dimension,
                    "reduced_basis_count": qa.parent.dimension,
                    "shifted_basis_count": len(shifted),
                    "monomial_basis": [
                        {"monomial": alg.monomial_word(m), "degree": d}
                        for d in range(alg.top_degree + 1)
                        for m in alg.monomials_of_degree(d)
                    ],
                    "reduced_basis": [
                        {"monomial": alg.monomial_word(m), "degree": d}
                        for d in range(alg.top_degree + 1)
                        for m in qa.parent.monomials_of_degree(d)
                    ],
                    "shifted_basis": [
                        {"element": e.to_text(), "degree": e.degree()} for e in shifted
                    ],
                }
            )
    return records, 0


def _run_lemmas(config):
    records, failures = [], 0
    for g in sorted(config.genus):
        for n in sorted(config.points):
            rep = verify_lemma_identities(g, n, config.allow_large)
            if not rep.ok:
                failures += 1
            records.append(
                {
                    "genus": g,
                    "n": n,
                    "checks": [
                        {"name": c.name, "ok": c.ok}
                        | ({"detail": c.detail} if not c.ok else {})
                        for c in rep.checks
                    ],
                    "passed": rep.passed,
                    "failed": rep.failed,
                    "ok": rep.ok,
                }
            )
    return records, failures


def _run_rp3(config):
    records = []
    for s in sorted(config.stages):
        zcl = rp3_zcl_check(s)
        records.append(
            {"s": s, "zcl": zcl, "nonzero": True, "factor_count": 3 * (s - 1)}
        )
    return records, 0


def _run_search(config):
    records = []
    for g, n, s in _grid(config):
        target = cached_quotient(g, n, config.ring, config.allow_large)
        result = zcl_search(target, s, config.strategy)
        records.append(
            {
                "genus": g,
                "n": n,
                "s": s,
                "ring": config.ring,
                "strategy": result.strategy,
                "bound": result.bound,
                "witness": [
                    {"element": text, "slot": slot} for text, slot in result.witness
                ],
            }
        )
    return records, 0


_DISPATCH = {
    "table": _run_table,
    "certify": _run_certify,
    "basis": _run_basis,
    "lemmas": _run_lemmas,
    "rp3": _run_rp3,
    "search-zcl": _run_search,
}


def _emit_csv(records, stream):
    stream.write(",".join(CSV_COLUMNS) + "\n")
    for rec in records:
        stream.write(
            ",".join(str(rec[c]).lower() if c == "certified" else str(rec[c]) for c in CSV_COLUMNS)
            + "\n"
        )


def _emit_text(command, records, stream):
    for rec in records:
        if command == "table":
            stream.write(
                "genus {genus} n {n} s {s}: tc = {tc} "
                "(upper {upper}, lower {lower}, certified {certified})\n".format(**rec)
            )
        elif command == "certify":
            stream.write(
                "genus {genus} n {n} s {s} in {ring}: {count} factors, "
                "nonzero {nonzero}\n".format(count=rec["factor_count"], **{
                    k: rec[k] for k in ("genus", "n", "s", "ring", "nonzero")
                })
            )
            for f in rec["factors"]:
                stream.write(f"  [{f['kind']} {f['label']} x{f['count']}] {f['tensor']}\n")
            stream.write(f"  result: {rec['result']}\n")
        elif command == "basis":
            stream.write(
                "genus {genus} n {n}: dimension {dimension}, "
                "reduced quotient dimension {dim_reduced}\n".format(**rec)
            )
            for entry in rec["monomial_basis"]:
                stream.write(f"  deg {entry['degree']}  {entry['monomial']}\n")
        elif command == "lemmas":
            stream.write(
                "genus {genus} n {n}: {passed} passed, {failed} failed\n".format(**rec)
            )
            for c in rec["checks"]:
                mark = "ok " if c["ok"] else "FAIL"
                stream.write(f"  {mark} {c['name']}\n")
        elif command == "rp3":
            stream.write("s {s}: zcl {zcl} (nonzero {nonzero})\n".format(**rec))
        else:
            stream.write(
                "genus {genus} n {n} s {s} [{strategy}]: bound {bound}\n".format(**rec)
            )
            for w in rec["witness"]:
                stream.write(f"  factor {w['element']} slot {w['slot']}\n")


def run(config: RunConfig, stream=None) -> int:
    """Execute the configured command, writing records to the stream."""
    stream = stream or sys.stdout
    config.validate()
    if config.allow_large:
        _warn_override(config, sys.stderr)
    try:
        records, failures = _DISPATCH[config.command](config)
    except SizeGuardError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2
    except ConfigurationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except VerificationError as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return 1
    if config.fmt == "json":
        json.dump(
            {"command": config.command, "records": records},
            stream,
            indent=2,
            sort_keys=True,
        )
        stream.write("\n")
    elif config.fmt == "csv":
        _emit_csv(records, stream)
    else:
        _emit_text(config.command, records, stream)
    return 1 if failures else 0


def _int_list(text):
    try:
        values = tuple(sorted({int(v) for v in text.split(",") if v != ""}))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def build_parser():
    parser = argparse.ArgumentParser(
        prog="conftc",
        description="Certified higher-topological-complexity tables for "
        "configuration spaces of orientable surfaces.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--genus", type=_int_list, default=(2,), help="comma-separated genus list")
    parser.add_argument("--points", type=_int_list, default=(2,), help="comma-separated point counts")
    parser.add_argument("--stages", type=_int_list, default=(2,), help="comma-separated stage counts (>= 2)")
    parser.add_argument("--ring", choices=("B", "E"), default="B", help="evaluation ring")
    parser.add_argument("--format", dest="fmt", choices=FORMATS, default="json")
    parser.add_argument("--strategy", choices=("EXHAUSTIVE_TINY", "GREEDY"), default=None,
                        help="search strategy for search-zcl (default: by dimension)")
    parser.add_argument("--allow-large", action="store_true",
                        help="override the size guards (prints the guarded basis sizes); "
                        "does not lift the rp3 stage limit")
    parser.add_argument("--out", default=None, help="write output to this file instead of stdout")
    return parser


# Built once, at import: the first argparse parser of a process pulls in
# gettext's lazy ``import locale`` (about 2 ms), which is interpreter set-up
# rather than a command's work.  ``parse_args`` leaves the parser unchanged,
# so every ``main`` call can share it.
PARSER = build_parser()


def main(argv=None) -> int:
    parser = PARSER
    args = parser.parse_args(argv)
    config = RunConfig(
        command=args.command,
        genus=args.genus,
        points=args.points,
        stages=args.stages,
        ring=args.ring,
        fmt=args.fmt,
        allow_large=args.allow_large,
        strategy=args.strategy,
    )
    try:
        config.validate()
    except ValueError as e:
        parser.error(str(e))
    if not args.out:
        try:
            code = run(config, sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError as e:
            # The reader closed stdout.  Point it at the null device, so that
            # the flush at interpreter exit has nothing left to fail on.
            import os

            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            print(f"error: cannot write to stdout: {e.strerror}", file=sys.stderr)
            return 2
        return code
    # The file is opened only once the run has produced output, so a refused
    # or failed run leaves no file behind and an existing one untouched.
    buffer = io.StringIO()
    code = run(config, buffer)
    if buffer.tell():
        try:
            with open(args.out, "w") as fh:
                fh.write(buffer.getvalue())
        except OSError as e:
            print(f"error: cannot open --out file {args.out}: {e.strerror}", file=sys.stderr)
            return 2
    return code


def schema_path() -> Path:
    """Location of the shipped JSON schema for the record formats."""
    return Path(__file__).with_name("records.schema.json")


if __name__ == "__main__":
    sys.exit(main())
