"""Paired end-to-end benchmark runs of two commits, written as a ``BENCH_*.json`` file.

Usage (from the root of a checkout)::

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workloads certify_e_g2n5,certify_b_g2n5 --pairs 10 --seed 4101 \\
        --seconds 25 --all-seed 4201 --claim certify_e_g2n5 --out BENCH_x.json

Each commit is unpacked with ``git archive`` into its own directory under
``--workdir`` (a new temporary directory by default), so both sides run
from committed files only.  For every workload, pair k runs
``perfbench/run.py --workload W --seed SEED+k --seconds S --trace 0`` once
in each copy, one run at a time; the parent goes first on even pairs and
the change on odd ones.  With ``--all-seed``, one ``--workload all`` pass
(an untraced and a traced pass of every workload) then runs in each copy,
parent first.  Children run with ``PYTHONDONTWRITEBYTECODE=1``, as the
benchmark does.

The output holds every run's result line: ``pairs`` (``workload``,
``pair``, ``seed``, ``side``, ``first``, ``result``) and ``traced_all``
(``side``, ``seed``, ``result``), with the ``FAILED`` lines of a run that
reports failed operations, and each side's ``src_lines``, the lines
of its ``src/conftc/*.py`` as ``wc -l`` counts them.  A summary goes to
stdout: both line counts, then per workload and end-to-end metric, the
median of each side, the number of pairs in which the change is better,
and the interquartile range of the parent's runs.  The exit code is 1
when a run fails or reports failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# End-to-end metrics of ``BENCHMARK.json``, all better when lower.
METRICS = ("wall_norm_s", "peak_rss_mb", "setup_s")


def unpack(rev, dest):
    """Write the files of commit ``rev`` to ``dest`` with ``git archive``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def src_lines(copy):
    """The newline count of the copy's ``src/conftc/*.py`` files, as ``wc -l`` gives it."""
    return sum(p.read_bytes().count(b"\n") for p in (copy / "src" / "conftc").glob("*.py"))


def run_bench(copy, args):
    """One ``perfbench/run.py`` run in a copy; returns its result line as a dict.

    A run that reports failed operations also keeps, as ``failed_lines``, its
    ``# <workload>: FAILED ...`` lines, which say what failed.
    """
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "error": proc.stderr.strip()[-2000:]}
    if result.get("failed"):
        result["failed_lines"] = [
            line for line in lines if line.startswith("# ") and ": FAILED " in line
        ]
    return result


def summarize(runs, workloads, claim):
    """Print the medians, the pairs the change wins and the parent's IQR."""
    for w in workloads:
        for metric in METRICS:
            sides = {"parent": {}, "change": {}}
            for r in runs:
                if r["workload"] == w and "metrics" in r["result"]:
                    sides[r["side"]][r["pair"]] = r["result"]["metrics"][metric]["value"]
            pairs = sorted(sides["parent"].keys() & sides["change"].keys())
            if not pairs:
                continue
            parent = [sides["parent"][k] for k in pairs]
            change = [sides["change"][k] for k in pairs]
            q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (0, 0, 0)
            wins = sum(c < p for p, c in zip(parent, change))
            mp, mc = statistics.median(parent), statistics.median(change)
            mark = " (claimed)" if w == claim and metric == "wall_norm_s" else ""
            print(
                f"{w} {metric}{mark}: parent {mp:.4f}, change {mc:.4f} "
                f"({(mc - mp) / mp:+.1%}), change better in {wins} of {len(pairs)}, "
                f"parent IQR {q3 - q1:.4f}"
            )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--change", required=True, help="the commit that claims the change")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="the seed of pair 0")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--all-seed", type=int, help="also run one --workload all pass per side")
    parser.add_argument("--claim", help="the workload whose wall_norm_s the change claims")
    parser.add_argument("--note", default="", help="prepended to the recorded note")
    parser.add_argument("--workdir", type=Path, help="where to unpack the two commits")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    copies = {"parent": workdir / "parent", "change": workdir / "change"}
    for side, rev in (("parent", args.parent), ("change", args.change)):
        unpack(rev, copies[side])
    workloads = args.workloads.split(",")

    runs, ok = [], True
    for w in workloads:
        for k in range(args.pairs):
            seed = args.seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order):
                bench = ["--workload", w, "--seed", str(seed),
                         "--seconds", str(args.seconds), "--trace", "0"]
                result = run_bench(copies[side], bench)
                ok = ok and bool(result.get("correct"))
                runs.append({"workload": w, "pair": k, "seed": seed, "side": side,
                             "first": position == 0, "result": result})
                print(f"# {w} pair {k} {side}: "
                      f"{result.get('metrics', {}).get('wall_norm_s', {}).get('value')}",
                      flush=True)

    seconds = f"{args.seconds:g}"
    out = {
        "pairs": {
            "command": f"python3 perfbench/run.py --workload <w> --seed <{args.seed}+pair> "
                       f"--seconds {seconds} --trace 0",
            "note": (
                f"{args.note} {args.pairs} pairs per workload, alternating which side runs "
                "first (parent first on even pairs). Both sides ran from git archive copies "
                f"of the parent commit ({args.parent}) and of the change ({args.change}), one "
                "run at a time, with PYTHONDONTWRITEBYTECODE=1."
                + (f" Claimed gain: {args.claim} wall_norm_s." if args.claim else "")
            ).strip(),
            "runs": runs,
        }
    }
    if args.all_seed is not None:
        traced = []
        for side in ("parent", "change"):
            bench = ["--workload", "all", "--seconds", seconds, "--seed", str(args.all_seed)]
            result = run_bench(copies[side], bench)
            ok = ok and bool(result.get("correct"))
            traced.append({"side": side, "seed": args.all_seed, "result": result})
        out["traced_all"] = {
            "command": f"python3 perfbench/run.py --workload all --seconds {seconds} "
                       f"--seed {args.all_seed}",
            "note": "one untraced and one traced pass of every workload per side, "
                    "parent first, from the same copies.",
            "runs": traced,
        }
    out["src_lines"] = {side: src_lines(copy) for side, copy in copies.items()}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    lines = out["src_lines"]
    print(f"src/conftc/*.py lines: parent {lines['parent']}, change {lines['change']} "
          f"({lines['change'] - lines['parent']:+d})")
    summarize(runs, workloads, args.claim)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
