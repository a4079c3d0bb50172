#!/usr/bin/env python3
"""Benchmark of the ``conftc`` command line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload certify_b_g2n5 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Each workload is one fixed ``conftc`` invocation, run as a closed loop: one
client, one invocation at a time, each in a fresh interpreter with the
checkout's ``src`` on ``PYTHONPATH``, pinned to the CPUs in turn.  Every
invocation's stdout is checked by the output oracle (``oracle.py``) and must
equal, byte for byte, the first invocation of the same workload in the run.

``--trace 0`` reports the end-to-end metrics: the median wall time of one
invocation and the median time of a fresh ``import conftc.cli`` (set-up),
both scaled to a reference CPU speed by the kernel in ``reference.py``, timed
on the same CPU while the invocation runs, and the median peak resident
memory of one invocation.  ``--trace 1`` reports the per-layer metrics from
``tracer.py``: two counting passes, whose deterministic counts must agree
exactly, then alternating traced and untraced invocations, whose wall-time
ratio is the tracing overhead.  ``--workload all`` runs an untraced pass and
then a traced pass over every workload, in an order set by the seed.  The
seed also picks the first CPU.  The inputs are the same for every seed.

Human-readable lines start with ``#``; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 when every invocation was correct, 1 when one was not,
and 2 when the benchmark could not run (for example, no ``src/conftc``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import reference  # noqa: E402

WORKLOADS = {
    # The B ideal span is ~99 % of the run: the n-frontier cell.
    "certify_b_g2n5": {
        "command": "certify", "genus": (2,), "points": (5,), "stages": (3,), "ring": "B",
    },
    # Same cell, non-monomial Totaro ideal: multi-term rows, other redundancy.
    "certify_e_g2n5": {
        "command": "certify", "genus": (2,), "points": (5,), "stages": (3,), "ring": "E",
    },
    # 81 small cells: certificate product and tensor algebra, ~4 % quotient builds.
    "table_deep_stages": {
        "command": "table", "genus": (2, 3, 4), "points": (1, 2, 3), "stages": tuple(range(2, 11)),
    },
    # The only quotient-A build, and the read-heavy use of a built quotient.
    "lemmas_g23n34": {"command": "lemmas", "genus": (2, 3), "points": (3, 4)},
}

END_TO_END = {"wall_norm_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metrics in the result line.  Every value here is nonzero on every
# workload.  Values that are zero on the workloads that never reach their
# layer (the per-kind and certificate times, the tensor counts) are printed
# as ``#`` lines only.
PER_LAYER = {
    "surfaces.build_s": "s",
    "surfaces.mono_mul_calls": "count",
    "surfaces.mono_mul_zero_frac": "ratio",
    "linalg.insert_calls": "count",
    "linalg.insert_useful_frac": "ratio",
    "linalg.reduce_calls": "count",
    "quotients.ideal_span_s": "s",
    "quotients.dim": "count",
    "quotients.normal_form_calls": "count",
    "quotients.normal_form_s": "s",
    "algebra.element_mul_calls": "count",
    "algebra.element_mul_s": "s",
    "surfaces.self_s": "s",
    "quotients.self_s": "s",
    "algebra.self_s": "s",
    "certificates.self_s": "s",
    "cli.self_s": "s",
    "cli.emit_s": "s",
    "trace.main_s": "s",
    "trace.coverage": "ratio",
    "trace.wall_ratio": "ratio",
}

# Span name -> (metric, "self" or "total" seconds).  Totals are used where
# the callees are part of the cost being named (factor construction) or the
# function has no spanned callees.
LAYER_TIMES = {
    "surfaces.SurfacePowerAlgebra.__init__": ("surfaces.build_s", "self"),
    "quotients.QuotientAlgebra.normal_form": ("quotients.normal_form_s", "self"),
    "quotients.QuotientAlgebra.tensor_normal_form": ("quotients.tensor_normal_form_s", "self"),
    "algebra.Element.__mul__": ("algebra.element_mul_s", "self"),
    "algebra.TensorElement.__mul__": ("algebra.tensor_mul_s", "self"),
    "certificates.certificate_factors": ("certificates.factors_s", "total"),
    "certificates.evaluate_certificate": ("certificates.evaluate_self_s", "self"),
    "certificates.combination_in_span": ("certificates.support_check_s", "total"),
    "cli.emit": ("cli.emit_s", "self"),
}
LAYERS = ("surfaces", "linalg", "quotients", "algebra", "certificates", "cli")

# Each vCPU of a shared host can switch between a fast and a half-as-fast
# state every few seconds.  An untraced invocation is therefore stopped
# (SIGSTOP) every SAMPLE_EVERY_S while the harness, pinned to the same CPU,
# times the reference kernel; it is timed once more just before the start
# and just after the exit.  The stopped time is not counted in the
# invocation's wall time.  Successive invocations take the CPUs in turn.
SAMPLE_EVERY_S = 0.4
# A typical time of ``reference.kernel_s`` on the 2-vCPU 2.0 GHz Xeon VM the
# benchmark was defined on (Python 3.11).  ``wall_norm_s`` and ``setup_s``
# are wall times scaled to a CPU on which the kernel takes this long.
REFERENCE_S = 0.04
MIN_INVOCATIONS = 3
INVOCATION_TIMEOUT_S = 60.0
# After each invocation, set-up probes run on its CPU until they have taken
# this share of its wall time, and at least SETUP_PROBES_MIN of them.
SETUP_SHARE = 0.1
SETUP_PROBES_MIN = 3
# Share of the CLI's in-process time the top-level layer spans must cover.
COVERAGE_MIN = 0.95

# wait4's ru_maxrss cannot give a child's peak memory: at exec, Linux folds
# the high-water RSS of the spawning process into the child's, so every child
# would report at least the harness's own size.  Children report their own
# VmHWM instead, which starts afresh at exec, from an exit hook.
HWM_MARK = b"perfbench-vmhwm-kb"
HWM_HOOK = f"""\
import atexit, os
def _report_hwm():
    with open("/proc/self/status") as f:
        kb = next(line.split()[1] for line in f if line.startswith("VmHWM:"))
    os.write(2, b"\\n{HWM_MARK.decode()} " + kb.encode() + b"\\n")
atexit.register(_report_hwm)
"""
# ``python -m conftc.cli`` with the hook installed first.
CLI_LAUNCHER = HWM_HOOK + """\
import runpy
runpy.run_module("conftc.cli", run_name="__main__", alter_sys=True)
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Invocation:
    wall_s: float
    code: int
    stdout: bytes
    stderr: bytes
    samples: list = field(default_factory=list)

    def peak_rss_mb(self):
        """The VmHWM the child reported through ``HWM_HOOK``; None if it did not."""
        _, sep, tail = self.stderr.rpartition(b"\n" + HWM_MARK + b" ")
        return int(tail) / 1024.0 if sep else None

    def scale(self):
        """Factor from this invocation's wall time to the reference CPU speed."""
        return REFERENCE_S / statistics.mean(self.samples)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:5])


def cli_args(spec):
    args = [spec["command"]]
    for flag in ("genus", "points", "stages"):
        if flag in spec:
            args += [f"--{flag}", ",".join(map(str, spec[flag]))]
    if spec.get("ring", "B") != "B":
        args += ["--ring", spec["ring"]]
    return args


def spawn(argv, env, cpu, sample=False):
    """Run one child on one CPU to exit; wall time from spawn to exit.

    With ``sample``, the harness stays on the child's CPU and times the
    reference kernel before the start, after the exit, and every
    SAMPLE_EVERY_S in between with the child stopped; the stopped time is
    left out of the wall time.
    """
    # The child inherits the affinity it is forked with.
    everywhere = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        samples = [reference.kernel_s()] if sample else []
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
    finally:
        if not sample:
            os.sched_setaffinity(0, everywhere)
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = t0 + INVOCATION_TIMEOUT_S
    next_sample = t0 + SAMPLE_EVERY_S if sample else math.inf
    paused, status, finished = 0.0, None, False
    try:
        with selectors.DefaultSelector() as sel:
            for f in chunks:
                sel.register(f, selectors.EVENT_READ)
            while sel.get_map():
                now = time.perf_counter()
                if now >= deadline:
                    break
                if now >= next_sample and status is None:
                    os.kill(proc.pid, signal.SIGSTOP)
                    _, st = os.waitpid(proc.pid, os.WUNTRACED)
                    if os.WIFSTOPPED(st):
                        samples.append(reference.kernel_s())
                        os.kill(proc.pid, signal.SIGCONT)
                    else:  # it exited before the signal arrived
                        status = st
                    paused += time.perf_counter() - now
                    next_sample = time.perf_counter() + SAMPLE_EVERY_S
                    continue
                for key, _ in sel.select(min(deadline, next_sample) - now):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
            finished = not sel.get_map()
    finally:
        # The child is reaped here on every path, so none outlives the run.
        if status is None:
            if not finished:
                proc.kill()
            _, status = os.waitpid(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        wall = time.perf_counter() - t0 - paused
        if sample:
            samples.append(reference.kernel_s())
            os.sched_setaffinity(0, everywhere)
    if not finished:
        return Invocation(wall, -1, b"", b"timed out after %d s" % INVOCATION_TIMEOUT_S, samples)
    return Invocation(wall, proc.returncode, b"".join(chunks[proc.stdout]),
                      b"".join(chunks[proc.stderr]), samples)


class Bench:
    """Shared state of one benchmark run in one checkout."""

    def __init__(self, seed):
        src = ROOT / "src"
        self.schema = src / "conftc" / "records.schema.json"
        if not (src / "conftc" / "cli.py").is_file() or not self.schema.is_file():
            raise BenchError(f"no conftc sources under {src}")
        self.validator = oracle.load_validator(self.schema)
        self.py = sys.executable
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("TCCONF_")}
        self.env["PYTHONPATH"] = str(src)
        self.rng = random.Random(seed)
        self.seed = seed
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turn = seed
        self.baseline = json.loads((HERE / "baseline.json").read_text())
        probe = self.spawn([self.py, "-c", "import conftc.cli as m; print(m.__file__)"])
        where = Path(probe.stdout.decode().strip() or "?").resolve()
        if probe.code != 0 or src.resolve() not in where.parents:
            raise BenchError(
                f"conftc.cli was not imported from {src} (got {where}): "
                f"{probe.stderr.decode(errors='replace')[-500:]}"
            )
        self.empty_rss_mb = self.spawn([self.py, "-c", HWM_HOOK]).peak_rss_mb()
        if self.empty_rss_mb is None:
            raise BenchError("a child could not report its VmHWM from /proc/self/status")

    def next_cpu(self):
        """The next CPU in turn; the seed picks the first."""
        self.turn += 1
        return self.cpus[self.turn % len(self.cpus)]

    def spawn(self, argv, cpu=None, sample=False):
        return spawn(argv, self.env, self.next_cpu() if cpu is None else cpu, sample)

    def cli_argv(self, spec):
        return [self.py, "-c", CLI_LAUNCHER, *cli_args(spec)]

    def setup_probe(self, cpu):
        """Seconds for a fresh interpreter on ``cpu`` to finish ``import conftc.cli``."""
        inv = self.spawn([self.py, "-c", "import conftc.cli"], cpu)
        if inv.code != 0:
            raise BenchError(f"import conftc.cli failed: {inv.stderr.decode()[-500:]}")
        return inv.wall_s

    def judge(self, spec, inv, first_out):
        """Problems with one invocation: exit code, oracle, byte identity."""
        if inv.code != 0:
            return [f"exit code {inv.code}: {inv.stderr.decode(errors='replace')[-300:]}"]
        problems = oracle.check_output(spec, inv.stdout.decode(), self.validator)
        if first_out is not None and inv.stdout != first_out:
            problems.append("stdout differs from the run's first invocation")
        return problems

    def untraced(self, name, seconds):
        """Rounds of one sampled invocation and set-up probes on one CPU."""
        spec = WORKLOADS[name]
        argv = self.cli_argv(spec)
        tally, first_out = Tally(), None
        walls, norms, peaks, setups, rounds = [], [], [], [], []
        start = time.perf_counter()
        while len(walls) < MIN_INVOCATIONS or _fits(start, seconds, rounds):
            t0 = time.perf_counter()
            cpu = self.next_cpu()
            inv = self.spawn(argv, cpu, sample=True)
            problems = self.judge(spec, inv, first_out)
            peak = inv.peak_rss_mb()
            if peak is None and not problems:
                problems.append("no peak memory reported")
            tally.record(f"invocation {len(walls) + 1}", problems)
            first_out = first_out or inv.stdout
            walls.append(inv.wall_s)
            norms.append(inv.wall_s * inv.scale())
            peaks += [peak] if peak is not None else []
            if inv.code == -1:
                break
            probes = []
            while len(probes) < SETUP_PROBES_MIN or sum(probes) < SETUP_SHARE * inv.wall_s:
                probes.append(self.setup_probe(cpu))
            setups += [(p, p * inv.scale()) for p in probes]
            rounds.append(time.perf_counter() - t0)
        metrics = {
            "wall_norm_s": statistics.median(norms),
            "peak_rss_mb": statistics.median(peaks) if peaks else 0.0,
            "setup_s": statistics.median(n for _, n in setups) if setups else 0.0,
        }
        notes = [
            f"{len(walls)} invocations; unscaled wall_s median {statistics.median(walls):.3f}: "
            + " ".join(f"{w:.3f}" for w in walls),
            "wall_norm_s of each: " + " ".join(f"{w:.3f}" for w in norms),
            f"setup_s median of {len(setups)} fresh imports; unscaled "
            f"{statistics.median(p for p, _ in setups):.4f}" if setups else "no set-up probes",
            f"peak_rss_mb of an empty interpreter: {self.empty_rss_mb:.1f}",
        ]
        return metrics, tally, notes

    def traced(self, name, seconds):
        spec = WORKLOADS[name]
        args = cli_args(spec)
        tracer = [self.py, str(HERE / "tracer.py")]
        tally, first_out = Tally(), None
        start = time.perf_counter()

        counted = []
        for k in (1, 2):
            inv = self.spawn([*tracer, "counts", "--", *args])
            problems = self.judge(spec, inv, first_out)
            summary = _trace_summary(inv, problems)
            first_out = first_out or inv.stdout
            if summary and counted and summary != counted[0]:
                problems.append(f"counting passes disagree: {counted[0]} vs {summary}")
            if summary and k == 1:
                problems += self._check_dims(name, summary["dims"])
            tally.record(f"counting pass {k}", problems)
            if summary:
                counted.append(summary)

        walls = {False: [], True: []}
        spans = []
        traced_first = self.rng.random() < 0.5
        while not spans or _fits(start, seconds, walls[True], walls[False]):
            cpu = self.next_cpu()
            for traced in (traced_first, not traced_first):
                argv = [*tracer, "spans", "--", *args] if traced else self.cli_argv(spec)
                inv = self.spawn(argv, cpu)
                problems = self.judge(spec, inv, first_out)
                if traced:
                    summary = _trace_summary(inv, problems)
                    if summary:
                        coverage = summary["covered_s"] / summary["root_s"]
                        if coverage < COVERAGE_MIN:
                            problems.append(f"layer spans cover {coverage:.3f} of the CLI's time")
                        spans.append(summary)
                tally.record("traced" if traced else "untraced", problems)
                first_out = first_out or inv.stdout
                walls[traced].append(inv.wall_s)
            traced_first = not traced_first
            if not spans:
                break

        metrics = _layer_metrics(spans, counted[0] if counted else None)
        traced_s, untraced_s = (statistics.median(walls[t]) for t in (True, False))
        metrics["trace.wall_ratio"] = traced_s / untraced_s
        notes = [
            f"times: medians of {len(spans)} traced invocations, each paired on one CPU "
            f"with an untraced one; tracing overhead {traced_s - untraced_s:+.3f} s",
            f"counts from 2 counting passes, baseline: {self.baseline.get(name, {}).get('counts')}",
        ]
        return metrics, tally, notes

    def _check_dims(self, name, dims):
        want = self.baseline.get(name, {}).get("dims")
        if want is not None and dims != want:
            return [f"quotient dimensions {dims}, expected {want}"]
        return []


def _fits(start, seconds, *samples):
    """Whether one more round, at the median time of each sample list, ends in time."""
    need = sum(statistics.median(s) for s in samples)
    return time.perf_counter() - start + need <= seconds


def _trace_summary(inv, problems):
    """The tracer's summary line from stderr, or None with a problem noted."""
    lines = inv.stderr.decode(errors="replace").strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        problems.append("no trace summary on stderr")
        return None


def _span_values(summary):
    by_name = summary["by_name"]
    out = {metric: 0.0 for metric, _ in LAYER_TIMES.values()}
    out.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    out.update({f"quotients.ideal_span_s.{k}": 0.0 for k in "BEA"})
    out["quotients.ideal_span_s"] = 0.0
    for name, (_calls, total, self_s) in by_name.items():
        if name in LAYER_TIMES:
            metric, kind = LAYER_TIMES[name]
            out[metric] += total if kind == "total" else self_s
        if name.startswith("quotients.ideal_span."):
            out[name.replace("ideal_span.", "ideal_span_s.")] = self_s
            out["quotients.ideal_span_s"] += self_s
        out[f"{name.split('.')[0]}.self_s"] += self_s
    out["trace.main_s"] = summary["root_s"]
    out["trace.coverage"] = summary["covered_s"] / summary["root_s"]
    return out


def _layer_metrics(spans, counted):
    """Median span times over traced invocations, plus the counting pass."""
    values = [_span_values(s) for s in spans]
    metrics = {k: statistics.median(v[k] for v in values) for k in values[0]} if values else {}
    c = counted["counts"] if counted else {}
    dims = counted["dims"] if counted else {}
    metrics.update(c)
    metrics["surfaces.mono_mul_zero_frac"] = _ratio(c.get("surfaces.mono_mul_zero", 0),
                                                    c.get("surfaces.mono_mul_calls", 0))
    metrics["linalg.insert_useful_frac"] = _ratio(c.get("linalg.insert_useful", 0),
                                                  c.get("linalg.insert_calls", 0))
    for kind in "BEA":
        metrics[f"quotients.dim.{kind}"] = sum(
            d for key, d in dims.items() if key.startswith(f"{kind}:"))
    metrics["quotients.dim"] = sum(dims.values())
    return metrics


def _ratio(num, den):
    return num / den if den else 0.0


def _stamp(bench, workloads, trace, seconds):
    git = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        git = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": git,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": bench.seed,
        "seconds": seconds,
        "trace": trace,
        "workloads": workloads,
    }


def run_pass(bench, workloads, trace, seconds):
    """Run each workload once; returns {workload: metrics} and the tally."""
    results, total = {}, Tally()
    stamp = _stamp(bench, workloads, trace, seconds)
    stamp["loadavg_before"] = list(os.getloadavg())
    for name in workloads:
        metrics, tally, notes = (bench.traced if trace else bench.untraced)(name, seconds)
        results[name] = metrics
        total.attempted += tally.attempted
        total.failed += tally.failed
        for note in notes:
            print(f"# {name}: {note}")
        for key in sorted(metrics):
            print(f"# {name}: {key} = {metrics[key]!r}")
        print(f"# {name}: ops_failed_frac = {tally.failed}/{tally.attempted}")
        for p in tally.problems:
            print(f"# {name}: FAILED {p}")
    stamp["loadavg_after"] = list(os.getloadavg())
    print("# stamp " + json.dumps(stamp, sort_keys=True))
    return results, total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through the ``finally`` in ``spawn`` on SIGTERM, so a child that is
    # stopped for sampling is killed and reaped instead of left stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    every = args.workload == "all"
    metrics, tally = {}, Tally()
    try:
        bench = Bench(args.seed)
        for trace in (0, 1) if every else (args.trace,):
            names = bench.rng.sample(list(WORKLOADS), len(WORKLOADS)) if every else [args.workload]
            results, t = run_pass(bench, names, trace, args.seconds)
            tally.attempted += t.attempted
            tally.failed += t.failed
            units = PER_LAYER if trace else END_TO_END
            for name in names:
                prefix = f"{name}/" if every else ""
                metrics.update({prefix + k: {"value": results[name].get(k, 0.0), "unit": u}
                                for k, u in units.items()})
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
