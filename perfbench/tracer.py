"""Run one ``conftc`` CLI invocation with layer spans or work counters.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/tracer.py spans  -- certify --genus 2 --points 5 --stages 3
    python3 perfbench/tracer.py counts -- certify --genus 2 --points 5 --stages 3

The CLI writes its records to stdout exactly as it would untraced.  After
it returns, one JSON line with the trace summary is written as the last
line of stderr, and the process exits with the CLI's exit code.

The program's modules are not edited: their public functions and a few
named methods are replaced at run time by wrappers.

* ``spans`` records one span per call of a wrapped function (name, label,
  parent span, start, end) in memory and reports, per span name, the call
  count, inclusive time and self time (duration minus the time covered by
  child spans).  The hot kernel calls (``mono_mul``, ``insert``,
  ``reduce``) run 10^5-10^6 times per invocation and are not spanned: a
  wrapper on them would distort the very times being measured.
* ``counts`` wraps only those hot calls plus a few others with plain
  counters.  Every counter is deterministic for a fixed invocation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYER_MODULES = ("surfaces", "linalg", "quotients", "algebra", "certificates", "cli")

# A module-level public function too frequent to span (it runs inside every
# insert and reduce); its cost stays in the self time of the caller.
NOT_SPANNED = {"linalg.vec_scaled_sub"}

# Methods spanned by (module, class, method).  Module-level public
# functions are found by inspection.
SPANNED_METHODS = (
    ("surfaces", "SurfacePowerAlgebra", "__init__"),
    ("quotients", "QuotientAlgebra", "__init__"),
    ("quotients", "QuotientAlgebra", "normal_form"),
    ("quotients", "QuotientAlgebra", "multiply"),
    ("quotients", "QuotientAlgebra", "tensor_normal_form"),
    ("quotients", "QuotientAlgebra", "mu"),
    ("algebra", "Element", "__mul__"),
    ("algebra", "TensorElement", "__mul__"),
    ("algebra", "TensorElement", "mu"),
)


def load_modules():
    return {name: importlib.import_module(f"conftc.{name}") for name in LAYER_MODULES}


def replace_everywhere(modules, original, replacement):
    """Point every module-level reference to ``original`` at ``replacement``.

    ``from .x import f`` copies the function into the importer's namespace,
    so patching only the defining module would miss those callers.
    """
    for mod in modules.values():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def public_functions(mod):
    for key, value in list(vars(mod).items()):
        if (
            inspect.isfunction(value)
            and not key.startswith("_")
            and value.__module__ == mod.__name__
        ):
            yield key, value


def arguments(fn, args, kwargs):
    """The call's arguments by parameter name."""
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def quotient_kind(fn, args, kwargs):
    return str(arguments(fn, args, kwargs).get("kind", "?"))


class SpanTracer:
    """In-memory spans: [name, label, parent index, start, end]."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, fn, label_of=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = label_of(fn, args, kwargs) if label_of else ""
            rec = [name, label, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()

        return wrapper

    def install(self, modules):
        for layer, mod in modules.items():
            for key, fn in public_functions(mod):
                name = f"{layer}.{key}"
                if name not in NOT_SPANNED:
                    label_of = quotient_kind if name == "quotients.cached_quotient" else None
                    replace_everywhere(modules, fn, self.wrap(name, fn, label_of))
        for layer, cls_name, meth in SPANNED_METHODS:
            cls = getattr(modules[layer], cls_name)
            setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", getattr(cls, meth)))
        # Every workload writes JSON, so output is the CLI's ``json.dump``.
        modules["cli"].json = _JsonProxy(self.wrap("cli.emit", json.dump))

    def summary(self):
        """Per-name call count, inclusive and self seconds; root and coverage."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, _label, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_name = {}
        for k, (name, label, parent, start, end) in enumerate(spans):
            key = name
            if name == "quotients.ideal_span":
                key = f"{name}.{self._kind_of(k)}"
            calls, total, self_s = by_name.get(key, (0, 0.0, 0.0))
            by_name[key] = (calls + 1, total + end - start, self_s + end - start - child_time[k])
        roots = [s for s in spans if s[2] < 0 and s[0] == "cli.main"]
        root_s = sum(s[4] - s[3] for s in roots)
        # Time inside the first non-CLI span below the CLI, plus output.
        covered = sum(
            end - start
            for name, _l, parent, start, end in spans
            if parent >= 0
            and spans[parent][0].startswith("cli.")
            and (not name.startswith("cli.") or name == "cli.emit")
        )
        return {
            "root_s": root_s,
            "covered_s": covered,
            "by_name": {k: list(v) for k, v in sorted(by_name.items())},
        }

    def _kind_of(self, k):
        """Quotient kind of the nearest enclosing ``cached_quotient`` span."""
        while k >= 0:
            name, label, parent, _s, _e = self.spans[k]
            if name == "quotients.cached_quotient":
                return label
            k = parent
        return "?"


class _JsonProxy:
    """The ``json`` module as the CLI sees it, with ``dump`` spanned."""

    def __init__(self, dump):
        self.dump = dump

    def __getattr__(self, name):
        return getattr(json, name)


class WorkCounter:
    """Deterministic counts of the hot kernel calls and of the layer products."""

    def __init__(self):
        self.counts = {
            "surfaces.mono_mul_calls": 0,
            "surfaces.mono_mul_zero": 0,
            "linalg.insert_calls": 0,
            "linalg.insert_useful": 0,
            "linalg.reduce_calls": 0,
            "quotients.normal_form_calls": 0,
            "quotients.tensor_normal_form_calls": 0,
            "algebra.element_mul_calls": 0,
            "algebra.tensor_mul_calls": 0,
            "algebra.tensor_terms_peak": 0,
        }
        self.dims = {}

    def install(self, modules):
        c = self.counts

        def counted(cls, meth, on_result):
            orig = getattr(cls, meth)

            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                result = orig(*args, **kwargs)
                on_result(result)
                return result

            setattr(cls, meth, wrapper)

        def mono_mul(r):
            c["surfaces.mono_mul_calls"] += 1
            if r is None:
                c["surfaces.mono_mul_zero"] += 1

        def insert(enlarged):
            c["linalg.insert_calls"] += 1
            if enlarged:
                c["linalg.insert_useful"] += 1

        def bump(key):
            def on_result(_r):
                c[key] += 1

            return on_result

        def tensor(key):
            def on_result(t):
                c[key] += 1
                c["algebra.tensor_terms_peak"] = max(c["algebra.tensor_terms_peak"], len(t.terms))

            return on_result

        surfaces, linalg, quotients, algebra = (
            modules[k] for k in ("surfaces", "linalg", "quotients", "algebra")
        )
        counted(surfaces.SurfacePowerAlgebra, "mono_mul", mono_mul)
        counted(linalg.GradedSubspace, "insert", insert)
        counted(linalg.GradedSubspace, "reduce", bump("linalg.reduce_calls"))
        counted(quotients.QuotientAlgebra, "normal_form", bump("quotients.normal_form_calls"))
        counted(
            quotients.QuotientAlgebra,
            "tensor_normal_form",
            tensor("quotients.tensor_normal_form_calls"),
        )
        counted(algebra.Element, "__mul__", bump("algebra.element_mul_calls"))
        counted(algebra.TensorElement, "__mul__", tensor("algebra.tensor_mul_calls"))

        orig = quotients.cached_quotient
        dims = self.dims

        @functools.wraps(orig)
        def cached_quotient(*args, **kwargs):
            q = orig(*args, **kwargs)
            a = arguments(orig, args, kwargs)
            dims[f"{a['kind']}:g{a['genus']}n{a['points']}"] = q.dimension
            return q

        replace_everywhere(modules, orig, cached_quotient)

    def summary(self):
        return {"counts": self.counts, "dims": dict(sorted(self.dims.items()))}


def main(argv):
    if len(argv) < 2 or argv[0] not in ("spans", "counts") or argv[1] != "--":
        print("usage: tracer.py spans|counts -- <conftc arguments>", file=sys.stderr)
        return 2
    modules = load_modules()
    recorder = SpanTracer() if argv[0] == "spans" else WorkCounter()
    recorder.install(modules)
    code = modules["cli"].main(argv[2:])
    sys.stdout.flush()
    sys.stderr.write("\n" + json.dumps(recorder.summary()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
