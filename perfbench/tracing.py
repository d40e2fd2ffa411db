"""In-memory spans around twocat's public functions, and per-layer metrics.

A :class:`Tracer` replaces each wrapped function in every ``twocat.*``
namespace that holds it, so calls between modules are seen as well as the
benchmark's own calls.  Spans are kept in memory and written out once at
the end.  A layer's self time is its span's duration minus its child spans
and minus the tracer's own bookkeeping done while it was innermost.  The
counts are computed here from call arguments and results; nothing inside
the program is changed.
"""

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

import twocat as tc
import twocat.cli  # noqa: F401  (loads every namespace the tracer wraps)

from inputs import digest

#: The wrapped public functions, by module (the layers of the benchmark).
WRAPPED = {
    "serialize": ("parse_document", "dumps", "category_to_document", "functor_to_document"),
    "core": (
        "build_two_category", "validate_two_category", "validate_two_functor",
        "enumerate_two_functors", "find_isomorphism", "compose_two_functors",
        "functors_equal", "coproduct",
    ),
    "limits": ("pullback", "pair_into_pullback", "product"),
    "reflection": (
        "reflect", "reflect_functor", "connected_component",
        "check_semi_left_exact", "check_stable_units",
    ),
    "classify": (
        "classify", "is_edm", "is_vertical", "is_stably_vertical",
        "is_trivial_covering", "is_covering", "trivial_covering_oracle",
        "covering_oracle",
    ),
    "factorize": ("reflective_factor", "monotone_light_factor", "verify_factorization"),
    "gallery": ("edm_cover", "random_instance"),
}

#: Every subcommand of ``twocat.cli``; each gets ``cli.<name>.total_s``.
CLI_COMMANDS = (
    "validate", "reflect", "classify", "factor", "pullback", "edm-cover",
    "gallery", "iso",
)

#: The four predicates that loop over all pairs of source 1-cells.
HOM_WISE = ("is_vertical", "is_stably_vertical", "is_trivial_covering", "is_covering")

#: Counts beyond calls and self time: name -> (unit, better).
COUNTS = {
    "core.enumerate_two_functors.yielded": ("count", "higher"),
    "core.TwoCategory.eq_calls": ("count", "lower"),
    "core.validate_two_category.two_cells_in": ("count", "lower"),
    "limits.pullback.pairs_tested": ("count", "lower"),
    "limits.pullback.apex_cells": ("count", "higher"),
    "limits.pullback.hit_ratio": ("ratio", "higher"),
    "reflection.reflect.distinct_inputs": ("count", "higher"),
    "reflection.reflect.reuse_ratio": ("ratio", "higher"),
    "classify.hom_pairs_scanned": ("count", "lower"),
    "classify.nonempty_homs": ("count", "higher"),
    "classify.hom_hit_ratio": ("ratio", "higher"),
    "serialize.bytes_in": ("bytes", "lower"),
    "serialize.bytes_out": ("bytes", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def per_layer_names():
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    out = []
    for module, names in WRAPPED.items():
        for name in names:
            out.append((f"{module}.{name}.calls", "count", "lower"))
            out.append((f"{module}.{name}.self_s", "s", "lower"))
    out.extend((f"cli.{cmd}.total_s", "s", "lower") for cmd in CLI_COMMANDS)
    out.extend((name, unit, better) for name, (unit, better) in COUNTS.items())
    return out


class Tracer:
    """Spans ``[name, start, end, parent, job, bookkeeping]`` and counts."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.active = False
        self.calls = Counter()
        self.counts = Counter()
        self._reflected = set()
        self._fingerprints = {}

    # -- spans ---------------------------------------------------------------
    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job, 0.0])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name, job):
        """A span around one job (or the set-up), with recording switched on."""
        self.job, self.active = job, True
        self.open(name)
        try:
            yield
        finally:
            self.close()
            self.active = False
            self._fingerprints.clear()

    def _observe(self, qualname, args, result):
        started = time.perf_counter()
        observer = OBSERVERS.get(qualname)
        if observer is not None:
            observer(self, args, result)
        if self.stack:
            self.spans[self.stack[-1]][5] += time.perf_counter() - started

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, qualname, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                if not self.active:
                    yield from fn(*args, **kwargs)
                    return
                self.calls[qualname] += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        self.open(qualname)
                        try:
                            value = next(it)
                        except StopIteration:
                            return
                        finally:
                            self.close()
                        self._observe(qualname, args, value)
                        yield value
                finally:
                    it.close()
            return generator

        @functools.wraps(fn)
        def call(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.calls[qualname] += 1
            self.open(qualname)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            self._observe(qualname, args, result)
            return result
        return call

    @contextmanager
    def installed(self):
        """Wrap every listed function in every ``twocat`` namespace."""
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "twocat" or n.startswith("twocat.")]
        patched = []
        for module, names in WRAPPED.items():
            home = sys.modules[f"twocat.{module}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{module}.{name}", original)
                for ns in namespaces:
                    if getattr(ns, name, None) is original:
                        patched.append((ns, name, original))
                        setattr(ns, name, wrapper)
        original_eq = tc.TwoCategory.__eq__

        def counting_eq(a, b):
            if self.active:
                self.counts["core.TwoCategory.eq_calls"] += 1
            return original_eq(a, b)

        patched.append((tc.TwoCategory, "__eq__", original_eq))
        tc.TwoCategory.__eq__ = counting_eq
        try:
            yield self
        finally:
            for ns, name, original in reversed(patched):
                setattr(ns, name, original)

    # -- observers: counts from arguments and results ------------------------
    def _count_pullback(self, args, result):
        a, c = args[0].source, args[1].source
        self.counts["limits.pullback.pairs_tested"] += sum(
            x * y for x, y in zip(a.carrier_sizes(), c.carrier_sizes()))
        self.counts["limits.pullback.apex_cells"] += sum(result.apex.carrier_sizes())

    def _count_reflect(self, args, result):
        cat = args[0]
        held = self._fingerprints.get(id(cat))
        if held is None:
            held = self._fingerprints[id(cat)] = (cat, digest(cat))
        self._reflected.add(held[1])
        self.counts["reflection.reflect.distinct_inputs"] = len(self._reflected)

    def _count_hom_wise(self, args, result):
        src = args[0].source
        self.counts["classify.hom_pairs_scanned"] += len(src.one_cells) ** 2
        self.counts["classify.nonempty_homs"] += len(set(src.two_cells.values()))

    def _count_validate(self, args, result):
        self.counts["core.validate_two_category.two_cells_in"] += len(args[0].two_cells)

    def _count_yield(self, args, result):
        self.counts["core.enumerate_two_functors.yielded"] += 1

    def _count_bytes_in(self, args, result):
        self.counts["serialize.bytes_in"] += len(args[0].encode("utf-8"))

    def _count_bytes_out(self, args, result):
        self.counts["serialize.bytes_out"] += len(result.encode("utf-8"))

    # -- results -------------------------------------------------------------
    def self_times(self):
        """Self time per span name, summed over all spans of that name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _job, _book in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = Counter()
        for index, (name, start, end, _parent, _job, book) in enumerate(self.spans):
            out[name] += end - start - covered[index] - book
        return out

    def total_times(self):
        out = Counter()
        for name, start, end, *_rest in self.spans:
            out[name] += end - start
        return out

    def metrics(self, traced_wall, untraced_wall):
        """Every per-layer metric by name, as ``{"value", "unit"}`` entries.

        The walls are summed job latencies of a traced pass and of the
        untraced passes around it (their mean, which cancels a steady drift
        of the machine's speed).
        """
        self_s = self.self_times()
        total = self.total_times()
        counts = dict(self.counts)
        counts["limits.pullback.hit_ratio"] = _ratio(
            counts.get("limits.pullback.apex_cells", 0),
            counts.get("limits.pullback.pairs_tested", 0))
        counts["reflection.reflect.reuse_ratio"] = _ratio(
            counts.get("reflection.reflect.distinct_inputs", 0),
            self.calls["reflection.reflect"])
        counts["classify.hom_hit_ratio"] = _ratio(
            counts.get("classify.nonempty_homs", 0),
            counts.get("classify.hom_pairs_scanned", 0))
        counts["trace.overhead_frac"] = traced_wall / untraced_wall - 1
        out = {}
        for name, unit, _better in per_layer_names():
            if name.endswith(".calls"):
                value = self.calls[name[: -len(".calls")]]
            elif name.endswith(".self_s"):
                value = self_s[name[: -len(".self_s")]]
            elif name.endswith(".total_s"):
                value = total[name[: -len(".total_s")]]
            else:
                value = counts.get(name, 0)
            out[name] = {"value": value, "unit": unit}
        return out

    def span_records(self):
        """The spans as JSON-ready dicts, for writing out after the run."""
        return [
            {"name": n, "start": s, "end": e, "parent": p, "job": j, "bookkeeping": b}
            for n, s, e, p, j, b in self.spans
        ]


OBSERVERS = {
    "limits.pullback": Tracer._count_pullback,
    "reflection.reflect": Tracer._count_reflect,
    "core.validate_two_category": Tracer._count_validate,
    "core.enumerate_two_functors": Tracer._count_yield,
    "serialize.parse_document": Tracer._count_bytes_in,
    "serialize.dumps": Tracer._count_bytes_out,
    **{f"classify.{name}": Tracer._count_hom_wise for name in HOM_WISE},
}


def _ratio(num, den):
    return num / den if den else 0.0
