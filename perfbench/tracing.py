"""Spans and work counts at the module boundaries of monoindex.

Used only in the traced run. ``install`` rebinds public functions (and the
one private canonical-form routine, which enumeration calls from inside
``graphs`` with no public name in between) in every monoindex module that
holds them, so calls one module makes into another pass through a wrapper.
A span is (name, start, end, parent); calls made millions of times are
counted, not timed. Nothing here changes what the wrapped functions return.
"""

from __future__ import annotations

import math
import sys
from time import perf_counter

import refgraph as rg

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    x = (len(s) - 1) * p / 100
    lo = math.floor(x)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (x - lo)


def tail_level(count: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it, else 50."""
    for p in TAIL_LADDER:
        if count * (1 - p / 100) >= 10:
            return p
    return 50.0


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.survey_graphs: set = set()
        self.mvx_results: list = []  # (adjacency, value) per mvx_exact call

    def count(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        """Is a span of this name open?"""
        return any(self.spans[sid][0] == name for sid in self.stack)

    # -- wrappers -----------------------------------------------------------

    def timed(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def timed_stream(self, name, fn):
        """A generator whose every resumption is one span."""
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                sid = self.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(sid)
                self.count(name + ".yielded")
                yield item
        return wrapper

    def counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def counted_stream(self, key, fn):
        """Counts streams opened and items drawn, also per calling layer."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            owner = self.spans[self.stack[-1]][0] if self.stack else "none"
            per_owner = owner + ".partitions"
            counts[key + ".streams"] = counts.get(key + ".streams", 0) + 1
            for item in fn(*args, **kwargs):
                counts[key + ".yielded"] = counts.get(key + ".yielded", 0) + 1
                counts[per_owner] = counts.get(per_owner, 0) + 1
                yield item
        return wrapper


def _mvx_after(tracer: Tracer):
    def after(args, result):
        g = args[0]
        tracer.mvx_results.append((g.adj, result.value))
        if tracer.inside("survey.bounds"):
            tracer.survey_graphs.add(g.adj)
    return after


def _mx_after(tracer: Tracer):
    def after(args, result):
        tracer.count("mx.levels", args[0].m - result.value + 1)
    return after


def install(tracer: Tracer) -> None:
    """Rebind each traced function wherever a monoindex module holds it."""
    from monoindex import cli, coloring, graphs, mvx, mx, partitions, reduction, survey

    plan = [
        (graphs.enumerate_connected_graphs, tracer.timed_stream("graphs.enumerate", graphs.enumerate_connected_graphs)),
        (graphs._canonical, tracer.timed("graphs.canonical", graphs._canonical)),
        (graphs.to_graph6, tracer.timed("graphs.g6_encode", graphs.to_graph6)),
        (graphs.parse_graph6, tracer.timed("graphs.g6_decode", graphs.parse_graph6)),
        (graphs.connected_components, tracer.counted("graphs.components_calls", graphs.connected_components)),
        (partitions.set_partitions_with_blocks,
         tracer.counted_stream("partitions", partitions.set_partitions_with_blocks)),
        (mvx.mvx_exact, tracer.timed("mvx.exact", mvx.mvx_exact, _mvx_after(tracer))),
        (mvx.mvx_via_cut_vertex, tracer.timed("mvx.cut_vertex", mvx.mvx_via_cut_vertex)),
        (mx.mx_exact_bruteforce, tracer.timed("mx.exact", mx.mx_exact_bruteforce, _mx_after(tracer))),
        (coloring.verify_mx_coloring, tracer.timed("coloring.verify", coloring.verify_mx_coloring)),
        (coloring.verify_mvx_coloring, tracer.timed("coloring.verify", coloring.verify_mvx_coloring)),
        (coloring.write_coloring_certificate,
         tracer.timed("coloring.certificate", coloring.write_coloring_certificate)),
        (coloring.parse_coloring_certificate,
         tracer.timed("coloring.certificate", coloring.parse_coloring_certificate)),
        (reduction.build_gadget, tracer.timed("reduction.gadget", reduction.build_gadget)),
        (reduction.decide_ds_via_mvx, tracer.timed("reduction.decide", reduction.decide_ds_via_mvx)),
        (reduction.minimum_dominating_set,
         tracer.timed("reduction.certificates", reduction.minimum_dominating_set)),
        (reduction.lift_dominating_set, tracer.timed("reduction.certificates", reduction.lift_dominating_set)),
        (reduction.write_domination_certificates,
         tracer.timed("reduction.certificates", reduction.write_domination_certificates)),
        (survey.survey_bounds, tracer.timed("survey.bounds", survey.survey_bounds)),
        (survey.write_survey_csv, tracer.timed("survey.csv", survey.write_survey_csv)),
        (cli.main, tracer.timed("cli.op", cli.main)),
    ]
    modules = [m for name, m in sys.modules.items() if name == "monoindex" or name.startswith("monoindex.")]
    for original, wrapper in plan:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times and counts of one traced pass."""
    durations: dict[str, list[float]] = {}
    child_time = [0.0] * len(tracer.spans)
    for name, start, end, parent in tracer.spans:
        durations.setdefault(name, []).append(end - start)
        if parent >= 0:
            child_time[parent] += end - start

    def total(name):
        return sum(durations.get(name, ()), 0.0)

    def calls(name):
        return len(durations.get(name, ()))

    def self_time(name):
        return sum((end - start - child_time[i]
                    for i, (n, start, end, _) in enumerate(tracer.spans) if n == name), 0.0)

    c = tracer.counts.get
    exact_ms = [d * 1e3 for d in durations.get("mvx.exact", ())]
    exact_calls, mx_calls = calls("mvx.exact"), calls("mx.exact")
    return {
        "graphs.enumerate_s": total("graphs.enumerate"),
        "graphs.enumerate_classes": c("graphs.enumerate.yielded", 0),
        "graphs.canonical_calls": calls("graphs.canonical"),
        "graphs.canonical_s": total("graphs.canonical"),
        "graphs.g6_encode_calls": calls("graphs.g6_encode"),
        "graphs.g6_encode_s": total("graphs.g6_encode"),
        "graphs.g6_decode_calls": calls("graphs.g6_decode"),
        "graphs.g6_decode_s": total("graphs.g6_decode"),
        "graphs.components_calls": c("graphs.components_calls", 0),
        "partitions.streams": c("partitions.streams", 0),
        "partitions.yielded": c("partitions.yielded", 0),
        "mvx.exact_calls": exact_calls,
        "mvx.exact_s": total("mvx.exact"),
        "mvx.exact_ms_p50": percentile(exact_ms, 50) if exact_ms else 0.0,
        "mvx.exact_ms_tail": percentile(exact_ms, tail_level(len(exact_ms))) if exact_ms else 0.0,
        "mvx.levels": sum(min(len(adj), len(adj) - rg.diameter(adj) + 2) - value + 1
                          for adj, value in tracer.mvx_results),
        "mvx.partitions_per_call": c("mvx.exact.partitions", 0) / exact_calls if exact_calls else 0.0,
        "mvx.cut_vertex_calls": calls("mvx.cut_vertex"),
        "mvx.cut_vertex_s": total("mvx.cut_vertex"),
        "reduction.gadget_s": total("reduction.gadget"),
        "reduction.decide_calls": calls("reduction.decide"),
        "reduction.decide_s": total("reduction.decide"),
        "reduction.certificates_s": total("reduction.certificates"),
        "mx.exact_calls": mx_calls,
        "mx.exact_s": total("mx.exact"),
        "mx.levels": c("mx.levels", 0),
        "mx.partitions_per_call": c("mx.exact.partitions", 0) / mx_calls if mx_calls else 0.0,
        "coloring.verify_calls": calls("coloring.verify"),
        "coloring.verify_s": total("coloring.verify"),
        "coloring.certificate_s": total("coloring.certificate"),
        "survey.bounds_s": total("survey.bounds"),
        "survey.tasks": len(tracer.survey_graphs),
        "survey.self_s": self_time("survey.bounds"),
        "survey.csv_s": total("survey.csv"),
        "cli.ops": calls("cli.op"),
        "cli.self_s": self_time("cli.op"),
    }
