"""Span tracing of pairclust's layers, wrapped from outside the package.

The tracer replaces public functions at the module (or class) attribute their
callers look them up through, records one span per call and restores the
originals when it is uninstalled. Spans stay in memory; `write_jsonl` writes
them out once the run is over. A target that no longer exists is reported as
absent by name, so a refactor never turns a layer into a silent zero.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from time import perf_counter

ROOT = "bench.query"  # one per traced query, opened by the benchmark itself
HOOK = "bench.trace"  # time spent computing counters, charged to the benchmark
MODULES = ("fileio", "graph", "cover", "pagerank", "esp", "results")


def _bipartiteness(result, g, l, r):
    return {"vertices": len(l) + len(r)}


def _push(state, *_, **__):
    return {
        "count": state.push_count,
        "pushed_volume": state.pushed_degree_total,
        "touched": len(state.p.keys() | state.r.keys()),
        "volume_over_bound": state.pushed_degree_total * state.epsilon * state.alpha,
    }


def _simplify(result, p):
    return {"support_in": len(p), "support_out": len(result)}


def _sweep(pair, g, p, *_, **__):
    return {
        "prefixes": sum(1 for value in p.values() if value != 0.0),
        "sweep_index": pair.sweep_index if pair is not None else 0,
    }


def _step_before(state, rng):
    return {"boundary": len(state.nbr_mass)}


def _step_after(state, *_):
    return {"set_volume": state.vol}


def _evo_kept(pair, *_, **__):
    return {"kept": int(pair is not None)}


@dataclass(frozen=True)
class Target:
    module: str
    attr: str  # "name" or "Class.name"
    span: str  # "<layer>.<function>"; the layer is the module that defines it
    before: object = None  # (*args, **kwargs) -> counters, before the call
    after: object = None  # (result, *args, **kwargs) -> counters, after the call


TARGETS = (
    Target("fileio", "load_edge_list", "fileio.load_edge_list"),
    Target("graph", "Graph.from_arrays", "graph.from_arrays"),
    Target("pagerank", "loc_bipart_dc", "pagerank.loc_bipart_dc"),
    Target("pagerank", "approximate_pagerank_dc", "pagerank.approximate_pagerank_dc"),
    Target("pagerank", "AprState.run", "pagerank.push", after=_push),
    Target("pagerank", "simplify", "pagerank.simplify", after=_simplify),
    Target("pagerank", "sweep_cut", "pagerank.sweep_cut", after=_sweep),
    Target("pagerank", "bipartiteness", "graph.bipartiteness", after=_bipartiteness),
    Target("esp", "evo_cut_directed", "esp.evo_cut_directed", after=_evo_kept),
    Target("esp", "generate_sample", "esp.generate_sample"),
    Target("esp", "esp_step", "esp.esp_step", before=_step_before, after=_step_after),
    Target("esp", "cover_cut_and_volume", "esp.cover_cut_and_volume"),
    Target("esp", "flow_ratio", "graph.flow_ratio"),
    Target("results", "build_run_result", "results.build_run_result"),
    Target("results", "run_result_json", "results.run_result_json"),
    Target("results", "graph_fingerprint", "fileio.graph_fingerprint"),
    Target("results", "conductance_in_cover", "cover.conductance_in_cover"),
    Target("results", "bipartiteness", "graph.bipartiteness", after=_bipartiteness),
    Target("results", "flow_ratio", "graph.flow_ratio"),
    Target("results", "cut_imbalance", "graph.cut_imbalance"),
    Target("graph", "Graph.cut_weight", "graph.cut_weight"),
)


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for none
    query: int  # traced query id, -1 during set-up
    start: float = 0.0
    end: float = 0.0
    counters: dict = field(default_factory=dict)


class Tracer:
    """Records spans for the wrapped targets while installed."""

    def __init__(self, package: dict):
        self.package = package  # module name -> imported pairclust module
        self.spans: list[Span] = []
        self.query = -1
        self.absent = [t for t in TARGETS if self._resolve(t) is None]
        self._stack: list[int] = []
        self._saved: list = []

    def _resolve(self, target: Target):
        """(owner, attribute name, raw attribute) for a target, or None if missing."""
        owner = self.package.get(target.module)
        *path, name = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None:
            return None
        raw = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
        return None if raw is None else (owner, name, raw)

    def _open(self, name: str, start: float, counters: dict) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1, self.query, start, start, counters)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span):
        span.end = perf_counter()
        self._stack.pop()

    def _hook(self, fn, *args, **kwargs) -> dict:
        span = self._open(HOOK, perf_counter(), {})
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, target: Target, fn):
        tracer = self

        def traced(*args, **kwargs):
            counters = tracer._hook(target.before, *args, **kwargs) if target.before else {}
            span = tracer._open(target.span, perf_counter(), counters)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if target.after:
                counters.update(tracer._hook(target.after, result, *args, **kwargs))
            return result

        return traced

    def install(self):
        for target in TARGETS:
            found = self._resolve(target)
            if found is None:
                continue
            owner, name, raw = found
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(target, raw.__func__))
            else:
                replacement = self._wrap(target, raw)
            self._saved.append((owner, name, raw))
            setattr(owner, name, replacement)

    def uninstall(self):
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def query_span(self, query: int):
        """Root span of one traced query; everything the query calls nests under it."""
        self.query = query
        span = self._open(ROOT, perf_counter(), {})
        try:
            yield span
        finally:
            self._close(span)
            self.query = -1

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({"id": index, **asdict(span)}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children, in seconds."""
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return own


# Per-layer metrics: name -> unit. Times are milliseconds per query unless the
# name says otherwise; counts are per query. A layer that made no call on a
# workload reads 0; a layer whose wrap target is missing reads null.
PER_LAYER_UNITS = {
    "fileio.load_edge_list.self_ms": "ms",
    "fileio.load_edge_list.mb_per_s": "MB/s",
    "graph.from_arrays.ms": "ms",
    "fileio.graph_fingerprint.ms": "ms",
    "fileio.graph_fingerprint.calls_per_query": "count",
    "results.build_run_result.self_ms": "ms",
    "results.run_result_json.ms": "ms",
    "graph.bipartiteness.ms": "ms",
    "graph.bipartiteness.vertices": "count",
    "cover.conductance_in_cover.ms": "ms",
    "graph.flow_ratio.ms": "ms",
    "graph.cut_imbalance.self_ms": "ms",
    "graph.cut_weight.ms": "ms",
    "pagerank.push.ms": "ms",
    "pagerank.push.count": "count",
    "pagerank.push.pushed_volume": "volume",
    "pagerank.push.touched": "count",
    "pagerank.push.ns_per_pushed_degree": "ns",
    "pagerank.push.volume_over_bound": "ratio",
    "pagerank.simplify.ms": "ms",
    "pagerank.simplify.support_in": "count",
    "pagerank.simplify.support_out": "count",
    "pagerank.sweep_cut.self_ms": "ms",
    "pagerank.sweep_cut.prefixes": "count",
    "pagerank.sweep_cut.sweep_index": "count",
    "esp.esp_step.us": "us",
    "esp.esp_step.count": "count",
    "esp.esp_step.boundary_mean": "count",
    "esp.esp_step.ns_per_boundary_entry": "ns",
    "esp.set_volume_mean": "volume",
    "esp.generate_sample.self_ms": "ms",
    "esp.cover_cut_and_volume.ms": "ms",
    "esp.evo_cut_directed.attempts_per_query": "count",
    "esp.evo_cut_directed.kept_ratio": "ratio",
    **{f"layer.{module}.self_ms": "ms" for module in MODULES},
    "bench.self_ms": "ms",
    "trace.query_ms_mean": "ms",
    "trace.query_ms_p50": "ms",
    "trace.untraced_query_ms_p50": "ms",
    "trace.overhead_ms": "ms",
    "trace.spans_per_query": "count",
}

# Metrics read from each span name; a missing target makes them null.
_SOURCES = {
    "fileio.load_edge_list": ("fileio.load_edge_list.self_ms", "fileio.load_edge_list.mb_per_s"),
    "graph.from_arrays": ("graph.from_arrays.ms",),
    "fileio.graph_fingerprint": (
        "fileio.graph_fingerprint.ms",
        "fileio.graph_fingerprint.calls_per_query",
    ),
    "results.build_run_result": ("results.build_run_result.self_ms",),
    "results.run_result_json": ("results.run_result_json.ms",),
    "graph.bipartiteness": ("graph.bipartiteness.ms", "graph.bipartiteness.vertices"),
    "cover.conductance_in_cover": ("cover.conductance_in_cover.ms",),
    "graph.flow_ratio": ("graph.flow_ratio.ms",),
    "graph.cut_imbalance": ("graph.cut_imbalance.self_ms",),
    "graph.cut_weight": ("graph.cut_weight.ms",),
    "pagerank.push": tuple(k for k in PER_LAYER_UNITS if k.startswith("pagerank.push.")),
    "pagerank.simplify": tuple(k for k in PER_LAYER_UNITS if k.startswith("pagerank.simplify.")),
    "pagerank.sweep_cut": tuple(k for k in PER_LAYER_UNITS if k.startswith("pagerank.sweep_cut.")),
    "esp.esp_step": tuple(k for k in PER_LAYER_UNITS if k.startswith("esp.esp_step."))
    + ("esp.set_volume_mean",),
    "esp.generate_sample": ("esp.generate_sample.self_ms",),
    "esp.cover_cut_and_volume": ("esp.cover_cut_and_volume.ms",),
    "esp.evo_cut_directed": (
        "esp.evo_cut_directed.attempts_per_query",
        "esp.evo_cut_directed.kept_ratio",
    ),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, file_bytes: int, untraced_ms: list, traced_ms: list) -> dict:
    """Aggregate the recorded spans into the per-layer metrics (values only).

    `untraced_ms` and `traced_ms` are the latencies of the same queries run
    without and with the wrappers.
    """
    spans = tracer.spans
    dur = [span.end - span.start for span in spans]
    own = self_times(spans)
    loads = [i for i, s in enumerate(spans) if s.query < 0 and s.name == "fileio.load_edge_list"]
    builds = [i for i, s in enumerate(spans) if s.query < 0 and s.name == "graph.from_arrays"]

    nq = max(len({s.query for s in spans if s.query >= 0}), 1)
    by_name: dict = {}
    for i, span in enumerate(spans):
        if span.query >= 0:
            by_name.setdefault(span.name, []).append(i)

    def calls(name):
        return by_name.get(name, [])

    def seconds(name, times=dur):
        return sum(times[i] for i in calls(name))

    def per_query_ms(name, times=dur):
        return 1000.0 * seconds(name, times) / nq

    def total(name, key):
        return sum(spans[i].counters.get(key, 0) for i in calls(name))

    steps = len(calls("esp.esp_step"))
    attempts = len(calls("esp.evo_cut_directed"))
    values = {
        "fileio.load_edge_list.self_ms": _median([1000.0 * own[i] for i in loads]),
        "fileio.load_edge_list.mb_per_s": _median([file_bytes / 1e6 / dur[i] for i in loads]),
        "graph.from_arrays.ms": _median([1000.0 * dur[i] for i in builds]),
        "fileio.graph_fingerprint.ms": per_query_ms("fileio.graph_fingerprint"),
        "fileio.graph_fingerprint.calls_per_query": len(calls("fileio.graph_fingerprint")) / nq,
        "results.build_run_result.self_ms": per_query_ms("results.build_run_result", own),
        "results.run_result_json.ms": per_query_ms("results.run_result_json"),
        "graph.bipartiteness.ms": per_query_ms("graph.bipartiteness"),
        "graph.bipartiteness.vertices": total("graph.bipartiteness", "vertices") / nq,
        "cover.conductance_in_cover.ms": per_query_ms("cover.conductance_in_cover"),
        "graph.flow_ratio.ms": per_query_ms("graph.flow_ratio"),
        "graph.cut_imbalance.self_ms": per_query_ms("graph.cut_imbalance", own),
        "graph.cut_weight.ms": per_query_ms("graph.cut_weight"),
        "pagerank.push.ms": per_query_ms("pagerank.push"),
        "pagerank.push.count": total("pagerank.push", "count") / nq,
        "pagerank.push.pushed_volume": total("pagerank.push", "pushed_volume") / nq,
        "pagerank.push.touched": total("pagerank.push", "touched") / nq,
        "pagerank.push.ns_per_pushed_degree": _ratio(
            1e9 * seconds("pagerank.push"), total("pagerank.push", "pushed_volume")
        ),
        "pagerank.push.volume_over_bound": max(
            (spans[i].counters["volume_over_bound"] for i in calls("pagerank.push")), default=0.0
        ),
        "pagerank.simplify.ms": per_query_ms("pagerank.simplify"),
        "pagerank.simplify.support_in": total("pagerank.simplify", "support_in") / nq,
        "pagerank.simplify.support_out": total("pagerank.simplify", "support_out") / nq,
        "pagerank.sweep_cut.self_ms": per_query_ms("pagerank.sweep_cut", own),
        "pagerank.sweep_cut.prefixes": total("pagerank.sweep_cut", "prefixes") / nq,
        "pagerank.sweep_cut.sweep_index": total("pagerank.sweep_cut", "sweep_index") / nq,
        "esp.esp_step.us": _ratio(1e6 * seconds("esp.esp_step"), steps),
        "esp.esp_step.count": steps / nq,
        "esp.esp_step.boundary_mean": _ratio(total("esp.esp_step", "boundary"), steps),
        "esp.esp_step.ns_per_boundary_entry": _ratio(
            1e9 * seconds("esp.esp_step"), total("esp.esp_step", "boundary")
        ),
        "esp.set_volume_mean": _ratio(total("esp.esp_step", "set_volume"), steps),
        "esp.generate_sample.self_ms": per_query_ms("esp.generate_sample", own),
        "esp.cover_cut_and_volume.ms": per_query_ms("esp.cover_cut_and_volume"),
        "esp.evo_cut_directed.attempts_per_query": attempts / nq,
        "esp.evo_cut_directed.kept_ratio": _ratio(total("esp.evo_cut_directed", "kept"), attempts),
    }

    layer_self = dict.fromkeys(("bench",) + MODULES, 0.0)
    for i, span in enumerate(spans):
        if span.query >= 0:
            layer_self[span.name.split(".", 1)[0]] += own[i]
    for module in MODULES:
        values[f"layer.{module}.self_ms"] = 1000.0 * layer_self[module] / nq
    values["bench.self_ms"] = 1000.0 * layer_self["bench"] / nq

    values["trace.query_ms_mean"] = per_query_ms(ROOT)
    values["trace.query_ms_p50"] = _median(traced_ms)
    values["trace.untraced_query_ms_p50"] = _median(untraced_ms)
    values["trace.overhead_ms"] = _median(traced_ms) - _median(untraced_ms)
    values["trace.spans_per_query"] = sum(len(v) for v in by_name.values()) / nq

    for target in tracer.absent:
        for key in _SOURCES.get(target.span, ()):
            values[key] = None
    return values
