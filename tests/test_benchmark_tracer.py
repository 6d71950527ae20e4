"""The benchmark's tracer finds every layer it wraps in this package.

A wrap target that no longer resolves (a renamed function, a dropped import)
makes a traced benchmark run print null for that layer's metrics. The
benchmark's own smoke test catches it too, but it runs whole benchmark
subprocesses; this check needs only the imports.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import numpy as np

from pairclust import Graph, cover, esp, fileio, graph, metrics, pagerank, results

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracer import Tracer  # noqa: E402


# the module dict perfbench/run.py builds in _import_package
PACKAGE = {
    "fileio": fileio,
    "graph": graph,
    "cover": cover,
    "pagerank": pagerank,
    "esp": esp,
    "results": results,
    "metrics": metrics,
}


def test_every_wrap_target_resolves():
    assert Tracer(PACKAGE).absent == []


def test_pair_measures_are_seen_through_their_wrapped_names():
    # a layer a refactor routes around reads 0 without any error, so count its spans
    square = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)])
    flow = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 0)], directed=True)
    tracer = Tracer(PACKAGE)
    with tracer.installed():
        pair = pagerank.loc_bipart_dc(square, 0, gamma=20.0, beta_hat=0.5, alpha=0.3)
        assert pair is not None
        results.build_run_result(square, "loc_bipart_dc", 0, {}, pair, 0.0)
        pair = esp.evo_cut_directed(flow, 0, 1, 0.1, np.random.default_rng(0), steps=3)
        assert pair is not None
        results.build_run_result(flow, "evo_cut_directed", 0, {}, pair, 0.0)
    spans = Counter(span.name for span in tracer.spans)
    assert spans["graph.bipartiteness"] >= 2  # the sweep's check and the result
    assert spans["graph.flow_ratio"] >= 2  # the sample's flow and the result
    for name in ("esp.cover_cut_and_volume", "cover.conductance_in_cover", "graph.cut_weight"):
        assert spans[name] >= 1, name


def test_smoke_break_target_is_spelled_once():
    # the smoke test breaks the library by an exact text replace, a no-op on a respelled line
    line = 'metrics["beta"] = bipartiteness(g, l, r)'
    source = Path(results.__file__).read_text(encoding="utf-8")
    assert source.count(line) == 1, (
        f"results.py must hold {line!r} exactly once: "
        "perfbench/test_smoke.py::test_failed_check_exits_nonzero replaces it to break the check"
    )
