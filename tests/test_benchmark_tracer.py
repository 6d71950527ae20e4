"""The benchmark's tracer finds every layer it wraps in this package.

A wrap target that no longer resolves (a renamed function, a dropped import)
makes a traced benchmark run print null for that layer's metrics. The
benchmark's own smoke test catches it too, but it runs whole benchmark
subprocesses; this check needs only the imports.
"""

from __future__ import annotations

import sys
from pathlib import Path

from pairclust import cover, esp, fileio, graph, metrics, pagerank, results

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracer import Tracer  # noqa: E402


def test_every_wrap_target_resolves():
    # the module dict perfbench/run.py builds in _import_package
    package = {
        "fileio": fileio,
        "graph": graph,
        "cover": cover,
        "pagerank": pagerank,
        "esp": esp,
        "results": results,
        "metrics": metrics,
    }
    assert Tracer(package).absent == []
