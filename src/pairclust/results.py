"""Run results: metrics recomputed from the graph at serialization time."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .cover import conductance_in_cover, pair_to_cover_set
from .fileio import graph_fingerprint
from .graph import Graph, as_vertex_array, bipartiteness, cut_imbalance, flow_ratio

__all__ = ["RunResult", "build_run_result", "run_result_json"]


@dataclass
class RunResult:
    """One clustering run, ready for JSON output.

    Every metric is recomputed from (graph, l, r) when the result is built,
    never copied from algorithm internals, so reported values cannot drift
    from what the output sets actually achieve.
    """

    algorithm: str
    seed_vertex: int
    params: dict
    found: bool
    l: list = field(default_factory=list)
    r: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    wall_ms: float = 0.0
    rng_seed: int | None = None
    graph: dict = field(default_factory=dict)


def build_run_result(
    g: Graph,
    algorithm: str,
    seed_vertex: int,
    params: dict,
    pair,
    wall_ms: float,
    rng_seed: int | None = None,
) -> RunResult:
    """Assemble a RunResult, recomputing all reported metrics from the graph.

    `graph` is the fingerprint: a hash of the CSR bytes, computed once per graph.
    `l` and `r` are sorted lists drawn from a per-graph table of vertex-id
    objects, built on first use, so the results of one graph share them.
    """
    result = RunResult(
        algorithm=algorithm,
        seed_vertex=seed_vertex,
        params=params,
        found=pair is not None,
        wall_ms=wall_ms,
        rng_seed=rng_seed,
        graph=graph_fingerprint(g),
    )
    if pair is None:
        return result
    l, r = as_vertex_array(g.n, pair.l), as_vertex_array(g.n, pair.r)
    ids = g._vertex_ids
    if ids is None:
        ids = g._vertex_ids = np.arange(g.n).astype(object)
    result.l = ids[l].tolist()
    result.r = ids[r].tolist()
    metrics: dict = {}
    cover_set = pair_to_cover_set(result.l, result.r)
    metrics["conductance_in_cover"] = conductance_in_cover(g, cover_set)
    volume = g._pair_volume(l, r)
    if g.directed:
        metrics["flow_ratio"] = flow_ratio(g, l, r)
        metrics["volume"] = volume
        try:
            metrics["cut_imbalance"] = cut_imbalance(g, l, r)
        except ValueError:
            metrics["cut_imbalance"] = None
    else:
        metrics["beta"] = bipartiteness(g, l, r)
        metrics["volume"] = volume
    result.metrics = metrics
    return result


def run_result_json(result: RunResult) -> str:
    return json.dumps(vars(result), indent=2)
