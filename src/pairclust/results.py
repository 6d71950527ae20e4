"""Run and report one query: `cluster_bipartite` and `cluster_directed` time a pipeline's
query and build its RunResult, whose metrics are recomputed from the graph. Each calls
its algorithm through the algorithm's module, so a wrapper set there sees the call."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import esp, pagerank
from .cover import conductance_in_cover
from .fileio import graph_fingerprint
from .graph import Graph, as_vertex_array, bipartiteness, cut_imbalance, flow_ratio

__all__ = [
    "RunResult", "build_run_result", "cluster_bipartite", "cluster_directed", "run_result_json"
]


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
    A metric undefined for the pair is None: `conductance_in_cover` when L1 u R2
    holds the whole cover volume, `cut_imbalance` when no edge joins L and R.
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
    cover_keys = np.concatenate([2 * l, 2 * r + 1])  # the cover set L1 u R2
    metrics: dict = {"conductance_in_cover": _or_none(conductance_in_cover, g, cover_keys)}
    volume = g._pair_volume(l, r)
    if g.directed:
        metrics["flow_ratio"] = flow_ratio(g, l, r)
        metrics["volume"] = volume
        metrics["cut_imbalance"] = _or_none(cut_imbalance, g, l, r)
    else:
        metrics["beta"] = bipartiteness(g, l, r)
        metrics["volume"] = volume
    result.metrics = metrics
    return result


def _or_none(measure, *args):
    """measure(*args), or None where the measure is undefined (it raises ValueError)."""
    try:
        return measure(*args)
    except ValueError:
        return None


def run_result_json(result: RunResult) -> str:
    return json.dumps(vars(result), indent=2)


def cluster_bipartite(g: Graph, u, gamma, beta_hat, alpha=None, best_sweep=False):
    """Run `loc_bipart_dc` from u and report it: (pair or None, RunResult).

    `wall_ms` times the algorithm call alone, not the result's metrics.
    """
    t0 = time.perf_counter()
    pair = pagerank.loc_bipart_dc(g, u, gamma, beta_hat, alpha=alpha, best_sweep=best_sweep)
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    params = {"gamma": gamma, "beta_hat": beta_hat, "alpha": alpha, "best_sweep": best_sweep}
    return pair, build_run_result(g, "cluster-bipartite", u, params, pair, wall_ms)


def cluster_directed(g: Graph, u, phi, rng, side="both", steps=None, attempts=1, rng_seed=None):
    """Run `evo_cut_directed` from u with `rng` and report it: (pair or None, RunResult).

    `wall_ms` times the algorithm call alone. `params` records `side` as a string, as the
    CLI's `--side` spells it; `rng_seed` is recorded as given, for the seed `rng` came from.
    """
    t0 = time.perf_counter()
    pair = esp.evo_cut_directed(g, u, side, phi, rng, steps=steps, attempts=attempts)
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    params = {"phi": phi, "side": str(side), "esp_steps": steps}
    return pair, build_run_result(g, "cluster-directed", u, params, pair, wall_ms, rng_seed)
