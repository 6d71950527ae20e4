"""Seeded workload generation for the pairclust benchmark.

Each workload is one generated graph file plus a pool of queries. A query is a
seed vertex inside one planted pair; the planted pairs are recorded so the
benchmark can score outputs, but the library under test only ever receives the
edge-list file and the seed vertices.

The graph of a workload is a fixed instance: table1's and table2's graphs are
generated exactly as `pairclust bench table1|table2` generate them. The
workload seed draws the query sequence, so different seeds ask different
questions of the same graph.

Run as a script to write a workload into a directory:

    python3 perfbench/workloads.py --workload sbm-table1 --seed 1 --out DIR

which writes DIR/graph.edges and DIR/workload.json.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

# The package under test, from the same checkout as this file.
SRC = Path(__file__).resolve().parent.parent / "src"

# sbm-30x-local is not declared in BENCHMARK.json: its query latency jumps
# between two speed levels about 1.35x apart from run to run on the 2-core VM
# the benchmark was tuned on, so no bound of at most 0.25 holds it. It stays
# runnable by hand as the locality and fingerprint check (see README.md).
WORKLOADS = ("sbm-table1", "cbm-table2", "sbm-30x-local")

# Instance sizes. `full` reproduces table1 / table2 and the 30-copy locality
# guard; `tiny` keeps the same shapes at a size the smoke test runs in seconds.
SIZES = {
    "full": {"sbm_n1": 1000, "cbm_n": 1000, "cbm_n_prime": 100, "copies": 30, "copy_n1": 100},
    "tiny": {"sbm_n1": 60, "cbm_n": 80, "cbm_n_prime": 16, "copies": 3, "copy_n1": 30},
}

# Seed vertices drawn per workload; the query loop cycles through them.
QUERY_POOL = 4000

# Undirected workloads keep table1's mean-ARI gate, the directed one table2's.
# The 30-copy workload has no gate in the library's own benchmark, so none here.
GATES = {"sbm-table1": 0.90, "cbm-table2": 0.90, "sbm-30x-local": None}

# `pairclust bench` derives its graphs from rng_seed 1; the instances here match.
INSTANCE_SEED = 1

_TAGS = {name: index for index, name in enumerate(WORKLOADS)}


def _graph_seed(*entropy) -> int:
    """Generator seed derived the way `pairclust bench` derives it."""
    child = np.random.SeedSequence(list(entropy)).spawn(1)[0]
    return int(np.random.default_rng(child).integers(2**63))


def _edge_arrays(g):
    """Undirected edges of a Graph as (u, v) arrays with u < v."""
    src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    keep = src < g.indices
    return src[keep], g.indices[keep]


def _sbm(n1: int, graph_seed: int):
    from pairclust.generators import SbmSpec, gen_sbm

    return gen_sbm(SbmSpec(n1=n1, p1=1.0 / n1, q1=18.0 / n1), graph_seed)


def build(workload: str, seed: int, size: str = "full"):
    """Return (graph, planted pairs, query pool, directed) for one workload and seed.

    Planted pairs are lists of (c1, c2) vertex arrays; each query is a
    (pair index, seed vertex) tuple drawn from that pair's vertices.
    """
    from pairclust.generators import CbmPlusSpec, gen_cbm_plus
    from pairclust.graph import Graph

    dims = SIZES[size]
    directed = workload == "cbm-table2"
    if workload == "sbm-table1":
        n1 = dims["sbm_n1"]
        g, labels = _sbm(n1, _graph_seed(INSTANCE_SEED, n1))
        pairs = [(np.flatnonzero(labels == 0), np.flatnonzero(labels == 1))]
    elif workload == "cbm-table2":
        k, n, n_prime = 3, dims["cbm_n"], dims["cbm_n_prime"]
        spec = CbmPlusSpec(k=k, n=n, n_prime=n_prime)
        g, labels = gen_cbm_plus(spec, _graph_seed(INSTANCE_SEED, k, n, n_prime))
        pairs = [(np.flatnonzero(labels == k), np.flatnonzero(labels == k + 1))]
    else:
        us, vs, pairs = [], [], []
        offset = 0
        copies, n1 = dims["copies"], dims["copy_n1"]
        for copy in range(copies):
            part, labels = _sbm(n1, _graph_seed(INSTANCE_SEED, copies, n1, copy))
            u, v = _edge_arrays(part)
            us.append(u + offset)
            vs.append(v + offset)
            pairs.append(
                (np.flatnonzero(labels == 0) + offset, np.flatnonzero(labels == 1) + offset)
            )
            offset += part.n
        g = Graph.from_arrays(offset, np.concatenate(us), np.concatenate(vs))

    rng = np.random.default_rng(np.random.SeedSequence([seed, _TAGS[workload]]))
    queries = []
    for _ in range(QUERY_POOL):
        index = int(rng.integers(len(pairs)))
        members = np.concatenate(pairs[index])
        queries.append((index, int(members[rng.integers(members.size)])))
    return g, pairs, queries, directed


def write(workload: str, seed: int, size: str, out_dir: Path) -> Path:
    """Write graph.edges and workload.json into out_dir; return the JSON path."""
    from pairclust.fileio import write_edge_list

    g, pairs, queries, directed = build(workload, seed, size)
    out_dir.mkdir(parents=True, exist_ok=True)
    graph_path = out_dir / "graph.edges"
    write_edge_list(g, graph_path)
    spec = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "directed": directed,
        "graph": graph_path.name,
        "n": g.n,
        "m": g.edge_count,
        "mean_ari_min": GATES[workload] if size == "full" else None,
        "pairs": [[c1.tolist(), c2.tolist()] for c1, c2 in pairs],
        "queries": queries,
    }
    spec_path = out_dir / "workload.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    return spec_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    write(args.workload, args.seed, args.size, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
