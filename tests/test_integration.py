"""End-to-end workflows across modules: flow-matrix ingestion to directed clustering."""

import importlib
import json
import pkgutil
from unittest import mock

import numpy as np
import pytest

import pairclust
from pairclust import (
    Graph,
    build_run_result,
    cover,
    esp,
    evo_cut_directed,
    flow_ratio,
    load_flow_matrix,
    loc_bipart_dc,
    misclassified_ratio,
    oracle,
    pagerank,
    run_result_json,
)
from pairclust.cli import main
from pairclust.generators import CbmPlusSpec, SbmSpec, gen_cbm_plus, gen_sbm


def write_migration_matrix(path, rng):
    """Two county groups with a strong net flow A -> B inside background churn.

    Background counties trade with imbalanced flows among themselves (bulk
    degree) and nearly balanced flows with A u B, so the planted pattern is
    the only strongly directional local structure.
    """
    rows = []
    n = 40
    a = set(range(10))
    b = set(range(10, 20))
    for i in a:
        for j in b:
            rows.append((i, j, 100))
            rows.append((j, i, 10))
    for i in range(20, n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                rows.append((i, j, 100))
                rows.append((j, i, 50))
    for i in sorted(a | b):
        for j in range(20, n):
            if rng.random() < 0.2:
                base = int(rng.integers(48, 52))
                rows.append((i, j, base))
                rows.append((j, i, 50))
    with open(path, "w", encoding="utf-8") as handle:
        for i, j, count in rows:
            handle.write(f"{i},{j},{count}\n")


def test_flow_matrix_to_directed_pair(tmp_path):
    rng = np.random.default_rng(2718)
    matrix = tmp_path / "migration.csv"
    write_migration_matrix(matrix, rng)
    g = load_flow_matrix(matrix)
    assert g.directed
    planted_l = list(range(10))
    planted_r = list(range(10, 20))
    target_flow = flow_ratio(g, planted_l, planted_r)
    assert target_flow < 0.05

    best = evo_cut_directed(g, 3, "both", 0.1, rng, steps=4, attempts=3)
    assert best is not None
    assert best.flow <= target_flow + 0.1
    assert misclassified_ratio(best.l, best.r, planted_l, planted_r) < 0.35


def test_flow_matrix_cli_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(31415)
    matrix = tmp_path / "migration.csv"
    write_migration_matrix(matrix, rng)
    code = main(
        [
            "cluster-directed",
            "-g",
            str(matrix),
            "--format",
            "flow",
            "--seed-vertex",
            "12",
            "--side",
            "both",
            "--phi",
            "0.1",
            "--esp-steps",
            "4",
            "--rng-seed",
            "9",
            "--json",
        ]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["found"]
    assert data["metrics"]["flow_ratio"] == pytest.approx(
        flow_ratio(load_flow_matrix(matrix), data["l"], data["r"])
    )
    assert 0.0 <= data["metrics"]["cut_imbalance"] <= 0.5


def test_results_of_one_graph_share_vertex_ids():
    # a 4-cycle and a triangle on ids above 256, which Python does not cache as small ints
    cycle = [(500, 501), (501, 502), (502, 503), (503, 500), (600, 601), (601, 602), (602, 600)]
    g = Graph(1000, cycle)
    results = []
    for u in (500, 501):
        pair = loc_bipart_dc(g, u, 20.0, 0.1, alpha=0.3)
        result = build_run_result(g, "cluster-bipartite", u, {}, pair, 0.0)
        assert all(type(v) is int for v in result.l + result.r)
        assert (result.l, result.r) == (sorted(result.l), sorted(result.r))
        fresh = dict(vars(result), l=sorted(map(int, pair.l)), r=sorted(map(int, pair.r)))
        assert run_result_json(result) == json.dumps(fresh, indent=2)
        results.append(result)
    a, b = results
    assert (a.l, a.r) == (b.r, b.l) == ([500, 502], [501, 503])
    assert a.l[0] is b.r[0] and a.r[1] is b.l[1]


def test_queries_deduplicate_without_hashing():
    # numpy's plain unique (and intersect1d, which calls it) hashes from numpy
    # 2.3 on; the query path sorts instead. return_* calls take numpy's argsort path.
    unique, intersect1d = np.unique, np.intersect1d

    def sorting_unique(ar, return_index=False, return_inverse=False, return_counts=False, **kw):
        assert return_index or return_inverse or return_counts, "np.unique hashes; use sorted_unique"
        return unique(ar, return_index, return_inverse, return_counts, **kw)

    def presorted_intersect1d(ar1, ar2, assume_unique=False, **kw):
        assert assume_unique, "np.intersect1d deduplicates by hashing; pass assume_unique=True"
        return intersect1d(ar1, ar2, assume_unique, **kw)

    cycle = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)]
    und = Graph(7, cycle)
    dig = gen_cbm_plus(CbmPlusSpec(k=3, n=100, n_prime=20, p=0.02, q=0.05, q2_prime=0.1), 3)[0]
    appended, add_rows = [], esp._add_rows

    def appending_add_rows(state, sign):
        before = set(state.nbr_mass)
        add_rows(state, sign)
        appended.append(bool(set(state.nbr_mass) - before))

    with mock.patch.multiple(np, unique=sorting_unique, intersect1d=presorted_intersect1d):
        pair = loc_bipart_dc(und, 0, 20.0, 0.5, alpha=0.3)
        assert build_run_result(und, "cluster-bipartite", 0, {}, pair, 0.0).found
        # the array form from the first step, so its new-key dedup (through the key index) runs
        with mock.patch.multiple(esp, _VECTOR_MIN_KEYS=0, _add_rows=appending_add_rows):
            pair = evo_cut_directed(dig, 300, "both", 0.1, np.random.default_rng(2), steps=10)
        assert build_run_result(dig, "cluster-directed", 300, {}, pair, 0.0).found
    assert any(appended)


def test_sweep_and_result_read_the_key_index_not_sorted_lookup():
    # the sweep's simple-support check and internal-edge ranks, the pair measures
    # and the directed pair's drop of doubled keys read positions from the graph's
    # key index (graph.key_positions): neither pipeline module binds sorted_lookup
    assert not hasattr(pagerank, "sorted_lookup") and not hasattr(esp, "sorted_lookup")
    g = gen_sbm(SbmSpec(n1=20, p1=0.05, q1=0.8), 4)[0]
    pair = loc_bipart_dc(g, 0, 200.0, 0.3, alpha=0.3)
    assert build_run_result(g, "cluster-bipartite", 0, {}, pair, 0.0).found


def test_public_names_resolve_and_the_references_live_in_oracle():
    for info in pkgutil.iter_modules(pairclust.__path__):
        module = importlib.import_module(f"pairclust.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names a missing {name}"
    for name in ("dcpush", "epsilon_simple_cleanup", "pair_to_cover_set"):
        assert name in oracle.__all__ and callable(getattr(oracle, name))
        for module in (pairclust, pagerank, cover):
            assert not hasattr(module, name), f"{module.__name__} still holds {name}"
