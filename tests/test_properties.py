"""Property tests on random small weighted graphs: round push, sweep cut, cover scan
and the edge-list round trip."""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pairclust import (
    AprState,
    Graph,
    bipartiteness,
    exact_pagerank,
    load_edge_list,
    sweep_cut,
    to_cluster_pair,
    write_edge_list,
)
from pairclust.cover import cover_cut_and_volume, total_cover_volume
from helpers import dense_cover_cut_and_volume

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw, max_n=10, weights=st.floats(0.2, 3.0)):
    """A random undirected weighted graph with at least one edge."""
    n = draw(st.integers(2, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True))
    return Graph(n, [(u, v, draw(weights)) for u, v in chosen])


@st.composite
def digraphs(draw, max_n=8, weights=st.floats(0.2, 3.0)):
    """A random directed weighted graph with at least one arc."""
    n = draw(st.integers(2, max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True))
    return Graph(n, [(u, v, draw(weights)) for u, v in chosen], directed=True)


@SETTINGS
@given(
    g=graphs(),
    alpha=st.floats(0.05, 0.9),
    epsilon=st.floats(1e-4, 1e-2),
    pick=st.integers(0, 100),
)
def test_round_push_guarantees(g, alpha, epsilon, pick):
    seeds = np.flatnonzero(g.degrees > 0)
    seed = int(seeds[pick % seeds.size])
    dim = 2 * g.n
    pr_rows = np.vstack([exact_pagerank(g, True, alpha, row) for row in np.eye(dim)])
    pr_chi = pr_rows[2 * seed]

    def dense(mass: dict):
        vec = np.zeros(dim)
        vec[list(mass)] = list(mass.values())
        return vec

    rounds = []

    def check(state):
        rounds.append(state.push_count)
        err = np.abs(dense(state.p) + dense(state.r) @ pr_rows - pr_chi).max()
        assert err <= 1e-8

    state = AprState(g, seed, alpha, epsilon).run(on_push=check)
    assert np.all(np.diff(state.keys) > 0)
    for key, val in state.r.items():
        assert val < epsilon * g.degree(key >> 1)
    assert state.pushed_degree_total <= 1.0 / (epsilon * alpha)
    assert all(val > 0.0 for val in state.p.values())
    assert all(val > 0.0 for val in state.r.values())
    if state.push_count:
        assert rounds and rounds[-1] == state.push_count
    else:
        assert not rounds and state.p == {}


@SETTINGS
@given(g=graphs(max_n=12), data=st.data())
def test_cut_weight_matches_dense_adjacency(g, data):
    side = data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
    a = [v for v in range(g.n) if side[v] == 1]
    b = [v for v in range(g.n) if side[v] == 2]
    weights = np.zeros((g.n, g.n))
    for u in range(g.n):
        ids, ws = g.neighbors(u)
        weights[u, ids] = ws
    expected = float(weights[np.ix_(a, b)].sum()) if a and b else 0.0
    assert math.isclose(g.cut_weight(a, b), expected, rel_tol=1e-12, abs_tol=1e-12)


@SETTINGS
@given(g=st.one_of(graphs(), digraphs()), data=st.data())
def test_cover_scan_matches_dense_cover(g, data):
    # any cover set: empty, single-side, or holding both copies of a vertex
    keys = data.draw(st.sets(st.integers(0, 2 * g.n - 1)))
    side = data.draw(st.sampled_from([None, 0, 1]))
    if side is not None:
        keys = {key for key in keys if key & 1 == side}
    cut, vol = cover_cut_and_volume(g, keys)
    dense_cut, dense_vol = dense_cover_cut_and_volume(g, keys)
    tol = 1e-12 * max(dense_vol, 1.0)
    assert math.isclose(vol, dense_vol, rel_tol=1e-12, abs_tol=tol)
    assert math.isclose(cut, dense_cut, rel_tol=1e-12, abs_tol=tol)


@SETTINGS
@given(g=st.one_of(graphs(), digraphs()))
def test_edge_list_round_trip(g):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.edgelist", Path(tmp) / "b.edgelist"
        write_edge_list(g, first)
        h = load_edge_list(first, directed=g.directed)
        write_edge_list(h, second)
        assert second.read_bytes() == first.read_bytes()
    # the format stores no vertex count: n is one past the largest endpoint
    endpoints = np.concatenate([np.repeat(np.arange(g.n), np.diff(g.indptr)), g.indices])
    assert h.n == int(endpoints.max()) + 1
    assert h.directed == g.directed
    assert h.edge_count == g.edge_count
    assert np.array_equal(h.indptr, g.indptr[: h.n + 1])
    assert np.array_equal(h.indices, g.indices)
    assert np.array_equal(h.weights, g.weights)


def brute_force_sweep(g: Graph, p: dict, beta_target: float, best: bool):
    """The sweep as a plain loop: rescan every prefix of the support from scratch."""
    support = sorted(
        (key for key, val in p.items() if val != 0.0),
        key=lambda key: (-p[key] / g.degrees[key >> 1], key),
    )
    total = total_cover_volume(g)
    phis = []
    for j in range(1, len(support) + 1):
        cut, vol = cover_cut_and_volume(g, support[:j])
        denom = min(vol, total - vol)
        phis.append(cut / denom if denom > 0 else math.inf)
    if best:
        finite = [j for j, phi in enumerate(phis, start=1) if phi < math.inf]
        candidates = [min(finite, key=lambda j: phis[j - 1])] if finite else []
    else:
        candidates = [j for j, phi in enumerate(phis, start=1) if phi <= beta_target]
    for j in candidates:
        l, r = to_cluster_pair(support[:j])
        beta = bipartiteness(g, l, r)
        if beta <= beta_target:
            return j, l.tolist(), r.tolist(), beta
    return None


@SETTINGS
@given(
    g=graphs(max_n=10, weights=st.integers(1, 3).map(float)),
    data=st.data(),
    beta_target=st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
    best=st.booleans(),
)
def test_sweep_matches_brute_force_prefix_scan(g, data, beta_target, best):
    # integer weights keep every cut and volume exact, so equal conductances
    # tie exactly; masses proportional to degree make mass/degree ties common
    p = {}
    for v in range(g.n):
        side = data.draw(st.sampled_from([0, 1, 2]))
        if side and g.degrees[v] > 0:
            scale = data.draw(st.sampled_from([0.5, 1.0, 2.0, 0.3]))
            p[2 * v + side - 1] = scale * float(g.degrees[v])
    pair = sweep_cut(g, p, beta_target, best=best)
    expected = brute_force_sweep(g, p, beta_target, best)
    if expected is None:
        assert pair is None
        return
    assert pair is not None
    assert (pair.sweep_index, pair.l.tolist(), pair.r.tolist(), pair.beta) == expected
