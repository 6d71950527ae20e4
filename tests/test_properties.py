"""Property tests on random small weighted graphs: round push and its frozen reference, sweep cut, cover scan,
the pair volume rule, the cover row gather, the two forms of the evolving-set step, the edge-list round trip, the bulk edge-list
parse, the sum-by-key rule, the flow-matrix loader and its bulk parse, and the CLI's exit codes on arbitrary graph files."""

import contextlib
import functools
import io
import math
import re
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from pairclust import (
    AprState,
    EspState,
    Graph,
    ParseError,
    bipartiteness,
    build_run_result,
    esp,
    esp_step,
    exact_pagerank,
    fileio,
    graph_fingerprint,
    load_edge_list,
    load_flow_matrix,
    sweep_cut,
    to_cluster_pair,
    write_edge_list,
)
from pairclust.cli import main
from pairclust.cover import (
    cover_cut_and_volume,
    cover_degree,
    cover_degrees,
    cover_key_row,
    cover_rows,
    total_cover_volume,
)
from pairclust.oracle import dense_cover_adjacency, pair_to_cover_set
from pairclust.graph import sum_by_key
from helpers import (
    clone_state,
    csr_reference,
    dense_cover_cut_and_volume,
    esp_state_from_set,
    flow_rows_reference,
    reference_push_rounds,
)

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
@given(
    # scaled by e, so that shares summed in another order tend to round differently
    g=graphs(weights=st.floats(0.2, 3.0).map(math.e.__mul__)),
    alpha=st.floats(0.05, 0.9),
    epsilon=st.floats(1e-4, 1e-2),
    pick=st.integers(0, 100),
)
def test_push_rounds_match_the_unique_then_bincount_reference(g, alpha, epsilon, pick):
    # a round that pushes one key gathers one sorted row, which sorted_unique returns as is;
    # the state is read ordered by key, so a push that keeps its keys unsorted compares too
    seeds = np.flatnonzero(g.degrees > 0)
    seed = int(seeds[pick % seeds.size])
    want = reference_push_rounds(g, seed, alpha, epsilon)
    got = []

    def record(state):
        order = np.argsort(state.keys)
        got.append(tuple(arr[order] for arr in (state.keys, state.p_mass, state.r_mass)))

    AprState(g, seed, alpha, epsilon).run(on_push=record)
    assert len(got) == len(want)
    for have, expected in zip(got, want):
        for a, b in zip(have, expected):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


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


@settings(SETTINGS, max_examples=120)
@given(
    g=st.one_of(graphs(), digraphs()),
    side=st.lists(st.integers(0, 2), min_size=10, max_size=10),  # graphs have at most 10 vertices
)
# the arc 0 -> 1 as L = {0}, R = {1}: L1 u R2 holds the whole cover volume
@example(g=Graph(2, [(0, 1)], directed=True), side=[1, 2] + [0] * 8)
def test_pair_measures_read_one_volume_rule(g, side):
    # (L, R) is the cover set L1 u R2: the RunResult volume, the cover scan and beta / F
    # all read one volume, summed over L and then R, so the volumes are bit-equal;
    # side[v] puts vertex v < g.n in L (1), in R (2) or in neither (0)
    l = [v for v in range(g.n) if side[v] == 1]
    r = [v for v in range(g.n) if side[v] == 2]
    cut, vol = cover_cut_and_volume(g, pair_to_cover_set(l, r))
    assume(0 < vol)
    result = build_run_result(g, "pair", 0, {}, SimpleNamespace(l=l, r=r), 0.0)
    assert result.metrics["volume"] == vol
    rest = total_cover_volume(g) - vol  # 0 when L1 u R2 holds the whole cover volume
    conductance = result.metrics["conductance_in_cover"]
    assert conductance is None if rest <= 0 else abs(conductance - cut / min(vol, rest)) <= 1e-12
    ratio = result.metrics["flow_ratio" if g.directed else "beta"]
    assert abs(ratio - cut / vol) <= 1e-12


def _with_isolated_vertex(g):
    """g plus one vertex without edges, whose two cover keys have degree 0."""
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    once = slice(None) if g.directed else rows < g.indices
    return Graph.from_arrays(
        g.n + 1, rows[once], g.indices[once], g.weights[once], directed=g.directed
    )


@SETTINGS
@given(g=st.one_of(graphs(), digraphs()), data=st.data())
def test_cover_rows_match_dense_cover(g, data):
    # keys in any order, repeated, both copies of a vertex, and zero-degree keys
    g = _with_isolated_vertex(g)
    u = data.draw(st.integers(0, g.n - 1))
    keys = data.draw(st.lists(st.integers(0, 2 * g.n - 1), max_size=4 * g.n))
    keys = np.array(data.draw(st.permutations(keys + [2 * u, 2 * u + 1, 2 * g.n - 1])))
    adj = dense_cover_adjacency(g)
    nbrs, ws, counts = cover_rows(g, keys)
    owner = np.repeat(np.arange(keys.size), counts)
    assert np.all(np.diff(owner) >= 0)  # rows come in key order
    got = sorted(zip(keys[owner].tolist(), nbrs.tolist(), ws.tolist()))
    want = sorted(
        (key, nbr, adj[key, nbr]) for key in keys.tolist() for nbr in np.flatnonzero(adj[key]).tolist()
    )
    assert got == want
    assert np.allclose(cover_degrees(g, keys), adj[keys].sum(axis=1), rtol=1e-12, atol=0.0)
    # row_keys holds each row's neighbors as cover keys: those of a side-1 reader, and of
    # a side-2 reader once an undirected row drops its parity; the isolated vertex's are empty
    assert g.row_keys.dtype == np.int64 and g.row_keys.size == g.row_indptr[-1]
    for key in range(2 * g.n):
        row = cover_key_row(g, key)
        lo, hi = g.row_indptr[row : row + 2].tolist()
        shift = key & 1 and not g.directed
        assert (g.row_keys[lo:hi] - shift).tolist() == np.flatnonzero(adj[key]).tolist()
    assert g.row_indptr[-2] == g.row_indptr[-1]  # the isolated vertex's last row


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


@SETTINGS
@given(g=st.one_of(graphs(weights=st.floats(1e-3, 1e3)), digraphs(weights=st.floats(1e-3, 1e3))))
def test_a_file_and_its_reversed_lines_load_alike(g):
    # a written file's keys increase and skip np.unique; reversed, they take the general path
    with tempfile.TemporaryDirectory() as tmp:
        written, reversed_ = Path(tmp) / "a.edgelist", Path(tmp) / "b.edgelist"
        write_edge_list(g, written)
        reversed_.write_text("".join(written.read_text().splitlines(keepends=True)[::-1]))
        a, b = (load_edge_list(path, directed=g.directed) for path in (written, reversed_))
    for name in ("row_indptr", "row_keys", "row_weights", "row_degrees"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert graph_fingerprint(a) == graph_fingerprint(b)


@st.composite
def esp_starts(draw):
    """A digraph of up to 142 vertices, a start state, a step count and an rng seed.

    Weights are small integers (every mass and volume exact) or floats. Up to
    two vertices have no arcs, so their cover keys have degree 0; a start set
    may hold them. Starts are a single key, which grows, or a random set of
    up to the whole cover, which shrinks and prunes. On graphs of more than
    64 vertices the tracked set can cross the dispatch threshold (128 keys).
    """
    integer = draw(st.booleans())
    n = draw(st.one_of(st.integers(2, 16), st.integers(48, 140)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.floats(0.02, 0.3))
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    u, v = np.nonzero(mask)
    if not u.size:
        u, v = np.array([0]), np.array([1])
    w = rng.integers(1, 4, u.size).astype(float) if integer else rng.uniform(0.2, 3.0, u.size)
    g = Graph.from_arrays(n + draw(st.integers(0, 2)), u, v, w, directed=True)
    live = [key for key in range(2 * g.n) if cover_degree(g, key) > 0]
    start = draw(st.sampled_from(["seed", "set", "share"]))
    if start == "seed":
        state = EspState.from_seed(g, draw(st.sampled_from(live)))
    else:
        if start == "set":
            keys = draw(st.sets(st.integers(0, 2 * g.n - 1), max_size=2 * g.n))
        else:  # a random share of the whole cover, zero-degree keys included
            keys = set(np.flatnonzero(rng.random(2 * g.n) < draw(st.floats(0.1, 1.0))).tolist())
        keys.add(draw(st.sampled_from(live)))
        state = esp_state_from_set(g, keys, rng)
    return state, integer, draw(st.integers(1, 16)), draw(st.integers(0, 2**32 - 1))


def _step_with(state, seed, min_keys):
    """One esp_step on a copy of `state`, forced to one form by the dispatch threshold."""
    copy = clone_state(state)
    with mock.patch.object(esp, "_VECTOR_MIN_KEYS", min_keys):
        esp_step(copy, np.random.default_rng(seed))
    return copy


@settings(SETTINGS, max_examples=150)
@given(start=esp_starts())
def test_esp_step_forms_agree(start):
    state, integer, steps, seed = start
    for step in range(steps):
        by_dict = _step_with(state, [seed, step], 2**62)
        by_vector = _step_with(state, [seed, step], 0)
        assert by_vector.walker == by_dict.walker
        assert by_vector.members == by_dict.members
        assert by_vector.nbr_mass.keys() == by_dict.nbr_mass.keys()
        if integer:
            assert by_vector.nbr_mass == by_dict.nbr_mass
            assert by_vector.vol == by_dict.vol
        else:
            for key, mass in by_dict.nbr_mass.items():
                assert math.isclose(by_vector.nbr_mass[key], mass, rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(by_vector.vol, by_dict.vol, rel_tol=1e-12)
        state = by_dict


def _assert_same_state(by_array, by_dict, integer):
    assert by_array.walker == by_dict.walker
    assert by_array.members == by_dict.members
    assert len(by_array.nbr_mass) == len(by_dict.nbr_mass)
    assert by_array.nbr_mass.keys() == by_dict.nbr_mass.keys()
    if integer:
        assert by_array.nbr_mass == by_dict.nbr_mass
        assert by_array.vol == by_dict.vol
    else:
        for key, mass in by_dict.nbr_mass.items():
            assert math.isclose(by_array.nbr_mass[key], mass, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(by_array.vol, by_dict.vol, rel_tol=1e-12)


@settings(SETTINGS, max_examples=150)
@given(start=esp_starts())
def test_esp_array_state_carried_across_steps(start):
    """The array form carries its own state from step to step and stays the dict reference's twin."""
    state, integer, steps, seed = start
    by_dict, by_array = clone_state(state), clone_state(state)
    to_arrays = mock.Mock(wraps=esp._to_arrays)
    with mock.patch.object(esp, "_to_arrays", to_arrays):
        for step in range(steps + 4):
            by_dict = _step_with(by_dict, [seed, step], 2**62)
            with mock.patch.object(esp, "_VECTOR_MIN_KEYS", 0):
                esp_step(by_array, np.random.default_rng([seed, step]))
            assert isinstance(by_dict.nbr_mass, dict)
            assert not isinstance(by_array.nbr_mass, dict)
            _assert_same_state(by_array, by_dict, integer)
    assert to_arrays.call_count == 1


@settings(SETTINGS, max_examples=100)
@given(start=esp_starts(), data=st.data())
def test_esp_form_switch_inside_a_step_agrees(start, data):
    """A threshold between the start's tracked count and its reach switches forms inside a step.

    The reach (tracked keys plus all their row lengths) bounds what one update
    can track. Whichever step crosses the threshold, the state stays the dict
    reference's twin, and a sample converts at most once.
    """
    state, integer, steps, seed = start
    g, tracked = state.graph, len(state.nbr_mass)
    reach = tracked + cover_rows(g, np.fromiter(state.nbr_mass, np.int64))[0].size
    min_keys = data.draw(st.integers(tracked, reach), label="min_keys")
    by_dict, by_switch = clone_state(state), clone_state(state)
    to_arrays = mock.Mock(wraps=esp._to_arrays)
    with mock.patch.multiple(esp, _to_arrays=to_arrays, _VECTOR_MIN_KEYS=min_keys):
        for step in range(steps + 4):
            by_dict = _step_with(by_dict, [seed, step], 2**62)
            esp_step(by_switch, np.random.default_rng([seed, step]))
            _assert_same_state(by_switch, by_dict, integer)
    assert to_arrays.call_count <= 1


def test_esp_array_state_prunes_like_dict():
    """A shrinking start set, stepped in array form throughout, drops the keys the reference drops."""
    rng = np.random.default_rng(11)
    mask = rng.random((60, 60)) < 0.03
    np.fill_diagonal(mask, False)
    u, v = np.nonzero(mask)
    g = Graph.from_arrays(62, u, v, rng.integers(1, 4, u.size).astype(float), directed=True)
    # a sparse share of the cover, which sheds keys, and the zero-degree keys of 60 and 61
    start = set(np.flatnonzero(rng.random(2 * g.n) < 0.1).tolist()) | {120, 121, 122, 123}
    state = esp_state_from_set(g, start, rng)
    by_dict, by_array = clone_state(state), clone_state(state)
    sizes = [len(state.nbr_mass)]
    for step in range(40):
        by_dict = _step_with(by_dict, [5, step], 2**62)
        by_array = _step_with(by_array, [5, step], 0)
        _assert_same_state(by_array, by_dict, True)
        sizes.append(len(by_array.nbr_mass))
    assert any(after < before for before, after in zip(sizes, sizes[1:]))  # some step pruned
    assert {120, 121, 122, 123} <= by_array.members  # zero-degree members never leave


def _array_steps_keep_key_index(state, seed, steps):
    """Step `state` in array form, checking its key index after every step.

    The index holds position + 1 at each tracked key and 0 at every other, and no
    key is tracked twice, also after a step that appends through the index's marks
    or prunes. Returns whether some step appended keys and whether some step dropped one.
    """
    appended = pruned = False
    with mock.patch.object(esp, "_VECTOR_MIN_KEYS", 0):
        for step in range(steps):
            before = set(state.nbr_mass)
            esp_step(state, np.random.default_rng([seed, step]))
            t = state.nbr_mass
            size = t.ids.size
            assert np.array_equal(t.index[t.ids], np.arange(1, size + 1))
            assert np.count_nonzero(t.index) == size
            assert np.unique(t.ids).size == size
            after = set(t.ids.tolist())
            appended |= bool(after - before)
            pruned |= bool(before - after)
    return appended, pruned


@settings(SETTINGS, max_examples=150)
@given(start=esp_starts())
def test_esp_key_index_exact_after_every_array_step(start):
    state, _, steps, seed = start
    _array_steps_keep_key_index(state, seed, steps + 4)


def test_esp_key_index_exact_through_appends_and_prunes():
    """A growing seed appends and a shrinking share of the cover prunes; the index stays exact."""
    rng = np.random.default_rng(11)
    mask = rng.random((60, 60)) < 0.03
    np.fill_diagonal(mask, False)
    u, v = np.nonzero(mask)
    g = Graph.from_arrays(62, u, v, rng.uniform(0.2, 3.0, u.size), directed=True)
    seed_key = int(np.flatnonzero(cover_degrees(g, np.arange(2 * g.n)) > 0)[0])
    share = set(np.flatnonzero(rng.random(2 * g.n) < 0.1).tolist()) | {seed_key}
    grown = _array_steps_keep_key_index(EspState.from_seed(g, seed_key), 3, 40)
    shrunk = _array_steps_keep_key_index(esp_state_from_set(g, share, rng), 5, 40)
    assert grown[0] and shrunk[1]


def _dense_flow_graph(n, rows):
    """The flow digraph by definition: dense count matrix, one arc per unbalanced pair."""
    m = np.zeros((n, n))
    for j, l, c in rows:
        m[j, l] += c
    weights = np.zeros((n, n))
    for j in range(n):
        for l in range(n):
            fwd, bwd = m[j, l], m[l, j]
            if j != l and fwd > bwd:
                weights[j, l] = (fwd - bwd) / (fwd + bwd)
    return weights


_COUNTS = st.one_of(st.integers(0, 5), st.floats(0.0, 5.0))


@SETTINGS
@given(
    rows=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), _COUNTS), min_size=1, max_size=30),
    balanced=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), _COUNTS)),
    data=st.data(),
)
def test_flow_matrix_matches_dense_reference(rows, balanced, data):
    # balanced pairs carry the same count both ways; self rows and zero counts add no arc;
    # repeated rows accumulate, and the row order must not matter
    rows = rows + [(l, j, c) for j, l, c in balanced] + [(j, l, c) for j, l, c in balanced]
    rows += data.draw(st.lists(st.sampled_from(rows), max_size=5))
    rows = data.draw(st.permutations(rows))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "flows.csv"
        path.write_text("".join(f"{j},{l},{c}\n" for j, l, c in rows))
        g = load_flow_matrix(path)
    n = 1 + max(max(j, l) for j, l, _ in rows)
    assert g.directed and g.n == n
    got = np.zeros((n, n))
    for j in range(n):
        ids, ws = g.neighbors(j)
        got[j, ids] = ws
    want = _dense_flow_graph(n, rows)
    # both add each pair's counts in file order, so the weights match to the bit
    assert np.array_equal(got, want)
    assert g.edge_count == int(np.count_nonzero(want))


@SETTINGS
@given(
    rows=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), _COUNTS), max_size=30),
    data=st.data(),
)
def test_flow_matrix_rows_match_the_pair_sum_reference(rows, data):
    # duplicate rows, zero counts, self rows and one-sided pairs, in any file order
    if rows:
        rows += data.draw(st.lists(st.sampled_from(rows), max_size=5))
    rows = data.draw(st.permutations(rows))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "flows.csv"
        path.write_text("".join(f"{j},{l},{c!r}\n" for j, l, c in rows))
        g = load_flow_matrix(path)
    want = flow_rows_reference(rows)
    got = (g.row_indptr, g.row_keys, g.row_weights, g.row_degrees)
    for have, expected in zip(got, want):
        assert have.tobytes() == expected.tobytes()


@settings(SETTINGS, max_examples=200)
@given(
    n=st.integers(2, 7),
    # scaled by e, so that sums in another order tend to round differently
    edges=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.floats(1e-3, 1e3).map(math.e.__mul__)),
        max_size=40,
    ),
    directed=st.booleans(),
    written=st.booleans(),
)
# vertex 2's degree sums its out-row's 0.3, then 0.1 and 0.7: 1.1, where 0.3 + (0.1 + 0.7) is not
@example(n=4, edges=[(0, 2, 0.1), (1, 2, 0.7), (2, 3, 0.3)], directed=False, written=False)
@example(n=4, edges=[(0, 2, 0.1), (1, 2, 0.7), (2, 3, 0.3)], directed=False, written=True)
def test_csr_matches_the_plain_python_reference(n, edges, directed, written):
    # ids wrap into [0, n): parallel edges in both orientations are common, in any order
    edges = [(u % n, v % n, w) for u, v, w in edges if u % n != v % n]
    if written:  # as write_edge_list writes: parallel-free, sorted by (u, v), u < v if undirected
        edges = {(u, v) if directed else (min(u, v), max(u, v)): w for u, v, w in edges}
        edges = [(u, v, w) for (u, v), w in sorted(edges.items())]
    u, v, w = map(list, zip(*edges)) if edges else ([], [], [])
    g = Graph.from_arrays(n, u, v, w, directed=directed)
    got = (g.row_indptr, g.row_keys, g.row_weights, g.row_degrees)
    for have, expected in zip(got, csr_reference(n, edges, directed)):
        assert have.dtype == expected.dtype and have.tobytes() == expected.tobytes()


_KEYS = st.lists(st.integers(-3, 6), max_size=40)
_WEIGHTS = st.floats(-1e6, 1e6, allow_subnormal=False)


@SETTINGS
@given(keys=_KEYS, count=st.integers(0, 3), data=st.data())
# order is tested on a 64-key head first; a break after the head must still merge
@example(keys=[*range(64), 63, *range(65, 100)], count=0, data=None)
@example(keys=[*range(70), 3, *range(71, 100)], count=0, data=None)
def test_sum_by_key_is_unique_then_bincount_in_input_order(keys, count, data):
    size = len(keys)
    weights = [
        np.array(data.draw(st.lists(_WEIGHTS, min_size=size, max_size=size)), dtype=float)
        for _ in range(count)
    ]
    keys = np.array(keys, dtype=np.int64)
    uniq, *sums = sum_by_key(keys, *weights)
    want, inverse = np.unique(keys, return_inverse=True)
    assert uniq.tobytes() == want.tobytes() and len(sums) == count
    for total, w in zip(sums, weights):
        # float64 also on empty input, where np.bincount itself returns int64
        expected = np.bincount(inverse, weights=w, minlength=want.size).astype(np.float64)
        assert total.dtype == np.float64 and total.tobytes() == expected.tobytes()
        by_key = dict.fromkeys(uniq.tolist(), 0.0)
        for key, x in zip(keys.tolist(), w.tolist()):
            by_key[key] += x
        assert total.tolist() == list(by_key.values())


@SETTINGS
@given(
    keys=st.lists(st.integers(-3, 60), unique=True, max_size=40).map(sorted),
    data=st.data(),
)
@example(keys=[], data=None)
@example(keys=[5], data=None)
def test_sum_by_key_on_increasing_keys_is_unique_then_bincount(keys, data):
    # strictly increasing keys skip np.unique; what comes back must not tell
    size = len(keys)
    draw = data.draw if data else (lambda strategy: [-0.0] * size)
    weights = [
        np.array(draw(st.lists(_WEIGHTS, min_size=size, max_size=size)), dtype=float),
        np.array(draw(st.lists(st.integers(-9, 9), min_size=size, max_size=size)), np.int64),
        np.full(size, -0.0),
    ]
    keys = np.array(keys, dtype=np.int64)
    uniq, *sums = sum_by_key(keys, *weights)
    want, inverse = np.unique(keys, return_inverse=True)
    assert uniq.dtype == want.dtype and uniq.tobytes() == want.tobytes()
    for total, w in zip(sums, weights):
        expected = np.bincount(inverse, weights=w, minlength=want.size).astype(np.float64)
        assert total.dtype == np.float64 and total.tobytes() == expected.tobytes()
        assert not np.shares_memory(total, w)  # a caller may write into its sums
    assert not np.signbit(sums[2]).any()  # bincount adds -0.0 to 0.0


# Ids stay small, or are too large for a Graph (its edge keys u*n + v would
# overflow int64), or leave int64 altogether. An id in between makes n = id + 1
# and the graph allocates O(n), which no test should do for a large id.
_PLAIN_IDS = st.integers(0, 12).map(str)
_ODD_IDS = st.one_of(
    st.sampled_from(
        ["+5", "-1", "-7", "-0", "007", "1_0", "1.0", "0x10", "1.5", "1e3", "\u0663"]
        + [str(2**63), str(-(2**63) - 1), str(2**63 - 1), "3037000499"]
    ),
    st.integers(3037000499, 2**63 - 1).map(str),
)
_PLAIN_WEIGHTS = st.one_of(
    st.floats(1e-3, 1e3).map(repr),
    st.floats(1e-3, 1e3).map(lambda w: f"{w:.25g}"),
    st.sampled_from(["1", "+2", ".5", "5.", "1e-3"]),
)
_ODD_WEIGHTS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "-0", "-2.5", "nan", "-nan", "inf", "+inf", "Infinity", "-inf", "1e400"]),
    st.sampled_from(["1e-400", "1_0", "\u0661.5", "0x1p3"]),
)
# str.split also splits on the Unicode spaces below; file iteration does not end a line there
_GAPS = st.sampled_from([" ", "\t", "  ", " \t", "\x0b", "\x0c", "\x85", "\u2028"])


def _edge_line(draw, tokens):
    line = draw(_GAPS).join(tokens)
    if draw(st.booleans()):
        line = draw(st.sampled_from(["", " ", "\t"])) + line
    if draw(st.booleans()):
        line += draw(st.sampled_from([" # inline", "#", "  # 9 9 9"]))
    return line


@st.composite
def _plain_lines(draw, width):
    """A well-formed line: an edge of `width` fields (2 or 3 if None), a comment or a blank."""
    kind = draw(st.sampled_from(["edge", "edge", "edge", "comment", "blank"]))
    if kind == "comment":
        return "# " + draw(st.sampled_from(["header", "0 1 2", ""]))
    if kind == "blank":
        return draw(st.sampled_from(["", "  ", "\t"]))
    tokens = [draw(_PLAIN_IDS), draw(_PLAIN_IDS)]
    if (width or draw(st.sampled_from([2, 3]))) == 3:
        tokens.append(draw(_PLAIN_WEIGHTS))
    return _edge_line(draw, tokens)


@st.composite
def _odd_lines(draw):
    """An edge line with one odd id or weight, or a line that is no edge at all."""
    kind = draw(st.sampled_from(["id", "weight", "junk"]))
    if kind == "junk":
        return draw(st.sampled_from(["nope", "0", "0 1 2 3", "0,1", "0 1 # 2 3 4"]))
    if kind == "weight":
        return _edge_line(draw, [draw(_PLAIN_IDS), draw(_PLAIN_IDS), draw(_ODD_WEIGHTS)])
    tokens = [draw(_ODD_IDS), draw(_PLAIN_IDS)]
    if draw(st.booleans()):
        tokens.reverse()
    if draw(st.booleans()):
        tokens.append(draw(_PLAIN_WEIGHTS))
    return _edge_line(draw, tokens)


@st.composite
def edge_files(draw):
    """The bytes of an edge-list file: 2-column, 3-column or mixed well-formed
    lines, of which up to two may be replaced by odd ones (ids outside int64 or
    spelled in ways numpy refuses, bad weights, lines that are no edge)."""
    width = draw(st.sampled_from([2, 3, None]))
    lines = draw(st.lists(_plain_lines(width), max_size=8))
    for _ in range(draw(st.integers(0, 2)) if lines else 0):
        lines[draw(st.integers(0, len(lines) - 1))] = draw(_odd_lines())
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + (newline if lines and draw(st.booleans()) else "")
    return text.encode("utf-8")


# Flow rows draw few ids, so that self flows, repeated and balanced pairs are common
_FLOW_IDS = st.integers(0, 4).map(str)
_PLAIN_COUNTS = st.one_of(
    st.integers(0, 9).map(str),
    st.floats(0.0, 1e3).map(repr),
    st.sampled_from(["+2", ".5", "5.", "-0", "1e-400"]),
)
_ODD_COUNTS = st.one_of(_ODD_WEIGHTS, st.sampled_from(["1e308", "9e307"]))
_COMMAS = st.sampled_from([",", " ,", ", ", " , ", "\t,", ",\t", ",\x0b", "\x85,", ",\u2028"])


def _flow_line(draw, tokens):
    line = tokens[0] + draw(_COMMAS) + tokens[1] + draw(_COMMAS) + tokens[2]
    if draw(st.booleans()):
        line = draw(st.sampled_from(["", " ", "\t"])) + line
    if draw(st.booleans()):
        line += draw(st.sampled_from([" # inline", "#", "  # 9,9,9"]))
    return line


@st.composite
def flow_files(draw):
    """The bytes of a flow CSV: `j,l,count` rows with spaces around the commas, self flows
    and repeated rows, between comments and blank lines. Up to two rows may get an odd
    id or count (spellings numpy refuses, ids outside int64, nan, inf, -0, counts whose
    pair total passes the float range) or become a line that is no row."""
    rows = draw(st.lists(st.tuples(_FLOW_IDS, _FLOW_IDS, _PLAIN_COUNTS), max_size=8))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    rows = [list(row) for row in rows]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        field = draw(st.integers(0, 3))
        if field == 3:
            row[:] = draw(st.sampled_from([["nope", "", ""], ["0", "1", "2,3"], ["0", "1 2", "3"]]))
        else:
            row[field] = draw(_ODD_COUNTS if field == 2 else _ODD_IDS)
    lines = [_flow_line(draw, row) for row in rows]
    fillers = st.sampled_from(["# j,l,count", "#", "", "  ", "\t", "  # 0,1,2"])
    for filler in draw(st.lists(fillers, max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), filler)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + (newline if lines and draw(st.booleans()) else "")
    return text.encode("utf-8")


def _load_or_error(load, path):
    try:
        return load(path)
    except ParseError as exc:
        return str(exc)


def _assert_bulk_parse_agrees_with_line_parser(data, name, load, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data)
        bulk = fileio._bulk_rows(path, fmt)
        refused = _load_or_error(functools.partial(fileio._line_rows, fmt=fmt), path)
        got = _load_or_error(load, path)
        with mock.patch.object(fileio, "_bulk_rows", return_value=None):
            want = _load_or_error(load, path)
    if isinstance(refused, str):
        # what the line parser refuses, the bulk parse never accepts
        assert bulk is None
    if isinstance(want, str):
        # a refused line, or rows the loader refuses after parsing, read the same both ways
        assert got == want
        return
    assert isinstance(got, Graph)
    assert (got.n, got.directed, got.edge_count) == (want.n, want.directed, want.edge_count)
    for name in ("indptr", "indices", "weights", "row_indptr", "row_keys", "row_weights"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert graph_fingerprint(got) == graph_fingerprint(want)


@settings(SETTINGS, max_examples=300)
@given(data=edge_files(), directed=st.booleans())
def test_bulk_parse_agrees_with_line_parser(data, directed):
    load = functools.partial(load_edge_list, directed=directed)
    _assert_bulk_parse_agrees_with_line_parser(data, "g.edgelist", load, fileio._EDGE_LIST)


@settings(SETTINGS, max_examples=300)
@given(data=flow_files())
@example(data=b"0,1,1e308\n  \n0,1,1e308\n")  # parsed in bulk, refused as past the float range
def test_flow_bulk_parse_agrees_with_line_parser(data):
    _assert_bulk_parse_agrees_with_line_parser(
        data, "flows.csv", load_flow_matrix, fileio._FLOW_CSV
    )


@settings(SETTINGS, max_examples=150)
@given(data=edge_files(), seed_vertex=st.integers(0, 3), beta=st.sampled_from(["0.2", "0.5", "1"]))
def test_cli_never_ends_in_a_traceback_on_a_graph_file(data, seed_vertex, beta):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.edgelist"
        path.write_bytes(data)
        argv = ["cluster-bipartite", "-g", str(path), "--seed-vertex", str(seed_vertex)]
        # a large teleport probability keeps each push short on these tiny graphs
        argv += ["--gamma", "4", "--beta", beta, "--alpha", "0.3", "--json"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3)
    if code == 2:  # a refused line, or valid rows whose volume leaves the float range
        volume = ": the total cover volume is past the float range"
        assert re.search(re.escape(str(path)) + rf"(:\d+: |{volume})", err.getvalue())


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
