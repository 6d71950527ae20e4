import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pairclust import Graph, bipartiteness, conductance, cut_imbalance, flow_ratio
from pairclust.cover import cover_cut_and_volume
from pairclust import graph as graph_module
from pairclust.graph import as_vertex_array, sorted_unique
from pairclust.oracle import pair_to_cover_set
from helpers import random_disjoint_pair, random_undirected


def triangle():
    return Graph(3, [(0, 1), (1, 2), (2, 0)])


def four_cycle():
    return Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


# Every array a Graph stores, and the derived `indices`; all are read-only.
_ARRAYS = (
    "row_indptr", "row_weights", "row_degrees", "row_keys",
    "indptr", "indices", "weights", "degrees", "in_degrees",
)


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(0, 0)])

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError, match="> 0"):
            Graph(2, [(0, 1, 0.0)])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 1, -1.0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            Graph(2, [(0, 5)])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Graph(3, [(0, 1.9)]),
            lambda: Graph(3, [(True, 2)]),
            lambda: Graph(3, [(0, float("nan"))]),
            lambda: Graph.from_arrays(3, np.array([0.5]), np.array([2.7])),
            lambda: Graph.from_arrays(3, np.array([True]), np.array([2])),
            lambda: Graph.from_arrays(3, np.array([0.0]), np.array([np.nan])),
        ],
        ids=["fraction", "bool", "nan", "arrays-fraction", "arrays-bool", "arrays-nan"],
    )
    def test_rejects_non_integer_endpoints(self, build):
        # both constructors used to truncate: (0, 1.9) built the edge 0-1
        with pytest.raises(ValueError, match="not an integer|must be integers"):
            build()

    @pytest.mark.parametrize(
        "n, edges",
        [
            (2.5, [(0, 2)]),
            (np.float64(3.9), [(0, 3), (1, 2)]),
            (True, [(0, 1)]),
            (np.True_, [(0, 1)]),
            (float("nan"), [(0, 1)]),
            (float("inf"), [(0, 1)]),
            ("3", [(0, 1)]),
            (-1, [(0, 1)]),
        ],
        ids=["fraction", "numpy-fraction", "bool", "numpy-bool", "nan", "inf", "str", "negative"],
    )
    def test_rejects_a_vertex_count_that_is_not_a_nonnegative_integer(self, n, edges):
        # n = 2.5 used to take id 2 and then build with n = 2, storing (0, 2) as 0-1
        message = f"^vertex count {n} is not a nonnegative integer$"
        for build in (lambda: Graph(n, edges), lambda: Graph.from_arrays(n, *zip(*edges))):
            with pytest.raises(ValueError, match=message):
                build()

    @pytest.mark.parametrize("n", [4, 4.0, np.int64(4), np.uint8(4), np.float32(4.0)])
    def test_whole_and_numpy_vertex_counts_build(self, n):
        for directed in (False, True):
            g = Graph(n, [(0, 3), (1, 2)], directed=directed)
            assert type(g.n) is int and g.n == 4
            assert g.indices.tolist() == ([3, 2, 1, 0] if not directed else [3, 2])

    @pytest.mark.parametrize(
        "u, v, w",
        [
            (np.zeros((4, 1), dtype=np.int64), np.arange(1, 5), None),
            (np.zeros((2, 2), dtype=np.int64), np.ones((2, 2), dtype=np.int64), None),
            (np.array([0, 1]), np.array([1, 2, 3]), None),
            (np.array([0, 1]), np.array([1, 2]), np.ones((2, 1))),
        ],
        ids=["column-and-row", "equal-size-2d", "unequal-length", "column-weights"],
    )
    def test_from_arrays_requires_1d_arrays_of_equal_length(self, u, v, w):
        # (4, 1) against (4,) used to broadcast in u == v and report a self-loop
        with pytest.raises(ValueError, match="^endpoint and weight arrays must be 1-d and of "):
            Graph.from_arrays(5, u, v, w)

    def test_rejects_more_edges_than_its_sort_keys_hold(self, monkeypatch):
        # the build sorts keys sv * m + i, so n * m must fit in int64 as n * n does
        monkeypatch.setattr(graph_module, "MAX_VERTICES", 3)
        arcs = [(0, 1), (1, 0), (0, 2), (2, 0)]
        with pytest.raises(ValueError, match="^4 edges on 3 vertices: sort keys overflow int64$"):
            Graph(3, arcs, directed=True)
        assert Graph(3, arcs[:3], directed=True).edge_count == 3

    def test_whole_float_endpoints_build_the_edge(self):
        assert Graph.from_arrays(3, np.array([0.0]), np.array([2.0])).indices.tolist() == [2, 0]
        assert Graph(3, [(2.0, 1)]).indices.tolist() == [2, 1]

    def test_parallel_edges_merge_by_weight_sum(self):
        g = Graph(2, [(0, 1, 1.5), (1, 0, 2.5)])
        assert g.edge_count == 1
        assert g.degree(0) == 4.0

    def test_directed_parallel_arcs_merge_per_direction(self):
        g = Graph(2, [(0, 1, 1.0), (0, 1, 2.0), (1, 0, 5.0)], directed=True)
        assert g.edge_count == 2
        assert g.degrees[0] == 3.0
        assert g.in_degrees[0] == 5.0

    def test_rejects_vertex_count_whose_square_overflows_int64(self):
        # edges are keyed u*n + v in int64; the check comes before any O(n) array
        with pytest.raises(ValueError, match="vertex count 3037000500 above 3037000499"):
            Graph.from_arrays(3037000500, [0], [1])
        with pytest.raises(ValueError, match="overflow int64"):
            Graph(2**63, [(0, 1)], directed=True)

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    @pytest.mark.parametrize(
        "edges, where",
        [
            # each weight finite, vertex 0's degree not
            ([(0, 1, 1e308), (0, 2, 1e308), (2, 3, 1.0)], ": vertex 0 has a degree past it"),
            # a merged edge past the range: both endpoints' degrees, and the first is named
            ([(2, 3, 1.0), (2, 1, 1e308), (2, 1, 1e308)], ": vertex 1 has a degree past it"),
            # each degree finite, their total not
            ([(0, 1, 1e308), (2, 3, 1e308)], ""),
        ],
        ids=["degree", "merged-edge", "total"],
    )
    def test_rejects_a_volume_past_the_float_range(self, edges, where, directed):
        message = "the total cover volume is past the float range" + where
        with pytest.raises(ValueError, match=f"^{message}$"):
            Graph(4, edges, directed=directed)

    def test_names_a_vertex_by_its_in_degree(self):
        with pytest.raises(ValueError, match="vertex 0 has a degree past it"):
            Graph(3, [(1, 0, 1e308), (2, 0, 1e308)], directed=True)

    def test_large_volume_inside_the_float_range_builds(self):
        for directed in (False, True):
            g = Graph(3, [(0, 1, 2e307), (1, 2, 2e307)], directed=directed)
            assert np.isfinite(g.row_degrees).all()

    def test_isolated_vertices_allowed(self):
        g = Graph(5, [(0, 1)])
        assert g.degree(4) == 0.0

    def test_arrays_are_read_only(self):
        for g in (four_cycle(), Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], directed=True)):
            for name in _ARRAYS:
                with pytest.raises(ValueError):
                    getattr(g, name)[0] = 7

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    def test_edgeless_graph_arrays_are_float64(self, directed):
        # np.bincount returns int64 on empty input, even when given float weights
        for g in (Graph(3, [], directed=directed), Graph.from_arrays(3, [], [], directed=directed)):
            for name in ("row_weights", "weights", "row_degrees", "degrees", "in_degrees"):
                assert getattr(g, name).dtype == np.float64, name
            assert g.degrees.tolist() == g.in_degrees.tolist() == [0.0, 0.0, 0.0]
            assert g.row_keys.dtype == np.int64 and g.row_keys.size == 0


class TestDegree:
    def test_triangle_degrees(self):
        g = triangle()
        for v in range(3):
            assert g.degree(v) == 2.0

    def test_directed_single_edge(self):
        g = Graph(2, [(0, 1)], directed=True)
        assert g.degrees[0] == 1.0
        assert g.in_degrees[0] == 0.0
        assert g.degrees[1] == 0.0
        assert g.in_degrees[1] == 1.0

    def test_weighted_degree(self):
        g = Graph(2, [(0, 1, 30.0)])
        assert g.degree(0) == 30.0

    def test_degree_requires_undirected(self):
        g = Graph(2, [(0, 1)], directed=True)
        with pytest.raises(ValueError):
            g.degree(0)

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            triangle().degree(3)


class TestVolume:
    def test_empty_set(self):
        assert triangle().volume([]) == 0.0

    def test_triangle_all(self):
        assert triangle().volume([0, 1, 2]) == 6.0

    def test_four_cycle_adjacent_pair(self):
        assert four_cycle().volume([0, 1]) == 4.0

    def test_directed_in_out(self):
        g = Graph(3, [(0, 1), (0, 2), (1, 2)], directed=True)
        assert cover_cut_and_volume(g, pair_to_cover_set([0], []))[1] == 2.0
        assert cover_cut_and_volume(g, pair_to_cover_set([], [2]))[1] == 2.0


class TestCutWeight:
    def test_four_cycle_opposite_corners(self):
        assert four_cycle().cut_weight([0, 2], [1, 3]) == 4.0

    def test_directed_three_cycle(self):
        g = Graph(3, [(0, 1), (1, 2), (2, 0)], directed=True)
        assert g.cut_weight([0], [1]) == 1.0
        assert g.cut_weight([1], [0]) == 0.0

    def test_disconnected_pair(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert g.cut_weight([0, 1], [2, 3]) == 0.0

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            four_cycle().cut_weight([0, 1], [1, 2])


class TestConductance:
    def test_single_edge_endpoint(self):
        g = Graph(2, [(0, 1)])
        assert conductance(g, [0]) == 1.0

    def test_k22_one_side(self):
        g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert conductance(g, [0, 1]) == 1.0

    def test_path_prefixes(self):
        # min-denominator definition: for S={0,1} the smaller side is {2} with
        # volume 1, so the prefix conductance stays 1, not 1/2
        g = Graph(3, [(0, 1), (1, 2)])
        assert conductance(g, [0]) == 1.0
        assert conductance(g, [0, 1]) == pytest.approx(1.0, abs=1e-12)
        assert g.cut_weight([0, 1], [2]) / g.volume([0, 1]) == pytest.approx(1 / 3, abs=1e-12)

    def test_empty_and_full_rejected(self):
        g = four_cycle()
        with pytest.raises(ValueError):
            conductance(g, [])
        with pytest.raises(ValueError):
            conductance(g, [0, 1, 2, 3])

    def test_min_denominator_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_undirected(rng, 8, weighted=True)
            s = [0, 1, 2]
            comp = [v for v in range(8) if v not in s]
            if g.volume(s) <= 0 or g.volume(comp) <= 0:
                continue
            assert conductance(g, s) == pytest.approx(conductance(g, comp), rel=1e-12)


class TestBipartiteness:
    def test_four_cycle_bipartition(self):
        assert bipartiteness(four_cycle(), [0, 2], [1, 3]) == 0.0

    def test_triangle_single_vertices(self):
        assert bipartiteness(triangle(), [0], [1]) == pytest.approx(0.5, abs=1e-12)

    def test_edgeless_pair_inside_larger_graph(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert bipartiteness(g, [0], [2]) == 1.0

    def test_symmetric_in_l_r(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = random_undirected(rng, 9, weighted=True)
            l, r = random_disjoint_pair(rng, 9)
            if g.volume(np.concatenate([l, r])) <= 0:
                continue
            assert bipartiteness(g, l, r) == pytest.approx(bipartiteness(g, r, l), abs=1e-15)

    @pytest.mark.parametrize(
        "l, r", [(np.array([0.7]), [1]), ([0], [1.5]), (np.array([True]), [1]), (["0"], [1])]
    )
    def test_non_integer_ids_rejected(self, l, r):
        # np.array([0.7]) used to be read as vertex 0 and give 0.5
        with pytest.raises(ValueError, match="not an integer|must be integers"):
            bipartiteness(four_cycle(), l, r)

    def test_overlap_and_empty_rejected(self):
        g = four_cycle()
        with pytest.raises(ValueError):
            bipartiteness(g, [0, 1], [1, 2])
        with pytest.raises(ValueError):
            bipartiteness(g, [], [])


class TestFlowRatio:
    def test_single_edge_forward(self):
        g = Graph(2, [(0, 1)], directed=True)
        assert flow_ratio(g, [0], [1]) == 0.0

    def test_reversed_roles_give_ratio_one(self):
        # reversing L and R leaves no forward flow; the single-edge version of
        # this case has a zero denominator and is rejected instead
        g = Graph(3, [(0, 1), (1, 2)], directed=True)
        assert flow_ratio(g, [1], [0]) == 1.0
        single = Graph(2, [(0, 1)], directed=True)
        with pytest.raises(ValueError):
            flow_ratio(single, [1], [0])

    def test_zero_denominator_rejected(self):
        g = Graph(3, [(0, 1)], directed=True)
        with pytest.raises(ValueError):
            flow_ratio(g, [1], [2])

    def test_equals_bipartiteness_on_bidirected_graphs(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(3, 9))
            und = random_undirected(rng, n, weighted=True)
            arcs = []
            for u in range(n):
                ids, ws = und.neighbors(u)
                arcs.extend((u, int(v), float(w)) for v, w in zip(ids, ws))
            dg = Graph(n, arcs, directed=True)
            l, r = random_disjoint_pair(rng, n)
            try:
                beta = bipartiteness(und, l, r)
            except ValueError:
                continue
            assert flow_ratio(dg, l, r) == pytest.approx(beta, abs=1e-12)

    def test_bidirected_exhaustive(self):
        # every disjoint (L, R) assignment on a bidirected 8-vertex graph
        import itertools

        rng = np.random.default_rng(4)
        n = 8
        und = random_undirected(rng, n, p=0.45, weighted=True)
        arcs = []
        for u in range(n):
            ids, ws = und.neighbors(u)
            arcs.extend((u, int(v), float(w)) for v, w in zip(ids, ws))
        dg = Graph(n, arcs, directed=True)
        for assign in itertools.product((0, 1, 2), repeat=n):
            l = [v for v, a in enumerate(assign) if a == 1]
            r = [v for v, a in enumerate(assign) if a == 2]
            try:
                beta = bipartiteness(und, l, r)
            except ValueError:
                continue
            assert flow_ratio(dg, l, r) == pytest.approx(beta, abs=1e-12)


class TestCutImbalance:
    def test_all_one_way(self):
        g = Graph(2, [(0, 1)], directed=True)
        assert cut_imbalance(g, [0], [1]) == 0.5

    def test_balanced(self):
        g = Graph(2, [(0, 1, 2.0), (1, 0, 2.0)], directed=True)
        assert cut_imbalance(g, [0], [1]) == 0.0

    def test_three_to_one(self):
        g = Graph(4, [(0, 2, 3.0), (2, 1, 1.0)], directed=True)
        assert cut_imbalance(g, [0, 1], [2]) == pytest.approx(0.25, abs=1e-12)

    def test_no_edges_rejected(self):
        g = Graph(3, [(0, 1)], directed=True)
        with pytest.raises(ValueError):
            cut_imbalance(g, [2], [1])


# id arrays of up to two dimensions (a 0-d scalar, empty, one element and 2-D
# included); a narrow value range makes duplicates common
_ID_SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=12)
_ID_ARRAYS = st.one_of(
    hnp.arrays(np.int64, _ID_SHAPES, elements=st.integers(-6, 6)),
    hnp.arrays(np.int64, _ID_SHAPES),
    hnp.arrays(np.uint64, _ID_SHAPES, elements=st.integers(2**64 - 4, 2**64 - 1) | st.integers(0, 5)),
)


class TestSortedUnique:
    """`sorted_unique` returns what `np.unique` does, without numpy's hash table."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        arr=_ID_ARRAYS,
        form=st.sampled_from(["random", "sorted", "increasing", "increasing 2-D", "duplicated"]),
    )
    @example(arr=np.array([], dtype=np.int64), form="random")
    @example(arr=np.array([], dtype=np.uint64), form="random")
    @example(arr=np.array([-3], dtype=np.int64), form="random")
    @example(arr=np.array([[4, -1, 4], [-1, 0, 9]], dtype=np.int64), form="random")
    @example(arr=np.array([2**64 - 1, 0, 2**64 - 1], dtype=np.uint64), form="random")
    @example(arr=np.array([], dtype=np.int64), form="increasing")
    @example(arr=np.array([[3, 1], [2, 0]], dtype=np.int64), form="increasing 2-D")
    def test_equals_np_unique(self, arr, form):
        # strictly increasing input skips the sort; every input gets an array of its own
        arr = {
            "random": lambda a: a,
            "sorted": lambda a: np.sort(a, axis=None),
            "increasing": np.unique,
            "increasing 2-D": lambda a: np.unique(a).reshape(1, -1),
            "duplicated": lambda a: np.unique(a).repeat(2),
        }[form](arr)
        got, want = sorted_unique(arr), np.unique(arr)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert not np.shares_memory(got, arr)

    @settings(max_examples=100, deadline=None, database=None)
    @given(arr=hnp.arrays(np.int64, _ID_SHAPES, elements=st.integers(0, 9)))
    def test_vertex_array_is_the_unique_ids(self, arr):
        ids = as_vertex_array(10, arr)
        assert ids.dtype == np.int64
        assert np.array_equal(ids, np.unique(arr))

    @pytest.mark.parametrize(
        "ids, message",
        [
            (np.array([1.0, 0.5]), "vertex id 0.5 is not an integer"),
            (np.array([np.nan, 1.0]), "vertex id nan is not an integer"),
            (np.array([2.0, -np.inf]), "vertex id -inf is not an integer"),
            (np.array([True, False]), "vertex ids must be integers, not bool"),
            (["0"], "vertex ids must be integers, not <U1"),
            ([2, -1, 2], "vertex id -1 out of range [0, 3)"),
            (np.array([[0, 7], [7, 1]]), "vertex id 7 out of range [0, 3)"),
            (np.array([3], dtype=np.uint64), "vertex id 3 out of range [0, 3)"),
            (np.array([5.0, 1.0]), "vertex id 5.0 out of range [0, 3)"),
        ],
    )
    def test_vertex_array_errors_unchanged(self, ids, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            as_vertex_array(3, ids)


def test_metrics_invariant_under_weight_scaling():
    rng = np.random.default_rng(8)
    for _ in range(15):
        n = int(rng.integers(4, 10))
        und = random_undirected(rng, n, weighted=True)
        c = float(rng.uniform(0.1, 10.0))
        scaled = Graph.from_arrays(
            n,
            *(lambda e: (e[0], e[1], e[2] * c))(_edge_triples(und)),
        )
        l, r = random_disjoint_pair(rng, n)
        s = [0, 1]
        if und.volume(s) > 0 and und.volume([v for v in range(n) if v not in s]) > 0:
            assert conductance(und, s) == pytest.approx(conductance(scaled, s), rel=1e-12)
        try:
            b = bipartiteness(und, l, r)
        except ValueError:
            continue
        assert b == pytest.approx(bipartiteness(scaled, l, r), rel=1e-12, abs=1e-12)


def _edge_triples(g):
    us, vs, ws = [], [], []
    for u in range(g.n):
        ids, wts = g.neighbors(u)
        for v, w in zip(ids.tolist(), wts.tolist()):
            if v > u:
                us.append(u)
                vs.append(v)
                ws.append(w)
    return np.asarray(us), np.asarray(vs), np.asarray(ws)
