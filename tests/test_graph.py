import numpy as np
import pytest

from pairclust import Graph, bipartiteness, conductance, cut_imbalance, flow_ratio
from pairclust.cover import cover_cut_and_volume, pair_to_cover_set
from helpers import random_disjoint_pair, random_undirected


def triangle():
    return Graph(3, [(0, 1), (1, 2), (2, 0)])


def four_cycle():
    return Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


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

    def test_isolated_vertices_allowed(self):
        g = Graph(5, [(0, 1)])
        assert g.degree(4) == 0.0

    def test_arrays_are_read_only(self):
        g = four_cycle()
        with pytest.raises(ValueError):
            g.weights[0] = 7.0


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
