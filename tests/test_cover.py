import numpy as np
import pytest

from pairclust import (
    Graph,
    bipartiteness,
    conductance_in_cover,
    cover_degree,
    cover_rows,
    cover_vertex,
    flow_ratio,
    to_cluster_pair,
    total_cover_volume,
)
from pairclust.cover import cover_cut_and_volume
from pairclust.oracle import epsilon_simple_cleanup, pair_to_cover_set
from helpers import (
    dense_cover_conductance,
    doubled_part,
    is_simple,
    random_directed,
    random_disjoint_pair,
    random_undirected,
)


def _row(g, key):
    """Neighbor keys and weights of one cover key, through the array gather."""
    keys, ws, counts = cover_rows(g, np.array([key], dtype=np.int64))
    owner = np.repeat(np.arange(1), counts)
    assert np.all(owner == 0) and counts.tolist() == [keys.size]
    return keys, ws


class TestCoverNeighbors:
    def test_undirected_edge_lifts_crosswise(self):
        g = Graph(2, [(0, 1, 2.0)])
        keys, ws = _row(g, cover_vertex(0, 1))
        assert keys.tolist() == [cover_vertex(1, 2)]
        assert ws.tolist() == [2.0]
        keys, _ = _row(g, cover_vertex(0, 2))
        assert keys.tolist() == [cover_vertex(1, 1)]

    def test_directed_edge_lifts_once(self):
        g = Graph(2, [(0, 1)], directed=True)
        keys, _ = _row(g, cover_vertex(0, 1))
        assert keys.tolist() == [cover_vertex(1, 2)]
        keys, _ = _row(g, cover_vertex(0, 2))
        assert keys.tolist() == []

    @pytest.mark.parametrize(
        "directed, owner, nbrs, ws",
        [
            (False, [0, 0, 1, 1, 2, 2], [0, 2, 1, 5, 2, 4], [2, 3, 1, 3, 1, 2]),
            (True, [0, 0, 1, 2], [0, 2, 5, 4], [2, 3, 3, 5]),
        ],
        ids=["undirected", "directed"],
    )
    def test_rows_in_key_order(self, directed, owner, nbrs, ws):
        edges = [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0)] + [(2, 0, 5.0)] * directed
        g = Graph(3, edges, directed=directed)
        keys = np.array([cover_vertex(2, 2), cover_vertex(1, 1), cover_vertex(0, 2)])
        got_nbrs, got_ws, counts = cover_rows(g, keys)
        got_owner = np.repeat(np.arange(keys.size), counts)
        assert got_owner.tolist() == owner
        assert got_nbrs.tolist() == nbrs
        assert got_ws.tolist() == ws

    def test_degree_identity(self):
        rng = np.random.default_rng(0)
        g = random_undirected(rng, 8, weighted=True)
        for u in range(8):
            assert cover_degree(g, cover_vertex(u, 1)) == pytest.approx(g.degree(u))
            assert cover_degree(g, cover_vertex(u, 2)) == pytest.approx(g.degree(u))
        dg = random_directed(rng, 8, weighted=True)
        for u in range(8):
            assert cover_degree(dg, cover_vertex(u, 1)) == pytest.approx(dg.degrees[u])
            assert cover_degree(dg, cover_vertex(u, 2)) == pytest.approx(dg.in_degrees[u])

    def test_invalid_cover_vertex(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            cover_degree(g, 4)
        with pytest.raises(ValueError):
            cover_vertex(0, 3)
        with pytest.raises(ValueError, match="side must be 1 or 2"):
            cover_vertex(0, 1.0)


class TestConductanceInCover:
    def test_single_edge_singleton(self):
        g = Graph(2, [(0, 1)])
        assert conductance_in_cover(g, {cover_vertex(0, 1)}) == 1.0
        assert dense_cover_conductance(g, {cover_vertex(0, 1)}) == 1.0

    def test_dense_pair_identity_undirected(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            g = random_undirected(rng, n, weighted=True)
            l, r = random_disjoint_pair(rng, n)
            try:
                beta = bipartiteness(g, l, r)
            except ValueError:
                continue
            s = pair_to_cover_set(l, r)
            phi = conductance_in_cover(g, s)
            assert phi == pytest.approx(beta, abs=1e-12)
            assert dense_cover_conductance(g, s) == pytest.approx(beta, abs=1e-12)

    def test_flow_identity_directed(self):
        rng = np.random.default_rng(43)
        checked = 0
        while checked < 50:
            n = int(rng.integers(3, 12))
            g = random_directed(rng, n, weighted=True)
            l, r = random_disjoint_pair(rng, n)
            s = pair_to_cover_set(l, r)
            try:
                f = flow_ratio(g, l, r)
            except ValueError:
                continue
            vol = sum(cover_degree(g, key) for key in s)
            if vol > total_cover_volume(g) / 2:
                continue  # identity regime: the set side is the smaller one
            assert conductance_in_cover(g, s) == pytest.approx(f, abs=1e-12)
            assert dense_cover_conductance(g, s) == pytest.approx(f, abs=1e-12)
            checked += 1

    def test_identities_exhaustive_small(self):
        # every (L, R) assignment on 5- and 6-vertex graphs, both directions
        import itertools

        rng = np.random.default_rng(44)
        for n in (5, 6):
            und = random_undirected(rng, n, p=0.5, weighted=True)
            dg = random_directed(rng, n, p=0.4, weighted=True)
            for assign in itertools.product((0, 1, 2), repeat=n):
                l = [v for v, a in enumerate(assign) if a == 1]
                r = [v for v, a in enumerate(assign) if a == 2]
                s = pair_to_cover_set(l, r)
                try:
                    beta = bipartiteness(und, l, r)
                except ValueError:
                    beta = None
                if beta is not None:
                    assert conductance_in_cover(und, s) == pytest.approx(beta, abs=1e-12)
                    assert dense_cover_conductance(und, s) == pytest.approx(beta, abs=1e-12)
                try:
                    f = flow_ratio(dg, l, r)
                except ValueError:
                    continue
                vol = sum(cover_degree(dg, key) for key in s)
                if 0 < vol <= total_cover_volume(dg) / 2:
                    assert conductance_in_cover(dg, s) == pytest.approx(f, abs=1e-12)
                    assert dense_cover_conductance(dg, s) == pytest.approx(f, abs=1e-12)

    def test_empty_rejected(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            conductance_in_cover(g, set())

    def test_volume_identities(self):
        rng = np.random.default_rng(5)
        g = random_undirected(rng, 10, weighted=True)
        s = [1, 3, 4]
        vol = g.volume(s)
        s1 = pair_to_cover_set(s, [])
        s2 = pair_to_cover_set([], s)
        assert sum(cover_degree(g, k) for k in s1) == pytest.approx(vol)
        assert sum(cover_degree(g, k) for k in s2) == pytest.approx(vol)
        assert total_cover_volume(g) == pytest.approx(2 * g.total_volume())


class TestSimpleSets:
    def test_pair_round_trip(self):
        s = pair_to_cover_set([0, 3], [1])
        l, r = to_cluster_pair(s)
        assert l.tolist() == [0, 3]
        assert r.tolist() == [1]
        assert pair_to_cover_set(l, r) == s
        assert is_simple(s)

    def test_doubled_vertex_not_simple(self):
        assert not is_simple({cover_vertex(0, 1), cover_vertex(0, 2)})

    def test_cleanup_simple_input_unchanged(self):
        s = pair_to_cover_set([0, 2], [1])
        assert epsilon_simple_cleanup(s) == s

    def test_cleanup_drops_doubled(self):
        s = {cover_vertex(0, 1), cover_vertex(0, 2), cover_vertex(1, 1)}
        assert epsilon_simple_cleanup(s) == {cover_vertex(1, 1)}

    def test_cleanup_output_always_simple(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            keys = {int(k) for k in rng.integers(0, 2 * n, size=rng.integers(1, 2 * n))}
            assert is_simple(epsilon_simple_cleanup(keys))

    def test_epsilon_matches_brute_force_recount(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            g = random_directed(rng, n, p=0.4, weighted=True)
            keys = {int(k) for k in rng.integers(0, 2 * n, size=rng.integers(1, 2 * n))}
            vol_s = sum(cover_degree(g, key) for key in keys)
            if vol_s <= 0:
                continue
            eps_module = sum(cover_degree(g, key) for key in doubled_part(keys)) / vol_s
            recount = 0.0
            for base in range(n):
                if 2 * base in keys and 2 * base + 1 in keys:
                    recount += g.degrees[base] + g.in_degrees[base]
            assert eps_module == pytest.approx(recount / vol_s, abs=1e-15)

    def test_cleanup_bound_on_random_instances(self):
        # boundary-fraction form: phi(S') <= (phi(S) + eps) / (1 - eps)
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 40:
            n = int(rng.integers(3, 9))
            g = random_directed(rng, n, p=0.4, weighted=True)
            keys = {int(k) for k in rng.integers(0, 2 * n, size=rng.integers(2, 2 * n))}
            cut_s, vol_s = cover_cut_and_volume(g, keys)
            clean = epsilon_simple_cleanup(keys)
            cut_c, vol_c = cover_cut_and_volume(g, clean)
            if vol_s <= 0 or vol_c <= 0:
                continue
            p = doubled_part(keys)
            eps = sum(cover_degree(g, k) for k in p) / vol_s
            if eps >= 1:
                continue
            assert cut_c / vol_c <= (cut_s / vol_s + eps) / (1 - eps) + 1e-12
            checked += 1
