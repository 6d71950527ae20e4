import numpy as np
import pytest

from pairclust import (
    Graph,
    bipartiteness,
    brute_force_best_pair,
    brute_force_min_conductance,
    conductance_in_cover,
    exact_esp_kernel,
    exact_pagerank,
    ls_curve,
    to_cluster_pair,
    total_cover_volume,
)
from pairclust.cover import cover_degree
from pairclust.oracle import dense_walk_matrix, pair_to_cover_set
from pairclust.pagerank import approximate_pagerank_dc, simplify
from helpers import random_connected_undirected, random_directed, random_undirected


class TestDenseWalkMatrix:
    def test_rows_are_stochastic(self):
        rng = np.random.default_rng(0)
        for directed in (False, True):
            g = (random_directed if directed else random_undirected)(rng, 7, weighted=True)
            w = dense_walk_matrix(g, cover=True)
            assert np.allclose(w.sum(axis=1), 1.0)
            assert np.all(w >= 0)

    def test_cover_is_bipartite_between_sides(self):
        g = random_undirected(np.random.default_rng(1), 6)
        w = dense_walk_matrix(g, cover=True)
        # off-diagonal mass from side-1 copies lands only on side-2 copies
        for u in range(6):
            row = w[2 * u].copy()
            row[2 * u] = 0.0
            assert row[0::2].sum() == 0.0


class TestExactPagerank:
    def test_alpha_one_returns_start(self):
        g = random_undirected(np.random.default_rng(2), 5)
        s = np.zeros(10)
        s[0] = 1.0
        assert np.allclose(exact_pagerank(g, True, 1.0, s), s)

    def test_mass_is_preserved(self):
        g = Graph(2, [(0, 1)])
        s = np.zeros(4)
        s[0] = 1.0
        vec = exact_pagerank(g, True, 0.3, s)
        assert vec.sum() == pytest.approx(1.0, abs=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        g = random_undirected(rng, 6, weighted=True)
        a = rng.uniform(0, 1, size=12)
        b = rng.uniform(0, 1, size=12)
        lhs = exact_pagerank(g, True, 0.2, a + b)
        rhs = exact_pagerank(g, True, 0.2, a) + exact_pagerank(g, True, 0.2, b)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_fixed_point_equation(self):
        rng = np.random.default_rng(4)
        g = random_undirected(rng, 6, weighted=True)
        w = dense_walk_matrix(g, cover=True)
        s = rng.uniform(0, 1, size=12)
        alpha = 0.35
        pr = exact_pagerank(g, True, alpha, s)
        assert np.abs(pr - (alpha * s + (1 - alpha) * pr @ w)).max() < 1e-10

    def test_base_graph_mode(self):
        rng = np.random.default_rng(12)
        g = random_undirected(rng, 7, weighted=True)
        s = np.zeros(7)
        s[0] = 1.0
        vec = exact_pagerank(g, False, 0.3, s)
        assert vec.shape == (7,)
        assert vec.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(exact_pagerank(g, False, 1.0, s), s)

    def test_size_guard(self):
        g = Graph(3000, [(0, 1)])
        with pytest.raises(ValueError, match="guard"):
            exact_pagerank(g, True, 0.5, np.zeros(6000))


class TestBruteForce:
    def test_four_cycle_best_pair(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        l, r, beta = brute_force_best_pair(g)
        assert beta == 0.0
        assert {frozenset(l.tolist()), frozenset(r.tolist())} == {
            frozenset({0, 2}),
            frozenset({1, 3}),
        }

    def test_triangle_best_pair(self):
        g = Graph(3, [(0, 1), (1, 2), (2, 0)])
        _, _, beta = brute_force_best_pair(g)
        assert beta == pytest.approx(1 / 3, abs=1e-12)

    def test_pair_and_cover_searches_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            g = random_connected_undirected(rng, n, p=0.4, weighted=True)
            _, _, beta = brute_force_best_pair(g)
            s, phi = brute_force_min_conductance(g, cover=True)
            assert phi == pytest.approx(beta, abs=1e-12)
            l, r = to_cluster_pair(s)
            assert bipartiteness(g, l, r) == pytest.approx(phi, abs=1e-12)

    def test_size_guard_is_an_error(self):
        g = Graph(9, [(i, i + 1) for i in range(8)])
        with pytest.raises(ValueError, match="guard"):
            brute_force_best_pair(g)
        with pytest.raises(ValueError, match="guard"):
            brute_force_min_conductance(g)


class TestExactEspKernel:
    def test_full_cover_absorbs(self):
        g = Graph(3, [(0, 1), (1, 2)], directed=True)
        everything = frozenset(range(6))
        k, k_hat = exact_esp_kernel(g, set(everything))
        assert k[everything] == pytest.approx(1.0)
        assert k_hat[everything] == pytest.approx(1.0)

    def test_rows_sum_to_one_and_volume_martingale(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            g = random_directed(rng, n, p=0.4, weighted=True)
            keys = {int(x) for x in rng.integers(0, 2 * n, size=rng.integers(1, n + 2))}
            vol = sum(cover_degree(g, key) for key in keys)
            if vol <= 0:
                continue
            k, k_hat = exact_esp_kernel(g, keys)
            assert sum(k.values()) == pytest.approx(1.0, abs=1e-10)
            assert sum(k_hat.values()) == pytest.approx(1.0, abs=1e-10)
            expected_vol = sum(
                p * sum(cover_degree(g, key) for key in succ) for succ, p in k.items()
            )
            assert expected_vol == pytest.approx(vol, abs=1e-10)

    def test_size_guard(self):
        g = Graph(20, [(0, 1)], directed=True)
        with pytest.raises(ValueError, match="guard"):
            exact_esp_kernel(g, {0})


class TestLsCurve:
    def _curve_for(self, rng, simplified=True):
        g = random_undirected(rng, 8, p=0.5, weighted=True)
        seed = int(np.flatnonzero(g.degrees > 0)[0])
        p, _ = approximate_pagerank_dc(g, seed, 0.2, 1e-3)
        if simplified:
            p = simplify(p)
        return g, p, ls_curve(p, g, cover=True)

    def test_endpoints(self):
        rng = np.random.default_rng(7)
        g, p, curve = self._curve_for(rng, simplified=False)
        assert curve(0.0) == 0.0
        assert curve(total_cover_volume(g)) == pytest.approx(sum(p.values()))

    def test_concavity(self):
        rng = np.random.default_rng(8)
        _, _, curve = self._curve_for(rng)
        slopes = np.diff(curve.ys) / np.diff(curve.xs)
        assert np.all(np.diff(slopes) <= 1e-12)

    def test_upper_bounds_set_mass(self):
        rng = np.random.default_rng(9)
        g, p, curve = self._curve_for(rng, simplified=False)
        for _ in range(100):
            keys = {int(x) for x in rng.integers(0, 2 * g.n, size=rng.integers(1, 2 * g.n))}
            mass = sum(p.get(key, 0.0) for key in keys)
            vol = sum(cover_degree(g, key) for key in keys)
            assert mass <= curve(vol) + 1e-12

    @pytest.mark.parametrize(
        "key, message", [(-1, "vertex id -1 out of range"), (1.5, "vertex id 1.5 is not an integer")]
    )
    def test_base_graph_keys_follow_the_id_rule(self, key, message):
        # -1 used to wrap to vertex 3 (xs [0, 2, 8]); 1.5 ended in numpy's IndexError
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(ValueError, match=message):
            ls_curve({key: 0.5}, g, cover=False)

    def test_out_of_range_query(self):
        rng = np.random.default_rng(10)
        g, _, curve = self._curve_for(rng)
        with pytest.raises(ValueError):
            curve(-1.0)
        with pytest.raises(ValueError):
            curve(total_cover_volume(g) + 1.0)


def test_cover_min_conductance_matches_direct_evaluation():
    rng = np.random.default_rng(11)
    g = random_connected_undirected(rng, 5, p=0.5)
    s, phi = brute_force_min_conductance(g, cover=True)
    assert conductance_in_cover(g, s) == pytest.approx(phi, abs=1e-15)
    l, r = to_cluster_pair(s)
    assert pair_to_cover_set(l, r) == set(s)
