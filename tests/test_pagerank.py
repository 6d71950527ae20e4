import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pairclust
from pairclust import (
    AprState,
    Graph,
    approximate_pagerank_dc,
    bipartiteness,
    brute_force_min_conductance,
    exact_pagerank,
    loc_bipart_dc,
    simplify,
    sweep_cut,
    theorem1_beta_hat,
)
from pairclust.cover import cover_cut_and_volume
from pairclust.oracle import dcpush, dense_walk_matrix
from helpers import dense_to_mass, mass_to_dense, random_undirected


def _positive_degree_vertex(g):
    return int(np.flatnonzero(g.degrees > 0)[0])


class TestDcpush:
    def test_single_edge_hand_example(self):
        g = Graph(2, [(0, 1)])
        state = AprState(g, 0, alpha=0.5, epsilon=1e-3)
        dcpush(state, 0, 1)
        assert state.p[0] == 0.5
        assert state.r[0] == 0.25
        assert state.r[3] == 0.25  # side-2 copy of the neighbor

    def test_mass_conserved_per_push(self):
        rng = np.random.default_rng(1)
        g = random_undirected(rng, 8, weighted=True)
        state = AprState(g, 0, alpha=0.2, epsilon=1e-4)

        def total(st):
            return sum(st.p.values()) + sum(st.r.values())

        state.run(on_push=lambda st: None)
        assert total(state) == pytest.approx(1.0, abs=1e-9)

    def test_zero_residual_is_programming_error(self):
        g = Graph(2, [(0, 1)])
        state = AprState(g, 0, alpha=0.5, epsilon=1e-3)
        with pytest.raises(ValueError, match="positive residual"):
            dcpush(state, 1, 1)
        # the check is not an assert, so `python -O` keeps it
        code = (
            "from pairclust import AprState, Graph\n"
            "from pairclust.oracle import dcpush\n"
            "dcpush(AprState(Graph(2, [(0, 1)]), 0, alpha=0.5, epsilon=1e-3), 1, 1)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(pairclust.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
        )
        assert "ValueError: dcpush requires positive residual" in done.stderr

    @pytest.mark.parametrize("u, side", [(1, 0), (0, 3), (1, 1.0), (0, 2.0)])
    def test_side_outside_one_two_rejected(self, u, side):
        # 2*u + side - 1 would name another copy that holds residual: keys 1 and 2
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        state = AprState(g, 1, 0.1, 1e-3)
        dcpush(state, 1, 1)
        with pytest.raises(ValueError, match="side must be 1 or 2"):
            dcpush(state, u, side)
        assert state.push_count == 1

    def test_invariant_preserved_against_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            n = int(rng.integers(4, 10))
            g = random_undirected(rng, n, weighted=True)
            alpha = float(rng.uniform(0.1, 0.9))
            seed = 0
            if g.degree(seed) == 0:
                continue
            chi = np.zeros(2 * n)
            chi[2 * seed] = 1.0
            pr_chi = exact_pagerank(g, True, alpha, chi)
            state = AprState(g, seed, alpha, 1e-3)

            def check(st):
                p = mass_to_dense(st.p, 2 * n)
                r = mass_to_dense(st.r, 2 * n)
                residual_pr = exact_pagerank(g, True, alpha, r)
                assert np.abs(p + residual_pr - pr_chi).max() < 1e-8

            state.run(on_push=check)


class TestApproximatePagerank:
    def test_termination_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(4, 14))
            g = random_undirected(rng, n, weighted=True)
            seed = _positive_degree_vertex(g)
            epsilon = float(rng.uniform(5e-4, 5e-3))
            p, r = approximate_pagerank_dc(g, seed, 0.15, epsilon)
            for key, val in r.items():
                assert val / g.degree(key >> 1) < epsilon
            # sparse vectors never store zeros
            assert all(val > 0.0 for val in p.values())
            assert all(val > 0.0 for val in r.values())

    def test_support_volume_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(4, 16))
            g = random_undirected(rng, n, weighted=True)
            alpha = float(rng.uniform(0.05, 0.9))
            epsilon = float(rng.uniform(1e-4, 1e-2))
            state = AprState(g, _positive_degree_vertex(g), alpha, epsilon).run()
            _, support_volume = cover_cut_and_volume(g, state.p)
            assert support_volume <= 1.0 / (epsilon * alpha)
            assert state.pushed_degree_total <= 1.0 / (epsilon * alpha)

    def test_oracle_agreement_at_termination(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            n = int(rng.integers(4, 12))
            g = random_undirected(rng, n, weighted=True)
            alpha = 0.25
            p, r = approximate_pagerank_dc(g, 1, alpha, 1e-4)
            chi = np.zeros(2 * n)
            chi[2] = 1.0
            lhs = mass_to_dense(p, 2 * n) + exact_pagerank(g, True, alpha, mass_to_dense(r, 2 * n))
            rhs = exact_pagerank(g, True, alpha, chi)
            assert np.abs(lhs - rhs).max() < 1e-8

    def test_degree_zero_seed_rejected(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError, match="degree 0"):
            approximate_pagerank_dc(g, 2, 0.5, 1e-3)

    def test_directed_graph_rejected(self):
        g = Graph(2, [(0, 1)], directed=True)
        with pytest.raises(ValueError):
            approximate_pagerank_dc(g, 0, 0.5, 1e-3)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), 0.0])
    def test_epsilon_not_finite_and_positive_rejected(self, epsilon):
        # nan and inf used to make no push and return an empty p
        with pytest.raises(ValueError, match="epsilon must be finite and positive"):
            AprState(Graph(2, [(0, 1)]), 0, 0.5, epsilon)


class TestSimplify:
    def test_equal_masses_cancel(self):
        assert simplify({0: 0.5, 1: 0.5}) == {}

    def test_difference_kept(self):
        assert simplify({0: 0.7, 1: 0.2}) == {0: pytest.approx(0.5)}

    def test_support_is_simple(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            p = {int(k): float(rng.uniform(0, 1)) for k in rng.integers(0, 20, size=12)}
            sp = simplify(p)
            for key in sp:
                assert (key ^ 1) not in sp
                assert sp[key] <= p.get(key, 0.0) + 1e-15

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            simplify({0: -0.1})

    def test_walk_commutation_law_on_double_cover(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            g = random_undirected(rng, n, weighted=True)
            w = dense_walk_matrix(g, cover=True)
            p = rng.uniform(0, 1, size=2 * n)
            lhs = mass_to_dense(simplify(dense_to_mass(p @ w)), 2 * n)
            rhs = mass_to_dense(simplify(dense_to_mass(p)), 2 * n) @ w
            assert np.all(lhs <= rhs + 1e-12)

    def test_walk_commutation_fails_on_semi_double_cover(self):
        # single arc a->b: masses (0.5, 0.5) on a's copies give 0.25 > 0 at b2
        g = Graph(2, [(0, 1)], directed=True)
        w = dense_walk_matrix(g, cover=True)
        p = np.array([0.5, 0.5, 0.0, 0.0])
        lhs = mass_to_dense(simplify(dense_to_mass(p @ w)), 4)
        rhs = mass_to_dense(simplify(dense_to_mass(p)), 4) @ w
        assert lhs[3] == 0.25
        assert rhs[3] == 0.0


class TestSweepCut:
    def test_finds_perfect_bipartite_component(self):
        # 4-cycle disconnected from a triangle blob
        g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)])
        p, _ = approximate_pagerank_dc(g, 0, 0.05, 1e-4)
        pair = sweep_cut(g, simplify(p), beta_target=0.0)
        assert pair is not None
        assert pair.beta == 0.0
        assert sorted(pair.l.tolist() + pair.r.tolist()) == [0, 1, 2, 3]

    def test_scaling_masses_keeps_result(self):
        rng = np.random.default_rng(8)
        g = random_undirected(rng, 10, p=0.4, weighted=True)
        p, _ = approximate_pagerank_dc(g, 0, 0.1, 1e-4)
        sp = simplify(p)
        if not sp:
            pytest.skip("simplified vector empty for this instance")
        a = sweep_cut(g, sp, beta_target=2.0)
        scaled = {k: 3.7 * v for k, v in sp.items()}
        b = sweep_cut(g, scaled, beta_target=2.0)
        assert a is not None and b is not None
        assert a.l.tolist() == b.l.tolist()
        assert a.r.tolist() == b.r.tolist()
        assert a.sweep_index == b.sweep_index

    def test_requires_simplified_vector(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ValueError, match="simplified"):
            sweep_cut(g, {0: 0.4, 1: 0.3}, beta_target=1.0)

    @pytest.mark.parametrize("key", [8, -1])
    def test_key_outside_cover_rejected(self, key):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(ValueError, match=rf"cover vertex {key} out of range \[0, 8\)"):
            sweep_cut(g, {key: 1.0}, beta_target=0.9)

    def test_tie_break_by_base_then_side(self):
        # equal mass/degree everywhere: prefix order is base ascending, side 1 first
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        p = {2 * 3 + 1: 0.25, 2 * 1: 0.25, 2 * 0: 0.25, 2 * 2 + 1: 0.25}
        pair = sweep_cut(g, p, beta_target=1.0)
        assert pair is not None and pair.sweep_index == 1
        assert pair.l.tolist() == [0] and pair.r.tolist() == []

    def test_sweep_not_better_than_exhaustive_minimum(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(4, 8))
            g = random_undirected(rng, n, p=0.5)
            p, _ = approximate_pagerank_dc(g, _positive_degree_vertex(g), 0.1, 1e-3)
            sp = simplify(p)
            if not sp:
                continue
            pair = sweep_cut(g, sp, beta_target=2.0, best=True)
            if pair is None:
                continue
            _, best_phi = brute_force_min_conductance(g, cover=True)
            assert pair.beta >= best_phi - 1e-12

    def test_not_found_distinct_from_error(self):
        g = Graph(3, [(0, 1), (1, 2), (2, 0)])
        p, _ = approximate_pagerank_dc(g, 0, 0.5, 1e-3)
        sp = simplify(p)
        assert sweep_cut(g, sp, beta_target=1e-9) is None


class TestLocBipartDc:
    def test_returned_pair_contract(self):
        rng = np.random.default_rng(10)
        found = 0
        for trial in range(30):
            n = int(rng.integers(4, 16))
            g = random_undirected(rng, n, p=0.4, weighted=trial % 2 == 0)
            u = int(rng.integers(n))
            if g.degree(u) == 0:
                continue
            beta_hat = float(rng.uniform(0.2, 1.0))
            pair = loc_bipart_dc(g, u, gamma=50.0, beta_hat=beta_hat, best_sweep=trial % 3 == 0)
            if pair is None:
                continue
            found += 1
            assert bipartiteness(g, pair.l, pair.r) <= beta_hat
            assert not set(pair.l.tolist()) & set(pair.r.tolist())
            assert pair.beta == pytest.approx(bipartiteness(g, pair.l, pair.r), abs=1e-15)
        assert found > 5

    def test_volume_within_support_bound(self):
        rng = np.random.default_rng(11)
        g = random_undirected(rng, 20, p=0.3)
        gamma = 40.0
        beta_hat = 0.8
        pair = loc_bipart_dc(g, 0, gamma, beta_hat)
        if pair is None:
            pytest.skip("no pair for this instance")
        alpha = beta_hat**2 / 378.0
        epsilon = 1.0 / (20.0 * gamma)
        assert pair.volume <= 1.0 / (epsilon * alpha) + 1e-9

    def test_theorem_convention_helper(self):
        assert theorem1_beta_hat(1e-5) == pytest.approx((7560e-5) ** 0.5)
        beta = 1e-5
        assert theorem1_beta_hat(beta) ** 2 / 378.0 == pytest.approx(20 * beta)

    def test_oversized_beta_hat_rejected_without_alpha(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ValueError, match="alpha"):
            loc_bipart_dc(g, 0, gamma=10.0, beta_hat=25.0)

    def test_gamma_whose_epsilon_overflows_rejected(self):
        # 1/(20*gamma) is inf here; it used to run no push and return None
        with pytest.raises(ValueError, match="gamma=1e-320"):
            loc_bipart_dc(Graph(2, [(0, 1)]), 0, gamma=1e-320, beta_hat=0.5, alpha=0.5)

    def test_invalid_parameters(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            loc_bipart_dc(g, 0, gamma=0.0, beta_hat=0.5)
        with pytest.raises(ValueError):
            loc_bipart_dc(g, 0, gamma=1.0, beta_hat=-0.5)
        with pytest.raises(ValueError):
            loc_bipart_dc(g, 0, gamma=1.0, beta_hat=0.5, alpha=1.5)


def test_locality_no_work_outside_component():
    # seed's component is tiny; a large disconnected blob must stay untouched
    rng = np.random.default_rng(12)
    comp = random_undirected(rng, 12, p=0.5)
    blob_edges = [(12 + i, 12 + (i + 1) % 500) for i in range(500)]
    edges = []
    for u in range(comp.n):
        ids, ws = comp.neighbors(u)
        edges.extend((u, int(v), float(w)) for v, w in zip(ids, ws) if v > u)
    g = Graph(512, edges + blob_edges)
    state = AprState(g, 0, 0.2, 1e-5).run()
    touched = {key >> 1 for key in state.keys.tolist()}
    assert touched <= set(range(12))
