import numpy as np
import pytest

from pairclust import (
    EspState,
    Graph,
    cover_vertex,
    esp_step,
    evo_cut_directed,
    exact_esp_kernel,
    flow_ratio,
    generate_sample,
    pair_to_cover_set,
    steps_for_target_flow,
    total_cover_volume,
)
from pairclust.cover import cover_cut_and_volume, cover_degree, cover_rows
from helpers import clone_state, esp_state_from_set, random_directed


def small_digraph():
    return Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (0, 2)], directed=True)


class TestEspStep:
    def test_full_cover_is_absorbing(self):
        g = Graph(3, [(0, 1), (1, 2), (2, 0)], directed=True)
        everything = set(range(2 * g.n))
        rng = np.random.default_rng(0)
        state = esp_state_from_set(g, everything, rng)
        for _ in range(20):
            esp_step(state, rng)
            assert state.members == everything

    def test_interior_vertices_never_leave(self):
        # a vertex with all cover neighbors inside has Q = 1 under the lazy walk
        g = small_digraph()
        rng = np.random.default_rng(1)
        state = esp_state_from_set(g, set(range(2 * g.n)) - {cover_vertex(3, 1)}, rng)
        keys = sorted(state.members)
        nbrs, _, owner = cover_rows(g, np.array(keys))
        leaky = {keys[i] for i, nb in zip(owner.tolist(), nbrs.tolist()) if nb not in state.members}
        interior = state.members - leaky
        for _ in range(30):
            esp_step(state, rng)
            assert interior <= state.members

    def test_coupling_invariant_every_step(self):
        g = small_digraph()
        rng = np.random.default_rng(2)
        state = EspState.from_seed(g, cover_vertex(0, 1))
        for _ in range(200):
            esp_step(state, rng)
            assert state.walker in state.members

    def test_growth_is_one_hop_per_step(self):
        g = random_directed(np.random.default_rng(5), 12, p=0.25)
        rng = np.random.default_rng(3)
        state = EspState.from_seed(g, cover_vertex(0, 1))
        for _ in range(60):
            before = set(state.members)
            reachable = before | set(cover_rows(g, np.array(sorted(before)))[0].tolist())
            esp_step(state, rng)
            assert state.members <= reachable

    def test_incremental_stats_match_direct_scan(self):
        g = random_directed(np.random.default_rng(7), 10, p=0.3, weighted=True)
        rng = np.random.default_rng(8)
        state = EspState.from_seed(g, cover_vertex(0, 1))
        for _ in range(80):
            esp_step(state, rng)
            cut, vol = cover_cut_and_volume(g, state.members)
            assert state.vol == pytest.approx(vol, rel=1e-9)
            incremental_cut = sum(cover_degree(g, k) - state.nbr_mass[k] for k in state.members)
            assert incremental_cut == pytest.approx(cut, rel=1e-9, abs=1e-9)

    def test_empirical_step_matches_exact_kernel(self):
        g = small_digraph()
        start = pair_to_cover_set([0], [1])
        _, k_hat = exact_esp_kernel(g, start)
        rng = np.random.default_rng(9)
        base = esp_state_from_set(g, start, rng)
        ordered = sorted(start)
        cum = np.cumsum([cover_degree(g, key) for key in ordered])
        counts: dict = {}
        samples = 20000
        for _ in range(samples):
            state = clone_state(base)
            state.walker = ordered[int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))]
            esp_step(state, rng)
            key = frozenset(state.members)
            counts[key] = counts.get(key, 0) + 1
        tv = 0.5 * sum(abs(counts.get(s, 0) / samples - p) for s, p in k_hat.items())
        tv += 0.5 * sum(c / samples for s, c in counts.items() if s not in k_hat)
        assert tv < 0.02


class TestGenerateSample:
    def test_zero_steps_returns_seed(self):
        g = small_digraph()
        rng = np.random.default_rng(0)
        assert generate_sample(g, cover_vertex(0, 1), 0, rng) == frozenset({cover_vertex(0, 1)})

    def test_invalid_seed_rejected(self):
        g = Graph(2, [(0, 1)], directed=True)
        with pytest.raises(ValueError):
            generate_sample(g, cover_vertex(0, 2), 3, np.random.default_rng(0))

    @pytest.mark.parametrize("t", [1.5, float("inf"), None])
    def test_non_integer_step_count_rejected(self, t):
        with pytest.raises(ValueError, match="t must be an integer"):
            generate_sample(small_digraph(), cover_vertex(0, 1), t, np.random.default_rng(0))

    def test_numpy_integer_step_count_accepted(self):
        g = small_digraph()
        a = generate_sample(g, cover_vertex(0, 1), np.int64(5), np.random.default_rng(3))
        assert a == generate_sample(g, cover_vertex(0, 1), 5, np.random.default_rng(3))

    def test_determinism_under_fixed_seed(self):
        g = random_directed(np.random.default_rng(11), 15, p=0.2)
        a = generate_sample(g, cover_vertex(0, 1), 12, np.random.default_rng(123))
        b = generate_sample(g, cover_vertex(0, 1), 12, np.random.default_rng(123))
        assert a == b

    def test_path_conductance_bound_statistical(self):
        # min conductance along the trajectory beats 3*sqrt(4/T * ln vol) for
        # at least 8 of 9 runs; T is chosen large enough that the bound is
        # below 1 and the check is not vacuous. The test steps the process
        # itself, because a sample returns only its final set.
        # The graph is a dense planted pair (0-11 -> 12-23) wired both ways
        # into a random digraph (24-53). Its semi-double cover is connected,
        # so no set short of the whole cover has zero cut: every run's
        # minimum stays positive and must be earned by finding the pair.
        rng = np.random.default_rng(42)
        arcs = []
        for u in range(12):
            for v in range(12, 24):
                if rng.random() < 0.6:
                    arcs.append((u, v))
        for u in range(24, 54):
            for v in range(24, 54):
                if u != v and rng.random() < 0.15:
                    arcs.append((u, v))
        for i in range(4):
            arcs += [(24 + i, i), (12 + i, 30 + i), (i, 40 + i), (50 - i, 12 + i)]
        g = Graph(54, arcs, directed=True)
        t = 500
        total = total_cover_volume(g)
        bound = 3.0 * np.sqrt(4.0 / t * np.log(total))

        def conductance(members):
            cut, vol = cover_cut_and_volume(g, members)
            denom = min(vol, total - vol)
            return cut / denom if denom > 0 else np.inf

        assert bound < 1.0
        minima = []
        runs = 45
        for _ in range(runs):
            state = EspState.from_seed(g, cover_vertex(int(rng.integers(12)), 1))
            best = conductance(state.members)
            for _ in range(t):
                esp_step(state, rng)
                best = min(best, conductance(state.members))
            minima.append(best)
        assert min(minima) > 0.0
        hits = sum(best <= bound for best in minima)
        assert hits / runs >= 8.0 / 9.0


class TestStepsForTargetFlow:
    def test_clamped_to_one(self):
        assert steps_for_target_flow(0.5) == 1
        assert steps_for_target_flow(1.0) == 1

    def test_formula_regime(self):
        assert steps_for_target_flow(1e-4) == 4
        assert steps_for_target_flow(5e-5) == 7
        assert steps_for_target_flow(1e-5) == 21

    def test_invalid(self):
        with pytest.raises(ValueError):
            steps_for_target_flow(0.0)
        with pytest.raises(ValueError):
            steps_for_target_flow(1.5)


class TestEvoCutDirected:
    def test_output_is_simple_and_recomputed(self):
        rng = np.random.default_rng(3)
        found = 0
        for trial in range(30):
            g = random_directed(np.random.default_rng(trial), 14, p=0.25, weighted=trial % 2 == 0)
            u = int(np.flatnonzero(g.degrees > 0)[0])
            pair = evo_cut_directed(g, u, 1, 0.1, rng, steps=4)
            if pair is None:
                continue
            found += 1
            assert not set(pair.l.tolist()) & set(pair.r.tolist())
            assert pair.flow == pytest.approx(flow_ratio(g, pair.l, pair.r), abs=1e-15)
        assert found > 10

    def test_requires_directed(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            evo_cut_directed(g, 0, 1, 0.1, np.random.default_rng(0))

    def test_side_validation(self):
        g = small_digraph()
        with pytest.raises(ValueError):
            evo_cut_directed(g, 0, 3, 0.1, np.random.default_rng(0))
        for side in (1.0, 2.0):  # a float side used to fail deep in the cover with a TypeError
            with pytest.raises(ValueError, match="side must be 1 or 2"):
                evo_cut_directed(g, 0, side, 0.1, np.random.default_rng(0))

    def test_both_skips_degree_zero_side(self):
        # vertex 0 has out-arcs but no in-arcs, so its side-2 copy is isolated;
        # vertex 4 has no arcs at all, so "both" has no side to run
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 1)], directed=True)
        both = evo_cut_directed(g, 0, "both", 0.1, np.random.default_rng(4), steps=5, attempts=3)
        one = evo_cut_directed(g, 0, 1, 0.1, np.random.default_rng(4), steps=5, attempts=3)
        assert both is not None and one is not None
        assert both.l.tolist() == one.l.tolist() and both.r.tolist() == one.r.tolist()
        assert both.flow == one.flow
        with pytest.raises(ValueError, match="degree 0"):
            evo_cut_directed(g, 0, 2, 0.1, np.random.default_rng(4), steps=5)
        assert evo_cut_directed(g, 4, "both", 0.1, np.random.default_rng(4)) is None

    @pytest.mark.parametrize("side", [1, 2, "both"])
    @pytest.mark.parametrize("u", [-1, 4])
    def test_seed_vertex_out_of_range(self, side, u):
        # the error names the seed vertex, not its cover key
        with pytest.raises(ValueError, match=rf"seed vertex {u} outside \[0, 4\)"):
            evo_cut_directed(small_digraph(), u, side, 0.1, np.random.default_rng(0), steps=3)

    def test_attempts_validation(self):
        g = small_digraph()
        for attempts in (0, -1):
            with pytest.raises(ValueError, match="attempts"):
                evo_cut_directed(g, 0, "both", 0.1, np.random.default_rng(0), attempts=attempts)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"steps": 2.5}, "steps"),
            ({"steps": float("nan")}, "steps"),
            ({"steps": 2.0}, "steps"),
            ({"attempts": 2.5}, "attempts"),
            ({"attempts": "2"}, "attempts"),
        ],
    )
    def test_non_integer_counts_rejected(self, kwargs, name):
        # these used to fail in range() with a TypeError
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            evo_cut_directed(small_digraph(), 0, 1, 0.1, np.random.default_rng(0), **kwargs)

    def test_numpy_integer_counts_accepted(self):
        g = small_digraph()
        a = evo_cut_directed(g, 0, 1, 0.1, np.random.default_rng(7), steps=3, attempts=2)
        b = evo_cut_directed(
            g, 0, 1, 0.1, np.random.default_rng(7), steps=np.int64(3), attempts=np.int32(2)
        )
        assert (a is None) == (b is None)
        if a is not None:
            assert a.l.tolist() == b.l.tolist() and a.r.tolist() == b.r.tolist()

    def test_determinism(self):
        g = random_directed(np.random.default_rng(5), 20, p=0.2)
        a = evo_cut_directed(g, 0, 1, 0.1, np.random.default_rng(7), steps=6)
        b = evo_cut_directed(g, 0, 1, 0.1, np.random.default_rng(7), steps=6)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.l.tolist() == b.l.tolist()
            assert a.r.tolist() == b.r.tolist()
            assert a.flow == b.flow
