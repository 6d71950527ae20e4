import sys
import threading
from unittest import mock

import numpy as np
import pytest

from pairclust import esp
from pairclust import (
    AprState,
    EspState,
    Graph,
    bipartiteness,
    cover_vertex,
    esp_step,
    evo_cut_directed,
    exact_esp_kernel,
    flow_ratio,
    generate_sample,
    loc_bipart_dc,
    steps_for_target_flow,
    sweep_cut,
    to_cluster_pair,
    total_cover_volume,
)
from pairclust.cover import cover_cut_and_volume, cover_degree, cover_rows
from pairclust.generators import CbmPlusSpec, SbmSpec, gen_cbm_plus, gen_sbm
from pairclust.graph import give_back_key_index
from pairclust.oracle import epsilon_simple_cleanup, pair_to_cover_set
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
        nbrs, _, counts = cover_rows(g, np.array(keys))
        owner = np.repeat(np.arange(len(keys)), counts)
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
        s = generate_sample(g, cover_vertex(0, 1), 0, rng)
        assert s.dtype == np.int64 and s.tolist() == [cover_vertex(0, 1)]

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
        b = generate_sample(g, cover_vertex(0, 1), 5, np.random.default_rng(3))
        assert a.tolist() == b.tolist()

    def test_determinism_under_fixed_seed(self):
        g = random_directed(np.random.default_rng(11), 15, p=0.2)
        a = generate_sample(g, cover_vertex(0, 1), 12, np.random.default_rng(123))
        b = generate_sample(g, cover_vertex(0, 1), 12, np.random.default_rng(123))
        assert a.tolist() == b.tolist()

    @pytest.mark.parametrize("array_form", [False, True])
    def test_returns_the_final_members_as_sorted_keys(self, array_form):
        # the sample is the stepped state's member set, as a strictly increasing int64 array;
        # 16-vertex digraphs never track 128 keys, the CBM+ samples reach the array form
        cbm = gen_cbm_plus(CbmPlusSpec(k=3, n=300, n_prime=30), 3)[0]
        for trial in range(8):
            if array_form:
                g, seed_key = cbm, cover_vertex(900 + trial, 1 + trial % 2)
            else:
                g = random_directed(np.random.default_rng(trial), 16, p=0.2, weighted=trial % 2 == 1)
                seed_key = cover_vertex(int(np.flatnonzero(g.degrees * g.in_degrees)[0]), 1 + trial % 2)
            t = 6 + trial % 5
            s = generate_sample(g, seed_key, t, np.random.default_rng(trial))
            state, rng = EspState.from_seed(g, seed_key), np.random.default_rng(trial)
            for _ in range(t):
                esp_step(state, rng)
            assert (state._members is None) == array_form
            if array_form:
                give_back_key_index(g, state.nbr_mass.index, state.nbr_mass.ids)
            assert s.dtype == np.int64 and s.ndim == 1
            assert (np.diff(s) > 0).all()
            assert s.tolist() == sorted(state.members)

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

    def test_derived_count_above_the_limit_names_phi(self):
        # phi = 1e-30 used to ask for about 10**18 steps and run until killed
        assert steps_for_target_flow(1e-11) < esp._MAX_DERIVED_STEPS
        with pytest.raises(ValueError, match=r"phi=1e-30 asks for 999999999999997440 .*steps"):
            steps_for_target_flow(1e-30)
        with pytest.raises(ValueError, match="phi=1e-30"):
            evo_cut_directed(small_digraph(), 0, "both", 1e-30, np.random.default_rng(0))

    def test_explicit_step_count_is_not_capped(self):
        a, b = (
            evo_cut_directed(small_digraph(), 0, "both", phi, np.random.default_rng(0), steps=3)
            for phi in (1e-30, 0.5)
        )
        assert (a.l.tolist(), a.r.tolist(), a.flow) == (b.l.tolist(), b.r.tolist(), b.flow)


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
        with pytest.raises(ValueError, match=rf"vertex id {u} out of range \[0, 4\)"):
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


def _seeded_samples():
    """(graph, sample) from seeded random digraphs, weighted and not; some hold doubled keys."""
    for trial in range(24):
        g = random_directed(np.random.default_rng(trial), 16, p=0.2, weighted=trial % 2 == 1)
        u = int(np.flatnonzero((g.degrees > 0) & (g.in_degrees > 0))[0])
        seed_key = cover_vertex(u, 1 + trial % 2)
        yield g, generate_sample(g, seed_key, 3 + trial % 5, np.random.default_rng(trial))


class TestCleanupBoundCheck:
    """The check rescans the sample only; the cleaned pair's side is its own flow ratio."""

    def test_violated_bound_raises(self):
        g = random_directed(np.random.default_rng(1), 16, p=0.2)
        assert evo_cut_directed(g, 0, 1, 0.1, np.random.default_rng(2), steps=4).flow > 0
        scan = esp.cover_cut_and_volume
        calls = []

        def cut_free(g, keys):  # S reads as having no boundary at its true volume
            calls.append(1)
            return 0.0, scan(g, keys)[1]

        with mock.patch.object(esp, "cover_cut_and_volume", cut_free):
            with pytest.raises(RuntimeError, match="cleanup bound violated"):
                evo_cut_directed(g, 0, 1, 0.1, np.random.default_rng(2), steps=4)
        assert calls == [1]  # one rescan per attempt: the sample's

    def test_flow_ratio_is_the_cleaned_sets_boundary_fraction(self):
        checked = 0
        for g, s in _seeded_samples():
            clean = epsilon_simple_cleanup(s)
            l, r = to_cluster_pair(clean)
            cut, vol = cover_cut_and_volume(g, clean)
            if vol <= 0:
                continue
            assert g._pair_volume(l, r) == vol
            assert abs(flow_ratio(g, l, r) - cut / vol) <= 1e-12
            checked += 1
        assert checked >= 15

    def test_array_drop_of_doubled_keys_is_the_cleanup(self):
        doubled = 0
        for g, s in _seeded_samples():
            split = mock.Mock(wraps=esp.to_cluster_pair)
            sample = mock.Mock(return_value=s)
            with mock.patch.multiple(esp, generate_sample=sample, to_cluster_pair=split):
                esp._sample_pair(g, 0, 1, None)
            clean = epsilon_simple_cleanup(s)
            assert (split.call_args.args[0].tolist() if split.called else []) == sorted(clean)
            doubled += len(clean) < len(s)
        assert doubled >= 3


class TestArrayFormMapping:
    def test_tracks_exactly_the_dict_keys(self):
        g = random_directed(np.random.default_rng(4), 12, p=0.3)
        top = 2 * g.n - 1
        by_dict = esp_state_from_set(g, {0, top - 1, top}, np.random.default_rng(5))
        by_array = clone_state(by_dict)
        esp._to_arrays(by_array)
        t, ref = by_array.nbr_mass, by_dict.nbr_mass
        assert {top - 1, top} <= ref.keys()  # a key that wraps around would hit a tracked one
        assert len(t) == len(ref)
        assert set(t) == set(ref)
        assert all(t[key] == mass for key, mass in ref.items())
        untracked = next(key for key in range(2 * g.n) if key not in ref)
        for key in (-1, -2, 2 * g.n, 2 * g.n + 5, 1.5, untracked):
            assert key not in t
            with pytest.raises(KeyError):
                t[key]
            assert by_array._lookup(key) == (0.0, 0.0)


def _pool_graph():
    """A small CBM+ digraph whose samples reach a few dozen keys in 10 steps."""
    return gen_cbm_plus(CbmPlusSpec(k=3, n=100, n_prime=20, p=0.02, q=0.05, q2_prime=0.1), 3)[0]


def _assert_pool_clean(g, most=1):
    assert len(g._key_indexes) <= most
    for index in g._key_indexes:
        assert index.shape == (2 * g.n,) and not index.any()


def _push_graph():
    """A small SBM whose push rounds gather several rows each."""
    return gen_sbm(SbmSpec(n1=20, p1=0.05, q1=0.8), 4)[0]


def _query_in_two_threads(query, seeds) -> list:
    """`query(seed)` for every seed, split over two threads switching every microsecond."""
    results = {}

    def worker(own):
        for seed in own:
            results[seed] = query(seed)

    threads = [threading.Thread(target=worker, args=(seeds[k::2],)) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return [results.get(seed) for seed in seeds]


class TestKeyIndexPool:
    """Every query gives its key index back all zero, on success and on failure alike."""

    def test_queries_leave_the_pool_zeroed(self):
        g = _pool_graph()
        l, r = np.arange(300, 320), np.arange(320, 340)
        with mock.patch.object(esp, "_VECTOR_MIN_KEYS", 0):  # every sample takes the array form
            generate_sample(g, cover_vertex(300, 1), 10, np.random.default_rng(1))
            assert len(g._key_indexes) == 1  # the sample borrowed and gave back
            _assert_pool_clean(g)
            rng = np.random.default_rng(2)
            pair = evo_cut_directed(g, 300, "both", 0.1, rng, steps=10, attempts=3)
        assert pair is not None
        _assert_pool_clean(g)
        for measure in (lambda: g.cut_weight(l, r), lambda: flow_ratio(g, l, r)):
            assert measure() > 0
            _assert_pool_clean(g)
        und = gen_sbm(SbmSpec(n1=20, p1=0.3, q1=0.5), 4)[0]
        assert bipartiteness(und, np.arange(20), np.arange(20, 40)) < 1
        _assert_pool_clean(und)

    def test_failed_sample_gives_its_index_back(self):
        g = _pool_graph()
        step = esp.esp_step
        calls = []

        def fail_at_third(state, rng):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("injected")
            return step(state, rng)

        with mock.patch.multiple(esp, esp_step=fail_at_third, _VECTOR_MIN_KEYS=0):
            with pytest.raises(RuntimeError, match="injected"):
                generate_sample(g, cover_vertex(300, 1), 10, np.random.default_rng(1))
        assert len(g._key_indexes) == 1  # the array-form state had borrowed one
        _assert_pool_clean(g)

    def test_sweeps_leave_the_pool_zeroed(self):
        g = _push_graph()
        assert loc_bipart_dc(g, 0, 200.0, 0.3, alpha=0.3) is not None
        assert len(g._key_indexes) == 1  # the sweep and the pair measures borrowed and gave back
        _assert_pool_clean(g)
        doubled = {cover_vertex(0, 1): 0.5, cover_vertex(1, 2): 0.25, cover_vertex(0, 2): 0.25}
        with pytest.raises(ValueError, match="requires a simplified mass vector"):
            sweep_cut(g, doubled, 0.5)
        _assert_pool_clean(g)

    def test_two_threads_on_one_graph_match_sequential_calls(self):
        g = _pool_graph()
        l, r = np.arange(300, 320), np.arange(320, 340)

        def query(seed):
            pair = evo_cut_directed(
                g, 300 + seed, "both", 0.1, np.random.default_rng(seed), steps=10, attempts=3
            )
            return pair.l.tolist(), pair.r.tolist(), pair.flow, g.cut_weight(l, r)

        seeds = range(6)
        with mock.patch.object(esp, "_VECTOR_MIN_KEYS", 0):
            expected = [query(seed) for seed in seeds]
            assert _query_in_two_threads(query, seeds) == expected
        _assert_pool_clean(g, most=2)

    def test_push_leaves_one_zeroed_index(self):
        g = _push_graph()
        state = AprState(g, 0, 0.1, 1e-3).run()
        assert state.push_count > 1
        assert len(g._key_indexes) == 1  # every round borrowed the same index and gave it back
        _assert_pool_clean(g)

    def test_failed_push_leaves_the_pool_zeroed(self):
        g = _push_graph()
        rounds = []

        def fail_at_third(state):
            rounds.append(1)
            if len(rounds) == 3:
                raise RuntimeError("injected")

        with pytest.raises(RuntimeError, match="injected"):
            AprState(g, 0, 0.1, 1e-3).run(on_push=fail_at_third)
        assert len(g._key_indexes) == 1
        _assert_pool_clean(g)

    def test_two_threads_pushing_on_one_graph_match_sequential_runs(self):
        g = _push_graph()

        def push(seed):
            state = AprState(g, seed, 0.1, 1e-3).run()
            return state.p, state.r

        seeds = range(0, 40, 5)  # both planted blocks
        expected = [push(seed) for seed in seeds]
        assert _query_in_two_threads(push, seeds) == expected
        _assert_pool_clean(g, most=2)
