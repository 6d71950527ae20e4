"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import time

import numpy as np

from pairclust import (
    AprState,
    Graph,
    bipartiteness,
    brute_force_best_pair,
    brute_force_min_conductance,
    conductance_in_cover,
    cover_degree,
    cover_vertex,
    esp_step,
    evo_cut_directed,
    exact_esp_kernel,
    exact_pagerank,
    flow_ratio,
    generate_sample,
    loc_bipart_dc,
    run_table1,
    run_table2,
    simplify,
    to_cluster_pair,
    total_cover_volume,
)
from pairclust.cover import cover_cut_and_volume
from pairclust.oracle import dense_walk_matrix, pair_to_cover_set
from helpers import (
    clone_state,
    dense_cover_conductance,
    doubled_part,
    esp_state_from_set,
    mass_to_dense,
    random_connected_undirected,
    random_directed,
    random_disjoint_pair,
    random_undirected,
)


def _report(num, description):
    print(f"ACCEPTANCE {num}: PASS - {description}")


def _positive_degree_vertex(g):
    return int(np.flatnonzero(g.degrees > 0)[0])


def test_criterion_1_reduction_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(101)

    for _ in range(200):
        n = int(rng.integers(3, 51))
        g = random_undirected(rng, n, p=min(0.9, 6.0 / n), weighted=True)
        while True:
            l, r = random_disjoint_pair(rng, n)
            if g.volume(np.concatenate([l, r])) > 0:
                break
        beta = bipartiteness(g, l, r)
        phi = conductance_in_cover(g, pair_to_cover_set(l, r))
        assert abs(phi - beta) <= 1e-12
        assert abs(dense_cover_conductance(g, pair_to_cover_set(l, r)) - beta) <= 1e-12

    checked = 0
    while checked < 200:
        n = int(rng.integers(3, 51))
        g = random_directed(rng, n, p=min(0.9, 4.0 / n), weighted=True)
        l, r = random_disjoint_pair(rng, n)
        s = pair_to_cover_set(l, r)
        vol = sum(cover_degree(g, key) for key in s)
        if vol <= 0 or vol > total_cover_volume(g) / 2:
            continue  # the identity's regime: the lifted set is the smaller side
        f = flow_ratio(g, l, r)
        phi = conductance_in_cover(g, s)
        assert abs(phi - f) <= 1e-12
        assert abs(dense_cover_conductance(g, s) - f) <= 1e-12
        checked += 1

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(1, f"cover reduction identities exact to 1e-12 on 400 graphs ({elapsed:.2f}s)")


def test_criterion_2_push_invariant_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    total_pushes = 0
    for _ in range(50):
        n = int(rng.integers(4, 21))
        g = random_undirected(rng, n, p=0.35, weighted=True)
        seed = _positive_degree_vertex(g)
        alpha = float(rng.uniform(0.1, 0.6))
        epsilon = float(rng.uniform(1e-3, 5e-3))
        dim = 2 * n
        basis = np.eye(dim)
        pr_rows = np.vstack([exact_pagerank(g, True, alpha, basis[i]) for i in range(dim)])
        pr_chi = pr_rows[2 * seed]

        def check(state):
            p = mass_to_dense(state.p, dim)
            r = mass_to_dense(state.r, dim)
            err = np.abs(p + r @ pr_rows - pr_chi).max()
            assert err <= 1e-8

        state = AprState(g, seed, alpha, epsilon).run(on_push=check)
        total_pushes += state.push_count

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(2, f"push invariant within 1e-8 of the dense solve after all {total_pushes} pushes ({elapsed:.2f}s)")


def test_criterion_3_apr_guarantees_and_locality():
    rng = np.random.default_rng(303)

    # residual and support-volume guarantees on every run
    for _ in range(30):
        n = int(rng.integers(5, 40))
        g = random_undirected(rng, n, p=0.25, weighted=True)
        alpha = float(rng.uniform(0.05, 0.8))
        epsilon = float(rng.uniform(1e-4, 1e-2))
        state = AprState(g, _positive_degree_vertex(g), alpha, epsilon).run()
        for key, val in state.r.items():
            assert val / g.degree(key >> 1) < epsilon
        support_vol = sum(cover_degree(g, key) for key in state.p)
        assert support_vol <= 1.0 / (epsilon * alpha)

    # locality: a huge disconnected remainder changes neither work nor reach
    comp_rng = np.random.default_rng(42)
    comp = random_undirected(comp_rng, 500, p=0.04)
    comp_edges = []
    for u in range(comp.n):
        ids, ws = comp.neighbors(u)
        comp_edges.extend((u, int(v)) for v in ids.tolist() if v > u)
    m_remainder = 1_000_000
    ring_u = 500 + np.arange(m_remainder, dtype=np.int64)
    ring_v = 500 + (np.arange(m_remainder, dtype=np.int64) + 1) % m_remainder
    small = Graph.from_arrays(
        500,
        np.array([e[0] for e in comp_edges], dtype=np.int64),
        np.array([e[1] for e in comp_edges], dtype=np.int64),
    )
    big = Graph.from_arrays(
        500 + m_remainder,
        np.concatenate([np.array([e[0] for e in comp_edges], dtype=np.int64), ring_u]),
        np.concatenate([np.array([e[1] for e in comp_edges], dtype=np.int64), ring_v]),
    )
    assert big.edge_count >= 1_000_000

    alpha, epsilon = 0.1, 1e-5
    seed = _positive_degree_vertex(small)

    def timed_run(g):
        best = np.inf
        state = None
        for _ in range(3):
            t0 = time.perf_counter()
            state = AprState(g, seed, alpha, epsilon).run()
            best = min(best, time.perf_counter() - t0)
        return state, best

    state_small, t_small = timed_run(small)
    state_big, t_big = timed_run(big)

    touched = state_big.keys.tolist()
    assert {key >> 1 for key in touched} <= set(range(500))
    touched_volume = sum(cover_degree(big, key) for key in touched)
    assert touched_volume <= 1.0 / (epsilon * alpha)
    assert state_big.push_count == state_small.push_count
    assert t_big < 2.0 * t_small
    _report(
        3,
        f"residual/support bounds hold; remainder of 1e6 edges untouched "
        f"(runtime {t_big * 1000:.0f}ms vs {t_small * 1000:.0f}ms)",
    )


def test_criterion_4_sigma_operator_laws():
    rng = np.random.default_rng(404)
    tuples = 0
    for _ in range(200):
        n = int(rng.integers(2, 10))
        g = random_undirected(rng, n, p=0.5, weighted=True)
        w = dense_walk_matrix(g, cover=True)
        dim = 2 * n
        for _ in range(5):
            p = rng.uniform(0, 1, size=dim)
            a = rng.uniform(0, 1, size=dim)
            b = rng.uniform(0, 1, size=dim)
            c = float(rng.uniform(0, 5))

            def sig(vec):
                out = np.zeros(dim)
                for u in range(n):
                    d = vec[2 * u] - vec[2 * u + 1]
                    if d > 0:
                        out[2 * u] = d
                    else:
                        out[2 * u + 1] = -d
                return out

            assert np.abs(sig(c * p) - c * sig(p)).max() <= 1e-12
            assert np.all(sig(a + b) <= sig(a) + sig(b) + 1e-12)
            assert np.all(sig(p @ w) <= sig(p) @ w + 1e-12)
            # dict-backed implementation agrees with the dense transcription
            sp = simplify({i: float(v) for i, v in enumerate(p) if v != 0.0})
            assert np.abs(mass_to_dense(sp, dim) - sig(p)).max() <= 1e-15
            tuples += 1
    assert tuples == 1000

    # the commutation law genuinely fails on the one-arc semi-double cover
    g = Graph(2, [(0, 1)], directed=True)
    w = dense_walk_matrix(g, cover=True)
    p = np.array([0.5, 0.5, 0.0, 0.0])
    pw = p @ w
    sig_pw = mass_to_dense(simplify({i: float(v) for i, v in enumerate(pw) if v}), 4)
    sigp_w = mass_to_dense(simplify({i: float(v) for i, v in enumerate(p) if v}), 4) @ w
    b2 = cover_vertex(1, 2)
    assert sig_pw[b2] == 0.25
    assert sigp_w[b2] == 0.0
    _report(4, "sigma laws hold on 1000 double-cover tuples; one-arc counterexample gives 0.25 > 0")


def test_criterion_5_planted_pair_benchmark():
    report = run_table1(n1=1000, trials=10, rng_seed=1)
    means = report.means
    assert means["mean_ari"] >= 0.90
    assert means["mean_beta"] <= 0.25
    assert means["mean_misclassified"] <= 0.15
    assert report.total_seconds < 60.0
    _report(
        5,
        f"n1=1000 benchmark: ari={means['mean_ari']:.3f} beta={means['mean_beta']:.3f} "
        f"misclassified={means['mean_misclassified']:.3f} in {report.total_seconds:.1f}s",
    )


def test_criterion_5_planted_pair_benchmark_large():
    report = run_table1(n1=10_000, trials=10, rng_seed=1)
    assert report.means["mean_ari"] >= 0.85
    _report(5, f"n1=10000 benchmark: ari={report.means['mean_ari']:.3f} (large variant)")


def test_criterion_6_returned_pair_contract():
    rng = np.random.default_rng(606)
    found = 0
    for trial in range(40):
        n = int(rng.integers(4, 20))
        g = random_undirected(rng, n, p=0.4, weighted=trial % 2 == 0)
        u = _positive_degree_vertex(g)
        beta_hat = float(rng.uniform(0.05, 1.0))
        pair = loc_bipart_dc(
            g, u, gamma=60.0, beta_hat=beta_hat, alpha=0.3, best_sweep=trial % 2 == 1
        )
        if pair is None:
            continue
        found += 1
        assert bipartiteness(g, pair.l, pair.r) <= beta_hat
        assert not set(pair.l.tolist()) & set(pair.r.tolist())
    assert found >= 10
    _report(6, f"recomputed quality <= beta_hat and disjointness on all {found} returned pairs")


def test_criterion_7_esp_kernel_statistical():
    started = time.perf_counter()
    graphs = [
        Graph(3, [(0, 1), (1, 2), (2, 0), (0, 2)], directed=True),
        Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (0, 2)], directed=True),
        Graph(
            6,
            [
                (0, 1, 2.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 4, 2.0),
                (4, 5, 1.0),
                (5, 0, 1.0),
                (0, 3, 1.0),
                (2, 0, 1.0),
            ],
            directed=True,
        ),
    ]
    start_sets = [
        lambda g: {cover_vertex(0, 1)},
        lambda g: pair_to_cover_set([0], [1]),
        lambda g: pair_to_cover_set([0, 2], [1]) | {cover_vertex(0, 2)},
    ]
    samples = 100_000
    rng = np.random.default_rng(707)
    worst_tv = 0.0
    for g in graphs:
        for make in start_sets:
            start = make(g)
            k, k_hat = exact_esp_kernel(g, start)

            vol_s = sum(cover_degree(g, key) for key in start)
            drift = sum(p * sum(cover_degree(g, key) for key in s) for s, p in k.items()) - vol_s
            assert abs(drift) <= 1e-10

            base = esp_state_from_set(g, start, rng)
            ordered = sorted(start)
            cum = np.cumsum([cover_degree(g, key) for key in ordered])
            counts: dict = {}
            for _ in range(samples):
                state = clone_state(base)
                state.walker = ordered[
                    int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
                ]
                esp_step(state, rng)
                key = frozenset(state.members)
                counts[key] = counts.get(key, 0) + 1
            tv = 0.5 * sum(abs(counts.get(s, 0) / samples - p) for s, p in k_hat.items())
            tv += 0.5 * sum(c / samples for s, c in counts.items() if s not in k_hat)
            worst_tv = max(worst_tv, tv)
            assert tv <= 0.01

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(
        7,
        f"empirical step distribution within {worst_tv:.4f} TV of the exact kernel; "
        f"volume martingale to 1e-10 ({elapsed:.1f}s)",
    )


def test_criterion_8_planted_local_cycle_benchmark():
    report = run_table2(trials=10, rng_seed=1)
    assert report.means["mean_ari"] >= 0.90
    assert report.total_seconds < 60.0
    _report(
        8,
        f"planted local cycle: ari={report.means['mean_ari']:.3f} "
        f"flow={report.means['mean_flow']:.3f} in {report.total_seconds:.1f}s",
    )


def test_criterion_9_cleanup_bound_on_every_run():
    rng = np.random.default_rng(909)
    checked = 0
    for trial in range(60):
        n = int(rng.integers(5, 25))
        g = random_directed(np.random.default_rng(trial), n, p=0.25, weighted=trial % 3 == 0)
        u = int(np.flatnonzero(g.degrees > 0)[0])
        # evo_cut_directed re-checks the bound internally and raises on violation
        evo_cut_directed(g, u, 1 + trial % 2, 0.1, rng, steps=2 + trial % 6)

        s = set(generate_sample(g, cover_vertex(u, 1), 2 + trial % 6, rng))
        p = doubled_part(s)
        clean = s - p
        cut_s, vol_s = cover_cut_and_volume(g, s)
        cut_c, vol_c = cover_cut_and_volume(g, clean)
        if vol_s <= 0 or vol_c <= 0:
            continue
        eps = sum(cover_degree(g, key) for key in p) / vol_s
        if eps >= 1.0:
            continue
        assert cut_c / vol_c <= (cut_s / vol_s + eps) / (1.0 - eps) + 1e-12
        checked += 1
    assert checked >= 30
    _report(9, f"epsilon-simple cleanup bound held on all {checked} externally recomputed runs")


def test_criterion_10_brute_force_agreement():
    rng = np.random.default_rng(1010)
    for trial in range(500):
        n = int(rng.integers(2, 7))
        g = random_connected_undirected(rng, n, p=0.4, weighted=trial % 2 == 0)
        l, r, best_beta = brute_force_best_pair(g)
        s, best_phi = brute_force_min_conductance(g, cover=True)
        assert abs(best_beta - best_phi) <= 1e-12
        # pair -> cover set keeps the value
        assert abs(conductance_in_cover(g, pair_to_cover_set(l, r)) - best_beta) <= 1e-12
        # cover set -> pair keeps the value
        l2, r2 = to_cluster_pair(s)
        assert abs(bipartiteness(g, l2, r2) - best_phi) <= 1e-12
    _report(10, "min-quality pair and min-conductance simple set agree on 500 graphs")
