"""One query function per pipeline: `results.cluster_bipartite` and `cluster_directed`.

Each must report exactly what its algorithm returns, packaged by `build_run_result`,
so the CLI, `bench` and a library user see one query per pipeline.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pairclust import (
    CbmPlusSpec,
    SbmSpec,
    build_run_result,
    esp,
    gen_cbm_plus,
    gen_sbm,
    load_edge_list,
    load_flow_matrix,
    loc_bipart_dc,
    results,
    run_result_json,
)
from pairclust.cli import main

DATA_DIR = Path(__file__).parent / "data"


def _untimed(result) -> str:
    return run_result_json(replace(result, wall_ms=0.0))


def _without_wall_ms(text: str) -> list:
    return [line for line in text.splitlines() if '"wall_ms"' not in line]


def _benchmark_directed_query(g, u, phi, rng, steps, attempts):
    """The benchmark's directed query, as its own loop: each side of positive degree,
    `attempts` one-attempt calls, the strictly lower flow kept."""
    best = None
    for side in (1, 2):
        if (g.degrees[u] if side == 1 else g.in_degrees[u]) <= 0:
            continue
        for _ in range(attempts):
            pair = esp.evo_cut_directed(g, u, side, phi, rng, steps=steps)
            if pair is not None and (best is None or pair.flow < best.flow):
                best = pair
    return best


def test_cluster_directed_matches_the_benchmark_loop():
    # sparse enough that some seeds have a side of degree 0, which both skip
    g = gen_cbm_plus(CbmPlusSpec(k=3, n=12, n_prime=6, p=0.1, q=0.15), 5)[0]
    params = {"phi": 0.1, "side": "both", "esp_steps": 10}
    found, one_sided = 0, 0
    for i in range(60):
        u = (7 * i) % g.n
        one_sided += bool(g.degrees[u] == 0 or g.in_degrees[u] == 0)
        stream = np.random.SeedSequence([3, i])
        pair, result = results.cluster_directed(
            g, u, 0.1, np.random.default_rng(stream), "both", 10, 3, rng_seed=i
        )
        expected = _benchmark_directed_query(g, u, 0.1, np.random.default_rng(stream), 10, 3)
        if expected is None:
            assert pair is None
        else:
            found += 1
            assert np.array_equal(pair.l, expected.l) and np.array_equal(pair.r, expected.r)
            assert pair.flow == expected.flow
        want = build_run_result(g, "cluster-directed", u, params, expected, 0.0, rng_seed=i)
        assert _untimed(result) == _untimed(want)
        assert result.wall_ms >= 0
    assert found >= 50 and one_sided >= 5


@pytest.mark.parametrize(
    "u, gamma, beta_hat, alpha, best_sweep",
    [
        (0, 200.0, 0.3, 0.3, False),
        (3, 200.0, 0.5, 0.1, True),
        (25, 40.0, 0.5, None, False),  # Theorem 1's alpha
        (0, 200.0, 0.05, 0.3, False),  # no prefix qualifies
    ],
)
def test_cluster_bipartite_reports_a_direct_loc_bipart_dc_call(
    u, gamma, beta_hat, alpha, best_sweep
):
    g = gen_sbm(SbmSpec(n1=20, p1=0.05, q1=0.8), 4)[0]
    pair, result = results.cluster_bipartite(g, u, gamma, beta_hat, alpha, best_sweep)
    direct = loc_bipart_dc(g, u, gamma, beta_hat, alpha=alpha, best_sweep=best_sweep)
    params = {"gamma": gamma, "beta_hat": beta_hat, "alpha": alpha, "best_sweep": best_sweep}
    want = build_run_result(g, "cluster-bipartite", u, params, direct, 0.0)
    assert result.found == (pair is not None)
    assert _untimed(result) == _untimed(want)
    assert json.loads(_untimed(result))["params"] == params


def test_cli_prints_the_query_functions_result(capsys):
    path = DATA_DIR / "weighted_pair.edgelist"
    argv = ["cluster-bipartite", "-g", str(path), "--seed-vertex", "4", "--gamma", "2000"]
    assert main(argv + ["--beta", "0.35", "--alpha", "0.05", "--best-sweep", "--json"]) == 0
    printed = capsys.readouterr().out
    _, result = results.cluster_bipartite(load_edge_list(path), 4, 2000.0, 0.35, 0.05, True)
    assert result.found
    assert _without_wall_ms(printed) == _without_wall_ms(run_result_json(result))


@pytest.mark.parametrize("side", ["1", "2", "both"])
def test_cli_prints_the_directed_query_functions_result(capsys, side):
    path = DATA_DIR / "flow_cyclic.csv"
    argv = ["cluster-directed", "-g", str(path), "--format", "flow", "--seed-vertex", "7"]
    argv += ["--side", side, "--phi", "0.1", "--esp-steps", "8", "--rng-seed", "4", "--json"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    rng = np.random.default_rng(np.random.SeedSequence([4]))
    seed_side = side if side == "both" else int(side)
    _, result = results.cluster_directed(
        load_flow_matrix(path), 7, 0.1, rng, seed_side, 8, rng_seed=4
    )
    assert json.loads(printed)["params"]["side"] == side
    assert _without_wall_ms(printed) == _without_wall_ms(run_result_json(result))
