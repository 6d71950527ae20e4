"""pairclust benchmark: seeded clustering-query workloads, one client, closed loop.

    python3 perfbench/run.py --workload sbm-table1 --seed 1 --seconds 50 --trace 0

A run writes the workload's edge-list file and draws its queries from the seed
(in a child process, before any timing), loads the file several times to time
set-up, then sends clustering queries one after another for `--seconds`
seconds. A query is what
`pairclust cluster-bipartite --json` / `cluster-directed --json` do after the
graph is loaded: the clustering call, `build_run_result` and `run_result_json`.
Every output is checked once the loop is over. The last stdout line is one JSON
object: the end-to-end metrics with `--trace 0`, the per-layer metrics of a
traced run with `--trace 1`. The exit code is 1 when a check fails.

The end-to-end times are scaled to a reference host speed, measured by a fixed
kernel timed between loads and between queries (probe.py); the raw wall-clock
values are printed next to them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# One client on one thread: pin the BLAS/OpenMP pools before numpy is loaded.
# The workload generator inherits the same environment.
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from probe import REFERENCE_MS, Probe, normalized  # noqa: E402
from tracer import PER_LAYER_UNITS, Tracer, layer_metrics  # noqa: E402
from workloads import SIZES, SRC, WORKLOADS  # noqa: E402

WORK_DIR = HERE / ".work"  # generated inputs (removed after each run), spans, digests
# Set-up is timed over at least this many loads and this much time; setup_s is the median.
SETUP_MIN_LOADS = 5
SETUP_MIN_SECONDS = 2.0
DIGEST_QUERIES = 10  # the run digest covers this many leading queries

# Query conventions of the library's table1 / table2 reproductions.
BETA_HAT = 0.35
ALPHA_CAP = 0.1
ESP_PHI = 0.1
ESP_STEPS = 10
ESP_ATTEMPTS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "query_ms_p50": "ms",
    "query_ms_tail": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ari_mean": "ari",
}
# Printed with the metrics above but not declared in BENCHMARK.json: on cbm-table2
# almost every query returns the planted pair (F ~ 0.003) and a rare other pair
# (F ~ 0.02) moves the mean by tens of percent, so no relative bound holds for it.
REPORTED_UNITS = {**END_TO_END_UNITS, "objective_mean": "ratio"}
# The timing metrics, which are reported scaled to the probe's reference speed
# (see probe.py); their raw wall-clock values are printed next to them.
TIMED = ("setup_s", "query_ms_p50", "query_ms_tail", "queries_per_s")


def _environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _import_package() -> dict:
    """Import pairclust from this checkout's src/, never from elsewhere."""
    if not (SRC / "pairclust" / "__init__.py").is_file():
        raise SystemExit(f"error: no pairclust package under {SRC}")
    sys.path.insert(0, str(SRC))
    import pairclust
    from pairclust import cover, esp, fileio, graph, metrics, pagerank, results

    if Path(pairclust.__file__).resolve().parent != SRC / "pairclust":
        raise SystemExit(f"error: imported pairclust from {pairclust.__file__}, not {SRC}")
    return {
        "fileio": fileio,
        "graph": graph,
        "cover": cover,
        "pagerank": pagerank,
        "esp": esp,
        "results": results,
        "metrics": metrics,
    }


class Workload:
    """A loaded workload: the graph, its planted pairs and the query pool."""

    def __init__(self, spec: dict, g, pkg: dict):
        self.spec = spec
        self.g = g
        self.pkg = pkg
        self.directed = spec["directed"]
        self.pairs = [(np.asarray(c1), np.asarray(c2)) for c1, c2 in spec["pairs"]]
        self.queries = spec["queries"]
        self._truth: dict = {}
        # table1 convention per planted pair: gamma = vol(C1 u C2), alpha = min(20 beta, cap)
        self.params = []
        if not self.directed:
            for c1, c2 in self.pairs:
                beta = pkg["graph"].bipartiteness(g, c1, c2)
                gamma = g.volume(np.concatenate([c1, c2]))
                self.params.append((gamma, min(20.0 * beta, ALPHA_CAP)))

    def query(self, i: int):
        """Run query i; returns (pair, RunResult, JSON text)."""
        pagerank, esp, results = self.pkg["pagerank"], self.pkg["esp"], self.pkg["results"]
        g = self.g
        index, u = self.queries[i % len(self.queries)]
        t0 = time.perf_counter()
        if self.directed:
            rng_seed = [self.spec["seed"], i]
            rng = np.random.default_rng(np.random.SeedSequence(rng_seed))
            best = None
            for side in (1, 2):
                if (g.degrees[u] if side == 1 else g.in_degrees[u]) <= 0:
                    continue
                for _ in range(ESP_ATTEMPTS):
                    pair = esp.evo_cut_directed(g, u, side, ESP_PHI, rng, steps=ESP_STEPS)
                    if pair is not None and (best is None or pair.flow < best.flow):
                        best = pair
            params = {"phi": ESP_PHI, "side": "both", "esp_steps": ESP_STEPS}
            wall_ms = 1000.0 * (time.perf_counter() - t0)
            result = results.build_run_result(
                g, "cluster-directed", u, params, best, wall_ms, rng_seed=i
            )
            return best, result, results.run_result_json(result)
        gamma, alpha = self.params[index]
        pair = pagerank.loc_bipart_dc(g, u, gamma, BETA_HAT, alpha=alpha, best_sweep=True)
        params = {"gamma": gamma, "beta_hat": BETA_HAT, "alpha": alpha, "best_sweep": True}
        wall_ms = 1000.0 * (time.perf_counter() - t0)
        result = results.build_run_result(g, "cluster-bipartite", u, params, pair, wall_ms)
        return pair, result, results.run_result_json(result)

    def check(self, pair, result, text) -> list:
        """Output checks; returns the failed ones as messages."""
        graph = self.pkg["graph"]
        g = self.g
        failures = []
        parsed = json.loads(text)
        if (parsed["found"], parsed["l"], parsed["r"]) != (result.found, result.l, result.r):
            failures.append("RunResult JSON does not parse back to the same result")
        if not result.found:
            return failures
        if set(result.l) & set(result.r):
            return failures + ["L and R intersect"]
        if self.directed:
            fresh = graph.flow_ratio(g, result.l, result.r)
            if not fresh == result.metrics["flow_ratio"] == pair.flow:
                failures.append(f"reported flow {pair.flow} != fresh flow_ratio {fresh}")
        else:
            fresh = graph.bipartiteness(g, result.l, result.r)
            if not fresh == result.metrics["beta"] == pair.beta:
                failures.append(f"reported beta {pair.beta} != fresh bipartiteness {fresh}")
            if fresh > BETA_HAT:
                failures.append(f"beta {fresh} above beta_hat {BETA_HAT}")
        return failures

    def score(self, i: int, result) -> tuple:
        """(ARI against the planted pair, objective); a not-found query scores (0, 1)."""
        if not result.found:
            return 0.0, 1.0
        metrics = self.pkg["metrics"]
        index = self.queries[i % len(self.queries)][0]
        if index not in self._truth:
            self._truth[index] = metrics.pair_labeling(self.g.n, *self.pairs[index])
        predicted = metrics.pair_labeling(self.g.n, result.l, result.r)
        objective = result.metrics["flow_ratio" if self.directed else "beta"]
        return metrics.ari(self._truth[index], predicted), objective


def _generate(workload: str, seed: int, size: str, out: Path) -> dict:
    subprocess.run(
        [
            sys.executable,
            str(HERE / "workloads.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--size",
            size,
            "--out",
            str(out),
        ],
        check=True,
        timeout=150,
    )
    return json.loads((out / "workload.json").read_text(encoding="utf-8"))


def _tail(latencies: list) -> tuple:
    """(value, percentile, samples): the highest percentile with 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n  # too few samples for a tail: report the maximum
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _digest(u: int, result) -> str:
    text = f"{u}|{','.join(map(str, result.l))}|{','.join(map(str, result.r))}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def measure(args, pkg: dict, spec: dict, graph_path: Path) -> dict:
    fileio = pkg["fileio"]
    tracer = Tracer(pkg) if args.trace else None

    traced = tracer.installed if tracer else contextlib.nullcontext
    # The untraced run times the host-speed probe before the first and after
    # every load and query; the traced run reports no end-to-end times.
    probe = None if tracer else Probe()
    setup, setup_probes = [], []
    if probe:
        setup_probes.append(probe.ms())
    g = None
    while len(setup) < SETUP_MIN_LOADS or sum(setup) < SETUP_MIN_SECONDS:
        with traced():
            t0 = time.perf_counter()
            g = fileio.load_edge_list(graph_path, directed=spec["directed"])
            setup.append(time.perf_counter() - t0)
        if probe:
            setup_probes.append(probe.ms())
    work = Workload(spec, g, pkg)

    records = []  # (query id, pair, result, text, latency ms) per untraced query
    traced_ms = []
    failures = []
    failed = set()
    query_probes = [probe.ms()] if probe else []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while time.perf_counter() < deadline:
        t0 = time.perf_counter()
        try:
            pair, result, text = work.query(i)
        except Exception as exc:  # a raising query counts as failed; the loop goes on
            failures.append(f"query {i}: {type(exc).__name__}: {exc}")
            failed.add(i)
            pair = result = text = None
        records.append((i, pair, result, text, 1000.0 * (time.perf_counter() - t0)))
        if probe:
            query_probes.append(probe.ms())
        if tracer:
            with traced(), tracer.query_span(i):
                t0 = time.perf_counter()
                try:
                    _, again, _ = work.query(i)
                except Exception as exc:
                    failures.append(f"traced query {i}: {type(exc).__name__}: {exc}")
                    failed.add(i)
                else:
                    if result is not None and (again.l, again.r) != (result.l, result.r):
                        failures.append(f"query {i}: traced output differs from untraced")
                        failed.add(i)
                traced_ms.append(1000.0 * (time.perf_counter() - t0))
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    aris, objectives, digests = [], [], []
    for qid, pair, result, text, ms in records:
        u = work.queries[qid % len(work.queries)][1]
        entry = {"query": qid, "vertex": u, "digest": None, "ms": ms}
        if probe:
            entry["probe_ms"] = query_probes[qid + 1]  # the probe right after the query
        digests.append(entry)
        if result is None:  # the query raised: scored like a query that found nothing
            aris.append(0.0)
            objectives.append(1.0)
            continue
        problems = work.check(pair, result, text)
        if problems:
            failed.add(qid)
            failures.extend(f"query {qid}: {p}" for p in problems)
        ari, objective = work.score(qid, result)
        aris.append(ari)
        objectives.append(objective)
        entry["digest"] = _digest(u, result)

    latencies = [r[4] for r in records]
    tail, tail_pct, samples = _tail(latencies)
    # queries_per_s divides by the time spent in queries, so the probes between
    # queries are not counted as load.
    raw = {
        "setup_s": statistics.median(setup),
        "query_ms_p50": statistics.median(latencies),
        "query_ms_tail": tail,
        "queries_per_s": 1000.0 * len(latencies) / sum(latencies),
    }
    timed = dict(raw)
    if probe:
        scaled = normalized(latencies, query_probes)
        timed = {
            "setup_s": statistics.median(normalized(setup, setup_probes)),
            "query_ms_p50": statistics.median(scaled),
            "query_ms_tail": _tail(scaled)[0],
            "queries_per_s": 1000.0 * len(scaled) / sum(scaled),
        }
    ari_mean = statistics.fmean(aris)
    gate = spec["mean_ari_min"]
    if gate is not None and ari_mean < gate:
        failures.append(f"mean ARI {ari_mean:.4f} below the gate {gate}")
    run_digest = hashlib.sha256(
        "".join(str(d["digest"]) for d in digests[:DIGEST_QUERIES]).encode()
    ).hexdigest()[:16]

    out = {
        "n": spec["n"],
        "m": spec["m"],
        "attempted": len(records),
        "failed": len(failed),
        "failures": failures,
        "loads": len(setup),
        "tail": (tail_pct, samples),
        "digest": (run_digest, min(len(digests), DIGEST_QUERIES)),
        "digests": digests,
        "raw": raw,
        "probe_ms": statistics.median(setup_probes + query_probes) if probe else None,
        "end_to_end": {
            **timed,
            "peak_rss_mb": peak_rss_mb,
            "ari_mean": ari_mean,
            "objective_mean": statistics.fmean(objectives),
        },
    }
    if tracer:
        values = layer_metrics(tracer, graph_path.stat().st_size, latencies, traced_ms)
        parts = [v for k, v in values.items() if k.startswith(("layer.", "bench.self"))]
        if None not in parts and abs(sum(parts) - values["trace.query_ms_mean"]) > 1e-6:
            failures.append("layer self times do not add up to the traced query time")
        out["per_layer"] = values
        out["absent"] = tracer.absent
        out["tracer"] = tracer
    return out


def _report(args, env: dict, out: dict):
    e2e = out["end_to_end"]
    print(
        f"workload {args.workload} seed {args.seed} size {args.size}: n={out['n']} m={out['m']}; "
        f"closed loop, 1 client, {args.seconds:g} s"
    )
    print(
        f"env: nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
        f"numpy={env['numpy']} threads pinned to 1 via {','.join(THREAD_VARS)}"
    )
    notes = {
        "setup_s": f"median of {out['loads']} loads",
        "query_ms_tail": "p{:.1f} of {} queries, 10 beyond".format(*out["tail"]),
    }
    if out["probe_ms"] is not None:
        print(
            f"times scaled to the probe's reference speed: probe median {out['probe_ms']:.3f} ms, "
            f"reference {REFERENCE_MS:g} ms; raw wall-clock value after each"
        )
    for name, unit in REPORTED_UNITS.items():
        note = f"  ({notes[name]})" if name in notes else ""
        raw = f"  raw {out['raw'][name]:.4f}" if name in TIMED else ""
        print(f"  {name:<16} {e2e[name]:>12.4f} {unit}{raw}{note}")
    print(f"  {'failed_ratio':<16} {out['failed']}/{out['attempted']}")
    print("  output digest {} over the first {} queries".format(*out["digest"]))
    if "per_layer" in out:
        for name, value in out["per_layer"].items():
            shown = "absent" if value is None else f"{value:.4f}"
            print(f"  {name:<44} {shown}")
        if out["absent"]:
            missing = (f"{t.module}.{t.attr} ({t.span})" for t in out["absent"])
            print("absent layers, wrap target missing: " + ", ".join(missing))
    for failure in out["failures"][:20]:
        print(f"CHECK FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1, help="default 1; 2 is held out")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    pkg = _import_package()
    env = _environment()
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        spec = _generate(args.workload, args.seed, args.size, Path(tmp))
        out = measure(args, pkg, spec, Path(tmp) / spec["graph"])

    stem = WORK_DIR / f"{args.workload}-seed{args.seed}"
    Path(f"{stem}.digests.json").write_text(json.dumps(out["digests"]), encoding="utf-8")
    if args.trace:
        out["tracer"].write_jsonl(f"{stem}.spans.jsonl")
        values, units = out["per_layer"], PER_LAYER_UNITS
    else:
        values, units = out["end_to_end"], END_TO_END_UNITS
    _report(args, env, out)
    correct = not out["failures"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
