"""Smoke test of the benchmark at tiny size; runs in seconds.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every workload, including the one BENCHMARK.json does not
declare, emits exactly the metrics BENCHMARK.json names,
that a failed output check makes the run exit non-zero, and that the benchmark
refuses to run without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
WORKSPACE = HERE.parent
SPEC = json.loads((WORKSPACE / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(HERE))

from probe import REFERENCE_MS, normalized  # noqa: E402
from tracer import TARGETS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(cwd: Path, workload: str, trace: int):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1"]
    command += ["--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=120)


def _result(done) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    done = _run(WORKSPACE, workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = _result(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _copy_workspace(dest: Path, with_src: bool):
    shutil.copy(WORKSPACE / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns(".work", "__pycache__")
    shutil.copytree(HERE, dest / "perfbench", ignore=ignore)
    if with_src:
        shutil.copytree(WORKSPACE / "src", dest / "src", ignore=ignore)


def test_failed_check_exits_nonzero(tmp_path):
    _copy_workspace(tmp_path, with_src=True)
    results = tmp_path / "src" / "pairclust" / "results.py"
    text = results.read_text(encoding="utf-8")
    broken = 'metrics["beta"] = bipartiteness(g, l, r) + 1e-9'
    results.write_text(text.replace('metrics["beta"] = bipartiteness(g, l, r)', broken))
    done = _run(tmp_path, "sbm-table1", 0)
    assert done.returncode == 1
    result = _result(done)
    assert result["correct"] is False and result["failed"] >= 1
    assert "CHECK FAILED" in done.stdout


def test_refuses_to_run_without_the_package(tmp_path):
    _copy_workspace(tmp_path, with_src=False)
    done = _run(tmp_path, "sbm-table1", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_missing_wrap_target_reads_null():
    tracer = Tracer({})  # no module resolves, as after a refactor that renames them all
    assert tracer.absent == list(TARGETS)
    values = layer_metrics(tracer, 1, [], [])
    assert values["fileio.graph_fingerprint.ms"] is None
    assert values["pagerank.push.count"] is None
    assert values["layer.pagerank.self_ms"] == 0.0


def test_normalized_scales_by_the_nearby_probes():
    f, s = REFERENCE_MS / 2, REFERENCE_MS * 2  # probe times of a fast and a slow host
    # a host at the reference speed leaves the times as measured
    assert normalized([10.0, 20.0], [REFERENCE_MS] * 3) == [10.0, 20.0]
    # each time is scaled by the mean of the 3 probes before and the 3 after it
    probes = [f, f, f, s, s, s, s]
    means = [(3 * f + s) / 4, (3 * f + 2 * s) / 5, (3 * f + 3 * s) / 6, (2 * f + 4 * s) / 6]
    means += [(f + 4 * s) / 5, s]
    expected = [5.0 * REFERENCE_MS / mean for mean in means]
    assert normalized([5.0] * 6, probes) == pytest.approx(expected)
    with pytest.raises(ValueError):
        normalized([1.0], [REFERENCE_MS])
