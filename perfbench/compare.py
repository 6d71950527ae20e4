"""Repeat benchmark runs over seeds, summarise them, and compare two checkouts.

    python3 perfbench/compare.py --workload sbm-table1 --seeds 1-10
    python3 perfbench/compare.py --workload sbm-table1 --seeds 1-10 --against ../parent

Each seed runs `perfbench/run.py` once per checkout; with `--against`, the two
checkouts alternate which runs first. The summary gives each metric's median,
quartiles and spread (quartile distance over median). A comparison also counts,
per metric, the seeds on which the change beat the parent, applies the rule in
perfbench/README.md, and checks that both checkouts returned the same outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKSPACE = HERE.parent
SPEC = json.loads((WORKSPACE / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _run(checkout: Path, args, seed: int) -> dict:
    command = [
        sys.executable,
        "perfbench/run.py",
        "--workload",
        args.workload,
        "--seed",
        str(seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: seed {seed} printed nothing\n{done.stderr}")
    result = json.loads(lines[-1])
    digests = checkout / "perfbench" / ".work" / f"{args.workload}-seed{seed}.digests.json"
    result["digests"] = json.loads(digests.read_text(encoding="utf-8"))
    result["exit"] = done.returncode
    return result


def _summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--against", type=Path, help="parent checkout to compare with")
    parser.add_argument("--json", type=Path, help="write every run and the summary here")
    args = parser.parse_args(argv)

    sides = {"change": WORKSPACE}
    if args.against:
        sides["parent"] = args.against.resolve()
    runs = {side: [] for side in sides}
    for k, seed in enumerate(_seeds(args.seeds)):
        order = list(sides) if k % 2 == 0 else list(reversed(sides))
        for side in order:
            runs[side].append(_run(sides[side], args, seed))
            print(f"seed {seed} {side}: correct={runs[side][-1]['correct']}", file=sys.stderr)

    meta = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    report = {"workload": args.workload, "seeds": args.seeds, "runs": runs, "summary": {}}
    for name in runs["change"][0]["metrics"]:
        row = {}
        for side in sides:
            values = [run["metrics"][name]["value"] for run in runs[side]]
            if None in values:
                row[side] = None
                continue
            row[side] = _summary(values)
        if args.against and row["change"] and row["parent"]:
            lower = meta.get(name, {}).get("better", "lower") == "lower"
            pairs = zip(runs["change"], runs["parent"])
            wins = sum(
                (c["metrics"][name]["value"] < p["metrics"][name]["value"]) == lower
                and c["metrics"][name]["value"] != p["metrics"][name]["value"]
                for c, p in pairs
            )
            parent, change = row["parent"], row["change"]
            gap = abs(change["median"] - parent["median"])
            row["wins"] = wins
            row["gain"] = wins >= 0.9 * len(runs["change"]) and gap > parent["q3"] - parent["q1"]
            bound = meta.get(name, {}).get("bound")
            worse = (change["median"] - parent["median"]) * (1 if lower else -1)
            row["regressed"] = bound is not None and worse > bound * parent["median"]
        report["summary"][name] = row

    for name, row in report["summary"].items():
        cells = []
        for side in sides:
            s = row[side]
            cells.append(
                f"{side} absent"
                if s is None
                else f"{side} {s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
                + (f" spread {s['spread']:.3f}" if s["spread"] is not None else "")
            )
        if "wins" in row:
            cells.append(f"wins {row['wins']}/{len(runs['change'])}")
            cells.append("GAIN" if row["gain"] else "")
            cells.append("REGRESSED" if row["regressed"] else "")
        print(f"{name:<44} " + "  ".join(c for c in cells if c))
    if args.against:
        same = all(
            [d["digest"] for d in c["digests"]][:10] == [d["digest"] for d in p["digests"]][:10]
            for c, p in zip(runs["change"], runs["parent"])
        )
        report["same_outputs"] = same
        print("outputs (first 10 queries per seed): " + ("identical" if same else "DIFFER"))
    if args.json:
        args.json.write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 0 if all(r["correct"] for side in runs.values() for r in side) else 1


if __name__ == "__main__":
    sys.exit(main())
