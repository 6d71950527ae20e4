"""Command-line interface: generate, cluster, evaluate, oracle checks, benchmarks.

Exit codes: 0 success (a not-found clustering is still success, reported as
"found": false), 1 usage error, 2 I/O or parse error, 3 invalid parameters.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, asdict, fields
from typing import get_type_hints

import numpy as np

from . import bench as bench_mod
from .cover import cover_vertex
from .fileio import (
    ParseError,
    default_labels_path,
    load_edge_list,
    load_flow_matrix,
    load_labels,
    load_names,
    read_text,
    write_edge_list,
    write_labels,
)
from .generators import CbmPlusSpec, CbmSpec, SbmSpec, gen_cbm, gen_cbm_plus, gen_sbm
from .graph import as_id
from .metrics import ari, misclassified_ratio, pair_labeling
from .oracle import exact_esp_kernel, exact_pagerank, ls_curve
from .pagerank import approximate_pagerank_dc, simplify
from .results import cluster_bipartite, cluster_directed, run_result_json

EXIT_USAGE = 1
EXIT_IO = 2
EXIT_PARAMS = 3

DEFAULT_RNG_SEED = 1

# `generate MODEL`: the spec whose fields are the model's options, and its generator.
_MODELS = {
    "sbm": (SbmSpec, gen_sbm),
    "cbm": (CbmSpec, gen_cbm),
    "cbm+": (CbmPlusSpec, gen_cbm_plus),
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching: `--seed` must not be read as `--seed-vertex`
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_graph(args):
    if getattr(args, "format", "edges") == "flow":
        return load_flow_matrix(args.graph)
    return load_edge_list(args.graph, directed=args.directed)


def _cmd_generate(args) -> int:
    spec_type, generate = _MODELS[args.model]
    spec = spec_type(**{f.name: getattr(args, f.name) for f in fields(spec_type)})
    g, labels = generate(spec, args.seed)
    write_edge_list(g, args.output)
    write_labels(labels, default_labels_path(args.output))
    print(f"wrote {args.output} (n={g.n}, m={g.edge_count}) and {default_labels_path(args.output)}")
    return 0


def _cmd_cluster(args) -> int:
    g = _load_graph(args)
    if args.directed:
        rng = np.random.default_rng(np.random.SeedSequence([args.rng_seed]))
        side = args.side if args.side == "both" else int(args.side)
        _, result = cluster_directed(
            g, args.seed_vertex, args.phi, rng, side, args.esp_steps, rng_seed=args.rng_seed
        )
    else:
        _, result = cluster_bipartite(
            g, args.seed_vertex, args.gamma, args.beta, args.alpha, args.best_sweep
        )
    if args.names:
        names = load_names(args.names)
        result.metrics["l_names"] = [names.get(v, str(v)) for v in result.l]
        result.metrics["r_names"] = [names.get(v, str(v)) for v in result.r]
    if args.json:
        print(run_result_json(result))
    elif not result.found:
        print("no qualifying pair found")
    else:
        print(f"L ({len(result.l)}): {result.l}")
        print(f"R ({len(result.r)}): {result.r}")
        for key, value in result.metrics.items():
            print(f"{key}: {value}")
        print(f"wall_ms: {result.wall_ms:.2f}")
    return 0


def _cmd_eval(args) -> int:
    try:
        result = json.loads(read_text(args.output))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{args.output}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(result, dict):
        raise ParseError(f"{args.output}: a result must be a JSON object")
    labels = load_labels(args.labels)
    try:
        first, second = (int(part) for part in args.pair.split(","))
    except ValueError:
        raise ValueError(f"--pair expects 'a,b', got {args.pair!r}")
    if first == second:
        raise ValueError(f"--pair needs two different labels, got {args.pair!r}")
    l, r = result.get("l", []), result.get("r", [])
    for name, ids in (("l", l), ("r", r)):
        if not isinstance(ids, list) or any(type(v) is not int for v in ids):
            raise ParseError(f"{args.output}: {name!r} must be a list of integer vertex ids")
    for v in l + r:
        if not 0 <= v < labels.size:
            raise ParseError(
                f"{args.output}: vertex id {v!r} outside [0, {labels.size}) of {args.labels}"
            )
    c1 = np.flatnonzero(labels == first)
    c2 = np.flatnonzero(labels == second)
    for label, members in ((first, c1), (second, c2)):
        if members.size == 0:
            raise ValueError(f"--pair label {label} is carried by no vertex of {args.labels}")
    truth = pair_labeling(labels.size, c1, c2)
    predicted = pair_labeling(labels.size, l, r)
    report = {
        "ari": ari(truth, predicted),
        "misclassified_ratio": misclassified_ratio(l, r, c1, c2),
    }
    print(json.dumps(report, indent=2))
    return 0


def _parse_cover_set(text: str, n: int) -> set:
    keys = set()
    for item in text.split(","):
        base, _, side = item.partition(":")
        try:
            base, side = int(base), int(side)
        except ValueError:
            raise ValueError(f"--set expects base:side,... got {item!r}") from None
        try:
            keys.add(cover_vertex(as_id(base, n), side))
        except ValueError as exc:
            raise ValueError(f"--set item {item!r}: {exc}") from None
    return keys


def _cmd_oracle(args) -> int:
    g = _load_graph(args)
    if args.check == "pagerank":
        seed = as_id(args.seed_vertex, g.n)
        s = np.zeros(g.n if args.base else 2 * g.n)
        s[seed if args.base else cover_vertex(seed, args.side)] = 1.0
        vec = exact_pagerank(g, not args.base, args.alpha, s)
        if args.base:
            entries = [{"vertex": v, "mass": m} for v, m in enumerate(vec.tolist()) if m > 0]
        else:
            entries = [
                {"vertex": key >> 1, "side": (key & 1) + 1, "mass": m}
                for key, m in enumerate(vec.tolist())
                if m > 0
            ]
        print(json.dumps({"alpha": args.alpha, "entries": entries}, indent=2))
    elif args.check == "kernel":
        start = _parse_cover_set(args.set, g.n)
        k, k_hat = exact_esp_kernel(g, start)
        rows = []
        for succ in sorted(k_hat, key=lambda s: -k_hat[s]):
            rows.append(
                {
                    "set": sorted([[key >> 1, (key & 1) + 1] for key in succ]),
                    "k": k.get(succ, 0.0),
                    "k_hat": k_hat[succ],
                }
            )
        empty = k.get(frozenset())
        print(json.dumps({"successors": rows, "k_empty": empty}, indent=2))
    else:  # ls-curve
        p, _ = approximate_pagerank_dc(g, args.seed_vertex, args.alpha, args.epsilon)
        if not args.raw:
            p = simplify(p)
        curve = ls_curve(p, g, cover=True)
        points = [[float(x), float(y)] for x, y in zip(curve.xs, curve.ys)]
        print(json.dumps({"points": points}, indent=2))
    return 0


def _cmd_bench(args) -> int:
    if args.table == "table1":
        report = bench_mod.run_table1(n1=args.n1, trials=args.trials, rng_seed=args.rng_seed)
    else:
        report = bench_mod.run_table2(
            trials=args.trials,
            rng_seed=args.rng_seed,
            steps=args.esp_steps,
            attempts=args.attempts,
        )
    if args.json:
        print(json.dumps(asdict(report), indent=2))
        return 0
    print(f"{report.name}: {report.params}")
    for row in report.rows:
        print("  " + ", ".join(f"{key}={_fmt(value)}" for key, value in row.items()))
    print("means: " + ", ".join(f"{key}={_fmt(value)}" for key, value in report.means.items()))
    status = "PASS" if report.gates_passed else "FAIL"
    print(f"gates {report.gates}: {status} ({report.total_seconds:.1f}s)")
    return 0


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.4f}"
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="pairclust", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("generate", help="generate a synthetic graph plus labels sidecar")
    gen_sub = gen.add_subparsers(dest="model", required=True, parser_class=_Parser)
    for model, (spec_type, _) in _MODELS.items():
        sp = gen_sub.add_parser(model)
        hints = get_type_hints(spec_type)
        for f in fields(spec_type):
            flag, required = "--" + f.name.replace("_", "-"), f.default is MISSING
            default = None if required else f.default
            sp.add_argument(flag, type=hints[f.name], required=required, default=default)
        sp.add_argument("--seed", type=int, default=DEFAULT_RNG_SEED)
        sp.add_argument("-o", "--output", required=True)
        sp.set_defaults(func=_cmd_generate)

    cb = sub.add_parser("cluster-bipartite", help="find a densely connected pair (undirected)")
    cb.add_argument("-g", "--graph", required=True)
    cb.add_argument("--format", choices=["edges"], default="edges")
    cb.add_argument("--seed-vertex", type=int, required=True)
    cb.add_argument("--gamma", type=float, required=True, help="target volume")
    cb.add_argument("--beta", type=float, required=True, help="target output quality")
    cb.add_argument("--alpha", type=float, default=None, help="override teleport probability")
    cb.add_argument("--best-sweep", action="store_true", help="return best prefix, not first")
    cb.add_argument("--names", default=None)
    cb.add_argument("--json", action="store_true")
    cb.set_defaults(func=_cmd_cluster, directed=False)

    cd = sub.add_parser("cluster-directed", help="find a directed flow pair (digraph)")
    cd.add_argument("-g", "--graph", required=True)
    cd.add_argument("--format", choices=["edges", "flow"], default="edges")
    cd.add_argument("--seed-vertex", type=int, required=True)
    cd.add_argument("--side", choices=["1", "2", "both"], default="both")
    cd.add_argument("--phi", type=float, required=True, help="target flow ratio")
    cd.add_argument("--esp-steps", type=int, default=None, help="override step count")
    cd.add_argument("--rng-seed", type=int, default=DEFAULT_RNG_SEED)
    cd.add_argument("--names", default=None)
    cd.add_argument("--json", action="store_true")
    cd.set_defaults(func=_cmd_cluster, directed=True)

    ev = sub.add_parser("eval", help="score a result JSON against ground-truth labels")
    ev.add_argument("--output", required=True, help="RunResult JSON file")
    ev.add_argument("--labels", required=True)
    ev.add_argument("--pair", default="0,1", help="ground-truth labels of the planted pair")
    ev.set_defaults(func=_cmd_eval)

    orc = sub.add_parser("oracle", help="exact slow reference computations")
    orc.add_argument("check", choices=["pagerank", "kernel", "ls-curve"])
    orc.add_argument("-g", "--graph", required=True)
    orc.add_argument("--format", choices=["edges", "flow"], default="edges")
    orc.add_argument("--directed", action="store_true")
    orc.add_argument("--seed-vertex", type=int, default=0)
    orc.add_argument("--side", type=int, choices=[1, 2], default=1)
    orc.add_argument("--alpha", type=float, default=0.1)
    orc.add_argument("--epsilon", type=float, default=1e-4)
    orc.add_argument("--base", action="store_true", help="base graph instead of the cover")
    orc.add_argument("--raw", action="store_true", help="skip the simplify step (ls-curve)")
    orc.add_argument("--set", default="0:1", help="cover set as base:side,... (kernel)")
    orc.set_defaults(func=_cmd_oracle)

    bn = sub.add_parser("bench", help="run the scaled synthetic benchmarks")
    bn.add_argument("table", choices=["table1", "table2"])
    bn.add_argument("--n1", type=int, default=1000)
    bn.add_argument("--trials", type=int, default=10)
    bn.add_argument("--rng-seed", type=int, default=DEFAULT_RNG_SEED)
    bn.add_argument("--esp-steps", type=int, default=bench_mod.TABLE2_STEPS)
    bn.add_argument("--attempts", type=int, default=bench_mod.TABLE2_ATTEMPTS)
    bn.add_argument("--json", action="store_true")
    bn.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("--seed", "--rng-seed"):  # numpy rejects a negative seed without naming it
            value = getattr(args, flag[2:].replace("-", "_"), 0)
            if value < 0:
                raise ValueError(f"{flag} must be nonnegative, got {value}")
        return args.func(args)
    except (ParseError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS


if __name__ == "__main__":
    sys.exit(main())
