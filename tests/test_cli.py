import json
import os
import shlex
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import pairclust
from pairclust import Graph, cli, esp, write_edge_list
from pairclust.cli import main

DATA_DIR = Path(__file__).parent / "data"
README = Path(__file__).parents[1] / "README.md"


def bipartite_island(tmp_path):
    """4-cycle (a perfect pair) plus a separate triangle."""
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)])
    path = tmp_path / "island.edgelist"
    write_edge_list(g, path)
    return path


def small_digraph(tmp_path):
    g = Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (0, 2)], directed=True)
    path = tmp_path / "dg.edgelist"
    write_edge_list(g, path)
    return path


class TestGenerate:
    def test_sbm_writes_graph_and_labels(self, tmp_path, capsys):
        out = tmp_path / "sbm.edgelist"
        code = main(
            ["generate", "sbm", "--n1", "20", "--p1", "0.1", "--q1", "0.5", "--seed", "3", "-o", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert (tmp_path / "sbm.edgelist.labels").exists()
        assert "wrote" in capsys.readouterr().out

    def test_cbm_plus(self, tmp_path):
        out = tmp_path / "cbmp.edgelist"
        code = main(
            ["generate", "cbm+", "--k", "3", "--n", "15", "--n-prime", "6", "--seed", "1", "-o", str(out)]
        )
        assert code == 0
        labels = (tmp_path / "cbmp.edgelist.labels").read_text().splitlines()
        assert len(labels) == 3 * 15 + 12

    def test_identical_seed_identical_file(self, tmp_path):
        a = tmp_path / "a.edgelist"
        b = tmp_path / "b.edgelist"
        args = ["generate", "cbm", "--k", "3", "--n", "12", "--p", "0.1", "--q", "0.2", "--seed", "5"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("model, extra", [("cbm", []), ("cbm+", ["--n-prime", "3"])])
    def test_cycle_of_two_clusters_exits_3(self, tmp_path, capsys, model, extra):
        out = tmp_path / "g.edgelist"
        assert main(["generate", model, "--k", "2", "--n", "10", *extra, "-o", str(out)]) == 3
        assert "k >= 3, got 2" in capsys.readouterr().err
        assert not out.exists()


class TestClusterBipartite:
    def test_finds_island_pair(self, tmp_path, capsys):
        path = bipartite_island(tmp_path)
        code = main(
            [
                "cluster-bipartite",
                "-g",
                str(path),
                "--seed-vertex",
                "0",
                "--gamma",
                "20",
                "--beta",
                "0.1",
                "--alpha",
                "0.3",
                "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["found"] is True
        assert sorted(data["l"] + data["r"]) == [0, 1, 2, 3]
        assert data["metrics"]["beta"] == 0.0
        assert data["metrics"]["conductance_in_cover"] == 0.0
        assert data["graph"]["n"] == 7

    def test_not_found_is_success(self, tmp_path, capsys):
        path = tmp_path / "tri.edgelist"
        write_edge_list(Graph(3, [(0, 1), (1, 2), (2, 0)]), path)
        code = main(
            [
                "cluster-bipartite",
                "-g",
                str(path),
                "--seed-vertex",
                "0",
                "--gamma",
                "10",
                "--beta",
                "1e-9",
                "--alpha",
                "0.5",
                "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["found"] is False
        assert data["l"] == [] and data["r"] == []

    def test_names_sidecar_in_output(self, tmp_path, capsys):
        path = bipartite_island(tmp_path)
        names = tmp_path / "island.names"
        names.write_text("0 north\n1 east\n2 south\n3 west\n")
        code = main(
            [
                "cluster-bipartite",
                "-g",
                str(path),
                "--seed-vertex",
                "0",
                "--gamma",
                "20",
                "--beta",
                "0.1",
                "--alpha",
                "0.3",
                "--names",
                str(names),
                "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["metrics"]["l_names"] == ["north", "south"]
        assert data["metrics"]["r_names"] == ["east", "west"]

    @pytest.mark.parametrize("case", ["found", "not found", "names", "directed"])
    def test_json_text_is_the_indented_asdict(self, tmp_path, capsys, monkeypatch, case):
        # the golden test compares parsed dicts; this pins the text itself
        results, to_json = [], cli.run_result_json

        def keep(result):
            results.append(result)
            return to_json(result)

        monkeypatch.setattr(cli, "run_result_json", keep)
        path = bipartite_island(tmp_path)
        if case == "not found":
            path = tmp_path / "tri.edgelist"
            write_edge_list(Graph(3, [(0, 1), (1, 2), (2, 0)]), path)
        argv = ["cluster-bipartite", "-g", str(path), "--seed-vertex", "0", "--gamma", "20"]
        argv += ["--beta", "0.1", "--alpha", "0.3", "--json"]
        if case == "names":
            names = tmp_path / "island.names"
            names.write_text("0 north\n1 east\n2 s\u00fcd\n3 west\n")
            argv += ["--names", str(names)]
        if case == "directed":
            argv = ["cluster-directed", "-g", str(small_digraph(tmp_path)), "--side", "both"]
            argv += ["--seed-vertex", "0", "--phi", "0.5", "--esp-steps", "3", "--json"]
        assert main(argv) == 0
        (result,) = results
        assert result.found is (case != "not found")
        assert capsys.readouterr().out == json.dumps(asdict(result), indent=2) + "\n"

    def test_golden_schema(self, tmp_path, capsys):
        path = bipartite_island(tmp_path)
        code = main(
            [
                "cluster-bipartite",
                "-g",
                str(path),
                "--seed-vertex",
                "0",
                "--gamma",
                "20",
                "--beta",
                "0.1",
                "--alpha",
                "0.3",
                "--json",
            ]
        )
        assert code == 0
        got = json.loads(capsys.readouterr().out)
        golden = json.loads((DATA_DIR / "golden_cluster_bipartite.json").read_text())
        got.pop("wall_ms")
        golden.pop("wall_ms")
        assert got == golden


class TestClusterDirected:
    def test_weighted_flow_matches_golden_apart_from_timing(self, capsys, monkeypatch):
        # 300 regions whose flows run mostly from group g to group g+1 mod 3: the arc
        # weights |M_jl - M_lj| / (M_jl + M_lj) are not integers, and the samples grow
        # into the array form, so the golden pins what the weighted array path returns
        path = DATA_DIR / "flow_cyclic.csv"
        weights = pairclust.load_flow_matrix(path).weights
        assert not np.array_equal(weights, np.round(weights))
        conversions, to_arrays = [], esp._to_arrays
        monkeypatch.setattr(esp, "_to_arrays", lambda s: conversions.append(1) or to_arrays(s))
        argv = ["cluster-directed", "-g", str(path), "--format", "flow", "--seed-vertex", "0"]
        argv += ["--phi", "0.1", "--esp-steps", "12", "--rng-seed", "1", "--json"]
        assert main(argv) == 0
        assert conversions
        got = json.loads(capsys.readouterr().out)
        golden = json.loads((DATA_DIR / "golden_cluster_directed_flow.json").read_text())
        assert got.pop("wall_ms") >= 0
        golden.pop("wall_ms")
        assert got == golden

    def test_pair_holding_the_whole_cover_volume_reports_null_conductance(self, tmp_path, capsys):
        # the one arc 0 -> 1 is a perfect pair whose L1 u R2 holds the whole cover
        # volume; its cover conductance is undefined and used to end the run with exit 3
        path = tmp_path / "arc.edgelist"
        path.write_text("0 1\n")
        argv = ["cluster-directed", "-g", str(path), "--seed-vertex", "0", "--phi", "0.1"]
        assert main(argv + ["--esp-steps", "5", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["found"] is True
        assert data["metrics"]["flow_ratio"] == 0.0
        assert data["metrics"]["conductance_in_cover"] is None

    def test_side_both_reports_lower_flow(self, tmp_path, capsys):
        path = small_digraph(tmp_path)
        code = main(
            [
                "cluster-directed",
                "-g",
                str(path),
                "--seed-vertex",
                "0",
                "--side",
                "both",
                "--phi",
                "0.5",
                "--esp-steps",
                "3",
                "--rng-seed",
                "11",
                "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rng_seed"] == 11
        if data["found"]:
            assert "flow_ratio" in data["metrics"]
            assert "cut_imbalance" in data["metrics"]

    def test_fixed_rng_seed_identical_json(self, tmp_path, capsys):
        path = small_digraph(tmp_path)
        args = [
            "cluster-directed",
            "-g",
            str(path),
            "--seed-vertex",
            "0",
            "--side",
            "both",
            "--phi",
            "0.5",
            "--esp-steps",
            "4",
            "--rng-seed",
            "2",
            "--json",
        ]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        first.pop("wall_ms")
        second.pop("wall_ms")
        assert first == second

    def test_flow_matrix_ingestion(self, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        matrix.write_text("0,1,9\n1,0,1\n1,2,5\n2,1,1\n2,0,4\n")
        code = main(
            [
                "cluster-directed",
                "-g",
                str(matrix),
                "--format",
                "flow",
                "--seed-vertex",
                "0",
                "--side",
                "1",
                "--phi",
                "0.5",
                "--esp-steps",
                "2",
                "--json",
            ]
        )
        assert code == 0
        json.loads(capsys.readouterr().out)


class TestEval:
    def test_scores_result_against_labels(self, tmp_path, capsys):
        result = {"l": [0, 1], "r": [2, 3], "found": True}
        result_path = tmp_path / "r.json"
        result_path.write_text(json.dumps(result))
        labels_path = tmp_path / "g.labels"
        labels_path.write_text("0 0\n1 0\n2 1\n3 1\n4 2\n5 2\n")
        code = main(["eval", "--output", str(result_path), "--labels", str(labels_path)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ari"] == 1.0
        assert report["misclassified_ratio"] == 0.0

    def test_pair_selection(self, tmp_path, capsys):
        result = {"l": [4], "r": [5], "found": True}
        result_path = tmp_path / "r.json"
        result_path.write_text(json.dumps(result))
        labels_path = tmp_path / "g.labels"
        labels_path.write_text("0 0\n1 0\n2 1\n3 1\n4 2\n5 3\n")
        code = main(
            ["eval", "--output", str(result_path), "--labels", str(labels_path), "--pair", "2,3"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ari"] == 1.0

    @pytest.mark.parametrize("l, bad", [([0, 5], 5), ([-1], -1)])
    def test_result_id_outside_labels_is_parse_error(self, tmp_path, capsys, l, bad):
        result_path = tmp_path / "r.json"
        result_path.write_text(json.dumps({"l": l, "r": [1], "found": True}))
        labels_path = tmp_path / "g.labels"
        labels_path.write_text("0 0\n1 1\n")
        code = main(["eval", "--output", str(result_path), "--labels", str(labels_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(result_path) in err and f"vertex id {bad} " in err

    def test_non_object_result_is_parse_error(self, tmp_path, capsys):
        result_path = tmp_path / "r.json"
        result_path.write_text("[1, 2]")
        labels_path = tmp_path / "g.labels"
        labels_path.write_text("0 0\n1 1\n")
        code = main(["eval", "--output", str(result_path), "--labels", str(labels_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(result_path) in err and "JSON object" in err

    @pytest.mark.parametrize("l", [5, [True], [1.0]], ids=["int", "bool", "float"])
    def test_ids_not_an_int_list_is_parse_error(self, tmp_path, capsys, l):
        # a bare int used to end in a TypeError traceback; true was read as vertex 1
        result_path = tmp_path / "r.json"
        result_path.write_text(json.dumps({"l": l, "r": [0], "found": True}))
        labels_path = tmp_path / "g.labels"
        labels_path.write_text("0 0\n1 1\n")
        code = main(["eval", "--output", str(result_path), "--labels", str(labels_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(result_path) in err and "'l' must be a list of integer vertex ids" in err

    def test_pair_label_carried_by_no_vertex_rejected(self, tmp_path, capsys):
        # an ARI against an empty planted cluster would be meaningless
        result_path = tmp_path / "r.json"
        result_path.write_text(json.dumps({"l": [0], "r": [1], "found": True}))
        labels_path = tmp_path / "g.labels"
        labels_path.write_text("0 0\n1 0\n2 1\n3 1\n")
        code = main(
            ["eval", "--output", str(result_path), "--labels", str(labels_path), "--pair", "0,7"]
        )
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "label 7" in err and str(labels_path) in err

    def test_pair_of_one_label_names_the_flag(self, tmp_path, capsys):
        # `--pair 0,0` used to fail as "L and R must be disjoint", blaming the result
        result_path = tmp_path / "r.json"
        result_path.write_text(json.dumps({"l": [0], "r": [1], "found": True}))
        labels_path = tmp_path / "g.labels"
        labels_path.write_text("0 0\n1 0\n2 1\n")
        code = main(
            ["eval", "--output", str(result_path), "--labels", str(labels_path), "--pair", "0,0"]
        )
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "--pair needs two different labels, got '0,0'" in err


class TestOracle:
    def test_pagerank_check(self, tmp_path, capsys):
        path = bipartite_island(tmp_path)
        code = main(
            ["oracle", "pagerank", "-g", str(path), "--seed-vertex", "0", "--alpha", "0.4"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        total = sum(entry["mass"] for entry in data["entries"])
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("vertex", ["7", "-1"])
    def test_pagerank_seed_vertex_out_of_range(self, tmp_path, capsys, vertex):
        # past the end used to raise IndexError; -1 used to wrap to the last vertex
        path = bipartite_island(tmp_path)
        code = main(["oracle", "pagerank", "-g", str(path), "--seed-vertex", vertex])
        assert code == 3
        assert f"vertex id {vertex} out of range [0, 7)" in capsys.readouterr().err

    def test_kernel_check(self, tmp_path, capsys):
        path = small_digraph(tmp_path)
        code = main(
            ["oracle", "kernel", "-g", str(path), "--directed", "--set", "0:1,1:2"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        mass = sum(row["k_hat"] for row in data["successors"])
        assert mass == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("cover_set, item", [("0", "0"), ("0:1,1", "1"), ("0:x", "0:x")])
    def test_kernel_set_item_without_base_and_side_is_three(self, tmp_path, capsys, cover_set, item):
        # used to print "invalid literal for int() with base 10: ''"
        path = small_digraph(tmp_path)
        argv = ["oracle", "kernel", "-g", str(path), "--directed", "--set", cover_set]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: --set expects base:side,... got {item!r}" in err

    @pytest.mark.parametrize(
        "cover_set, item, reason",
        [
            ("99:1", "99:1", "vertex id 99 out of range [0, 4)"),
            ("0:1,-1:2", "-1:2", "vertex id -1 out of range [0, 4)"),
            ("1:3", "1:3", "side must be 1 or 2"),
        ],
    )
    def test_kernel_set_item_it_cannot_use_is_named(self, tmp_path, capsys, cover_set, item, reason):
        # a base past the graph used to be named by its cover key: "cover vertex 198 out of range"
        path = small_digraph(tmp_path)
        argv = ["oracle", "kernel", "-g", str(path), "--directed", "--set", cover_set]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --set item {item!r}: {reason}\n"

    def test_ls_curve_check(self, tmp_path, capsys):
        path = bipartite_island(tmp_path)
        code = main(
            ["oracle", "ls-curve", "-g", str(path), "--seed-vertex", "0", "--alpha", "0.3", "--epsilon", "1e-3"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        xs = [pt[0] for pt in data["points"]]
        assert xs == sorted(xs)

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_ls_curve_non_finite_epsilon_is_three(self, tmp_path, capsys, epsilon):
        # used to exit 0 with an all-zero curve
        path = bipartite_island(tmp_path)
        argv = ["oracle", "ls-curve", "-g", str(path), "--seed-vertex", "0", "--epsilon", epsilon]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "epsilon must be finite and positive" in err


class TestBench:
    def test_table1_small(self, capsys):
        code = main(["bench", "table1", "--n1", "100", "--trials", "2", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["rows"]) == 2
        assert "mean_ari" in data["means"]

    def test_table2_small_concurrent(self, capsys):
        code = main(
            ["bench", "table2", "--trials", "2", "--esp-steps", "6", "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["rows"]) == 2

    @pytest.mark.parametrize(
        "table, argv",
        [
            ("table1", ["--n1", "100", "--trials", "3"]),
            ("table2", ["--trials", "2", "--esp-steps", "6"]),
        ],
    )
    def test_matches_golden_apart_from_timing(self, capsys, table, argv):
        # every row, param, mean and gate, in key order; only the timing fields drop out
        assert main(["bench", table, *argv, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        data.pop("total_seconds")
        data["means"].pop("mean_wall_ms")
        for row in data["rows"]:
            row.pop("wall_ms")
        golden = (DATA_DIR / f"golden_bench_{table}.json").read_text(encoding="utf-8")
        assert json.dumps(data, indent=2) + "\n" == golden

    @pytest.mark.parametrize("table", ["table1", "table2"])
    def test_zero_trials_rejected(self, capsys, table):
        code = main(["bench", table, "--n1", "100", "--trials", "0"])
        assert code == 3
        out, err = capsys.readouterr()
        assert "trials must be at least 1" in err and "nan" not in out

    @pytest.mark.parametrize("n1", ["0", "-3"])
    def test_nonpositive_n1_rejected(self, capsys, n1):
        # checked before p1 = 1/n1 divides
        code = main(["bench", "table1", f"--n1={n1}", "--trials", "1"])
        assert code == 3
        assert f"n1 must be at least 1, got {n1}" in capsys.readouterr().err


def _readme_commands():
    """The argv of every `pairclust` line of README.md's CLI block, with its `> FILE` target."""
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    commands = []
    for line in block.splitlines():
        if line.startswith("pairclust "):
            words = shlex.split(line)
            at = words.index(">") if ">" in words else len(words)
            commands.append((words[1:at], words[at + 1 :]))
    return commands


class TestReadme:
    def test_cli_block_runs(self, tmp_path, monkeypatch, capsys):
        # every line exits 0 in a fresh directory; a full bench run takes minutes, so those parse only
        monkeypatch.chdir(tmp_path)
        commands = _readme_commands()
        assert len(commands) >= 10 and sum(argv[0] == "bench" for argv, _ in commands) == 2
        for argv, target in commands:
            if argv[0] == "bench":
                cli.build_parser().parse_args(argv)
                continue
            assert main(argv) == 0, (argv, capsys.readouterr().err)
            out = capsys.readouterr().out
            if target:
                Path(target[0]).write_text(out, encoding="utf-8")


class TestExitCodes:
    def test_usage_error_is_one(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["cluster-bipartite", "--seed-vertex", "0"])
        assert excinfo.value.code == 1

    def test_abbreviated_option_is_a_usage_error(self, tmp_path, capsys):
        # `--seed` once matched `--seed-vertex` by prefix and replaced the seed vertex
        argv = ["cluster-directed", "-g", str(small_digraph(tmp_path)), "--seed-vertex", "0"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--phi", "0.5", "--seed", "2", "--json"])
        assert excinfo.value.code == 1
        assert "unrecognized arguments: --seed 2" in capsys.readouterr().err

    def test_io_error_is_two(self, capsys):
        code = main(
            [
                "cluster-bipartite",
                "-g",
                "/nonexistent/g.edgelist",
                "--seed-vertex",
                "0",
                "--gamma",
                "10",
                "--beta",
                "0.5",
            ]
        )
        assert code == 2

    def test_parse_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.edgelist"
        bad.write_text("0 0\n")
        code = main(
            ["cluster-bipartite", "-g", str(bad), "--seed-vertex", "0", "--gamma", "10", "--beta", "0.5"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "text, argv",
        [
            ("0 1\n9223372036854775808 2\n", ["cluster-bipartite", "--gamma", "10", "--beta", "0.5"]),
            ("0,1,3\n9223372036854775808,2,1\n", ["cluster-directed", "--format", "flow", "--phi", "0.5"]),
        ],
    )
    def test_id_outside_int64_is_two(self, tmp_path, capsys, text, argv):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        code = main(argv + ["-g", str(bad), "--seed-vertex", "0"])
        assert code == 2
        assert f"{bad}:2: 9223372036854775808 does not fit in int64" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, argv",
        [
            ("0 1\n1 9223372036854775807\n", ["cluster-bipartite", "--gamma", "10", "--beta", "0.5"]),
            ("0,1,3\n9223372036854775807,2,1\n", ["cluster-directed", "--format", "flow", "--phi", "0.5"]),
        ],
    )
    def test_id_too_large_for_a_graph_is_two(self, tmp_path, capsys, text, argv):
        # inside int64, but n*n would overflow the int64 edge keys
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        code = main(argv + ["-g", str(bad), "--seed-vertex", "0"])
        assert code == 2
        assert f"{bad}:2: vertex id 9223372036854775807 too large" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, argv",
        [
            (b"0 1\n\xff 2\n", ["cluster-bipartite", "--gamma", "10", "--beta", "0.5"]),
            (b"0,1,3\n\xff,2,1\n", ["cluster-directed", "--format", "flow", "--phi", "0.5"]),
        ],
    )
    def test_graph_file_not_utf8_is_two(self, tmp_path, capsys, data, argv):
        # UnicodeDecodeError is a ValueError, which used to end in exit 3 naming no file
        bad = tmp_path / "bad.txt"
        bad.write_bytes(data)
        code = main(argv + ["-g", str(bad), "--seed-vertex", "0"])
        assert code == 2
        assert f"{bad}:2: not valid UTF-8" in capsys.readouterr().err

    def test_flow_pair_total_past_the_float_range_is_two(self, tmp_path, capsys):
        # used to exit 3 with "edge weights must be finite and > 0", naming no file
        bad = tmp_path / "m.csv"
        bad.write_text("0,1,1e308\n0,1,1e308\n1,0,1e308\n")
        argv = ["cluster-directed", "--format", "flow", "--phi", "0.5", "--seed-vertex", "0"]
        assert main(argv + ["-g", str(bad)]) == 2
        assert f"{bad}: the flows 0,1 and 1,0 total past the float range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["cluster-directed", "--phi", "0.5", "--esp-steps", "3"],
            ["cluster-bipartite", "--gamma", "10", "--beta", "0.5"],
        ],
        ids=["directed", "bipartite"],
    )
    def test_volume_past_the_float_range_is_two(self, tmp_path, capsys, argv):
        # the directed run used to end in an IndexError from the walker, and the
        # bipartite one in "no qualifying pair found" with exit 0
        big = tmp_path / "big.edges"
        big.write_text("0 1 1e308\n0 2 1e308\n2 3 1\n3 1 1\n")
        assert main(argv + ["-g", str(big), "--seed-vertex", "0"]) == 2
        want = f"{big}: the total cover volume is past the float range: vertex 0 has a degree past it"
        assert want in capsys.readouterr().err

    def test_result_json_syntax_error_names_the_file(self, tmp_path, capsys):
        result_path = tmp_path / "r.json"
        result_path.write_text('{"l": [0],\n "r": [1],')
        labels_path = tmp_path / "g.labels"
        labels_path.write_text("0 0\n1 1\n")
        code = main(["eval", "--output", str(result_path), "--labels", str(labels_path)])
        assert code == 2
        assert f"{result_path}:2: Expecting property name" in capsys.readouterr().err

    def test_result_json_not_utf8_is_two(self, tmp_path, capsys):
        result_path = tmp_path / "r.json"
        result_path.write_bytes(b'{"l": [0],\n "r": [1], "found": true, "name": "\xff"}')
        labels_path = tmp_path / "g.labels"
        labels_path.write_text("0 0\n1 1\n")
        code = main(["eval", "--output", str(result_path), "--labels", str(labels_path)])
        assert code == 2
        assert f"{result_path}:2: not valid UTF-8" in capsys.readouterr().err

    def test_phi_past_the_step_limit_is_three(self, tmp_path):
        # phi = 1e-30 derives about 10**18 evolving-set steps; this used to run until killed
        argv = ["cluster-directed", "-g", str(small_digraph(tmp_path)), "--seed-vertex", "0"]
        env = {**os.environ, "PYTHONPATH": str(Path(pairclust.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "pairclust.cli", *argv, "--phi", "1e-30"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 3
        assert done.stdout == ""
        assert "phi=1e-30 asks for" in done.stderr

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["generate", "sbm", "--n1", "10", "--p1", "0.1", "--q1", "0.2", "-o", "g.edgelist"], "--seed"),
            (["cluster-directed", "--seed-vertex", "0", "--phi", "0.1"], "--rng-seed"),
            (["bench", "table2", "--trials", "1"], "--rng-seed"),
        ],
    )
    def test_negative_seed_names_the_flag(self, tmp_path, monkeypatch, capsys, argv, flag):
        # numpy's message used to be the whole error: "expected non-negative integer"
        monkeypatch.chdir(tmp_path)
        if argv[0] == "cluster-directed":
            argv = [*argv, "-g", str(small_digraph(tmp_path))]
        assert main([*argv, flag, "-1"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {flag} must be nonnegative, got -1\n"
        assert not (tmp_path / "g.edgelist").exists()

    def test_invalid_params_is_three(self, tmp_path):
        path = bipartite_island(tmp_path)
        code = main(
            ["cluster-bipartite", "-g", str(path), "--seed-vertex", "0", "--gamma", "-5", "--beta", "0.5"]
        )
        assert code == 3

    def test_gamma_whose_epsilon_overflows_is_three(self, tmp_path, capsys):
        # 1/(20*gamma) overflows to inf; this used to print "found": false and exit 0
        path = bipartite_island(tmp_path)
        argv = ["cluster-bipartite", "-g", str(path), "--seed-vertex", "0", "--gamma", "1e-320"]
        assert main(argv + ["--beta", "0.5", "--alpha", "0.5"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "gamma=1e-320" in err

    @pytest.mark.parametrize(
        "gamma, beta, named",
        [
            # beta_hat**2/378 underflows to 0: the derived alpha, which the user never passed
            ("10", "1e-300", "beta_hat=1e-300"),
            # 1/(20*gamma) underflows to 0: the push threshold
            ("1e308", "0.3", "gamma=1e+308"),
        ],
    )
    def test_target_whose_derived_parameter_underflows_is_three(
        self, tmp_path, capsys, gamma, beta, named
    ):
        path = bipartite_island(tmp_path)
        argv = ["cluster-bipartite", "-g", str(path), "--seed-vertex", "0", "--gamma", gamma]
        assert main(argv + ["--beta", beta]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert named in err
        assert "alpha must be" not in err and "epsilon must be" not in err

    @pytest.mark.parametrize(
        "gamma, beta, name",
        [
            ("nan", "0.5", "gamma"),
            ("inf", "0.5", "gamma"),
            ("10", "nan", "beta_hat"),
            ("10", "inf", "beta_hat"),
        ],
    )
    def test_non_finite_target_is_three(self, tmp_path, capsys, gamma, beta, name):
        # nan passes a plain `<= 0` check, so finiteness is checked explicitly
        path = bipartite_island(tmp_path)
        code = main(
            [
                "cluster-bipartite",
                "-g",
                str(path),
                "--seed-vertex",
                "0",
                "--gamma",
                gamma,
                "--beta",
                beta,
                "--alpha",
                "0.5",
            ]
        )
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{name} must be finite and positive" in err
