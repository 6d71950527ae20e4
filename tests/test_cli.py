import json
from pathlib import Path

import pytest

from pairclust import Graph, write_edge_list
from pairclust.cli import main

DATA_DIR = Path(__file__).parent / "data"


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
        assert f"--seed-vertex {vertex} outside [0, 7)" in capsys.readouterr().err

    def test_kernel_check(self, tmp_path, capsys):
        path = small_digraph(tmp_path)
        code = main(
            ["oracle", "kernel", "-g", str(path), "--directed", "--set", "0:1,1:2"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        mass = sum(row["k_hat"] for row in data["successors"])
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_ls_curve_check(self, tmp_path, capsys):
        path = bipartite_island(tmp_path)
        code = main(
            ["oracle", "ls-curve", "-g", str(path), "--seed-vertex", "0", "--alpha", "0.3", "--epsilon", "1e-3"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        xs = [pt[0] for pt in data["points"]]
        assert xs == sorted(xs)


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


class TestExitCodes:
    def test_usage_error_is_one(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["cluster-bipartite", "--seed-vertex", "0"])
        assert excinfo.value.code == 1

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

    def test_invalid_params_is_three(self, tmp_path):
        path = bipartite_island(tmp_path)
        code = main(
            ["cluster-bipartite", "-g", str(path), "--seed-vertex", "0", "--gamma", "-5", "--beta", "0.5"]
        )
        assert code == 3

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
