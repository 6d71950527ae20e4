import numpy as np
import pytest

from pairclust import (
    Graph,
    fileio,
    ParseError,
    graph_fingerprint,
    load_edge_list,
    load_flow_matrix,
    load_labels,
    load_names,
    write_edge_list,
    write_labels,
)
from helpers import random_directed, random_undirected


class TestLoadEdgeList:
    def test_basic_path(self, tmp_path):
        f = tmp_path / "g.edgelist"
        f.write_text("0 1\n1 2\n")
        g = load_edge_list(f)
        assert g.n == 3
        assert g.edge_count == 2
        assert g.degree(1) == 2.0

    def test_weights_and_comments(self, tmp_path):
        f = tmp_path / "g.edgelist"
        f.write_text("# header\n0 1 2.5  # inline comment\n\n1 2 0.5\n")
        g = load_edge_list(f)
        assert g.degree(0) == 2.5
        assert g.degree(1) == 3.0

    def test_self_loop_error_with_line(self, tmp_path):
        f = tmp_path / "g.edgelist"
        f.write_text("0 0 1.0\n")
        with pytest.raises(ParseError, match=":1: self-loop"):
            load_edge_list(f)

    def test_negative_weight_error(self, tmp_path):
        f = tmp_path / "g.edgelist"
        for bad in ("-3", "inf", "-inf", "nan"):
            f.write_text(f"0 1 1.0\n1 2 {bad}\n")
            with pytest.raises(ParseError, match=":2:"):
                load_edge_list(f)

    def test_malformed_line(self, tmp_path):
        f = tmp_path / "g.edgelist"
        f.write_text("0 1\nnope\n")
        with pytest.raises(ParseError, match=":2:"):
            load_edge_list(f)

    def test_directed_reads_arcs(self, tmp_path):
        f = tmp_path / "g.edgelist"
        f.write_text("0 1\n1 0 2.0\n")
        g = load_edge_list(f, directed=True)
        assert g.out_degree(0) == 1.0
        assert g.in_degree(0) == 2.0

    def test_undirected_duplicates_merge(self, tmp_path):
        f = tmp_path / "g.edgelist"
        f.write_text("0 1 1.0\n1 0 2.0\n")
        g = load_edge_list(f)
        assert g.edge_count == 1
        assert g.degree(0) == 3.0


class TestBulkParse:
    @pytest.mark.parametrize(
        "text",
        [
            "0 1\n1 2\n2 0\n",
            "# header\n0 1 2.5  # inline\n\n1\t2\t0.5\r\n+3 0 1e-3\n",
            "",
            "# comments only\n\n",
        ],
    )
    def test_well_formed_files_skip_the_line_parser(self, tmp_path, monkeypatch, text):
        f = tmp_path / "g.edgelist"
        f.write_text(text)
        expected = load_edge_list(f)

        def refuse(path):
            raise AssertionError("the line parser was entered")

        monkeypatch.setattr(fileio, "_data_lines", refuse)
        g = load_edge_list(f)
        assert g.n == expected.n
        assert np.array_equal(g.indptr, expected.indptr)
        assert np.array_equal(g.indices, expected.indices)
        assert np.array_equal(g.weights, expected.weights)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("0 1\n1 2 1.5\n2 2\n", 3),  # mixed widths, then a self-loop
            ("0 1 1.0\n1 2 0\n", 2),
            ("0 1\n-1 2\n", 2),
        ],
    )
    def test_bad_files_are_named_by_the_line_parser(self, tmp_path, text, line):
        f = tmp_path / "g.edgelist"
        f.write_text(text)
        with pytest.raises(ParseError, match=f"g.edgelist:{line}: "):
            load_edge_list(f)

    # Outside pytest, Python ignores DeprecationWarning, so a numpy that parses
    # an integer via a float would only warn and truncate the id.
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.parametrize("text", ["0 1.5\n", "1.0 2\n", "0 1e18\n", "0 1 1\n1e3 2 1\n"])
    def test_float_spelled_ids_are_named_by_the_line_parser(self, tmp_path, text):
        f = tmp_path / "g.edgelist"
        f.write_text(text)
        assert fileio._bulk_edges(f) is None
        line = text.count("\n")
        with pytest.raises(ParseError, match=f"g.edgelist:{line}: invalid literal for int"):
            load_edge_list(f)

    def test_gzip_suffix_is_read_as_text(self, tmp_path):
        # numpy opens a `.gz` path as gzip; the loader must read it as text
        f = tmp_path / "g.edgelist.gz"
        f.write_text("0 1\n")
        assert load_edge_list(f).edge_count == 1


class TestInt64Range:
    HUGE = str(2**63)

    def test_edge_list_id(self, tmp_path):
        f = tmp_path / "g.edgelist"
        f.write_text(f"0 1\n{self.HUGE} 2\n")
        with pytest.raises(ParseError, match=f":2: {self.HUGE} does not fit in int64"):
            load_edge_list(f)

    def test_flow_matrix_id(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text(f"0,1,3\n1,{self.HUGE},1\n")
        with pytest.raises(ParseError, match=":2: .* does not fit in int64"):
            load_flow_matrix(f)

    @pytest.mark.parametrize("line", [f"1 {2**63}", f"1 {-(2**63) - 1}", f"{2**63} 1"])
    def test_labels(self, tmp_path, line):
        f = tmp_path / "g.labels"
        f.write_text(f"0 0\n{line}\n")
        with pytest.raises(ParseError, match=":2: .* does not fit in int64"):
            load_labels(f)

    def test_int64_extremes_still_load(self, tmp_path):
        f = tmp_path / "g.labels"
        f.write_text(f"0 {2**63 - 1}\n1 {-(2**63)}\n")
        assert load_labels(f).tolist() == [2**63 - 1, -(2**63)]


class TestWriteEdgeList:
    @pytest.mark.parametrize("directed", [False, True])
    def test_round_trip_is_byte_stable(self, tmp_path, directed):
        rng = np.random.default_rng(0)
        g = (random_directed if directed else random_undirected)(rng, 9, weighted=True)
        first = tmp_path / "a.edgelist"
        second = tmp_path / "b.edgelist"
        write_edge_list(g, first)
        write_edge_list(load_edge_list(first, directed=directed), second)
        assert first.read_bytes() == second.read_bytes()

    def test_canonical_order(self, tmp_path):
        g = Graph(3, [(2, 1), (1, 0)])
        f = tmp_path / "g.edgelist"
        write_edge_list(g, f)
        assert f.read_text() == "0 1 1.0\n1 2 1.0\n"


class TestLoadFlowMatrix:
    def test_asymmetric_flow(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("0,1,3\n1,0,1\n")
        g = load_flow_matrix(f)
        assert g.directed
        assert g.out_degree(0) == pytest.approx(0.5)
        assert g.in_degree(1) == pytest.approx(0.5)
        assert g.out_degree(1) == 0.0

    def test_balanced_flow_omitted(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("0,1,5\n1,0,5\n2,0,1\n")
        g = load_flow_matrix(f)
        assert g.edge_count == 1
        assert g.out_degree(2) == 1.0

    def test_one_sided_flow_weight_one(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("0,1,4\n1,0,0\n")
        g = load_flow_matrix(f)
        assert g.out_degree(0) == 1.0

    def test_duplicate_rows_accumulate(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("0,1,2\n0,1,1\n1,0,1\n")
        g = load_flow_matrix(f)
        assert g.out_degree(0) == pytest.approx(0.5)

    def test_negative_count_rejected(self, tmp_path):
        f = tmp_path / "m.csv"
        for bad in ("-2", "inf", "nan"):
            f.write_text(f"0,1,{bad}\n")
            with pytest.raises(ParseError, match=":1:"):
                load_flow_matrix(f)

    def test_malformed_row(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("0;1;2\n")
        with pytest.raises(ParseError):
            load_flow_matrix(f)

    def test_self_flow_ignored(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("0,0,9\n0,1,1\n")
        g = load_flow_matrix(f)
        assert g.edge_count == 1


class TestSidecars:
    def test_labels_round_trip(self, tmp_path):
        labels = np.array([0, 2, 1, 1])
        f = tmp_path / "g.labels"
        write_labels(labels, f)
        assert np.array_equal(load_labels(f), labels)

    def test_labels_gap_and_repeat_rejected(self, tmp_path):
        f = tmp_path / "g.labels"
        f.write_text("0 0\n2 1\n3 1\n")
        with pytest.raises(ParseError, match="vertex 1 has no label"):
            load_labels(f)
        f.write_text("0 0\n1 0\n1 1\n")
        with pytest.raises(ParseError, match=":3: vertex 1 labelled twice"):
            load_labels(f)

    def test_names(self, tmp_path):
        f = tmp_path / "g.names"
        f.write_text("0 Alpha Prime\n1 Beta\n")
        names = load_names(f)
        assert names == {0: "Alpha Prime", 1: "Beta"}


class TestFingerprint:
    def test_stable_and_sensitive(self):
        g1 = Graph(3, [(0, 1), (1, 2)])
        g2 = Graph(3, [(1, 2), (0, 1)])
        g3 = Graph(3, [(0, 1), (1, 2, 2.0)])
        fp1, fp2, fp3 = map(graph_fingerprint, (g1, g2, g3))
        assert fp1 == fp2
        assert fp1["hash"] != fp3["hash"]
        assert fp1["n"] == 3 and fp1["m"] == 2
