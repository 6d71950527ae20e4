import contextlib
import gzip
import io
import os
import re
import sys
from unittest import mock

import numpy as np
import pytest

from pairclust import (
    Graph,
    cli,
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


@contextlib.contextmanager
def _piped(data: bytes):
    """`data` (at most a pipe buffer) behind a pipe's read end, spelled /dev/fd/N."""
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, data)
        os.close(write_end)
        yield f"/dev/fd/{read_end}"
    finally:
        os.close(read_end)


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
        assert g.degrees[0] == 1.0
        assert g.in_degrees[0] == 2.0

    def test_undirected_duplicates_merge(self, tmp_path):
        f = tmp_path / "g.edgelist"
        f.write_text("0 1 1.0\n1 0 2.0\n")
        g = load_edge_list(f)
        assert g.edge_count == 1
        assert g.degree(0) == 3.0

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    def test_volume_past_the_float_range_names_the_file(self, tmp_path, directed):
        # every weight finite, vertex 0's degree not: the CLI exits 2 on it, not in the walker
        f = tmp_path / "big.edges"
        f.write_text("0 1 1e308\n0 2 1e308\n2 3 1\n3 1 1\n")
        with pytest.raises(ParseError) as info:
            load_edge_list(f, directed=directed)
        want = "the total cover volume is past the float range: vertex 0 has a degree past it"
        assert str(info.value) == f"{f}: {want}"


class TestBulkParse:
    @pytest.mark.parametrize(
        "text",
        [
            "0 1\n1 2\n2 0\n",
            "# header\n0 1 2.5  # inline\n\n1\t2\t0.5\r\n+3 0 1e-3\n",
            "",
            "# comments only\n\n",
            # flow matrices, told apart by their commas
            "0,1,3\n1,0,1\n",
            "# j,l,count\n0, 1 ,2.5  # inline\n\n1,\t2,0\r\n+3,-0,1e-3\n2,2,7\n0,1,1\n",
        ],
    )
    def test_well_formed_files_skip_the_line_parser(self, tmp_path, monkeypatch, text):
        f = tmp_path / "g.edgelist"
        f.write_text(text)
        load = load_flow_matrix if "," in text else load_edge_list
        expected = load(f)

        def refuse(path):
            raise AssertionError("the line parser was entered")

        monkeypatch.setattr(fileio, "_data_lines", refuse)
        g = load(f)
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
    @pytest.mark.parametrize(
        "text",
        ["0 1.5\n", "1.0 2\n", "0 1e18\n", "0 1 1\n1e3 2 1\n"]
        + ["0,1.5,1\n", "1.0,2,1\n", "0,1e18,1\n", "0,1,1\n1e3,2,1\n"],  # flow matrices
    )
    def test_float_spelled_ids_are_named_by_the_line_parser(self, tmp_path, text):
        f = tmp_path / "g.edgelist"
        f.write_text(text)
        flow = "," in text
        assert fileio._bulk_rows(f, fileio._FLOW_CSV if flow else fileio._EDGE_LIST) is None
        line = text.count("\n")
        with pytest.raises(ParseError, match=f"g.edgelist:{line}: invalid literal for int"):
            (load_flow_matrix if flow else load_edge_list)(f)

    def test_flow_blank_and_indented_comment_lines_keep_the_bulk_path(self, tmp_path, monkeypatch):
        # with a delimiter, numpy reads an unstripped "  " line as one empty field
        text = "0,1,3\n1,0,1\n2,1,4\n"
        plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
        plain.write_text(text)
        padded.write_text("  \n" + text + "  # c\n\t\n")
        expected = load_flow_matrix(plain)
        line_rows = mock.Mock(wraps=fileio._line_rows)
        monkeypatch.setattr(fileio, "_line_rows", line_rows)
        g = load_flow_matrix(padded)
        line_rows.assert_not_called()
        for name in ("row_indptr", "row_keys", "row_weights", "row_degrees"):
            assert getattr(g, name).tobytes() == getattr(expected, name).tobytes()
        assert graph_fingerprint(g) == graph_fingerprint(expected)

    def test_gzip_suffix_is_read_as_text(self, tmp_path):
        # numpy opens a `.gz` path as gzip; the loader must read it as text
        f = tmp_path / "g.edgelist.gz"
        f.write_text("0 1\n")
        assert load_edge_list(f).edge_count == 1

    @pytest.mark.parametrize("suffix", [".bz2", ".xz", ".lzma"])
    def test_other_decompressor_suffixes_are_read_as_text(self, tmp_path, suffix):
        f = tmp_path / f"g.edgelist{suffix}"
        f.write_text("0 1\n1 2 2.5\n")
        assert load_edge_list(f).degree(2) == 2.5

    def test_gzip_compressed_file_is_refused_as_not_utf8(self, tmp_path):
        f = tmp_path / "g.edgelist.gz"
        f.write_bytes(gzip.compress(b"0 1\n1 2\n"))
        with pytest.raises(ParseError, match=re.escape(f"{f}:1: not valid UTF-8")):
            load_edge_list(f)
        argv = ["cluster-bipartite", "-g", str(f), "--seed-vertex", "0"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main(argv + ["--gamma", "4", "--beta", "0.5", "--json"]) == 2
        assert "not valid UTF-8" in err.getvalue()

    @pytest.mark.skipif(sys.platform != "linux", reason="reads a pipe as /dev/fd/N")
    @pytest.mark.parametrize("kind", ["two-field", "three-field", "flow"])
    def test_pipe_builds_the_graph_of_the_same_file(self, tmp_path, monkeypatch, kind):
        # numpy never sees the pipe: the line parser reads it once, so no failed
        # attempt consumes it and nothing seeks it
        rng = np.random.default_rng(11)
        f = tmp_path / "g.txt"
        write_edge_list(random_undirected(rng, 30, weighted=True), f)
        lines = f.read_text().splitlines()
        if kind == "two-field":
            lines = [" ".join(line.split()[:2]) for line in lines]
        elif kind == "flow":
            rows = rng.integers(0, [30, 30, 50], size=(200, 3))
            lines = [",".join(map(str, row)) for row in rows.tolist()]
        text = "# piped\n" + "\n".join(lines) + "\n"
        f.write_text(text)
        load = load_flow_matrix if kind == "flow" else load_edge_list
        expected = load(f)
        loadtxt = mock.Mock(wraps=np.loadtxt)
        monkeypatch.setattr(np, "loadtxt", loadtxt)
        with _piped(text.encode()) as piped:
            g = load(piped)
        loadtxt.assert_not_called()
        assert g.n == expected.n and g.edge_count == expected.edge_count > 0
        for name in ("row_indptr", "row_keys", "row_weights", "row_degrees"):
            assert getattr(g, name).tobytes() == getattr(expected, name).tobytes()
        assert graph_fingerprint(g) == graph_fingerprint(expected)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads a pipe as /dev/fd/N")
    def test_pipe_errors_name_the_pipe(self):
        with _piped(b"0 1\n1 2 2.5\n2 2\n") as piped:
            with pytest.raises(ParseError, match=re.escape(f"{piped}:3: self-loop at vertex 2")):
                load_edge_list(piped)
        # the failed read consumed the pipe, or its first chunk, so no line can be
        # named: a reread of what is left would number its lines from the middle
        for data in (b"0 1\n\xff 2\n", b"\xff 1\n" + b"0 1\n" * 5000 + b"\xff 2\n"):
            with _piped(data) as piped:
                with pytest.raises(ParseError) as info:
                    load_edge_list(piped)
                assert str(info.value) == f"{piped}: not valid UTF-8"

    def test_local_path_spelled_like_a_url_loads_the_file(self, tmp_path, monkeypatch):
        (tmp_path / "a:" / "b").mkdir(parents=True)
        (tmp_path / "a:" / "b" / "g.edgelist").write_text("0 1\n1 2 2.5\n")
        loadtxt = mock.Mock(wraps=np.loadtxt)
        monkeypatch.setattr(np, "loadtxt", loadtxt)
        monkeypatch.chdir(tmp_path)
        for spelled in ("a://b/g.edgelist", f"{tmp_path}/a://b/g.edgelist"):
            assert load_edge_list(spelled).degree(2) == 2.5
            # numpy gets the absolute path, which no URL parser reads as scheme://netloc
            assert loadtxt.call_args.args[0] == str(tmp_path / "a:" / "b" / "g.edgelist")

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    def test_path_and_handle_routes_build_the_same_graph(self, tmp_path, monkeypatch, directed):
        rng = np.random.default_rng(5)
        g = (random_directed if directed else random_undirected)(rng, 30, weighted=True)
        written = tmp_path / "written.edgelist"
        write_edge_list(g, written)
        lines = written.read_text().splitlines(keepends=True)
        shuffled, two_field = tmp_path / "shuffled.edgelist", tmp_path / "two.edgelist"
        shuffled.write_text("".join(lines[i] for i in rng.permutation(len(lines))))
        two_field.write_text("".join(" ".join(line.split()[:2]) + "\n" for line in lines))
        loadtxt = mock.Mock(wraps=np.loadtxt)
        monkeypatch.setattr(np, "loadtxt", loadtxt)
        for f in (written, shuffled, two_field):
            by_path = load_edge_list(f, directed=directed)
            assert loadtxt.call_args.args[0] == str(f)
            with monkeypatch.context() as forced:  # every name reads as a decompressor suffix
                forced.setattr(fileio, "_DECOMPRESSED", ("",))
                by_handle = load_edge_list(f, directed=directed)
            assert not isinstance(loadtxt.call_args.args[0], str)
            for name in ("row_indptr", "row_keys", "row_weights", "row_degrees"):
                assert getattr(by_path, name).tobytes() == getattr(by_handle, name).tobytes()
            assert graph_fingerprint(by_path) == graph_fingerprint(by_handle)


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



class TestVertexCountLimit:
    # one past the largest id a Graph can key as u*n + v in int64
    TOO_LARGE = "3037000499"

    @pytest.mark.parametrize("line", [f"1 {2**63 - 1}", f"{TOO_LARGE} 1", f"1 {TOO_LARGE} 2.5"])
    def test_edge_list_id(self, tmp_path, line):
        f = tmp_path / "g.edgelist"
        f.write_text(f"0 1\n{line}\n")
        assert fileio._bulk_rows(f, fileio._EDGE_LIST) is None
        with pytest.raises(ParseError, match=r":2: vertex id \d+ too large"):
            load_edge_list(f)

    def test_flow_matrix_id(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text(f"0,1,3\n{2**63 - 1},1,1\n")
        with pytest.raises(ParseError, match=f":2: vertex id {2**63 - 1} too large"):
            load_flow_matrix(f)

    def test_largest_allowed_id_passes_the_parse(self):
        assert fileio._check_ids("g", 1, 0, int(self.TOO_LARGE) - 1) is None


class TestNotUtf8:
    @pytest.mark.parametrize(
        "data", [b"0 1\n\xff 2\n", b"0 1 2.0\n1 2\xfe\n", b"0 1\n1 2 1.0\n\xc3\n"]
    )
    def test_edge_list(self, tmp_path, data):
        # the second file fails the bulk parse on its shape; both parsers name the line
        f = tmp_path / "g.edgelist"
        f.write_bytes(data)
        lineno = data.count(b"\n")
        with pytest.raises(ParseError, match=re.escape(f"{f}:{lineno}: not valid UTF-8")):
            fileio._bulk_rows(f, fileio._EDGE_LIST)
        with pytest.raises(ParseError, match=re.escape(f"{f}:{lineno}: not valid UTF-8")):
            fileio._line_rows(f, fileio._EDGE_LIST)
        with pytest.raises(ParseError, match=re.escape(f"{f}:{lineno}: not valid UTF-8")):
            load_edge_list(f)

    @pytest.mark.parametrize(
        "loader, data",
        [
            (load_flow_matrix, b"0,1,3\n1,\xff,2\n"),
            (load_labels, b"0 0\n1 \xfe\n"),
            (load_names, b"0 north\n1 e\xe9st\n"),
        ],
    )
    def test_sidecars_and_flow_matrix(self, tmp_path, loader, data):
        f = tmp_path / "input.txt"
        f.write_bytes(data)
        with pytest.raises(ParseError, match=re.escape(f"{f}:2: not valid UTF-8")):
            loader(f)

    def test_error_past_the_first_read_chunk_names_its_line(self, tmp_path):
        f = tmp_path / "g.edgelist"
        for load, row, bad in [
            (load_edge_list, b"0 1\n", b"1 \x80\n"),
            (load_flow_matrix, b"0,1,3\n", b"1,\x80,2\n"),
        ]:
            f.write_bytes(row * 5000 + bad)
            with pytest.raises(ParseError, match=re.escape(f"{f}:5001: not valid UTF-8")):
                load(f)

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
        assert g.degrees[0] == pytest.approx(0.5)
        assert g.in_degrees[1] == pytest.approx(0.5)
        assert g.degrees[1] == 0.0

    def test_balanced_flow_omitted(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("0,1,5\n1,0,5\n2,0,1\n")
        g = load_flow_matrix(f)
        assert g.edge_count == 1
        assert g.degrees[2] == 1.0

    def test_one_sided_flow_weight_one(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("0,1,4\n1,0,0\n")
        g = load_flow_matrix(f)
        assert g.degrees[0] == 1.0

    def test_duplicate_rows_accumulate(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("0,1,2\n0,1,1\n1,0,1\n")
        g = load_flow_matrix(f)
        assert g.degrees[0] == pytest.approx(0.5)

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

    @pytest.mark.parametrize(
        "text, flows",
        [
            # M_01 overflows: the arc read weight nan; explicit ids keep these two test names
            pytest.param(
                "0,1,1e308\n0,1,1e308\n1,0,1e308\n", "0,1 and 1,0",
                id="0,1,1e308\n0,1,1e308\n1,0,1e308\n",
            ),
            # each finite, the total not: the arc read weight 0
            pytest.param("0,1,1e308\n1,0,9e307\n", "0,1 and 1,0", id="0,1,1e308\n1,0,9e307\n"),
            # named by the smallest ordered pair that has a row, also one of count 0
            ("1,0,1e308\n1,0,1e308\n", "1,0 and 0,1"),
            ("1,0,1e308\n0,1,0\n1,0,1e308\n", "0,1 and 1,0"),
            ("4,0,1e308\n4,0,1e308\n2,3,1e308\n3,2,1e308\n", "2,3 and 3,2"),
        ],
    )
    def test_pair_total_past_the_float_range_names_the_pair(self, tmp_path, text, flows):
        f = tmp_path / "m.csv"
        f.write_text(text)
        with pytest.raises(ParseError) as info:
            load_flow_matrix(f)
        assert str(info.value) == f"{f}: the flows {flows} total past the float range"

    def test_large_totals_inside_the_float_range_load(self, tmp_path):
        f = tmp_path / "m.csv"
        # a total of 1.7e308 fits; a self flow past the range makes no arc either way
        f.write_text("0,1,1e308\n1,0,7e307\n2,2,1e308\n2,2,1e308\n")
        g = load_flow_matrix(f)
        assert g.edge_count == 1
        assert g.degrees[0] == pytest.approx(3e307 / 1.7e308)

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

    @pytest.mark.parametrize(
        "line, message",
        [
            ("-1 West", ":2: negative vertex id"),
            (f"{10**23} West", f":2: {10**23} does not fit in int64"),
            (f"{2**63 - 1} West", f":2: vertex id {2**63 - 1} too large"),
            ("one West", ":2: invalid literal for int"),
        ],
    )
    def test_names_ids_follow_the_parse_rule(self, tmp_path, line, message):
        # -1 and 10**23 used to load as ids
        f = tmp_path / "g.names"
        f.write_text(f"0 North\n{line}\n")
        with pytest.raises(ParseError, match=re.escape(f"{f}{message}")):
            load_names(f)

    def test_names_ids_spelled_as_int_reads_them(self, tmp_path):
        # the spellings Python's int reads, as in edge lists and label files
        f = tmp_path / "g.names"
        f.write_text("+0 North\n1_0 Ten\n\u0663 Three\n007 Seven\n")
        assert load_names(f) == {0: "North", 10: "Ten", 3: "Three", 7: "Seven"}


class TestFingerprint:
    def test_stable_and_sensitive(self):
        g1 = Graph(3, [(0, 1), (1, 2)])
        g2 = Graph(3, [(1, 2), (0, 1)])
        g3 = Graph(3, [(0, 1), (1, 2, 2.0)])
        fp1, fp2, fp3 = map(graph_fingerprint, (g1, g2, g3))
        assert fp1 == fp2
        assert fp1["hash"] != fp3["hash"]
        assert fp1["n"] == 3 and fp1["m"] == 2

    def test_hashed_once_per_graph(self, monkeypatch):
        g = random_undirected(np.random.default_rng(0), 12, weighted=True)
        calls = []
        blake2b = fileio.hashlib.blake2b

        def counted(*args, **kwargs):
            calls.append(args)
            return blake2b(*args, **kwargs)

        monkeypatch.setattr(fileio.hashlib, "blake2b", counted)
        first = graph_fingerprint(g)
        assert graph_fingerprint(g) == first
        assert len(calls) == 1

    def test_returns_an_independent_dict(self):
        g = Graph(3, [(0, 1), (1, 2)])
        first = graph_fingerprint(g)
        first["hash"] = "edited"
        first["n"] = 99
        again = graph_fingerprint(g)
        assert again == graph_fingerprint(Graph(3, [(0, 1), (1, 2)]))
        assert again["hash"] != "edited" and again["n"] == 3

    @pytest.mark.parametrize("directed", [False, True])
    def test_equal_across_constructors_and_round_trip(self, tmp_path, directed):
        rng = np.random.default_rng(5)
        make = random_directed if directed else random_undirected
        g = make(rng, 10, weighted=True)
        assert g.n == 1 + int(g.indices.max())  # no trailing isolated vertex to lose
        rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
        once = slice(None) if directed else rows < g.indices
        edges = zip(rows[once].tolist(), g.indices[once].tolist(), g.weights[once].tolist())
        built = Graph(g.n, list(edges), directed=directed)
        arrays = Graph.from_arrays(
            g.n, rows[once], g.indices[once], g.weights[once], directed=directed
        )
        path = tmp_path / "g.edgelist"
        write_edge_list(g, path)
        loaded = load_edge_list(path, directed=directed)
        want = graph_fingerprint(g)
        assert [graph_fingerprint(h) for h in (built, arrays, loaded)] == [want] * 3

    def test_sensitive_to_isolated_vertex_direction_and_weight(self):
        edges = [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 1.0)]
        base = graph_fingerprint(Graph(3, edges))["hash"]
        changed = [
            Graph(4, edges),
            Graph(3, edges, directed=True),
            Graph(3, edges[:2] + [(2, 0, 1.5)]),
        ]
        hashes = {graph_fingerprint(g)["hash"] for g in changed}
        assert base not in hashes and len(hashes) == 3
