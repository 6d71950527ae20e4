"""File formats: edge lists, pairwise flow matrices, label and name sidecars.

One reader, `_read_rows`, parses edge lists and flow matrices, each given as a `_Format`:
one `np.loadtxt` pass with bulk checks, and the line parser, which names `path:line`,
for any file that pass refuses. Both paths give the same arrays. numpy reads a plain
local edge list by path, in C chunks, other files as a handle, and pipes line by line."""

from __future__ import annotations

import hashlib
import os
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .graph import MAX_VERTICES, Graph, sum_by_key

__all__ = [
    "ParseError",
    "load_edge_list",
    "write_edge_list",
    "load_flow_matrix",
    "load_labels",
    "write_labels",
    "load_names",
    "graph_fingerprint",
]


class ParseError(ValueError):
    """Malformed input file; the message carries the offending line number."""


class _Format(NamedTuple):
    """Rows `u v [w]`: the delimiter (None: whitespace), the field counts (widest first),
    the usage shown for a malformed line, and the value rules. A rule is a predicate of
    (u, v, w), scalars or arrays, and the message (of u and w) for a line it refuses."""

    delimiter: str | None
    widths: tuple
    usage: str
    rules: tuple


_EDGE_LIST = _Format(None, (3, 2), "u v [w]", (
    (lambda u, v, w: u != v, "self-loop at vertex {u}"),
    (lambda u, v, w: (w > 0) & (w < np.inf), "edge weight must be finite and > 0, got {w}"),
))
_FLOW_CSV = _Format(",", (3,), "j,l,count", (
    (lambda u, v, w: (w >= 0) & (w < np.inf), "count must be finite and >= 0, got {w}"),
))
_FIELDS = [("u", "i8"), ("v", "i8"), ("w", "f8")]
_INT64 = np.iinfo(np.int64)
_DECOMPRESSED = (".gz", ".bz2", ".xz", ".lzma")  # suffixes numpy opens with a decompressor


def _int64(token: str) -> int:
    """`int(token)`, refused with a ValueError if it does not fit in an int64 array."""
    value = int(token)
    if not _INT64.min <= value <= _INT64.max:
        raise ValueError(f"{token} does not fit in int64")
    return value


def _check_ids(path, lineno: int, *ids: int):
    """Refuse negative ids and ids too large for a Graph, naming the line."""
    if min(ids) < 0:
        raise ParseError(f"{path}:{lineno}: negative vertex id")
    if max(ids) >= MAX_VERTICES:
        raise ParseError(
            f"{path}:{lineno}: vertex id {max(ids)} too large (ids must be below {MAX_VERTICES})"
        )


def _not_utf8(path) -> ParseError:
    """A ParseError naming the first line of `path` that is not valid UTF-8, or only the
    path of a pipe or device: the failed read consumed it, and a reopen could hang."""
    if os.path.isfile(path):
        with open(path, "rb") as handle:
            for lineno, raw in enumerate(handle, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    return ParseError(f"{path}:{lineno}: not valid UTF-8 ({exc.reason})")
    return ParseError(f"{path}: not valid UTF-8")


def read_text(path) -> str:
    """The whole of a UTF-8 text file; a ParseError names the first line that is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _data_lines(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if line:
                    yield lineno, line
        except UnicodeDecodeError:
            raise _not_utf8(path) from None


def load_edge_list(path, directed: bool = False) -> Graph:
    """Read a text edge list: one `u v [w]` per line, `#` comments, 0-based ids.

    The weight defaults to 1.0. Directed files read `u v` as an arc u -> v.
    Parallel edges merge by weight sum; self-loops and nonpositive or
    non-finite weights are rejected with the line number, and weights whose
    total cover volume is past the float range naming the file.
    """
    n, us, vs, ws = _read_rows(path, _EDGE_LIST)
    try:
        return Graph.from_arrays(n, us, vs, ws, directed=directed)
    except ValueError as exc:  # the rows are valid, but their volume leaves the float range
        raise ParseError(f"{path}: {exc}") from None


def _read_rows(path, fmt: _Format):
    """(n, u, v, w) of a file in `fmt`: n is one past the largest id, w is 1.0 in 2-field rows."""
    us, vs, ws = _bulk_rows(path, fmt) or _line_rows(path, fmt)
    return (int(max(us.max(), vs.max())) + 1 if us.size else 0), us, vs, ws


def _bulk_rows(path, fmt: _Format):
    """(u, v, w) arrays of a file whose data lines share one field count of `fmt` and
    whose rows all keep the id range and `fmt`'s rules; else None, for the line parser.

    A pipe or other input that is not a regular file is left to the line parser, which
    reads it once (numpy's reads would consume it); one that is not UTF-8 is refused
    naming only its path. numpy reads a path in C chunks, faster than it iterates an open
    handle's lines. It gets the absolute path (no `a://b` spelling reads as a URL) of a
    whitespace format's file without a suffix it decompresses; those suffixes and
    delimited lines, stripped first (numpy reads a whitespace-only line as one empty
    field, which the line parser skips), go through an open handle. numpy accepts fewer
    spellings than `int` (no `1_0`, no non-ASCII digits, nothing outside int64); such
    files, and ids too large for a Graph, fall back. A file that is not UTF-8 is refused
    here. numpy releases that parse an integer via a float (`1.5` as 1) only warn; that
    is raised as an error, to fall back.
    """
    name = os.fsdecode(path) if isinstance(path, (str, bytes, os.PathLike)) else ""
    if not os.path.isfile(name):
        return None
    source = None if fmt.delimiter or name.endswith(_DECOMPRESSED) else os.path.abspath(name)
    with open(path, "r", encoding="utf-8") as handle, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        for width in fmt.widths:
            handle.seek(0)
            lines = source or (handle if fmt.delimiter is None else map(str.strip, handle))
            try:
                rows = np.loadtxt(
                    lines, _FIELDS[:width], delimiter=fmt.delimiter, ndmin=1, encoding="utf-8"
                )
                break
            except UnicodeDecodeError:
                raise _not_utf8(path) from None
            except ValueError:
                continue
        else:
            return None
    us, vs, ws = rows["u"], rows["v"], (rows["w"] if width == 3 else np.ones(rows.size))
    valid = (us >= 0) & (vs >= 0) & (us < MAX_VERTICES) & (vs < MAX_VERTICES)
    for holds, _ in fmt.rules:
        valid &= holds(us, vs, ws)
    return (us, vs, ws) if valid.all() else None


def _line_rows(path, fmt: _Format):
    """The reference parser: one line at a time, raising a ParseError that names the line."""
    rows = []
    for lineno, line in _data_lines(path):
        parts = [part.strip() for part in line.split(fmt.delimiter)]
        if len(parts) not in fmt.widths:
            raise ParseError(f"{path}:{lineno}: expected '{fmt.usage}', got {line!r}")
        try:
            u, v = _int64(parts[0]), _int64(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        _check_ids(path, lineno, u, v)
        for holds, message in fmt.rules:
            if not holds(u, v, w):
                raise ParseError(f"{path}:{lineno}: " + message.format(u=u, w=w))
        rows.append((u, v, w))
    rows = np.array(rows, dtype=_FIELDS)
    return rows["u"], rows["v"], rows["w"]


def write_edge_list(g: Graph, path):
    """Write the merged edges sorted by (u, v), u < v if undirected; round trips are byte-stable."""
    us, vs = np.repeat(np.arange(g.n), np.diff(g.indptr)), g.indices
    once = slice(None) if g.directed else us < vs
    edges = zip(us[once].tolist(), vs[once].tolist(), g.weights[once].tolist())
    with open(path, "w", encoding="utf-8") as handle:
        for u, v, w in edges:
            handle.write(f"{u} {v} {w!r}\n")


def load_flow_matrix(path) -> Graph:
    """Build a digraph from a CSV of pairwise flow counts `j,l,count`.

    Each unordered pair with asymmetric flow becomes one arc from the larger flow's
    origin, weighted by |M_jl - M_lj| / (M_jl + M_lj); balanced or absent flows
    produce no edge. Duplicate rows accumulate in file order, both flows of a pair
    in one `sum_by_key` pass. Negative or non-finite counts are rejected with the
    line number, and a pair whose two flows total past the float range is rejected
    naming the pair.
    """
    n, js, ls, counts = _read_rows(path, _FLOW_CSV)
    # M_lo,hi and M_hi,lo per pair lo < hi in file order; other rows and self rows add 0
    keys = np.minimum(js, ls) * n + np.maximum(js, ls)
    pairs, fwd, bwd = sum_by_key(keys, (js < ls) * counts, (js > ls) * counts)
    # A total M_jl + M_lj past the float range would weigh the arc 0 or nan. Halves
    # sum without overflow, and pass max/2 exactly when the whole total rounds to inf.
    over = 0.5 * fwd + 0.5 * bwd > np.finfo(np.float64).max / 2
    if over.any():  # named by its smallest ordered pair j,l that has a row
        j, l = divmod(int((js * n + ls)[np.isin(keys, pairs[over])].min()), n)
        raise ParseError(f"{path}: the flows {j},{l} and {l},{j} total past the float range")
    arc = fwd != bwd  # so an arc's total is positive: no 0/0, and its weight is > 0
    (lo, hi), fwd, bwd = np.divmod(pairs[arc], n), fwd[arc], bwd[arc]
    back = bwd > fwd  # the arc runs from the larger flow's origin
    w = np.abs(fwd - bwd) / (fwd + bwd)
    return Graph.from_arrays(n, np.where(back, hi, lo), np.where(back, lo, hi), w, directed=True)


def load_labels(path) -> np.ndarray:
    """Read a `vertex label` sidecar into a dense label array.

    Every vertex in [0, max id] must appear exactly once.
    """
    labels: dict = {}
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 'vertex label', got {line!r}")
        try:
            v = _int64(parts[0])
            lab = _int64(parts[1])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if v < 0:
            raise ParseError(f"{path}:{lineno}: negative vertex id")
        if v in labels:
            raise ParseError(f"{path}:{lineno}: vertex {v} labelled twice")
        labels[v] = lab
    for v in range(len(labels)):
        if v not in labels:
            raise ParseError(f"{path}: vertex {v} has no label (ids run to {max(labels)})")
    return np.array([labels[v] for v in range(len(labels))], dtype=np.int64)


def write_labels(labels: np.ndarray, path):
    with open(path, "w", encoding="utf-8") as handle:
        for v, lab in enumerate(np.asarray(labels).tolist()):
            handle.write(f"{v} {lab}\n")


def load_names(path) -> dict:
    """Read an optional `vertex<TAB>name` sidecar mapping ids to display names."""
    names: dict = {}
    for lineno, line in _data_lines(path):
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 'vertex name', got {line!r}")
        try:
            v = _int64(parts[0])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        _check_ids(path, lineno, v)
        names[v] = parts[1]
    return names


def graph_fingerprint(g: Graph) -> dict:
    """Stable identity of a graph: n, merged edge count, and a content hash.

    The hash is blake2b over n, the directed flag and the out-row CSR bytes (`indptr`,
    the derived `indices` as <i8, `weights` as <f8), computed once per graph and kept on it.
    Each call returns a new dict, so editing one cannot change the kept value.
    """
    kept = g._fingerprint
    if kept is None:
        digest = hashlib.blake2b(f"{g.n}:{int(g.directed)}".encode(), digest_size=8)
        for arr, dtype in ((g.indptr, "<i8"), (g.indices, "<i8"), (g.weights, "<f8")):
            digest.update(np.ascontiguousarray(arr, dtype=dtype))
        kept = g._fingerprint = {"n": g.n, "m": g.edge_count, "hash": digest.hexdigest()}
    return dict(kept)


def default_labels_path(graph_path) -> Path:
    return Path(str(graph_path) + ".labels")
