"""File formats: edge lists, pairwise flow matrices, label and name sidecars."""

from __future__ import annotations

import hashlib
import math
import warnings
from pathlib import Path

import numpy as np

from .graph import MAX_VERTICES, Graph, _edge_columns, sorted_lookup

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


_EDGE_FIELDS = [("u", "i8"), ("v", "i8"), ("w", "f8")]
_INT64 = np.iinfo(np.int64)


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
    """A ParseError naming the first line of `path` that is not valid UTF-8."""
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
    non-finite weights are rejected with the line number.

    A file whose data lines all have two fields, or all three, is parsed in
    one numpy pass. Anything else, and any file that breaks a rule, goes
    through the line parser, which names the offending line.
    """
    edges = _bulk_edges(path)
    if edges is None:
        edges = _line_edges(path)
    us, vs, ws = edges
    n = int(max(us.max(), vs.max())) + 1 if us.size else 0
    return Graph.from_arrays(n, us, vs, ws, directed=directed)


def _bulk_edges(path):
    """(u, v, w) arrays of a well-formed file, or None where the line parser must decide.

    numpy reads from an open handle rather than the path, because it would
    open a `.gz` path as gzip and fetch a URL, which the line parser never
    does. It accepts fewer spellings than `int` (no `1_0`, no non-ASCII
    digits, nothing outside int64), and ids too large for a Graph; those files
    fall back to the line parser. A file that is not UTF-8 is refused here.
    numpy releases that still parse an integer field via a float (`1.5` as 1)
    only warn about it; that warning is raised as an error, which numpy turns
    into a ValueError, so a float-spelled id falls back too.
    """
    with open(path, "r", encoding="utf-8") as handle, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        for fields in (_EDGE_FIELDS, _EDGE_FIELDS[:2]):
            handle.seek(0)
            try:
                rows = np.loadtxt(handle, dtype=fields, comments="#", ndmin=1)
                break
            except UnicodeDecodeError:
                raise _not_utf8(path) from None
            except ValueError:
                continue
        else:
            return None
    us, vs = rows["u"], rows["v"]
    ws = rows["w"] if len(rows.dtype.names) == 3 else np.ones(rows.size)
    valid = (us >= 0) & (vs >= 0) & (us < MAX_VERTICES) & (vs < MAX_VERTICES)
    valid &= (us != vs) & (ws > 0) & (ws < np.inf)
    return (us, vs, ws) if valid.all() else None


def _line_edges(path):
    """The reference parser: one line at a time, raising a ParseError that names the line."""
    edges = []
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(f"{path}:{lineno}: expected 'u v [w]', got {line!r}")
        try:
            u = _int64(parts[0])
            v = _int64(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        _check_ids(path, lineno, u, v)
        if u == v:
            raise ParseError(f"{path}:{lineno}: self-loop at vertex {u}")
        if not 0 < w < math.inf:
            raise ParseError(f"{path}:{lineno}: edge weight must be finite and > 0, got {w}")
        edges.append((u, v, w))
    return tuple(map(np.asarray, _edge_columns(edges)))


def write_edge_list(g: Graph, path):
    """Write the merged edges sorted by (u, v), u < v if undirected; round trips are byte-stable."""
    us = np.repeat(np.arange(g.n), np.diff(g.indptr))
    once = slice(None) if g.directed else us < g.indices
    edges = zip(us[once].tolist(), g.indices[once].tolist(), g.weights[once].tolist())
    with open(path, "w", encoding="utf-8") as handle:
        for u, v, w in edges:
            handle.write(f"{u} {v} {w!r}\n")


def load_flow_matrix(path) -> Graph:
    """Build a digraph from a CSV of pairwise flow counts `j,l,count`.

    Each unordered pair with asymmetric flow becomes one arc from the larger
    flow's origin, weighted by |M_jl - M_lj| / (M_jl + M_lj); balanced or
    absent flows produce no edge. Duplicate rows accumulate. Negative or
    non-finite counts are rejected with the line number, and a pair whose two
    flows total past the float range is rejected naming the pair.
    """
    rows, cols, counts = [], [], []
    for lineno, line in _data_lines(path):
        parts = [part.strip() for part in line.split(",")]
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected 'j,l,count', got {line!r}")
        try:
            j = _int64(parts[0])
            l = _int64(parts[1])
            c = float(parts[2])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        _check_ids(path, lineno, j, l)
        if not 0 <= c < math.inf:
            raise ParseError(f"{path}:{lineno}: count must be finite and >= 0, got {c}")
        rows.append(j)
        cols.append(l)
        counts.append(c)

    # M_jl per ordered pair, summed in file order, read against its reverse M_lj
    n = 1 + max(rows + cols, default=-1)
    keys = np.array(rows, dtype=np.int64) * n + np.array(cols, dtype=np.int64)
    pairs, at = np.unique(keys, return_inverse=True)
    fwd = np.bincount(at, weights=counts, minlength=pairs.size)
    back, held = sorted_lookup(pairs, pairs % n * n + pairs // n)
    bwd = np.where(held, fwd[np.minimum(back, pairs.size - 1)], 0.0)
    # A total M_jl + M_lj past the float range would weigh the arc 0 or nan. Halves
    # sum without overflow, and pass max/2 exactly when the whole total rounds to inf.
    over = (0.5 * fwd + 0.5 * bwd > np.finfo(np.float64).max / 2) & (pairs // n != pairs % n)
    if over.any():
        j, l = divmod(int(pairs[over][0]), n)
        raise ParseError(f"{path}: the flows {j},{l} and {l},{j} total past the float range")
    arc = fwd > bwd  # so an arc's total is positive: no 0/0, and its weight is > 0
    pairs, fwd, bwd = pairs[arc], fwd[arc], bwd[arc]
    w = (fwd - bwd) / (fwd + bwd)
    return Graph.from_arrays(n, pairs // n, pairs % n, w, directed=True)


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
            names[int(parts[0])] = parts[1]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return names


def graph_fingerprint(g: Graph) -> dict:
    """Stable identity of a graph: n, merged edge count, and a content hash.

    The hash is blake2b over n, the directed flag and the out-row CSR bytes (`indptr`,
    `indices` as <i8, `weights` as <f8), computed once per graph and kept on it.
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
