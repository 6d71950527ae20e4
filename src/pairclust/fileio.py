"""File formats: edge lists, pairwise flow matrices, label and name sidecars."""

from __future__ import annotations

import hashlib
import math
import warnings
from pathlib import Path

import numpy as np

from .graph import Graph

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


def _data_lines(path):
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line


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
    digits, nothing outside int64); those files fall back to the line parser.
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
            except ValueError:
                continue
        else:
            return None
    us, vs = rows["u"], rows["v"]
    ws = rows["w"] if len(rows.dtype.names) == 3 else np.ones(rows.size)
    valid = (us >= 0) & (vs >= 0) & (us != vs) & (ws > 0) & (ws < np.inf)
    return (us, vs, ws) if valid.all() else None


def _line_edges(path):
    """The reference parser: one line at a time, raising a ParseError that names the line."""
    us, vs, ws = [], [], []
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
        if u < 0 or v < 0:
            raise ParseError(f"{path}:{lineno}: negative vertex id")
        if u == v:
            raise ParseError(f"{path}:{lineno}: self-loop at vertex {u}")
        if not 0 < w < math.inf:
            raise ParseError(f"{path}:{lineno}: edge weight must be finite and > 0, got {w}")
        us.append(u)
        vs.append(v)
        ws.append(w)
    return (
        np.asarray(us, dtype=np.int64),
        np.asarray(vs, dtype=np.int64),
        np.asarray(ws, dtype=np.float64),
    )


def _canonical_edges(g: Graph):
    """Merged edges in canonical sorted order: (u, v, w) with u < v if undirected."""
    for u in range(g.n):
        ids, ws = g.neighbors(u)
        for v, w in zip(ids.tolist(), ws.tolist()):
            if g.directed or v > u:
                yield u, v, w


def write_edge_list(g: Graph, path):
    """Write the canonical sorted edge list; load/write round-trips are byte-stable."""
    with open(path, "w", encoding="utf-8") as handle:
        for u, v, w in _canonical_edges(g):
            handle.write(f"{u} {v} {w!r}\n")


def load_flow_matrix(path) -> Graph:
    """Build a digraph from a CSV of pairwise flow counts `j,l,count`.

    Each unordered pair with asymmetric flow becomes one arc from the larger
    flow's origin, weighted by |M_jl - M_lj| / (M_jl + M_lj); balanced or
    absent flows produce no edge. Duplicate rows accumulate. Negative or
    non-finite counts are rejected with the line number.
    """
    counts: dict = {}
    max_id = -1
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
        if j < 0 or l < 0:
            raise ParseError(f"{path}:{lineno}: negative vertex id")
        if not 0 <= c < math.inf:
            raise ParseError(f"{path}:{lineno}: count must be finite and >= 0, got {c}")
        counts[(j, l)] = counts.get((j, l), 0.0) + c
        max_id = max(max_id, j, l)

    us, vs, ws = [], [], []
    for (j, l), fwd in counts.items():
        if j >= l:
            continue  # handle each unordered pair once, from the (j < l) entry
        bwd = counts.get((l, j), 0.0)
        _append_flow_edge(us, vs, ws, j, l, fwd, bwd)
    for (j, l), fwd in counts.items():
        if j < l or j == l:
            continue
        if (l, j) in counts:
            continue  # already handled from the (l, j) entry
        _append_flow_edge(us, vs, ws, j, l, fwd, 0.0)
    return Graph.from_arrays(
        max_id + 1,
        np.asarray(us, dtype=np.int64),
        np.asarray(vs, dtype=np.int64),
        np.asarray(ws, dtype=np.float64),
        directed=True,
    )


def _append_flow_edge(us, vs, ws, j, l, fwd, bwd):
    total = fwd + bwd
    if total <= 0:
        return
    weight = abs(fwd - bwd) / total
    if weight == 0.0:
        return
    if fwd > bwd:
        us.append(j)
        vs.append(l)
    else:
        us.append(l)
        vs.append(j)
    ws.append(weight)


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
    """Stable identity of a graph: n, merged edge count, and a content hash."""
    digest = hashlib.blake2b(digest_size=8)
    digest.update(f"{g.n}:{int(g.directed)}".encode())
    for u, v, w in _canonical_edges(g):
        digest.update(f"{u},{v},{w!r};".encode())
    return {"n": g.n, "m": g.edge_count, "hash": digest.hexdigest()}


def default_labels_path(graph_path) -> Path:
    return Path(str(graph_path) + ".labels")
