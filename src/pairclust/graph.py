"""Sparse weighted graph storage with degree, volume, cut, and cluster-quality queries.

A pair (L, R) is measured as the cover set L1 u R2: `Graph._pair_volume` is the one
volume rule, and beta and F are both 1 - 2 e(L->R) over that volume.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = [
    "Graph",
    "as_vertex_array",
    "conductance",
    "bipartiteness",
    "flow_ratio",
    "cut_imbalance",
]


# Edges are keyed as u*n + v in int64, so n*n must fit: at most 3037000499 vertices.
MAX_VERTICES = math.isqrt(int(np.iinfo(np.int64).max))


def as_vertex_array(n: int, vertices: Iterable[int]) -> np.ndarray:
    """Normalize a vertex collection to a sorted, deduplicated int64 array.

    Raises ValueError for ids that are not integer values (a fractional or
    non-finite float, a bool array, or anything else not numeric) and for ids
    outside [0, n). An integer array passes on its dtype alone.
    """
    arr = vertices if isinstance(vertices, np.ndarray) else np.asarray(list(vertices))
    if arr.dtype.kind == "f":
        whole = np.isfinite(arr) & (arr == np.trunc(arr))
        if not whole.all():
            raise ValueError(f"vertex id {arr[~whole][0]} is not an integer")
    elif arr.dtype.kind not in "iu":
        raise ValueError(f"vertex ids must be integers, not {arr.dtype}")
    ids = np.unique(arr)
    if ids.size and (ids[0] < 0 or ids[-1] >= n):
        bad = ids[0] if ids[0] < 0 else ids[-1]
        raise ValueError(f"vertex id {bad} out of range [0, {n})")
    return ids.astype(np.int64, copy=False)


def row_positions(indptr: np.ndarray, rows: np.ndarray):
    """Positions of the concatenated CSR rows `rows` in indices/weights, and each row's length."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    offsets = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return np.arange(offsets.size) + offsets, counts


def sorted_lookup(haystack: np.ndarray, needles: np.ndarray):
    """Insertion positions of `needles` in the sorted `haystack`, and which of them it holds."""
    at = np.searchsorted(haystack, needles)
    if not haystack.size:
        return at, np.zeros(at.shape, dtype=bool)
    return at, haystack[np.minimum(at, haystack.size - 1)] == needles


def _merge_edges(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray):
    """Sum weights of parallel edges. Keys are u*n+v, so (u, v) must be canonical."""
    keys = u * np.int64(n) + v
    uniq, inverse = np.unique(keys, return_inverse=True)
    wsum = np.bincount(inverse, weights=w, minlength=uniq.size)
    return uniq // n, uniq % n, wsum


class Graph:
    """Immutable weighted sparse graph, undirected or directed.

    Vertex ids are dense integers in [0, n). All edge weights are strictly
    positive; parallel edges are merged by summing weights and self-loops are
    rejected at construction. Instances are safe to share across threads:
    every query is pure and the underlying arrays are marked read-only.

    The adjacency is one CSR (`row_indptr`, `row_indices`, `row_weights`, with
    weighted row degrees `row_degrees`) over the rows a cover vertex reads.
    Row u is u's out-row. An undirected graph stores each edge in both
    endpoints' rows and has n rows; a side-2 cover copy reads the same row as
    side 1, so `side2_row` is 0. A digraph has 2n rows: its out-rows, then
    at n + v the in-row of v, so `side2_row` is n. Each row is sorted by
    column. `indptr`, `indices`, `weights` (the out-rows), `degrees` (out-degrees
    for a digraph) and `in_degrees` are read-only views of that CSR.
    """

    __slots__ = (
        "n",
        "directed",
        "edge_count",
        "row_indptr",
        "row_indices",
        "row_weights",
        "row_degrees",
        "side2_row",
        "indptr",
        "indices",
        "weights",
        "degrees",
        "in_degrees",
        "_total_deg",
        "_total_in_deg",
    )

    def __init__(self, n: int, edges: Iterable[tuple], directed: bool = False):
        u, v, w = _edge_arrays(edges)
        self._build(n, u, v, w, directed)

    @classmethod
    def from_arrays(
        cls,
        n: int,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray | None = None,
        directed: bool = False,
    ) -> "Graph":
        """Build a graph from parallel endpoint/weight arrays (weights default to 1)."""
        g = cls.__new__(cls)
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if w is None:
            w = np.ones(u.size, dtype=np.float64)
        else:
            w = np.asarray(w, dtype=np.float64)
        g._build(n, u, v, w, directed)
        return g

    def _build(self, n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray, directed: bool):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if n > MAX_VERTICES:
            raise ValueError(f"vertex count {n} above {MAX_VERTICES}: edge keys overflow int64")
        if not (u.size == v.size == w.size):
            raise ValueError("endpoint and weight arrays must have equal length")
        if u.size:
            lo = min(u.min(), v.min())
            hi = max(u.max(), v.max())
            if lo < 0 or hi >= n:
                raise ValueError(f"edge endpoint out of range [0, {n})")
            if np.any(u == v):
                raise ValueError("self-loops are not allowed")
            if not np.all(np.isfinite(w)) or np.any(w <= 0):
                raise ValueError("edge weights must be finite and > 0")

        n = self.n = int(n)
        self.directed = bool(directed)
        if not directed:
            u, v = np.minimum(u, v), np.maximum(u, v)
        su, sv, sw = _merge_edges(n, u, v, w)
        del u, v, w
        m = self.edge_count = int(su.size)
        side2 = n if directed else 0
        nrows = n + side2
        rows = np.concatenate([su, sv])
        rows[m:] += side2
        cols = np.concatenate([sv, su])
        vals = np.concatenate([sw, sw])
        del su, sv, sw
        deg = np.bincount(rows, weights=vals, minlength=nrows)
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=nrows), out=indptr[1:])
        # Sort by (row, col), unique after merging, on a key built in place of
        # rows. It reaches nrows * n <= 2 * MAX_VERTICES**2 < 2**64: unsigned.
        key = rows.view(np.uint64)
        del rows
        key *= np.uint64(n)
        key += cols.view(np.uint64)
        order = np.argsort(key)
        del key
        cols = cols[order]
        vals = vals[order]
        for arr in (indptr, cols, vals, deg):
            arr.setflags(write=False)
        self.row_indptr, self.row_indices, self.row_weights = indptr, cols, vals
        self.row_degrees = deg
        self.side2_row = side2
        out_end = int(indptr[n])
        self.indptr = indptr[: n + 1]
        self.indices = cols[:out_end]
        self.weights = vals[:out_end]
        self.degrees = deg[:n]
        self.in_degrees = deg[side2 : side2 + n]
        self._total_deg = float(self.degrees.sum())
        self._total_in_deg = float(self.in_degrees.sum())

    # -- degree / volume -------------------------------------------------

    def _check_vertex(self, v: int):
        if not 0 <= v < self.n:
            raise ValueError(f"vertex id {v} out of range [0, {self.n})")

    def degree(self, v: int) -> float:
        """Weighted degree of v. Only defined for undirected graphs."""
        if self.directed:
            raise ValueError("degree() is undirected-only; read the degrees / in_degrees arrays")
        self._check_vertex(v)
        return float(self.degrees[v])

    def neighbors(self, v: int):
        """Out-neighbors of v as (ids, weights) array views."""
        self._check_vertex(v)
        s, e = self.indptr[v], self.indptr[v + 1]
        return self.indices[s:e], self.weights[s:e]

    def volume(self, vertices: Iterable[int]) -> float:
        """Sum of weighted degrees over a vertex set (out-volume if directed)."""
        ids = as_vertex_array(self.n, vertices)
        return float(self.degrees[ids].sum())

    def total_volume(self) -> float:
        """vol(V): sum of all degrees (out-degrees if directed)."""
        return self._total_deg

    # -- cuts --------------------------------------------------------------

    def cut_weight(self, a: Iterable[int], b: Iterable[int]) -> float:
        """Total weight of edges between disjoint sets a and b (from a to b if directed)."""
        a_ids = as_vertex_array(self.n, a)
        b_ids = as_vertex_array(self.n, b)
        if np.intersect1d(a_ids, b_ids).size:
            raise ValueError("cut_weight requires disjoint vertex sets")
        return self._weight_between(a_ids, b_ids)

    def _weight_between(self, a_ids: np.ndarray, b_ids: np.ndarray) -> float:
        pos, _ = row_positions(self.indptr, a_ids)
        _, hit = sorted_lookup(b_ids, self.indices[pos])
        return float(self.weights[pos[hit]].sum())

    def _pair_volume(self, l_ids: np.ndarray, r_ids: np.ndarray) -> float:
        """vol(L1 u R2) = vol_out(L) + vol_in(R): the one volume rule for a pair."""
        return float(self.degrees[l_ids].sum()) + float(self.in_degrees[r_ids].sum())


def _edge_arrays(edges: Iterable[tuple]):
    us, vs, ws = [], [], []
    for edge in edges:
        if len(edge) == 2:
            u, v = edge
            w = 1.0
        else:
            u, v, w = edge
        us.append(u)
        vs.append(v)
        ws.append(w)
    return (
        np.asarray(us, dtype=np.int64),
        np.asarray(vs, dtype=np.int64),
        np.asarray(ws, dtype=np.float64),
    )


def conductance(g: Graph, vertices: Iterable[int]) -> float:
    """Boundary weight of the set over min(vol(S), vol(V \\ S)).

    Requires an undirected graph and a nonempty proper subset with a
    nonzero denominator.
    """
    if g.directed:
        raise ValueError("conductance() is undirected-only")
    ids = as_vertex_array(g.n, vertices)
    if ids.size == 0 or ids.size == g.n:
        raise ValueError("conductance undefined for empty set or whole vertex set")
    vol = float(g.degrees[ids].sum())
    denom = min(vol, g.total_volume() - vol)
    if denom <= 0:
        raise ValueError("conductance undefined: zero-volume side")
    return (vol - g._weight_between(ids, ids)) / denom


def _pair_ratio(g: Graph, l: Iterable[int], r: Iterable[int]) -> float:
    """1 - 2 e(L->R) / vol(L1 u R2), the pair's measure as one cover set."""
    l_ids = as_vertex_array(g.n, l)
    r_ids = as_vertex_array(g.n, r)
    if np.intersect1d(l_ids, r_ids).size:
        raise ValueError("L and R must be disjoint")
    vol = g._pair_volume(l_ids, r_ids)
    if vol <= 0:
        raise ValueError("L1 u R2 has zero volume")
    return 1.0 - 2.0 * g._weight_between(l_ids, r_ids) / vol


def bipartiteness(g: Graph, l: Iterable[int], r: Iterable[int]) -> float:
    """1 - 2 e(L, R) / vol(L u R): low values mean a dense, jointly isolated pair."""
    if g.directed:
        raise ValueError("bipartiteness() is undirected-only; see flow_ratio()")
    return _pair_ratio(g, l, r)


def flow_ratio(g: Graph, l: Iterable[int], r: Iterable[int]) -> float:
    """1 - 2 e(L->R) / (vol_out(L) + vol_in(R)): low values mean edges flow L to R."""
    if not g.directed:
        raise ValueError("flow_ratio() is directed-only; see bipartiteness()")
    return _pair_ratio(g, l, r)


def cut_imbalance(g: Graph, l: Iterable[int], r: Iterable[int]) -> float:
    """Half the normalized difference between the two cut directions, in [0, 1/2]."""
    if not g.directed:
        raise ValueError("cut_imbalance() is directed-only")
    lr = g.cut_weight(l, r)
    rl = g.cut_weight(r, l)
    if lr + rl <= 0:
        raise ValueError("no edges between L and R in either direction")
    return 0.5 * abs((lr - rl) / (lr + rl))
