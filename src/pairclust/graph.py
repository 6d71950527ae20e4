"""Sparse weighted graph storage with degree, volume, cut, and cluster-quality queries.

A pair (L, R) is measured as the cover set L1 u R2: `Graph._pair_volume` is the one
volume rule, and beta and F are both 1 - 2 e(L->R) over that volume. `sum_by_key` is the
one sum per key: of parallel edges, of push shares (`pagerank`) and of flows (`fileio`).
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


def sorted_unique(arr: np.ndarray) -> np.ndarray:
    """The sorted distinct values of `arr`, flattened: exactly what `np.unique(arr)` returns.

    A sort and a neighbor compare, skipped for strictly increasing input: numpy >= 2.3's
    plain `np.unique` hashes, several times slower on the query path's small int64 arrays.
    """
    s = arr.flatten()
    if not (s[1:] > s[:-1]).all():
        s.sort()
        s = s[np.concatenate(([True], s[1:] != s[:-1]))]
    return s


# What an error message calls one id and several, for a vertex and for a cover key.
_ID_NAMES = {False: ("vertex id", "vertex ids"), True: ("cover vertex", "cover vertices")}


def as_ids(ids, n: int, cover: bool = False) -> np.ndarray:
    """The one id rule: `ids`, an array or any collection, as an int64 array of its shape.

    An id is an integer value: a Python or numpy int, or a whole float such as 2.0.
    It is never a bool, also mixed into a list of ints (which numpy reads as 1),
    never fractional or non-finite, and lies in [0, n) for a vertex or in [0, 2n)
    for a cover key (`cover`). The range is checked before the cast, so nothing
    is truncated or wrapped; anything else raises a ValueError naming the id.
    An integer array passes on its dtype, its min and its max.
    """
    noun, plural = _ID_NAMES[cover]
    bound = 2 * n if cover else n
    if not isinstance(ids, np.ndarray):
        ids = list(ids)
        if not {bool, np.bool_}.isdisjoint(map(type, ids)):
            bad = next(x for x in ids if isinstance(x, (bool, np.bool_)))
            raise ValueError(f"{noun} {bad} is not an integer")
        ids = np.asarray(ids)
    if ids.dtype.kind == "f":
        whole = np.isfinite(ids) & (ids == np.trunc(ids))
        if not whole.all():
            raise ValueError(f"{noun} {ids[~whole][0]} is not an integer")
    elif ids.dtype.kind not in "iu":
        for x in ids.flat if ids.dtype == object else ():  # holds a Python int past int64
            if isinstance(x, (int, np.integer)) and not 0 <= x < bound:
                raise ValueError(f"{noun} {x} out of range [0, {bound})")
        raise ValueError(f"{plural} must be integers, not {ids.dtype}")
    if ids.size:
        lo, hi = ids.min(), ids.max()
        if lo < 0 or hi >= bound:
            raise ValueError(f"{noun} {lo if lo < 0 else hi} out of range [0, {bound})")
    return ids.astype(np.int64, copy=False)


def as_id(x, n: int, cover: bool = False) -> int:
    """One id by the rule of `as_ids`, as a Python int; an in-range int passes in O(1)."""
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
        raise ValueError(f"{_ID_NAMES[cover][0]} {x!r} is not an integer")
    if isinstance(x, (int, np.integer)) and 0 <= x < (2 * n if cover else n):
        return int(x)
    return int(as_ids([x], n, cover)[0])


def as_vertex_array(n: int, vertices: Iterable[int]) -> np.ndarray:
    """Normalize a vertex collection to a sorted, deduplicated int64 array.

    Ids follow the one id rule (`as_ids`). It dedups by sorting (`sorted_unique`),
    not by hashing.
    """
    return sorted_unique(as_ids(vertices, n))


def row_positions(indptr: np.ndarray, rows: np.ndarray):
    """Positions of the concatenated CSR rows `rows` in row_keys/weights, and each row's length."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    offsets = (starts - counts.cumsum() + counts).repeat(counts)
    return np.arange(offsets.size) + offsets, counts


def sum_by_key(keys: np.ndarray, *weights: np.ndarray):
    """The one sum-by-key rule: the sorted distinct `keys`, then per array in `weights`
    each key's float64 sum of its entries, added in input order (`np.bincount` on the inverse).
    Strictly increasing keys come back as they are, each sum a new `w + 0.0` as bincount adds."""
    head = keys[:64]  # a push round's gathered rows break order at a row's end: test a head first
    if (head[1:] > head[:-1]).all() and (keys[1:] > keys[:-1]).all():
        return (keys, *(np.add(w, 0.0, dtype=float) for w in weights))
    uniq, inverse = np.unique(keys, return_inverse=True)
    return (uniq, *(np.bincount(inverse, w, uniq.size).astype(float, copy=False) for w in weights))


def sorted_merge(needles: np.ndarray, keys: np.ndarray, *aligned: np.ndarray):
    """Insert the sorted unique `needles` missing from nonempty sorted `keys`; `aligned` gets 0s.

    Returns (keys, *aligned) merged, each needle's position in them, and the
    inserted keys' positions, through which every array is filled at once.
    """
    at = np.searchsorted(keys, needles)
    new = keys.take(at, mode="clip") != needles
    if not new.any():
        return (keys, *aligned), at, at[:0]
    at += np.cumsum(new) - new
    added = at[new]
    kept = np.ones(keys.size + added.size, dtype=bool)
    kept[added] = False
    grown = tuple(np.zeros(kept.size, dtype=arr.dtype) for arr in (keys, *aligned))
    for out, arr in zip(grown, (keys, *aligned)):
        out[kept] = arr
    grown[0][added] = needles[new]
    return grown, at, added


def borrow_key_index(g: "Graph") -> np.ndarray:
    """An all-zero int64 array over g's 2n cover keys, from g's pool or newly allocated."""
    try:
        return g._key_indexes.pop()
    except IndexError:
        return np.zeros(2 * g.n, dtype=np.int64)


def give_back_key_index(g: "Graph", index: np.ndarray, keys: np.ndarray):
    """Zero `index` at `keys`, the only entries its borrower set, and return it to g's pool."""
    index[keys] = 0
    g._key_indexes.append(index)


def key_positions(g: "Graph", keys: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Each needle's position in the distinct `keys`, or -1: a key index borrowed from g
    holds position + 1 at `keys` and 0 at every other key, and goes back zeroed."""
    index = borrow_key_index(g)
    try:
        index[keys] = np.arange(1, keys.size + 1)
        return index[needles] - 1
    finally:
        give_back_key_index(g, index, keys)


class Graph:
    """Immutable weighted sparse graph, undirected or directed.

    Vertex ids are dense integers in [0, n). All edge weights are strictly
    positive; parallel edges are merged by summing weights and self-loops are
    rejected at construction. Instances are safe to share across threads:
    every query is pure and the underlying arrays are marked read-only. The
    caches `_fingerprint` and `_vertex_ids` are each filled on first use by one
    assignment of a value never changed after, so a race builds two equal values.
    `_key_indexes` pools zeroed int64 arrays over the 2n cover keys, 16 bytes per
    vertex per concurrent borrower from its first borrow; borrowers zero what they
    set before giving back, and atomic `list.pop`/`append` give each query its own.

    The adjacency is one CSR (`row_indptr`, `row_keys`, `row_weights`, with
    weighted row degrees `row_degrees`) over the rows a cover vertex reads.
    Row u is u's out-row. An undirected graph stores each edge in both
    endpoints' rows and has n rows; a side-2 cover copy reads the same row as
    side 1, so `side2_row` is 0. A digraph has 2n rows: its out-rows, then
    at n + v the in-row of v, so `side2_row` is n. Each row is sorted by neighbor;
    both kinds build it by one sort of the m transposed edges. `row_keys` is the one
    neighbor array: each entry's neighbor v as a cover key, 2v+1 in an out-row, 2v in an in-row.
    `indptr`, `weights` (the out-rows), `degrees` (out-degrees for a digraph)
    and `in_degrees` are read-only views of that CSR; `indices`, the out-rows'
    neighbor ids, is derived from `row_keys` on each read.
    """

    __slots__ = (
        "n",
        "directed",
        "edge_count",
        "row_indptr",
        "row_weights",
        "row_degrees",
        "row_keys",
        "side2_row",
        "indptr",
        "weights",
        "degrees",
        "in_degrees",
        "_total_deg",
        "_total_in_deg",
        "_fingerprint",
        "_vertex_ids",
        "_key_indexes",
    )

    def __init__(self, n: int, edges: Iterable[tuple], directed: bool = False):
        u, v, w = _edge_columns(edges)
        self._build(n, u, v, np.asarray(w, dtype=np.float64), directed)

    @classmethod
    def from_arrays(
        cls,
        n: int,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray | None = None,
        directed: bool = False,
    ) -> "Graph":
        """Build a graph from parallel endpoint/weight arrays (weights default to 1).

        Endpoints follow the one id rule (`as_ids`); they are never truncated."""
        g = cls.__new__(cls)
        if w is None:
            w = np.ones(np.size(u), dtype=np.float64)
        else:
            w = np.asarray(w, dtype=np.float64)
        g._build(n, u, v, w, directed)
        return g

    def _build(self, n: int, u, v, w: np.ndarray, directed: bool):
        whole = isinstance(n, (float, np.floating)) and float(n).is_integer()
        if isinstance(n, bool) or not (whole or isinstance(n, (int, np.integer))) or n < 0:
            raise ValueError(f"vertex count {n} is not a nonnegative integer")
        n = self.n = int(n)
        if n > MAX_VERTICES:
            raise ValueError(f"vertex count {n} above {MAX_VERTICES}: edge keys overflow int64")
        u, v = as_ids(u, n), as_ids(v, n)
        if not (u.ndim == v.ndim == w.ndim == 1 and u.size == v.size == w.size):
            raise ValueError("endpoint and weight arrays must be 1-d and of equal length")
        if np.any(u == v):
            raise ValueError("self-loops are not allowed")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("edge weights must be finite and > 0")

        self.directed = bool(directed)
        if not directed:
            u, v = np.minimum(u, v), np.maximum(u, v)
        keys, sw = sum_by_key(u * np.int64(n) + v, w)
        su = keys // n  # np.divmod is several times slower on int64
        sv = keys - su * n
        del u, v, w, keys
        m = self.edge_count = int(su.size)
        if n * m > MAX_VERTICES**2:  # the sort keys sv*m + i below must fit as u*n + v do
            raise ValueError(f"{m} edges on {n} vertices: sort keys overflow int64")
        side2 = n if directed else 0
        nrows = n + side2
        rows = np.concatenate([su, sv])
        rows[m:] += side2
        vals = np.concatenate([sw, sw])
        deg = np.bincount(rows, weights=vals, minlength=nrows).astype(float, copy=False)
        # sum_by_key left the out half i in (su, sv) order, so sorting the values sv*m + i puts the
        # in-entries in (sv, su) order, i the key mod m (on 121k edges an argsort of sv*n + su takes
        # 1.5x as long, a stable argsort of sv 5x). A row's in-entries (su < row, or an in-row)
        # precede its out-entries; a digraph's halves fill disjoint rows.
        out_counts, in_counts = (np.bincount(r, minlength=nrows) for r in (su, rows[m:]))
        out_end, in_end = out_counts.cumsum(), in_counts.cumsum()
        indptr = np.concatenate(([0], out_end + in_end))
        out_at = np.arange(m) + in_end.repeat(out_counts)  # i + in-entries of rows <= su[i]
        in_at = np.arange(m) + (out_end - out_counts).repeat(in_counts)  # j + earlier rows' out-entries
        order = np.sort(sv * np.int64(m) + np.arange(m))
        order -= order // m * m
        nbrs = rows  # reused as the neighbor buffer: all 2m slots are rewritten
        nbrs[out_at], nbrs[in_at] = sv, su[order]
        vals[out_at], vals[in_at] = sw, sw[order]
        nbrs *= 2  # each entry's neighbor v as a cover key: 2v+1 in an out-row, 2v in an in-row
        nbrs[: indptr[n]] += 1
        for arr in (indptr, vals, deg, nbrs):
            arr.setflags(write=False)
        self.row_indptr, self.row_keys, self.row_weights, self.row_degrees = indptr, nbrs, vals, deg
        self.side2_row = side2
        self.indptr = indptr[: n + 1]
        self.weights = vals[: indptr[n]]
        self.degrees = deg[:n]
        self.in_degrees = deg[side2 : side2 + n]
        with np.errstate(over="ignore"):  # refused below, naming a vertex where it can
            self._total_deg = float(self.degrees.sum())
            self._total_in_deg = float(self.in_degrees.sum())
        if not math.isfinite(self._total_deg + self._total_in_deg):
            bad = np.flatnonzero(~(np.isfinite(self.degrees) & np.isfinite(self.in_degrees)))
            where = f": vertex {bad[0]} has a degree past it" if bad.size else ""
            raise ValueError("the total cover volume is past the float range" + where)
        self._fingerprint = self._vertex_ids = None
        self._key_indexes = []

    # -- degree / volume -------------------------------------------------

    def degree(self, v: int) -> float:
        """Weighted degree of v. Only defined for undirected graphs."""
        if self.directed:
            raise ValueError("degree() is undirected-only; read the degrees / in_degrees arrays")
        return float(self.degrees[as_id(v, self.n)])

    @property
    def indices(self) -> np.ndarray:
        """The out-rows' neighbor ids, `row_keys >> 1` over them: a new read-only array."""
        ids = self.row_keys[: self.indptr[-1]] >> 1
        ids.setflags(write=False)
        return ids

    def neighbors(self, v: int):
        """Out-neighbors of v as (ids, weights): ids derived from `row_keys`, weights a view."""
        v = as_id(v, self.n)
        s, e = self.indptr[v], self.indptr[v + 1]
        return self.row_keys[s:e] >> 1, self.weights[s:e]

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
        if np.intersect1d(a_ids, b_ids, assume_unique=True).size:
            raise ValueError("cut_weight requires disjoint vertex sets")
        return self._weight_between(a_ids, b_ids)

    def _weight_between(self, a_ids: np.ndarray, b_ids: np.ndarray) -> float:
        """Weight of the out-edges from a_ids into b_ids (unique in-range ids), in a's row order:
        an out-row entry reaches b when its neighbor key is b's side-2 key 2b+1."""
        pos, _ = row_positions(self.indptr, a_ids)
        hit = key_positions(self, 2 * b_ids + 1, self.row_keys[pos]) >= 0
        return float(self.weights[pos[hit]].sum())

    def _pair_volume(self, l_ids: np.ndarray, r_ids: np.ndarray) -> float:
        """vol(L1 u R2) = vol_out(L) + vol_in(R): the one volume rule for a pair."""
        return float(self.degrees[l_ids].sum()) + float(self.in_degrees[r_ids].sum())


def _edge_columns(edges: Iterable[tuple]):
    """The endpoints and weights of (u, v[, w]) tuples as three lists, weights defaulting to 1."""
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
    return us, vs, ws


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
    if np.intersect1d(l_ids, r_ids, assume_unique=True).size:
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
