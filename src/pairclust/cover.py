"""Virtual (semi-)double cover of a graph: local queries, never materialized.

Every base vertex u has two cover copies, addressed as (u, side) with
side in {1, 2}. Internally a cover vertex is encoded as the integer
``2*u + (side - 1)`` so that cover sets are plain sets of ints; the
encoding is an implementation convention, not part of any file format.

For an undirected graph the cover is the double cover: edge {u, v}
lifts to {u1, v2} and {u2, v1}. For a digraph it is the semi-double
cover: arc (u, v) lifts to the single undirected edge {u1, v2}, so the
asymmetry of the lift encodes edge direction.

Read backwards, the lift measures any cover set S. With L the bases of S's
side-1 copies and R those of its side-2 copies, the cover edges inside S are
exactly the base edges from L to R, so vol(S) = vol_out(L) + vol_in(R) and
cut(S) = vol(S) - 2 e(L->R), even when S holds both copies of a vertex.
`cover_cut_and_volume` measures every cover set this way.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .graph import Graph

__all__ = [
    "cover_vertex",
    "cover_degree",
    "cover_neighbors",
    "total_cover_volume",
    "cover_cut_and_volume",
    "conductance_in_cover",
    "pair_to_cover_set",
    "to_cluster_pair",
    "epsilon_simple_cleanup",
]


def cover_vertex(base: int, side: int) -> int:
    """Encode (base, side) as a cover-vertex key."""
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    return 2 * base + (side - 1)


def _check_cover_vertex(g: Graph, key: int):
    if not 0 <= key < 2 * g.n:
        raise ValueError(f"cover vertex {key} out of range [0, {2 * g.n})")


def cover_degree(g: Graph, key: int) -> float:
    """Weighted degree of a cover vertex.

    Equals deg(u) on both sides for undirected g; out-degree on side 1 and
    in-degree on side 2 for directed g.
    """
    _check_cover_vertex(g, key)
    base = key >> 1
    if key & 1:
        return float(g.in_degrees[base])
    return float(g.degrees[base])


def cover_neighbors(g: Graph, key: int):
    """Neighbors of a cover vertex in the cover, as (keys, weights) arrays.

    Neighbors always live on the opposite side: side-1 copies are adjacent to
    the side-2 copies of the base vertex's (out-)neighbors, and side-2 copies
    to the side-1 copies of its (in-)neighbors.
    """
    _check_cover_vertex(g, key)
    base = key >> 1
    if key & 1:
        ids, ws = g.in_neighbors(base)
        return 2 * ids, ws
    ids, ws = g.neighbors(base)
    return 2 * ids + 1, ws


def total_cover_volume(g: Graph) -> float:
    """vol of the whole cover: 2 vol(V) undirected, vol_out(V) + vol_in(V) directed."""
    if g.directed:
        return g._total_deg + g._total_in_deg
    return 2.0 * g._total_deg


def cover_cut_and_volume(g: Graph, keys: Iterable[int]) -> tuple[float, float]:
    """(boundary weight, volume) of a cover set, through the reduction to (L, R)."""
    k = np.unique(keys if isinstance(keys, np.ndarray) else np.fromiter(keys, dtype=np.int64))
    if k.size and (k[0] < 0 or k[-1] >= 2 * g.n):
        bad = k[0] if k[0] < 0 else k[-1]
        raise ValueError(f"cover vertex {bad} out of range [0, {2 * g.n})")
    l, r = to_cluster_pair(k)
    vol = float(g.degrees[l].sum()) + float(g.in_degrees[r].sum())
    return vol - 2.0 * g._weight_between(l, r), vol


def conductance_in_cover(g: Graph, keys: Iterable[int]) -> float:
    """Conductance of a cover-vertex set, evaluated without materializing the cover."""
    s = set(keys)
    if not s:
        raise ValueError("conductance undefined for the empty cover set")
    cut, vol = cover_cut_and_volume(g, s)
    denom = min(vol, total_cover_volume(g) - vol)
    if denom <= 0:
        raise ValueError("conductance undefined: zero-volume side of the cover cut")
    return cut / denom


def pair_to_cover_set(l: Iterable[int], r: Iterable[int]) -> set:
    """L1 u R2 as a cover set."""
    return {2 * int(u) for u in l} | {2 * int(u) + 1 for u in r}


def to_cluster_pair(keys: Iterable[int]):
    """Split a cover set into (L, R): L from side-1 members, R from side-2."""
    k = keys if isinstance(keys, np.ndarray) else np.fromiter(keys, dtype=np.int64)
    side2 = (k & 1).astype(bool)
    return np.sort(k[~side2] >> 1), np.sort(k[side2] >> 1)


def epsilon_simple_cleanup(keys: Iterable[int]) -> set:
    """Drop both copies of every doubled base vertex; the result is always simple."""
    s = set(keys)
    return {key for key in s if key ^ 1 not in s}
