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

Read forwards, the lift is written once: `cover_rows` gathers the cover rows
of a key array (side-1 keys read their base out-row, side-2 keys their base
in-row) and `cover_degrees` their degrees. Push, the sweep and the numpy
evolving-set step read the cover through these two; `cover_row` is the same
read for one key, as Python values, for the evolving-set dict loop and walker.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .graph import Graph, row_positions

__all__ = [
    "cover_vertex",
    "cover_degree",
    "cover_row",
    "cover_rows",
    "cover_degrees",
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


def cover_row(g: Graph, key: int):
    """(neighbor keys, weights, degree) of a cover key known to be in range, as Python values.

    Reads the CSR slices directly, with no range check and no array of
    neighbor keys: on the small sets the evolving-set dict loop handles,
    those would cost more than the row itself.
    """
    base = key >> 1
    if key & 1:
        lo, hi = g.in_indptr[base : base + 2].tolist()
        nbr_keys = [2 * v for v in g.in_indices[lo:hi].tolist()]
        return nbr_keys, g.in_weights[lo:hi].tolist(), float(g.in_degrees[base])
    lo, hi = g.indptr[base : base + 2].tolist()
    nbr_keys = [2 * v + 1 for v in g.indices[lo:hi].tolist()]
    return nbr_keys, g.weights[lo:hi].tolist(), float(g.degrees[base])


def cover_rows(g: Graph, keys: np.ndarray):
    """Cover rows of an int64 array of in-range keys, as (nbr_keys, weights, owner).

    Neighbors always live on the opposite side: a side-1 key reads its base
    vertex's out-row and reaches side-2 copies, a side-2 key its in-row (the
    same row when g is undirected) and reaches side-1 copies. All side-1 rows
    come first, then all side-2 rows, each block in the order of `keys`;
    `owner[i]` is the position in `keys` of the key whose row holds entry i.
    """
    odd = keys & 1
    side1, side2 = np.flatnonzero(odd ^ 1), np.flatnonzero(odd)
    out_pos, out_counts = row_positions(g.indptr, keys[side1] >> 1)
    in_pos, in_counts = row_positions(g.in_indptr, keys[side2] >> 1)
    nbr_keys = np.concatenate((g.indices[out_pos], g.in_indices[in_pos]))
    nbr_keys *= 2
    nbr_keys[: out_pos.size] += 1
    weights = np.concatenate((g.weights[out_pos], g.in_weights[in_pos]))
    owner = np.repeat(np.concatenate((side1, side2)), np.concatenate((out_counts, in_counts)))
    return nbr_keys, weights, owner


def cover_degrees(g: Graph, keys: np.ndarray) -> np.ndarray:
    """Cover degrees of in-range keys: out-degree on side 1, in-degree on side 2."""
    bases = keys >> 1
    return np.where(keys & 1, g.in_degrees[bases], g.degrees[bases])


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
