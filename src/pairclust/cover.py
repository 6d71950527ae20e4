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
`cover_cut_and_volume` measures every cover set this way, with `Graph._pair_volume`.
The lift of (L, R) to L1 u R2 and the cleanup of doubled vertices are in `oracle`.

Read forwards, the lift is written once. Key k reads one row of the graph's
CSR over cover rows, row ``(k >> 1) + (k & 1) * side2_row`` (see `Graph`):
a side-1 key reads its base out-row, a side-2 key its base in-row, which is
the out-row itself when the graph is undirected. The row's columns are the
neighbors' bases, on the opposite side; `row_keys` holds them as cover keys.
`cover_rows` gathers the rows of a key array in key order and `cover_degrees`
their degrees; push, the sweep and the numpy evolving-set step read the cover
through these two. `cover_row` is the same read for one key, as Python values,
for the evolving-set dict loop and walker.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .graph import MAX_VERTICES, Graph, as_id, as_ids, row_positions, sorted_unique

__all__ = [
    "cover_vertex",
    "cover_degree",
    "cover_row",
    "cover_rows",
    "cover_degrees",
    "total_cover_volume",
    "cover_cut_and_volume",
    "conductance_in_cover",
    "to_cluster_pair",
]


def cover_vertex(base: int, side: int) -> int:
    """Encode (base, side) as a cover-vertex key; base is checked (`as_id`) below `MAX_VERTICES`."""
    if isinstance(side, bool) or not isinstance(side, (int, np.integer)) or side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    return 2 * as_id(base, MAX_VERTICES) + (side - 1)


def cover_key_row(g: Graph, keys):
    """The row of g's CSR over cover rows that a cover key (or int64 key array) reads."""
    return (keys >> 1) + (keys & 1) * g.side2_row


def cover_degree(g: Graph, key: int) -> float:
    """Weighted degree of a cover vertex.

    Equals deg(u) on both sides for undirected g; out-degree on side 1 and
    in-degree on side 2 for directed g.
    """
    return float(g.row_degrees[cover_key_row(g, as_id(key, g.n, cover=True))])


def cover_row(g: Graph, key: int):
    """(neighbor keys, weights, degree) of a cover key known to be in range, as Python values.

    Reads the CSR slices directly, with no range check and no array of
    neighbor keys: on the small sets the evolving-set dict loop handles,
    those would cost more than the row itself.
    """
    row = cover_key_row(g, key)
    lo, hi = g.row_indptr[row : row + 2].tolist()
    nbr_keys = g.row_keys[lo:hi]
    if key & 1 and not g.directed:  # an undirected row read from side 2
        nbr_keys = nbr_keys - 1
    return nbr_keys.tolist(), g.row_weights[lo:hi].tolist(), float(g.row_degrees[row])


def cover_rows(g: Graph, keys: np.ndarray):
    """Cover rows of an int64 array of in-range keys, as (nbr_keys, weights, counts).

    The rows come in the order of `keys`, each sorted by neighbor base, and
    `counts[j]` is the length of the row of `keys[j]`, so `np.repeat(values, counts)`
    spreads per-key values over the entries. Key k reads row `cover_key_row(g, k)`,
    and its neighbors are `g.row_keys` there: base v gives key ``2*v + 1 - (k & 1)``,
    which a side-2 key of an undirected graph gets by subtracting its parity.
    """
    pos, counts = row_positions(g.row_indptr, cover_key_row(g, keys))
    nbr_keys = g.row_keys[pos]
    if not g.directed:  # undirected rows read from side 2
        nbr_keys -= (keys & 1).repeat(counts)
    return nbr_keys, g.row_weights[pos], counts


def cover_degrees(g: Graph, keys: np.ndarray) -> np.ndarray:
    """Cover degrees of in-range keys: out-degree on side 1, in-degree on side 2."""
    return g.row_degrees[cover_key_row(g, keys)]


def total_cover_volume(g: Graph) -> float:
    """vol of the whole cover: vol_out(V) + vol_in(V), which is 2 vol(V) undirected."""
    return g._total_deg + g._total_in_deg


def cover_cut_and_volume(g: Graph, keys: Iterable[int]) -> tuple[float, float]:
    """(boundary weight, volume) of a cover set, through the reduction to (L, R);
    keys follow the one id rule (`graph.as_ids`)."""
    k = sorted_unique(as_ids(keys, g.n, cover=True))
    l, r = k[(k & 1) == 0] >> 1, k[(k & 1) == 1] >> 1  # sorted and distinct, as the keys are
    vol = g._pair_volume(l, r)
    return vol - 2.0 * g._weight_between(l, r), vol


def conductance_in_cover(g: Graph, keys: Iterable[int]) -> float:
    """Conductance of a cover-vertex set, evaluated without materializing the cover."""
    cut, vol = cover_cut_and_volume(g, keys)
    denom = min(vol, total_cover_volume(g) - vol)
    if denom <= 0:
        raise ValueError("conductance undefined: zero-volume side of the cover cut")
    return cut / denom


def to_cluster_pair(keys: Iterable[int]):
    """Split a cover set into (L, R): L from side-1 members, R from side-2. With no
    graph at hand, the keys are checked (`graph.as_ids`) against the largest cover."""
    k = np.sort(as_ids(keys, MAX_VERTICES, cover=True), axis=None)
    return k[(k & 1) == 0] >> 1, k[(k & 1) == 1] >> 1
