"""Shared builders for randomized tests. All randomness flows through a passed-in rng."""

from __future__ import annotations

import numpy as np

from pairclust import Graph
from pairclust.cover import cover_degree, cover_degrees, cover_rows, cover_vertex
from pairclust.esp import EspState
from pairclust.oracle import dense_cover_adjacency


def random_undirected(rng, n, p=0.35, weighted=False) -> Graph:
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                w = float(rng.uniform(0.2, 3.0)) if weighted else 1.0
                edges.append((i, j, w))
    if not edges:
        edges = [(0, 1, 1.0)] if n >= 2 else []
    return Graph(n, edges)


def random_directed(rng, n, p=0.3, weighted=False) -> Graph:
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                w = float(rng.uniform(0.2, 3.0)) if weighted else 1.0
                edges.append((i, j, w))
    if not edges:
        edges = [(0, 1, 1.0)] if n >= 2 else []
    return Graph(n, edges, directed=True)


def random_connected_undirected(rng, n, p=0.5, weighted=False) -> Graph:
    # spanning path first, then extra random edges
    perm = rng.permutation(n)
    edges = []
    for a, b in zip(perm[:-1], perm[1:]):
        w = float(rng.uniform(0.2, 3.0)) if weighted else 1.0
        edges.append((int(a), int(b), w))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                w = float(rng.uniform(0.2, 3.0)) if weighted else 1.0
                edges.append((i, j, w))
    return Graph(n, edges)


def random_disjoint_pair(rng, n):
    """Random disjoint (L, R), possibly empty on one side but not both."""
    while True:
        assign = rng.integers(0, 3, size=n)
        l = np.flatnonzero(assign == 1)
        r = np.flatnonzero(assign == 2)
        if l.size or r.size:
            return l, r


def mass_to_dense(p: dict, dim: int) -> np.ndarray:
    vec = np.zeros(dim)
    for key, val in p.items():
        vec[key] = val
    return vec


def dense_to_mass(vec: np.ndarray) -> dict:
    return {i: float(v) for i, v in enumerate(vec) if v != 0.0}


def is_simple(keys) -> bool:
    """True iff no base vertex has both cover copies in the set."""
    s = set(keys)
    return not any(key ^ 1 in s for key in s)


def doubled_part(keys) -> set:
    """Both copies of every base vertex whose two copies are in the set."""
    s = set(keys)
    return {key for key in s if key ^ 1 in s}


def dense_cover_cut_and_volume(g: Graph, keys):
    """(cut, vol) of a cover set, read off the oracle's explicit dense cover."""
    adj = dense_cover_adjacency(g)
    idx = sorted(set(keys))
    vol = float(adj[idx].sum())
    return vol - float(adj[np.ix_(idx, idx)].sum()), vol


def dense_cover_conductance(g: Graph, keys) -> float:
    """Cover conductance of a set, read off the oracle's explicit dense cover."""
    cut, vol = dense_cover_cut_and_volume(g, keys)
    total = float(dense_cover_adjacency(g).sum())
    return cut / min(vol, total - vol)


def esp_state_from_set(g: Graph, keys, rng) -> EspState:
    """Evolving-set state on an arbitrary cover set; the walker is drawn degree-proportionally.

    The degree-proportional draw is the coupling's stationary placement, so
    one step from here has exactly the volume-biased transition law.
    """
    members = set(keys)
    if not members:
        raise ValueError("start set must be nonempty")
    ordered = sorted(members)
    degs = np.array([cover_degree(g, key) for key in ordered])
    total = degs.sum()
    if total <= 0:
        raise ValueError("start set must have positive volume")
    cum = np.cumsum(degs)
    walker = ordered[int(np.searchsorted(cum, rng.random() * total, side="right"))]
    return EspState._build(g, members, walker)


def clone_state(state: EspState) -> EspState:
    """An independent copy of an evolving-set state, in the form it is in.

    An array-form copy borrows its own key index from the graph, filled by the
    `_TrackedArrays` constructor, so stepping one state never moves the other.
    """
    g, mass = state.graph, state.nbr_mass
    if isinstance(mass, dict):
        return EspState(g, set(state.members), state.walker, dict(mass), state.vol)
    arrays = type(mass)(g, mass.ids.copy(), mass.mass.copy(), mass.inside.copy(), mass.deg.copy())
    return EspState(g, None, state.walker, arrays, state.vol)


def csr_reference(n, edges, directed):
    """The `row_indptr`, `row_keys`, `row_weights` and `row_degrees` of `Graph.from_arrays` on
    (u, v, w) edges, in plain Python: parallel edges (undirected: either orientation) summed
    from 0.0 in input order; each merged edge, in (u, v) key order, stored in u's out-row as
    key 2v+1, then in the transposed half as key 2u+1 in v's row (undirected) or 2u in v's
    in-row at n + v (directed); each row sorted by key. A row's degree sums its entries from
    0.0 over the first half, then the transposed half, each in key order."""
    merged = {}
    for u, v, w in edges:
        key = (u, v) if directed else (min(u, v), max(u, v))
        merged[key] = merged.get(key, 0.0) + w
    side2 = n if directed else 0
    rows = [[] for _ in range(n + side2)]
    degrees = [0.0] * (n + side2)
    for transposed in (False, True):
        for (u, v), w in sorted(merged.items()):
            row, nbr = (side2 + v, 2 * u + (not directed)) if transposed else (u, 2 * v + 1)
            rows[row].append((nbr, w))
            degrees[row] += w
    indptr, keys, weights = [0], [], []
    for row in map(sorted, rows):
        keys += [nbr for nbr, _ in row]
        weights += [w for _, w in row]
        indptr.append(len(keys))
    return (
        np.array(indptr, dtype=np.int64),
        np.array(keys, dtype=np.int64),
        np.array(weights, dtype=np.float64),
        np.array(degrees, dtype=np.float64),
    )


def flow_rows_reference(rows):
    """The `csr_reference` of the flow digraph of (j, l, count) rows, in plain Python: per
    unordered pair lo < hi, M_lo,hi and M_hi,lo summed from 0.0 in file order; when they
    differ, one arc from the larger flow's origin weighted |fwd - bwd| / (fwd + bwd)."""
    n = 1 + max((max(j, l) for j, l, _ in rows), default=-1)
    flows = {}
    for j, l, count in rows:
        if j != l:
            flows.setdefault((min(j, l), max(j, l)), [0.0, 0.0])[int(j > l)] += count
    arcs = []
    for (lo, hi), (fwd, bwd) in flows.items():
        if fwd != bwd:
            u, v = (lo, hi) if fwd > bwd else (hi, lo)
            arcs.append((u, v, abs(fwd - bwd) / (fwd + bwd)))
    return csr_reference(n, arcs, directed=True)


def reference_push_rounds(g: Graph, seed_vertex, alpha, epsilon) -> list:
    """Each push round's (keys, p_mass, r_mass) as `AprState.run` computes them, with every
    round's neighbour shares summed by `np.unique` plus `np.bincount` in gather order and
    merged into the sorted keys by `np.union1d`: the sum-by-key rule without its fast path
    for increasing keys, which a round that pushes one key takes."""
    keys = np.array([cover_vertex(seed_vertex, 1)], dtype=np.int64)
    p_mass, r_mass, deg = np.zeros(1), np.ones(1), np.array([g.degree(seed_vertex)])
    rounds = []
    while (frontier := np.flatnonzero(r_mass >= epsilon * deg)).size:
        ru, du = r_mass[frontier], deg[frontier]
        p_mass[frontier] += alpha * ru
        r_mass[frontier] = (1.0 - alpha) * ru * 0.5
        nbr_keys, shares, counts = cover_rows(g, keys[frontier])
        shares *= np.repeat((1.0 - alpha) * ru / (2.0 * du), counts)
        uniq, inverse = np.unique(nbr_keys, return_inverse=True)
        sums = np.bincount(inverse, shares, uniq.size)
        merged = np.union1d(keys, uniq)
        grown = np.zeros((2, merged.size))
        grown[:, np.searchsorted(merged, keys)] = p_mass, r_mass
        keys, (p_mass, r_mass), deg = merged, grown, cover_degrees(g, merged)
        r_mass[np.searchsorted(keys, uniq)] += sums
        rounds.append((keys.copy(), p_mass.copy(), r_mass.copy()))
    return rounds
