"""Shared builders for randomized tests. All randomness flows through a passed-in rng."""

from __future__ import annotations

import numpy as np

from pairclust import Graph
from pairclust.cover import cover_degree
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
    """An independent copy of an evolving-set state, in the form it is in."""
    mass = state.nbr_mass
    if isinstance(mass, dict):
        return EspState(state.graph, set(state.members), state.walker, dict(mass), state.vol)
    arrays = type(mass)(mass.ids.copy(), mass.mass.copy(), mass.inside.copy(), mass.deg.copy())
    return EspState(state.graph, None, state.walker, arrays, state.vol)
