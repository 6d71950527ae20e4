"""Slow exact references: dense Pagerank, brute-force set search, exact ESP kernel, LS curve.

Everything here trades speed for verifiability and is size-guarded; exceeding
a guard raises instead of silently approximating. It also states the paper's
definitions that tests compare against and no pipeline calls: the one-vertex push,
the lift of (L, R) to the cover set L1 u R2 and the cleanup of doubled vertices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .cover import cover_degree, cover_vertex, total_cover_volume
from .graph import MAX_VERTICES, Graph, as_id, as_ids, bipartiteness, conductance
from .pagerank import AprState

__all__ = [
    "dcpush",
    "pair_to_cover_set",
    "epsilon_simple_cleanup",
    "dense_cover_adjacency",
    "dense_walk_matrix",
    "exact_pagerank",
    "brute_force_best_pair",
    "brute_force_min_conductance",
    "exact_esp_kernel",
    "ls_curve",
    "LsCurve",
]

_PAGERANK_GUARD = 4096
_PAIR_GUARD = 8
_KERNEL_GUARD = 24


def dcpush(state: AprState, u: int, side: int) -> AprState:
    """One push at cover vertex (u, side): a round whose frontier is that vertex alone."""
    key = cover_vertex(as_id(u, state.graph.n), side)
    at = np.flatnonzero(state.keys == key)
    if not (at.size and state.r_mass[at[0]] > 0.0):
        raise ValueError(f"dcpush requires positive residual at cover vertex ({u}, {side})")
    state._push(at)
    return state


def pair_to_cover_set(l: Iterable[int], r: Iterable[int]) -> set:
    """L1 u R2 as a cover set. With no graph at hand, the ids are checked
    (`graph.as_ids`) against the largest graph's vertex count, `MAX_VERTICES`."""
    l, r = as_ids(l, MAX_VERTICES), as_ids(r, MAX_VERTICES)
    return set((2 * l).tolist()) | set((2 * r + 1).tolist())


def epsilon_simple_cleanup(keys: Iterable[int]) -> set:
    """Drop both copies of every doubled base vertex; the result is always simple."""
    s = set(keys)
    return {key for key in s if key ^ 1 not in s}


def dense_cover_adjacency(g: Graph) -> np.ndarray:
    """The (semi-)double cover as an explicit dense 2n x 2n weight matrix."""
    dim = 2 * g.n
    adj = np.zeros((dim, dim))
    if g.directed:
        for u in range(g.n):
            ids, ws = g.neighbors(u)
            adj[2 * u, 2 * ids + 1] = ws
            adj[2 * ids + 1, 2 * u] = ws
    else:
        for u in range(g.n):
            ids, ws = g.neighbors(u)
            adj[2 * u, 2 * ids + 1] += ws
            adj[2 * u + 1, 2 * ids] += ws
    return adj


def dense_walk_matrix(g: Graph, cover: bool = True) -> np.ndarray:
    """Dense lazy-walk matrix W = (I + D^-1 A) / 2; degree-0 rows are absorbing."""
    if cover:
        adj = dense_cover_adjacency(g)
    else:
        if g.directed:
            raise ValueError("base-graph walk matrix is undirected-only")
        adj = np.zeros((g.n, g.n))
        for u in range(g.n):
            ids, ws = g.neighbors(u)
            adj[u, ids] = ws
    dim = adj.shape[0]
    deg = adj.sum(axis=1)
    w = np.eye(dim)
    pos = deg > 0
    w[pos] = 0.5 * (np.eye(dim)[pos] + adj[pos] / deg[pos, None])
    return w


def exact_pagerank(g: Graph, cover: bool, alpha: float, s: np.ndarray) -> np.ndarray:
    """Personalized Pagerank by direct series iteration, to residual 1e-12.

    Solves pr = alpha * s + (1 - alpha) * pr W via the geometric series
    alpha * sum_t (1 - alpha)^t s W^t.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    dim = 2 * g.n if cover else g.n
    if dim > _PAGERANK_GUARD:
        raise ValueError(f"dense pagerank guard exceeded: {dim} > {_PAGERANK_GUARD}")
    s = np.asarray(s, dtype=np.float64)
    if s.shape != (dim,):
        raise ValueError(f"starting vector must have shape ({dim},)")
    w = dense_walk_matrix(g, cover)
    out = np.zeros(dim)
    term = alpha * s
    scale = float(np.abs(s).sum())
    tol = 1e-12 * max(scale, 1.0)
    while np.abs(term).sum() > tol:
        out += term
        term = (1.0 - alpha) * (term @ w)
    return out + term


def _pair_assignments(n: int):
    # each vertex is unassigned (0), in L (1), or in R (2)
    return itertools.product((0, 1, 2), repeat=n)


def brute_force_best_pair(g: Graph):
    """Exact minimum of the pair quality ratio over all disjoint (L, R), n <= 8."""
    if g.directed:
        raise ValueError("brute_force_best_pair is undirected-only")
    if g.n > _PAIR_GUARD:
        raise ValueError(f"brute-force guard exceeded: n={g.n} > {_PAIR_GUARD}")
    best = None
    for assign in _pair_assignments(g.n):
        l = [v for v, a in enumerate(assign) if a == 1]
        r = [v for v, a in enumerate(assign) if a == 2]
        if g.volume(l + r) <= 0:  # also skips the empty pair
            continue
        beta = bipartiteness(g, l, r)
        if best is None or beta < best[2]:
            best = (np.asarray(l, dtype=np.int64), np.asarray(r, dtype=np.int64), beta)
    if best is None:
        raise ValueError("graph has no pair with positive volume")
    return best


def brute_force_min_conductance(g: Graph, cover: bool = True):
    """Exact minimum conductance over simple cover sets (or base-graph subsets)."""
    if g.n > _PAIR_GUARD:
        raise ValueError(f"brute-force guard exceeded: n={g.n} > {_PAIR_GUARD}")
    best = None
    if cover:
        adj = dense_cover_adjacency(g)
        deg = adj.sum(axis=1)
        total = deg.sum()
        for assign in _pair_assignments(g.n):
            l = [v for v, a in enumerate(assign) if a == 1]
            r = [v for v, a in enumerate(assign) if a == 2]
            s = pair_to_cover_set(l, r)
            idx = sorted(s)
            vol = deg[idx].sum()
            denom = min(vol, total - vol)
            if denom <= 0:
                continue  # empty, or a zero-volume side of the cover cut
            phi = float((vol - adj[np.ix_(idx, idx)].sum()) / denom)
            if best is None or phi < best[1]:
                best = (s, phi)
    else:
        if g.directed:
            raise ValueError("base-graph conductance search is undirected-only")
        for size in range(1, g.n):
            for subset in itertools.combinations(range(g.n), size):
                try:
                    phi = conductance(g, subset)
                except ValueError:
                    continue
                if best is None or phi < best[1]:
                    best = (set(subset), phi)
    if best is None:
        raise ValueError("no admissible set found")
    return best


def _membership_probabilities(adj: np.ndarray, deg: np.ndarray, s: set) -> dict:
    """Q(y, S) = one lazy-walk-step probability of landing in S, for all cover y."""
    inside = np.zeros(adj.shape[0])
    inside[list(s)] = 1.0
    mass = (adj * inside).sum(axis=1)
    q = np.where(deg > 0, 0.5 * inside + 0.5 * mass / np.where(deg > 0, deg, 1.0), inside)
    return dict(enumerate(q.tolist()))


def exact_esp_kernel(g: Graph, s: set):
    """Exact one-step kernels of the evolving set process from cover set s.

    Returns (k, k_hat): dicts mapping successor frozensets to probabilities.
    k is the plain threshold kernel (may include the empty set); k_hat is the
    volume-biased reweighting vol(S') / vol(S) * k(S, S'), which drops the
    empty set and sums to 1 because set volume is a martingale under k.
    """
    if 2 * g.n > _KERNEL_GUARD:
        raise ValueError(f"kernel guard exceeded: {2 * g.n} > {_KERNEL_GUARD}")
    s = set(as_ids(s, g.n, cover=True).tolist())
    if not s:
        raise ValueError("start set must be nonempty")
    adj = dense_cover_adjacency(g)
    deg = adj.sum(axis=1)
    q = _membership_probabilities(adj, deg, s)
    vol_s = float(deg[list(s)].sum())
    if vol_s <= 0:
        raise ValueError("start set must have positive volume")

    # Distinct positive Q values partition (0, 1] into intervals; the interval
    # (next_level, level] selects the superlevel set {y : Q(y) >= level}.
    levels = sorted({val for val in q.values() if val > 0}, reverse=True)
    k: dict = {}
    k_hat: dict = {}
    top = levels[0] if levels else 0.0
    if top < 1.0:
        k[frozenset()] = 1.0 - top
    for i, threshold in enumerate(levels):
        succ = frozenset(key for key, val in q.items() if val >= threshold)
        nxt = levels[i + 1] if i + 1 < len(levels) else 0.0
        prob = threshold - nxt
        k[succ] = k.get(succ, 0.0) + prob
        k_hat[succ] = k_hat.get(succ, 0.0) + prob * float(deg[list(succ)].sum()) / vol_s
    return k, k_hat


@dataclass(frozen=True)
class LsCurve:
    """Concave piecewise-linear upper envelope of set masses by volume."""

    xs: np.ndarray
    ys: np.ndarray

    def __call__(self, x: float) -> float:
        if x < -1e-12 or x > self.xs[-1] + 1e-12:
            raise ValueError(f"query {x} outside [0, {self.xs[-1]}]")
        return float(np.interp(x, self.xs, self.ys))


def ls_curve(p: dict, g: Graph, cover: bool = True) -> LsCurve:
    """Curve through the sweep-prefix points ordered by mass/degree, descending.

    A diagnostic: for any vertex set S, the set mass p(S) is bounded above by
    the curve evaluated at vol(S).
    """
    if cover:
        items = [(key, val, cover_degree(g, key)) for key, val in p.items() if val != 0.0]
    else:
        items = [
            (key, val, float(g.degrees[as_id(key, g.n)])) for key, val in p.items() if val != 0.0
        ]
    for key, val, deg in items:
        if val < 0:
            raise ValueError("mass vector must be nonnegative")
        if deg <= 0:
            raise ValueError(f"support vertex {key} has zero degree")
    items.sort(key=lambda t: (-t[1] / t[2], t[0]))
    xs = [0.0]
    ys = [0.0]
    for _, val, deg in items:
        xs.append(xs[-1] + deg)
        ys.append(ys[-1] + val)
    total = total_cover_volume(g) if cover else g.total_volume()
    if xs[-1] > total + 1e-9:
        raise ValueError("support volume exceeds total volume")
    if xs[-1] < total:
        xs.append(total)
        ys.append(ys[-1])
    return LsCurve(np.asarray(xs), np.asarray(ys))
