"""Pagerank push on the virtual double cover: approximate Pagerank, simplify, sweep cut.

The pipeline finds two clusters L, R that are densely connected to each other
and jointly isolated from the rest of an undirected graph. Push operations run
directly on the base graph while simulating the double cover, so the work is
proportional to the mass spread (at most 1/(epsilon*alpha) volume), never to
the graph size.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cover import cover_neighbors, to_cluster_pair, total_cover_volume
from .graph import Graph, bipartiteness

__all__ = [
    "MASS_FLOOR",
    "AprState",
    "dcpush",
    "approximate_pagerank_dc",
    "simplify",
    "ClusterPair",
    "sweep_cut",
    "loc_bipart_dc",
    "theorem1_beta_hat",
]

# Masses below this are dropped instead of stored, avoiding denormal churn.
MASS_FLOOR = 1e-300


class AprState:
    """Mutable push state: sparse (p, r) over cover vertices plus the work queue.

    Cover vertices are the integer keys of `p` and `r` (see the cover module's
    encoding). The queue holds cover vertices whose residual is at or above
    epsilon times their degree, FIFO, with an in-queue flag so each vertex is
    queued at most once at a time. State is confined to a single execution and
    must not be shared across threads.
    """

    __slots__ = (
        "graph",
        "alpha",
        "epsilon",
        "p",
        "r",
        "queue",
        "queued",
        "push_count",
        "pushed_degree_total",
    )

    def __init__(self, g: Graph, seed_vertex: int, alpha: float, epsilon: float):
        if g.directed:
            raise ValueError("the double-cover push runs on undirected graphs only")
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        deg = g.degree(seed_vertex)
        if deg <= 0:
            raise ValueError(f"seed vertex {seed_vertex} has degree 0")
        self.graph = g
        self.alpha = float(alpha)
        self.epsilon = float(epsilon)
        self.p: dict = {}
        self.r: dict = {2 * seed_vertex: 1.0}
        self.queue: deque = deque()
        self.queued: set = set()
        self.push_count = 0
        self.pushed_degree_total = 0.0
        if 1.0 >= epsilon * deg:
            self.queue.append(2 * seed_vertex)
            self.queued.add(2 * seed_vertex)

    def touched_cover_vertices(self) -> set:
        """Every cover vertex that ever held mass."""
        return set(self.p) | set(self.r)

    def run(self, on_push: Callable | None = None) -> "AprState":
        """Push until every residual is below epsilon times its degree."""
        g = self.graph
        degrees = g.degrees
        epsilon = self.epsilon
        queue = self.queue
        queued = self.queued
        r = self.r
        while queue:
            key = queue.popleft()
            queued.discard(key)
            if r.get(key, 0.0) < epsilon * degrees[key >> 1]:
                continue
            dcpush(self, key >> 1, (key & 1) + 1)
            if on_push is not None:
                on_push(self)
        return self


def dcpush(state: AprState, u: int, side: int) -> AprState:
    """One push at cover vertex (u, side).

    Banks alpha of the residual into p, keeps half of the remainder at the same
    cover vertex (lazy self-loop), and spreads the other half to the neighbors'
    copies on the opposite side, since every cover edge crosses sides.
    """
    key = 2 * u + (side - 1)
    ru = state.r.get(key, 0.0)
    if not ru > 0.0:
        raise ValueError(f"dcpush requires positive residual at cover vertex ({u}, {side})")

    g = state.graph
    alpha = state.alpha
    epsilon = state.epsilon
    degrees = g.degrees
    du = degrees[u]

    state.push_count += 1
    state.pushed_degree_total += du

    state.p[key] = state.p.get(key, 0.0) + alpha * ru
    keep = (1.0 - alpha) * ru * 0.5
    r = state.r
    if keep > MASS_FLOOR:
        r[key] = keep
        if keep >= epsilon * du and key not in state.queued:
            state.queued.add(key)
            state.queue.append(key)
    else:
        del r[key]

    share = (1.0 - alpha) * ru / (2.0 * du)
    if share <= MASS_FLOOR:
        return state
    s, e = g.indptr[u], g.indptr[u + 1]
    idx = g.indices[s:e]
    nbrs = idx.tolist()
    ws = g.weights[s:e].tolist()
    ndegs = degrees[idx].tolist()
    opposite = (key & 1) ^ 1
    queued = state.queued
    queue = state.queue
    for v, w, dv in zip(nbrs, ws, ndegs):
        nk = 2 * v + opposite
        rv = r.get(nk, 0.0) + share * w
        r[nk] = rv
        if rv >= epsilon * dv and nk not in queued:
            queued.add(nk)
            queue.append(nk)
    return state


def approximate_pagerank_dc(g: Graph, v: int, alpha: float, epsilon: float):
    """Approximate Pagerank on the double cover, seeded at the side-1 copy of v.

    Returns sparse (p, r) dicts over cover vertices satisfying
    p + pr(alpha, r) = pr(alpha, chi_{v1}), with every residual below
    epsilon times the cover degree.
    """
    state = AprState(g, v, alpha, epsilon).run()
    return state.p, state.r


def simplify(p: dict) -> dict:
    """Per base vertex, keep only the positive side difference of the two copies.

    The support of the result never contains both copies of a vertex, so it
    translates unambiguously into a disjoint pair (L, R).
    """
    out = {}
    for key, val in p.items():
        if val < 0:
            raise ValueError("mass vector must be nonnegative")
        other = p.get(key ^ 1, 0.0)
        diff = val - other
        if diff > 0.0:
            out[key] = diff
    return out


@dataclass(frozen=True)
class ClusterPair:
    """A found pair: disjoint L, R with its quality value and cover volume."""

    l: np.ndarray
    r: np.ndarray
    beta: float
    volume: float
    sweep_index: int


def sweep_cut(g: Graph, p: dict, beta_target: float, best: bool = False):
    """Scan prefixes of the support ordered by mass/degree for a low-conductance set.

    `p` must be simplified (simple support). Returns the first prefix whose
    cover conductance is at most `beta_target`, translated to a ClusterPair,
    or the minimum-conductance prefix when `best` is set. Returns None when no
    prefix qualifies. Ties in the ordering break by ascending base vertex id
    with side 1 first.
    """
    if g.directed:
        raise ValueError("sweep_cut runs on the double cover of an undirected graph")
    support = [key for key, val in p.items() if val != 0.0]
    if not support:
        return None
    for key in support:
        if p.get(key ^ 1, 0.0) != 0.0:
            raise ValueError("sweep_cut requires a simplified mass vector")

    degrees = g.degrees
    total = total_cover_volume(g)
    support.sort(key=lambda k: (-p[k] / degrees[k >> 1], k))

    members: set = set()
    vol = 0.0
    cut = 0.0
    best_phi = math.inf
    best_j = 0
    for j, key in enumerate(support, start=1):
        deg = float(degrees[key >> 1])
        nbr_keys, ws = cover_neighbors(g, key)
        inside = 0.0
        for nb, w in zip(nbr_keys.tolist(), ws.tolist()):
            if nb in members:
                inside += w
        members.add(key)
        vol += deg
        cut += deg - 2.0 * inside
        denom = min(vol, total - vol)
        if denom <= 0:
            continue
        phi = cut / denom
        if best:
            if phi < best_phi:
                best_phi = phi
                best_j = j
        elif phi <= beta_target:
            pair = _verified_pair(g, support[:j], beta_target, j)
            if pair is not None:
                return pair
    if best and best_j:
        return _verified_pair(g, support[:best_j], beta_target, best_j)
    return None


def _verified_pair(g: Graph, prefix: list, beta_target: float, j: int):
    """Recompute the pair quality from scratch; reject if it misses the target."""
    l, r = to_cluster_pair(prefix)
    beta = bipartiteness(g, l, r)
    if beta > beta_target:
        return None
    vol = float(g.degrees[np.concatenate([l, r])].sum())
    return ClusterPair(l=l, r=r, beta=beta, volume=vol, sweep_index=j)


def theorem1_beta_hat(beta: float) -> float:
    """Sweep target that matches the analysed calling convention for target quality beta."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    return math.sqrt(7560.0 * beta)


def loc_bipart_dc(
    g: Graph,
    u: int,
    gamma: float,
    beta_hat: float,
    alpha: float | None = None,
    best_sweep: bool = False,
):
    """Find a densely inter-connected pair around u in an undirected graph.

    Runs approximate Pagerank on the double cover with alpha = beta_hat**2/378
    and epsilon = 1/(20*gamma), simplifies, and sweeps for a prefix with cover
    conductance at most beta_hat. Returns a ClusterPair or None if no sweep
    prefix qualifies.

    `alpha` overrides the derived teleport probability; the derived value is
    rejected when it leaves (0, 1]. `best_sweep` returns the best prefix over
    the whole support instead of the first qualifying one.

    Work scales as 1/(epsilon * alpha) = 7560 * gamma / beta_hat**2, so small
    targets without an explicit alpha are expensive by construction.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if beta_hat <= 0:
        raise ValueError("beta_hat must be positive")
    if alpha is None:
        alpha = beta_hat * beta_hat / 378.0
        if alpha > 1.0:
            raise ValueError(
                f"beta_hat={beta_hat} gives teleport probability {alpha:.3g} > 1; "
                "pass an explicit alpha in (0, 1]"
            )
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    epsilon = 1.0 / (20.0 * gamma)
    p, _ = approximate_pagerank_dc(g, u, alpha, epsilon)
    sp = simplify(p)
    if not sp:
        return None
    return sweep_cut(g, sp, beta_hat, best=best_sweep)
