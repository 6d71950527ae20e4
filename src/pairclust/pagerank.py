"""Pagerank push on the virtual double cover: approximate Pagerank, simplify, sweep cut.

The pipeline finds two clusters L, R that are densely connected to each other
and jointly isolated from the rest of an undirected graph. Push simulates the
double cover on the base graph in synchronous rounds: each round pushes every
cover vertex with residual at least epsilon times its degree at once. A round
is a sequence of partial pushes, so the invariant p + pr(r) = pr(chi) and the
work bound of 1/(epsilon*alpha) pushed volume hold as for one-at-a-time push,
and the work never depends on the graph size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cover import (
    cover_degrees,
    cover_rows,
    cover_vertex,
    to_cluster_pair,
    total_cover_volume,
)
from .graph import Graph, as_id, as_ids, bipartiteness, key_positions, sorted_merge, sorted_unique

__all__ = [
    "AprState",
    "approximate_pagerank_dc",
    "simplify",
    "ClusterPair",
    "sweep_cut",
    "loc_bipart_dc",
    "theorem1_beta_hat",
]


def _nonzero_dict(keys: np.ndarray, vals: np.ndarray) -> dict:
    held = vals > 0.0
    return dict(zip(keys[held].tolist(), vals[held].tolist()))


class AprState:
    """Push state over the cover vertices reached so far, pushed in rounds.

    `keys` is the sorted int64 array of cover vertices that have held mass (see
    the cover module's encoding); `p_mass`, `r_mass` and `deg` are aligned with it
    and grow with the frontier. A round sums its shares at positions read from a key
    index borrowed from the graph's pool (`key_positions`), so nothing of the graph's
    size is allocated past the pool's first index. `p` and `r` read the masses out as
    dicts that store no zeros. A state must not be shared across threads.
    """

    __slots__ = (
        "graph",
        "alpha",
        "epsilon",
        "keys",
        "p_mass",
        "r_mass",
        "deg",
        "push_count",
        "pushed_degree_total",
    )

    def __init__(self, g: Graph, seed_vertex: int, alpha: float, epsilon: float):
        if g.directed:
            raise ValueError("the double-cover push runs on undirected graphs only")
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if not 0 < epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
        seed_vertex = as_id(seed_vertex, g.n)
        deg = g.degree(seed_vertex)
        if deg <= 0:
            raise ValueError(f"seed vertex {seed_vertex} has degree 0")
        self.graph = g
        self.alpha = float(alpha)
        self.epsilon = float(epsilon)
        self.keys = np.array([cover_vertex(seed_vertex, 1)], dtype=np.int64)
        self.p_mass = np.zeros(1)
        self.r_mass = np.ones(1)
        self.deg = np.array([deg])
        self.push_count = 0
        self.pushed_degree_total = 0.0

    @property
    def p(self) -> dict:
        return _nonzero_dict(self.keys, self.p_mass)

    @property
    def r(self) -> dict:
        return _nonzero_dict(self.keys, self.r_mass)

    def run(self, on_push: Callable | None = None) -> "AprState":
        """Push rounds until every residual is below epsilon times its degree.

        A round's frontier is every key at or above that threshold, pushed at
        once from the residuals at the round's start; `on_push(state)` follows
        each round.
        """
        while True:
            frontier = np.flatnonzero(self.r_mass >= self.epsilon * self.deg)
            if not frontier.size:
                return self
            self._push(frontier)
            if on_push is not None:
                on_push(self)

    def _push(self, frontier: np.ndarray):
        """Bank alpha of each frontier residual into p, keep half the rest (lazy
        self-loop) and spread the other half to the neighbors' opposite-side copies."""
        g, alpha = self.graph, self.alpha
        ru, du = self.r_mass[frontier], self.deg[frontier]
        self.push_count += int(frontier.size)
        self.pushed_degree_total += float(du.sum())
        self.p_mass[frontier] += alpha * ru
        self.r_mass[frontier] = (1.0 - alpha) * ru * 0.5

        nbr_keys, shares, counts = cover_rows(g, self.keys[frontier])
        shares *= np.repeat((1.0 - alpha) * ru / (2.0 * du), counts)
        uniq = sorted_unique(nbr_keys)
        sums = np.bincount(key_positions(g, uniq, nbr_keys), shares, uniq.size)
        (self.keys, self.p_mass, self.r_mass, self.deg), at, added = sorted_merge(
            uniq, self.keys, self.p_mass, self.r_mass, self.deg
        )
        self.deg[added] = cover_degrees(g, self.keys[added])
        self.r_mass[at] += sums


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
        diff = val - p.get(key ^ 1, 0.0)
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
    support = {key: val for key, val in p.items() if val != 0.0}
    if not support:
        return None
    keys = as_ids(support, g.n, cover=True)
    vals = np.fromiter(support.values(), dtype=np.float64, count=len(support))
    deg = cover_degrees(g, keys)
    order = np.lexsort((keys, -vals / deg))
    keys, deg = keys[order], deg[order]
    if (key_positions(g, keys, keys ^ 1) >= 0).any():
        raise ValueError("sweep_cut requires a simplified mass vector")
    # charge each support-internal cover edge to the later of its two ranks
    nbr_keys, ws, counts = cover_rows(g, keys)
    rank = np.repeat(np.arange(keys.size), counts)
    other = key_positions(g, keys, nbr_keys)
    earlier = (other >= 0) & (other < rank)
    inside = np.bincount(rank[earlier], weights=ws[earlier], minlength=keys.size)

    vol = np.cumsum(deg)
    cut = np.cumsum(deg - 2.0 * inside)
    denom = np.minimum(vol, total_cover_volume(g) - vol)
    valid = denom > 0
    phi = np.full(keys.size, math.inf)
    phi[valid] = cut[valid] / denom[valid]
    if best:
        j = int(np.argmin(phi)) + 1
        return _verified_pair(g, keys[:j], beta_target, j) if valid.any() else None
    for j in (np.flatnonzero(valid & (phi <= beta_target)) + 1).tolist():
        pair = _verified_pair(g, keys[:j], beta_target, j)
        if pair is not None:
            return pair
    return None


def _verified_pair(g: Graph, prefix: np.ndarray, beta_target: float, j: int):
    """Recompute the pair quality from scratch; reject if it misses the target."""
    l, r = to_cluster_pair(prefix)
    beta = bipartiteness(g, l, r)
    if beta > beta_target:
        return None
    vol = g._pair_volume(l, r)
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
    for name, value in (("gamma", gamma), ("beta_hat", beta_hat)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    if alpha is None:
        alpha = beta_hat * beta_hat / 378.0
        if not 0 < alpha <= 1:
            raise ValueError(
                f"beta_hat={beta_hat} gives teleport probability {alpha:.3g} outside (0, 1]; "
                "pass an explicit alpha in (0, 1]"
            )
    epsilon = 1.0 / (20.0 * gamma)
    if not 0 < epsilon < math.inf:
        raise ValueError(f"gamma={gamma} gives push threshold 1/(20*gamma) = {epsilon}")
    sp = simplify(AprState(g, u, alpha, epsilon).run().p)
    if not sp:
        return None
    return sweep_cut(g, sp, beta_hat, best=best_sweep)
