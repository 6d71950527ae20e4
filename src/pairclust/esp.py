"""Volume-biased evolving set process on the semi-double cover, and the directed cut search.

The process is simulated through the standard walk coupling: advance a lazy
random walk on the cover, then draw the threshold uniformly from (0, Q(X', S)]
where Q(y, S) is the one-step probability of landing in S. Conditioned on the
walker staying degree-proportionally distributed inside the current set, the
set marginal is exactly the volume-biased (Doob-transformed) chain, and each
step only touches the current set and its boundary. The walk law reads the
incremental neighbor masses. A sample returns only its final set; sets are
measured (by `cover_cut_and_volume`, through the reduction to (L, R)) only by
the cleanup-bound check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cover import (
    cover_cut_and_volume,
    cover_degree,
    cover_neighbors,
    epsilon_simple_cleanup,
    to_cluster_pair,
)
from .graph import Graph, flow_ratio

__all__ = [
    "EspState",
    "esp_step",
    "generate_sample",
    "DirectedClusterPair",
    "evo_cut_directed",
    "steps_for_target_flow",
]

# Neighbor-mass residues below this are treated as exact zeros when pruning.
_MASS_EPS = 1e-12


class EspState:
    """Current set, coupled walker, and incremental boundary statistics.

    `nbr_mass[y]` is the total edge weight from y into the current set, kept
    for every member and every boundary vertex. The walker is always a member
    of the current set.
    """

    __slots__ = ("graph", "members", "walker", "nbr_mass", "vol")

    def __init__(self, g: Graph, members: set, walker: int, nbr_mass: dict, vol: float):
        self.graph = g
        self.members = members
        self.walker = walker
        self.nbr_mass = nbr_mass
        self.vol = vol

    @classmethod
    def from_seed(cls, g: Graph, seed_key: int) -> "EspState":
        """Start from the singleton set of one cover vertex."""
        if cover_degree(g, seed_key) <= 0:
            raise ValueError(f"cover vertex {seed_key} has degree 0")
        return cls._build(g, {seed_key}, seed_key)

    @classmethod
    def from_set(cls, g: Graph, keys, rng) -> "EspState":
        """Start from an arbitrary cover set; the walker is drawn degree-proportionally.

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
        return cls._build(g, members, walker)

    @classmethod
    def _build(cls, g: Graph, members: set, walker: int) -> "EspState":
        nbr_mass = {key: 0.0 for key in members}
        vol = 0.0
        for key in members:
            vol += cover_degree(g, key)
            nbr_keys, ws = cover_neighbors(g, key)
            for nb, w in zip(nbr_keys.tolist(), ws.tolist()):
                nbr_mass[nb] = nbr_mass.get(nb, 0.0) + w
        return cls(g, members, walker, nbr_mass, vol)

    def clone(self) -> "EspState":
        return EspState(self.graph, set(self.members), self.walker, dict(self.nbr_mass), self.vol)

    def _q(self, key: int) -> float:
        """Q(key, S): one lazy-walk-step probability of landing in the current set."""
        deg = cover_degree(self.graph, key)
        inside = 1.0 if key in self.members else 0.0
        if deg <= 0:
            return inside
        return 0.5 * inside + 0.5 * self.nbr_mass.get(key, 0.0) / deg


def esp_step(state: EspState, rng) -> EspState:
    """Advance the coupled process one step, in place.

    Work per step is proportional to the volume of the current set plus its
    boundary, independent of the graph size.
    """
    g = state.graph
    members = state.members
    nbr_mass = state.nbr_mass

    # 1. lazy walk step for the coupled walker
    x = state.walker
    if rng.random() >= 0.5:
        deg = cover_degree(g, x)
        if deg > 0:
            nbr_keys, ws = cover_neighbors(g, x)
            cum = np.cumsum(ws)
            x = int(nbr_keys[int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))])

    # 2. threshold drawn from (0, Q(X', S)], so the walker always survives
    qx = state._q(x)
    u = qx * (1.0 - rng.random())

    # 3. superlevel set of Q at the threshold
    in_deg = g.in_degrees
    out_deg = g.degrees
    new_members = set()
    for key, mass in nbr_mass.items():
        deg = in_deg[key >> 1] if key & 1 else out_deg[key >> 1]
        if deg <= 0:
            q = 1.0 if key in members else 0.0
        else:
            q = (0.5 if key in members else 0.0) + 0.5 * mass / deg
        if q >= u:
            new_members.add(key)

    # 4. incremental update of neighbor masses and volume
    added = new_members - members
    removed = members - new_members
    for key in added:
        state.vol += cover_degree(g, key)
        nbr_keys, ws = cover_neighbors(g, key)
        for nb, w in zip(nbr_keys.tolist(), ws.tolist()):
            nbr_mass[nb] = nbr_mass.get(nb, 0.0) + w
    for key in removed:
        state.vol -= cover_degree(g, key)
        nbr_keys, ws = cover_neighbors(g, key)
        for nb, w in zip(nbr_keys.tolist(), ws.tolist()):
            nbr_mass[nb] -= w
    if removed:
        stale = [
            key
            for key, mass in nbr_mass.items()
            if key not in new_members and abs(mass) <= _MASS_EPS
        ]
        for key in stale:
            del nbr_mass[key]

    state.members = new_members
    state.walker = x
    if x not in new_members:
        raise RuntimeError("coupling invariant violated: walker left the evolving set")
    return state


def generate_sample(g: Graph, seed_key: int, t: int, rng) -> frozenset:
    """Sample the t-th set of the volume-biased process started from {seed_key}.

    Returns the final set only. Intermediate sets are not measured, because
    the directed search turns only the final set into a pair.
    """
    if t < 0:
        raise ValueError("step count must be nonnegative")
    state = EspState.from_seed(g, seed_key)
    for _ in range(t):
        esp_step(state, rng)
    return frozenset(state.members)


def steps_for_target_flow(phi: float) -> int:
    """Step count for a target flow ratio, clamped to at least one step."""
    if not 0 < phi <= 1:
        raise ValueError("phi must be in (0, 1]")
    return max(1, math.floor(1.0 / (100.0 * phi ** (2.0 / 3.0))))


@dataclass(frozen=True)
class DirectedClusterPair:
    """A directed flow pair: edges run mostly from l to r."""

    l: np.ndarray
    r: np.ndarray
    flow: float
    volume: float


def _check_cleanup_bound(g: Graph, s: set, s_simple: set):
    """Dropping doubled vertices degrades the boundary fraction by a bounded amount.

    Both sides use the set-volume form cut(X)/vol(X), which is the form the
    bound is stated in; with eps = vol(P)/vol(S) the cleaned set satisfies
    cut(S')/vol(S') <= (cut(S)/vol(S) + eps) / (1 - eps).
    """
    cut_s, vol_s = cover_cut_and_volume(g, s)
    cut_c, vol_c = cover_cut_and_volume(g, s_simple)
    if vol_s <= 0 or vol_c <= 0:
        return
    eps = (vol_s - vol_c) / vol_s
    if eps >= 1.0:
        return
    lhs = cut_c / vol_c
    rhs = (cut_s / vol_s + eps) / (1.0 - eps)
    if lhs > rhs + 1e-12:
        raise RuntimeError(
            f"cleanup bound violated: {lhs} > {rhs} with eps={eps}"
        )


def evo_cut_directed(
    g: Graph,
    u: int,
    side,
    phi: float,
    rng,
    steps: int | None = None,
    attempts: int = 1,
):
    """Find a directed flow pair around u by sampling the evolving set process.

    `side` selects which copy of u seeds the process: 1 when u should end up in
    L (edges out), 2 when it should end up in R (edges in), "both" to try each
    copy of positive degree. `attempts` samples are drawn per side from `rng`,
    and the lowest-flow pair is kept. `steps` overrides the step count derived
    from `phi`. Returns a DirectedClusterPair, or None when every sample
    yields an empty or zero-volume pair.
    """
    if not g.directed:
        raise ValueError("evo_cut_directed requires a directed graph")
    if not 0 <= u < g.n:
        raise ValueError(f"seed vertex {u} outside [0, {g.n})")
    if side not in (1, 2, "both"):
        raise ValueError("side must be 1, 2 or 'both'")
    if not 0 < phi <= 1:
        raise ValueError("phi must be in (0, 1]")
    if attempts < 1:
        raise ValueError("attempts must be at least 1")
    t = steps if steps is not None else steps_for_target_flow(phi)
    if t < 1:
        raise ValueError("step count must be at least 1")
    best = None
    for seed_side in (1, 2) if side == "both" else (side,):
        seed_key = 2 * u + (seed_side - 1)
        if side == "both" and cover_degree(g, seed_key) <= 0:
            continue  # that copy of u is isolated in the cover
        for _ in range(attempts):
            pair = _sample_pair(g, seed_key, t, rng)
            if pair is not None and (best is None or pair.flow < best.flow):
                best = pair
    return best


def _sample_pair(g: Graph, seed_key: int, t: int, rng):
    """One evolving-set sample from seed_key, cleaned up into a flow pair (or None)."""
    s = set(generate_sample(g, seed_key, t, rng))
    s_simple = epsilon_simple_cleanup(s)
    if not s_simple:
        return None
    _check_cleanup_bound(g, s, s_simple)
    l, r = to_cluster_pair(s_simple)
    denom = float(g.degrees[l].sum()) + float(g.in_degrees[r].sum())
    if denom <= 0:
        return None
    flow = flow_ratio(g, l, r)
    return DirectedClusterPair(l=l, r=r, flow=flow, volume=denom)
