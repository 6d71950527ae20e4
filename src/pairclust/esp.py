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

The superlevel set and the neighbor-mass update of a step have two forms with
the same law: a loop over the tracked dict, which is the reference and runs on
small sets, and a numpy form for large ones, which reads the dict into arrays,
compares Q against the threshold in one pass and applies the changed keys'
rows as signed sums. Both draw nothing from the rng, so the walker moves and
the rng stream are the same whichever form runs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, repeat

import numpy as np

from .cover import (
    cover_cut_and_volume,
    cover_degree,
    cover_degrees,
    cover_key_row,
    cover_row,
    cover_rows,
    cover_vertex,
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

# Steps 3-4 take the numpy form once this many keys are tracked (members plus
# boundary). On the table2 digraph the numpy form wins from about 64 keys on;
# at 128 its per-key int64/float64 arrays are at least 1 KiB, so numpy's cache
# of freed small buffers (up to 7 per byte size under 1 KiB) does not pin
# memory for every set size the process passes through.
_VECTOR_MIN_KEYS = 128

# Changed keys whose cover rows the numpy form gathers at once. Bounds the
# step's temporaries, which otherwise grow with the changed volume.
_GATHER_CHUNK = 256


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
    def _build(cls, g: Graph, members: set, walker: int) -> "EspState":
        nbr_mass = {key: 0.0 for key in members}
        vol = 0.0
        for key in members:
            nbr_keys, ws, deg = cover_row(g, key)
            vol += deg
            for nb, w in zip(nbr_keys, ws):
                nbr_mass[nb] = nbr_mass.get(nb, 0.0) + w
        return cls(g, members, walker, nbr_mass, vol)

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
    boundary, independent of the graph size. Steps 3-4 (the superlevel set and
    the neighbor-mass update) have two forms with the same law and the same
    rng draws: a dict loop, which is the reference and runs while fewer than
    `_VECTOR_MIN_KEYS` keys are tracked, and a numpy form for larger sets.
    Both give the same set from the same state. With integer weights they
    give identical states; with other weights the neighbor masses and the
    volume may differ in the last bits, because they sum in another order.
    """
    g = state.graph

    # 1. lazy walk step for the coupled walker
    x = state.walker
    if rng.random() >= 0.5:
        nbr_keys, ws, deg = cover_row(g, x)
        if deg > 0:
            cum = list(accumulate(ws))
            x = nbr_keys[bisect_right(cum, rng.random() * cum[-1])]

    # 2. threshold drawn from (0, Q(X', S)], so the walker always survives
    qx = state._q(x)
    u = qx * (1.0 - rng.random())

    # 3-4. superlevel set of Q at the threshold, then the neighbor masses and volume
    if len(state.nbr_mass) >= _VECTOR_MIN_KEYS:
        _update_vector(state, u)
    else:
        _update_dict(state, u)

    state.walker = x
    if x not in state.members:
        raise RuntimeError("coupling invariant violated: walker left the evolving set")
    return state


def _update_dict(state: EspState, u: float):
    """Steps 3-4 as a loop over the tracked keys; the reference form."""
    g = state.graph
    members = state.members
    nbr_mass = state.nbr_mass

    # 3. superlevel set of Q at the threshold
    deg_of = g.row_degrees.item
    new_members = set()
    for key, mass in nbr_mass.items():
        deg = deg_of(cover_key_row(g, key))
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
        nbr_keys, ws, deg = cover_row(g, key)
        state.vol += deg
        for nb, w in zip(nbr_keys, ws):
            nbr_mass[nb] = nbr_mass.get(nb, 0.0) + w
    for key in removed:
        nbr_keys, ws, deg = cover_row(g, key)
        state.vol -= deg
        for nb, w in zip(nbr_keys, ws):
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


def _update_vector(state: EspState, u: float):
    """Steps 3-4 on arrays read out of the tracked keys; same law as `_update_dict`.

    Q comes from one cover-degree gather, and one comparison gives each key a
    sign: +1 joins the set, -1 leaves it, 0 stays. A step that changes no
    member ends there. The changed keys' cover rows are gathered
    `_GATHER_CHUNK` keys at a time, signed and summed per neighbor, and the
    sums go back into the dict. Q is computed with the reference's floating
    point operations (the one swapped addition commutes exactly), so both
    forms pick the same set. Outside the zero-degree case no array is bool:
    a bool array of fewer than 1024 keys would land in numpy's cache of
    small buffers (see `_VECTOR_MIN_KEYS`).
    """
    g = state.graph
    members = state.members
    nbr_mass = state.nbr_mass
    size = len(nbr_mass)

    # 3. superlevel set of Q at the threshold
    keys = np.fromiter(nbr_mass, np.int64, size)
    mass = np.fromiter(nbr_mass.values(), np.float64, size)
    inside = np.fromiter(map(members.__contains__, nbr_mass), np.float64, size)
    deg = cover_degrees(g, keys)
    if deg.min() > 0:
        sign = 0.5 * mass
        sign /= deg
        sign += 0.5 * inside
    else:  # a zero-degree key (only a start set holds one) has Q = 1 inside, 0 outside
        positive = deg > 0
        sign = np.where(positive, 0.5 * inside + 0.5 * mass / np.where(positive, deg, 1.0), inside)
    np.greater_equal(sign, u, out=sign)
    sign -= inside
    changed = np.flatnonzero(sign)
    if not changed.size:
        return
    changed_keys = keys[changed]
    signs = sign[changed]
    removed = []
    for key, s in zip(changed_keys.tolist(), signs.tolist()):
        if s > 0:
            members.add(key)
        else:
            members.discard(key)
            removed.append(key)

    # 4. signed gather of the changed keys' rows, summed per neighbor
    state.vol += float(deg[changed] @ signs)
    # candidates for the dict form's prune: keys that leave, keys the sums
    # below bring to zero, and (only with tiny weights) untouched zero masses
    near_zero = list(removed)
    if removed and mass.min() <= _MASS_EPS:
        near_zero.extend(keys[mass <= _MASS_EPS].tolist())
    for start in range(0, changed.size, _GATHER_CHUNK):
        chunk = slice(start, start + _GATHER_CHUNK)
        nbrs, ws, owner = cover_rows(g, changed_keys[chunk])
        ws *= signs[chunk][owner]
        touched, at = np.unique(nbrs, return_inverse=True)
        touched = touched.tolist()
        sums = np.fromiter(map(nbr_mass.get, touched, repeat(0.0)), np.float64, len(touched))
        sums += np.bincount(at, weights=ws, minlength=len(touched))
        nbr_mass.update(zip(touched, sums.tolist()))
        if removed:
            near_zero.extend(np.compress(np.abs(sums) <= _MASS_EPS, touched).tolist())
    for key in set(near_zero):
        if key not in members and abs(nbr_mass[key]) <= _MASS_EPS:
            del nbr_mass[key]


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
        seed_key = cover_vertex(u, seed_side)
        if side == "both" and cover_degree(g, seed_key) <= 0:
            continue  # that copy of u is isolated in the cover
        for _ in range(attempts):
            pair = _sample_pair(g, seed_key, t, rng)
            if pair is not None and (best is None or pair.flow < best.flow):
                best = pair
    return best


def _sample_pair(g: Graph, seed_key: int, t: int, rng):
    """One evolving-set sample from seed_key, cleaned up into a flow pair (or None)."""
    s = generate_sample(g, seed_key, t, rng)
    s_simple = epsilon_simple_cleanup(s)
    if not s_simple:
        return None
    _check_cleanup_bound(g, s, s_simple)
    l, r = to_cluster_pair(s_simple)
    vol = g._pair_volume(l, r)
    if vol <= 0:
        return None
    return DirectedClusterPair(l=l, r=r, flow=flow_ratio(g, l, r), volume=vol)
