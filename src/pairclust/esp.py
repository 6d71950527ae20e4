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

A state has two forms with the same law. A sample starts in dict form: a dict
of neighbor masses and a set of members, stepped by a loop over the tracked
keys, which is the reference. Once it tracks `_VECTOR_MIN_KEYS` keys it is
converted, once, to array form: sorted keys with aligned neighbor masses,
membership flags and cover degrees, which each later step of the sample
updates in place. An array step compares Q against the threshold in one pass
and adds the changed keys' rows as signed sums. Both forms draw nothing from
the rng, so the walker moves and the rng stream are the same whichever form
runs.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import accumulate

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
from .graph import Graph, flow_ratio, sorted_lookup

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

# A sample's state takes the array form once this many keys are tracked
# (members plus boundary). On the table2 digraph the numpy step wins from
# about 64 keys on; at 128 its per-key int64/float64 arrays are at least
# 1 KiB, so numpy's cache of freed small buffers (up to 7 per byte size under
# 1 KiB) does not pin memory for every set size the process passes through.
_VECTOR_MIN_KEYS = 128

# Changed keys whose cover rows the array step gathers at once. Bounds the
# step's temporaries, which otherwise grow with the changed volume.
_GATHER_CHUNK = 256


class _TrackedArrays(Mapping):
    """The array form of a state's tracked keys; as a mapping, key -> neighbor mass.

    `ids` holds the tracked cover keys (members and boundary) in increasing
    order. `mass`, `inside` (1.0 for a member, 0.0 otherwise) and `deg` (the
    cover degree) are aligned with it. Positions come from `sorted_lookup`,
    and `len` is O(1).
    """

    __slots__ = ("ids", "mass", "inside", "deg")

    def __init__(self, ids: np.ndarray, mass: np.ndarray, inside: np.ndarray, deg: np.ndarray):
        self.ids = ids
        self.mass = mass
        self.inside = inside
        self.deg = deg

    def __getitem__(self, key: int) -> float:
        at, hit = sorted_lookup(self.ids, key)
        if not hit:
            raise KeyError(key)
        return float(self.mass[at])

    def __iter__(self):
        return iter(self.ids.tolist())

    def __len__(self) -> int:
        return self.ids.size


class EspState:
    """Current set, coupled walker, and incremental boundary statistics.

    `nbr_mass[y]` is the total edge weight from y into the current set, kept
    for every member and every boundary vertex. The walker is always a member
    of the current set. In dict form `nbr_mass` is a dict and the members are
    a set; in array form (`members` passed as None) `nbr_mass` is a mapping
    over sorted arrays that also holds the membership flags. `members` reads
    the current set in either form.
    """

    __slots__ = ("graph", "_members", "walker", "nbr_mass", "vol")

    def __init__(self, g: Graph, members: set | None, walker: int, nbr_mass, vol: float):
        self.graph = g
        self._members = members
        self.walker = walker
        self.nbr_mass = nbr_mass
        self.vol = vol

    @property
    def members(self) -> frozenset:
        """The current set, as a snapshot."""
        if self._members is None:
            t = self.nbr_mass
            return frozenset(t.ids[t.inside > 0].tolist())
        return frozenset(self._members)

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

    def _lookup(self, key: int) -> tuple[float, float]:
        """(neighbor mass, 1.0 if a member else 0.0) of a cover key, in either form."""
        if self._members is not None:
            return self.nbr_mass.get(key, 0.0), 1.0 if key in self._members else 0.0
        t = self.nbr_mass
        at, hit = sorted_lookup(t.ids, key)
        return (float(t.mass[at]), float(t.inside[at])) if hit else (0.0, 0.0)

    def _q(self, key: int) -> float:
        """Q(key, S): one lazy-walk-step probability of landing in the current set."""
        deg = cover_degree(self.graph, key)
        mass, inside = self._lookup(key)
        if deg <= 0:
            return inside
        return 0.5 * inside + 0.5 * mass / deg


def esp_step(state: EspState, rng) -> EspState:
    """Advance the coupled process one step, in place.

    Work per step is proportional to the volume of the current set plus its
    boundary, independent of the graph size. Steps 3-4 (the superlevel set and
    the neighbor-mass update) run on the state's form: the dict loop, which is
    the reference, while fewer than `_VECTOR_MIN_KEYS` keys are tracked, and
    the array step from then on. The first step that finds the threshold
    reached converts the state to arrays; the state keeps that form for the
    rest of its sample. Both forms give the same set from the same state and
    take the same rng draws. With integer weights they give identical states;
    with other weights the neighbor masses and the volume may differ in the
    last bits, because they sum in another order.
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
    if state._members is not None and len(state.nbr_mass) >= _VECTOR_MIN_KEYS:
        _to_arrays(state)
    if state._members is None:
        _update_vector(state, u)
    else:
        _update_dict(state, u)

    state.walker = x
    if not state._lookup(x)[1]:
        raise RuntimeError("coupling invariant violated: walker left the evolving set")
    return state


def _update_dict(state: EspState, u: float):
    """Steps 3-4 as a loop over the tracked keys; the reference form."""
    g = state.graph
    members = state._members
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
    state._members = new_members


def _to_arrays(state: EspState):
    """Move a dict-form state to the array form; runs at most once per sample."""
    nbr_mass = state.nbr_mass
    size = len(nbr_mass)
    ids = np.fromiter(nbr_mass, np.int64, size)
    order = np.argsort(ids)
    ids = ids[order]
    mass = np.fromiter(nbr_mass.values(), np.float64, size)[order]
    inside = np.fromiter(map(state._members.__contains__, ids.tolist()), np.float64, size)
    state.nbr_mass = _TrackedArrays(ids, mass, inside, cover_degrees(state.graph, ids))
    state._members = None


def _update_vector(state: EspState, u: float):
    """Steps 3-4 in place on the array form; same law as `_update_dict`.

    Q comes from the cached cover degrees, and one comparison gives each
    tracked key a sign: +1 joins the set, -1 leaves it, 0 stays. A step that
    changes no member ends there. Otherwise the changed keys' flags flip and
    their signed degrees go into the volume. Their cover rows are gathered
    `_GATHER_CHUNK` keys at a time, signed, summed per neighbor and added at
    the neighbors' positions; a neighbor not yet tracked is first inserted in
    key order with mass 0. When a key left, the reference's prune follows.
    Q is computed with the reference's floating point operations (the one
    swapped addition commutes exactly), so both forms pick the same set.
    Outside the zero-degree case no array over the tracked keys is bool: a
    bool array of fewer than 1024 keys would land in numpy's cache of small
    buffers (see `_VECTOR_MIN_KEYS`), so the prune selects on a float score.
    """
    g = state.graph
    t = state.nbr_mass

    # 3. superlevel set of Q at the threshold
    if t.deg.min() > 0:
        sign = 0.5 * t.mass
        sign /= t.deg
        sign += 0.5 * t.inside
    else:  # a zero-degree key (only a start set holds one) has Q = 1 inside, 0 outside
        positive = t.deg > 0
        q = 0.5 * t.inside + 0.5 * t.mass / np.where(positive, t.deg, 1.0)
        sign = np.where(positive, q, t.inside)
    np.greater_equal(sign, u, out=sign)
    sign -= t.inside
    changed = np.flatnonzero(sign)
    if not changed.size:
        return
    signs = sign[changed]
    t.inside[changed] += signs
    state.vol += float(t.deg[changed] @ signs)
    changed_keys = t.ids[changed]

    # 4. signed gather of the changed keys' rows, summed per neighbor
    for start in range(0, changed.size, _GATHER_CHUNK):
        chunk = slice(start, start + _GATHER_CHUNK)
        nbrs, ws, owner = cover_rows(g, changed_keys[chunk])
        ws *= signs[chunk][owner]
        touched, inverse = np.unique(nbrs, return_inverse=True)
        at, held = sorted_lookup(t.ids, touched)
        new = ~held
        if new.any():
            ins = at[new]
            fresh = touched[new]
            t.ids = np.insert(t.ids, ins, fresh)
            t.mass = np.insert(t.mass, ins, 0.0)
            t.inside = np.insert(t.inside, ins, 0.0)
            t.deg = np.insert(t.deg, ins, cover_degrees(g, fresh))
            at = at + np.cumsum(new) - new
        t.mass[at] += np.bincount(inverse, weights=ws, minlength=touched.size)

    # the reference's prune: drop non-members whose mass is a zero residue
    if signs.min() < 0:
        score = np.abs(t.mass)
        score -= _MASS_EPS
        np.maximum(score, t.inside, out=score)  # a member scores 1
        np.maximum(score, 0.0, out=score)
        keep = np.flatnonzero(score)
        if keep.size < t.ids.size:
            t.ids, t.mass, t.inside, t.deg = t.ids[keep], t.mass[keep], t.inside[keep], t.deg[keep]


def generate_sample(g: Graph, seed_key: int, t: int, rng) -> frozenset:
    """Sample the t-th set of the volume-biased process started from {seed_key}.

    Returns the final set only. Intermediate sets are not measured, because
    the directed search turns only the final set into a pair.
    """
    t = _as_count(t, "t")
    if t < 0:
        raise ValueError("step count must be nonnegative")
    state = EspState.from_seed(g, seed_key)
    for _ in range(t):
        esp_step(state, rng)
    return frozenset(state.members)


def _as_count(value, name: str) -> int:
    """An integer count (numpy integers included) as an int; ValueError naming it otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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
    if _as_count(attempts, "attempts") < 1:
        raise ValueError("attempts must be at least 1")
    t = _as_count(steps, "steps") if steps is not None else steps_for_target_flow(phi)
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
