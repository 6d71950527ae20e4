"""Volume-biased evolving set process on the semi-double cover, and the directed cut search.

The process is simulated through the standard walk coupling: advance a lazy
random walk on the cover, then draw the threshold uniformly from (0, Q(X', S)]
where Q(y, S) is the one-step probability of landing in S. Conditioned on the
walker staying degree-proportionally distributed inside the current set, the
set marginal is exactly the volume-biased (Doob-transformed) chain, and each
step only touches the current set and its boundary. The walk law reads the
incremental neighbor masses. A sample returns only its final set, as a sorted
int64 key array that its pair reads as it is: both copies of each doubled vertex
are dropped through the graph's key index (`graph.key_positions`, the sweep's
rule), and only the cleanup-bound check rescans it (`cover_cut_and_volume`).

A state has two forms with the same law. A sample starts in dict form: a dict
of neighbor masses and a set of members, stepped by a loop over the tracked
keys, which is the reference. The step whose update may reach `_VECTOR_MIN_KEYS`
tracked keys converts it, once, to array form: keys in insertion order,
positioned by the graph's key index, with aligned neighbor masses, membership
flags and cover degrees, which that update and each later step change in place.
An array step compares Q against the threshold in one pass and adds the changed
keys' rows in one gather, sorted by key so that outputs are unchanged, as signed
sums. Both forms draw nothing from the rng, so the walker moves and rng stream agree.
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
    to_cluster_pair,
)
from .graph import Graph, as_id, borrow_key_index, flow_ratio, give_back_key_index
from .graph import key_positions

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

# A sample's state takes the array form for the update that may track this many
# keys (the keys tracked plus the row lengths of the keys that join), so a step
# that grows a small set into a large one runs on arrays. On the table2 digraph
# the numpy step wins from about 64 keys on; at 128 its per-key int64/float64
# arrays are at least 1 KiB, so numpy's cache of freed small buffers (up to 7 per
# byte size under 1 KiB) does not pin memory for every set size it passes through.
_VECTOR_MIN_KEYS = 128

# A step count derived from phi fails above this instead of running. At about 0.1
# ms a step on the table2 digraph (traced), 10**6 steps take well over a minute, and
# phi below 1e-12 asks for more (phi = 1e-30 asks for about 10**18). An explicit
# step count is not capped.
_MAX_DERIVED_STEPS = 10**6


class _TrackedArrays(Mapping):
    """The array form of a state's tracked keys; as a mapping, key -> neighbor mass.

    `ids` holds the tracked cover keys (members and boundary) in insertion
    order. `mass`, `inside` (1.0 for a member, 0.0 otherwise) and `deg` (the
    cover degree) are aligned with it. `index`, a key index borrowed from the
    graph, holds position + 1 at each tracked key and 0 at every other key.
    """

    __slots__ = ("ids", "mass", "inside", "deg", "index")

    def __init__(self, g: Graph, ids, mass, inside, deg):
        self.ids, self.mass, self.inside, self.deg = ids, mass, inside, deg
        self.index = borrow_key_index(g)
        self.index[ids] = np.arange(1, ids.size + 1)

    def position(self, key) -> int:
        """Position of a tracked key, or -1; a negative, large or non-integer key is untracked."""
        in_range = isinstance(key, (int, np.integer)) and 0 <= key < self.index.size
        return self.index.item(key) - 1 if in_range else -1

    def __getitem__(self, key: int) -> float:
        at = self.position(key)
        if at < 0:
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
    over arrays that also holds the membership flags. `members` reads
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
        seed_key = as_id(seed_key, g.n, cover=True)
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
        at = t.position(key)
        return (float(t.mass[at]), float(t.inside[at])) if at >= 0 else (0.0, 0.0)

    def _q(self, key: int) -> float:
        """Q(key, S): one lazy-walk-step probability of landing in the current set."""
        deg = self.graph.row_degrees.item(cover_key_row(self.graph, key))
        mass, inside = self._lookup(key)
        if deg <= 0:
            return inside
        return 0.5 * inside + 0.5 * mass / deg


def esp_step(state: EspState, rng) -> EspState:
    """Advance the coupled process one step, in place.

    Work per step is proportional to the volume of the current set plus its
    boundary, independent of the graph size. Steps 3-4 (the superlevel set and
    the neighbor-mass update) run on the state's form: the dict loop, which is
    the reference, and the array step from the update that may reach
    `_VECTOR_MIN_KEYS` tracked keys on, where `_update_dict` converts the state
    (keys in insertion order, positioned by the graph's key index; changed keys
    are sorted by key, so outputs are unchanged). Both forms give the same set
    from the same state and take the same rng draws. With integer weights they
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
    if state._members is None:
        _update_vector(state, u)
    else:
        _update_dict(state, u)

    state.walker = x
    if not state._lookup(x)[1]:
        raise RuntimeError("coupling invariant violated: walker left the evolving set")
    return state


def _update_dict(state: EspState, u: float):
    """Steps 3-4 as a loop over the tracked keys; the reference form, up to `_VECTOR_MIN_KEYS`."""
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
    rows, ptr = [cover_key_row(g, key) for key in added], g.row_indptr.item
    if len(nbr_mass) + sum(ptr(row + 1) - ptr(row) for row in rows) >= _VECTOR_MIN_KEYS:
        t = _to_arrays(state)  # step 4 on arrays, from the signs of this superlevel set
        joined = np.fromiter(map(new_members.__contains__, nbr_mass), np.float64, len(t))
        return _add_rows(state, joined - t.inside)
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
    nbr_mass, g = state.nbr_mass, state.graph
    size = len(nbr_mass)
    ids = np.fromiter(nbr_mass, np.int64, size)
    mass = np.fromiter(nbr_mass.values(), np.float64, size)
    inside = np.fromiter(map(state._members.__contains__, nbr_mass), np.float64, size)
    state.nbr_mass = _TrackedArrays(g, ids, mass, inside, cover_degrees(g, ids))
    state._members = None
    return state.nbr_mass


def _update_vector(state: EspState, u: float):
    """Steps 3-4 in place on the array form; same law as `_update_dict`.

    Q comes from the cached cover degrees, with the reference's floating point
    operations (the one swapped addition commutes exactly), and one comparison
    gives each tracked key a sign for `_add_rows`: +1 joins, -1 leaves, 0 stays.
    """
    t = state.nbr_mass
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
    _add_rows(state, sign)


def _add_rows(state: EspState, sign: np.ndarray):
    """Step 4 in place on the array form, from each tracked key's sign.

    A step that changes no member ends here. Otherwise the changed keys, sorted by key so
    that no sum depends on insertion order, flip their flags and add their
    signed degrees to the volume. Their cover rows are gathered at once as cover keys,
    signed and added by one `bincount` over the key index (slot 0 dropped). An entry the
    index missed writes a distinct mark there; those whose mark survived are the new keys,
    appended with mass 0. When a key left, the reference's prune renumbers the kept keys.
    Outside the zero-degree case no array over the tracked keys is bool (a bool array of
    under 1024 keys lands in numpy's small-buffer cache, see `_VECTOR_MIN_KEYS`).
    """
    g, t = state.graph, state.nbr_mass
    changed = sign.nonzero()[0]
    if not changed.size:
        return
    changed = changed[t.ids[changed].argsort()]
    signs = sign[changed]
    t.inside += sign  # adds 0 at every unchanged key
    state.vol += float(t.deg[changed] @ signs)

    # 4. signed gather of the changed keys' rows, summed per neighbor
    nbrs, ws, counts = cover_rows(g, t.ids[changed])
    ws *= signs.repeat(counts)
    at = t.index[nbrs]
    missed = (at == 0).nonzero()[0]
    if missed.size:  # append the new keys, outside the set with mass 0
        keys, marks = nbrs[missed], np.arange(1, missed.size + 1) + t.ids.size
        t.index[keys] = marks  # whichever write to a repeated key lands, one mark survives
        new = keys[t.index[keys] == marks]
        zeros = np.zeros(new.size)
        t.ids, t.mass, t.inside, t.deg = map(np.concatenate, (
            (t.ids, new), (t.mass, zeros), (t.inside, zeros), (t.deg, cover_degrees(g, new))
        ))
        t.index[new] = marks[: new.size]  # the positions + 1 they took
        at[missed] = t.index[keys]
    t.mass += np.bincount(at, weights=ws, minlength=t.ids.size + 1)[1:]

    # the reference's prune: drop non-members whose mass is a zero residue
    if signs.min() < 0:
        score = np.abs(t.mass)
        score -= _MASS_EPS
        np.maximum(score, t.inside, out=score)  # a member scores 1
        np.maximum(score, 0.0, out=score)
        keep = np.flatnonzero(score)
        if keep.size < t.ids.size:
            t.index[t.ids] = 0  # then renumber the kept keys
            t.ids, t.mass, t.inside, t.deg = t.ids[keep], t.mass[keep], t.inside[keep], t.deg[keep]
            t.index[t.ids] = np.arange(1, keep.size + 1)


def generate_sample(g: Graph, seed_key: int, t: int, rng) -> np.ndarray:
    """Sample the t-th set of the volume-biased process started from {seed_key}.

    Returns the final set only, as its cover keys in a strictly increasing int64 array.
    Intermediate sets are not measured: the directed search pairs only the final set.
    """
    t = _as_count(t, "t")
    if t < 0:
        raise ValueError("step count must be nonnegative")
    state = EspState.from_seed(g, seed_key)
    try:
        for _ in range(t):
            esp_step(state, rng)
        if state._members is None:
            return np.sort(state.nbr_mass.ids[state.nbr_mass.inside > 0])
        return np.sort(np.fromiter(state._members, np.int64, len(state._members)))
    finally:
        if state._members is None:  # the array form holds one of g's key indexes
            give_back_key_index(g, state.nbr_mass.index, state.nbr_mass.ids)


def _as_count(value, name: str) -> int:
    """An integer count (numpy integers included) as an int; ValueError naming it otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def steps_for_target_flow(phi: float) -> int:
    """Step count for a target flow ratio, clamped to at least one step.

    Raises ValueError naming phi when the count passes `_MAX_DERIVED_STEPS`.
    """
    if not 0 < phi <= 1:
        raise ValueError("phi must be in (0, 1]")
    t = max(1, math.floor(1.0 / (100.0 * phi ** (2.0 / 3.0))))
    if t > _MAX_DERIVED_STEPS:
        raise ValueError(
            f"phi={phi} asks for {t} evolving-set steps, above {_MAX_DERIVED_STEPS}; "
            "pass an explicit step count"
        )
    return t


@dataclass(frozen=True)
class DirectedClusterPair:
    """A directed flow pair: edges run mostly from l to r."""

    l: np.ndarray
    r: np.ndarray
    flow: float
    volume: float


def _check_cleanup_bound(g: Graph, s: np.ndarray, flow: float, vol: float):
    """Dropping doubled vertices degrades the boundary fraction by a bounded amount.

    Both sides use the set-volume form cut(X)/vol(X) that the bound is stated in:
    with eps = vol(P)/vol(S), cut(S')/vol(S') <= (cut(S)/vol(S) + eps) / (1 - eps).
    Only S is rescanned. By the reduction, S' = L'1 u R'2 has cut(S')/vol(S') = `flow`,
    its `flow_ratio`, over vol(S') = `vol`, its `g._pair_volume`, both read from the graph.
    """
    cut_s, vol_s = cover_cut_and_volume(g, s)
    if vol_s <= 0 or vol <= 0:  # past this, eps < 1
        return
    eps = (vol_s - vol) / vol_s
    rhs = (cut_s / vol_s + eps) / (1.0 - eps)
    if flow > rhs + 1e-12:
        raise RuntimeError(f"cleanup bound violated: {flow} > {rhs} with eps={eps}")


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
    u = as_id(u, g.n)
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
    s = generate_sample(g, seed_key, t, rng)  # sorted distinct keys the sampler made
    s_simple = s[key_positions(g, s, s ^ 1) < 0]  # drop both copies of each doubled vertex
    if not s_simple.size:
        return None
    l, r = to_cluster_pair(s_simple)
    vol = g._pair_volume(l, r)
    if vol <= 0:
        return None
    flow = flow_ratio(g, l, r)
    _check_cleanup_bound(g, s, flow, vol)
    return DirectedClusterPair(l=l, r=r, flow=flow, volume=vol)
