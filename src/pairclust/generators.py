"""Seedable random graph generators: a three-cluster block model with a planted
dense pair, the cyclic block model (CBM), and CBM+ with a planted local cycle.

Pair sampling uses geometric skipping, so generation cost is proportional to
the number of realized edges rather than the number of candidate pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph

__all__ = ["SbmSpec", "CbmSpec", "CbmPlusSpec", "gen_sbm", "gen_cbm", "gen_cbm_plus"]


@dataclass(frozen=True)
class SbmSpec:
    """Three clusters: two of size n1 forming a dense pair, one of size 10*n1.

    Intra-pair-cluster edges appear with probability p1, edges between the two
    pair clusters with q1. The background cluster uses the derived
    p2 = 2*p1 internally and q2 = 0.1*p1 towards the pair, which keeps the
    pair the best-quality structure in the graph.
    """

    n1: int
    p1: float
    q1: float

    @property
    def n3(self) -> int:
        return 10 * self.n1

    @property
    def p2(self) -> float:
        return 2.0 * self.p1

    @property
    def q2(self) -> float:
        return 0.1 * self.p1

    def validate(self):
        if self.n1 < 1:
            raise ValueError("n1 must be at least 1")
        _check_probabilities(p1=self.p1, q1=self.q1, p2=self.p2, q2=self.q2)


@dataclass(frozen=True)
class CbmSpec:
    """k clusters of size n arranged in a directed cycle.

    Within a cluster, edges appear with probability p and point either way
    uniformly. Between consecutive clusters they appear with probability q and
    point forward along the cycle with probability eta.
    """

    k: int
    n: int
    p: float = 0.001
    q: float = 0.01
    eta: float = 0.9

    def validate(self):
        if self.k < 3:  # with k == 2 the cycle would sample each cross-cluster pair twice
            raise ValueError(f"the cyclic block model requires k >= 3, got {self.k}")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        _check_probabilities(p=self.p, q=self.q, eta=self.eta)


@dataclass(frozen=True)
class CbmPlusSpec:
    """CBM plus two extra clusters of size n_prime forming a local cycle with C1.

    The extra clusters connect to each other densely (q1_prime, uniform
    orientation) and to the first cycle cluster sparsely (q2_prime): edges
    enter the first extra cluster from C1 and leave the second extra cluster
    into C1, each with probability eta_prime.
    """

    k: int
    n: int
    n_prime: int
    p: float = 0.001
    q: float = 0.01
    eta: float = 0.9
    q1_prime: float = 0.5
    q2_prime: float = 0.005
    eta_prime: float = 1.0

    def validate(self):
        self.cbm().validate()
        if self.n_prime < 1:
            raise ValueError("n_prime must be at least 1")
        _check_probabilities(q1_prime=self.q1_prime, q2_prime=self.q2_prime, eta_prime=self.eta_prime)

    def cbm(self) -> CbmSpec:
        return CbmSpec(self.k, self.n, self.p, self.q, self.eta)


def _check_probabilities(**probs: float):
    for name, prob in probs.items():
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"probability {name}={prob} outside [0, 1]")


def _bernoulli_indices(count: int, p: float, rng) -> np.ndarray:
    """Sorted positions of successes among `count` Bernoulli(p) trials.

    Geometric gaps between successes are drawn in batches, so the expected
    cost is O(count * p), not O(count).
    """
    if count <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(count, dtype=np.int64)
    chunks = []
    pos = -1
    while True:
        batch = max(int((count - pos) * p * 1.2) + 16, 16)
        gaps = rng.geometric(p, size=batch).astype(np.int64)
        steps = np.cumsum(gaps) + pos
        chunks.append(steps[steps < count])
        if steps[-1] >= count:
            break
        pos = int(steps[-1])
    return np.concatenate(chunks)


def _decode_triangle(t: np.ndarray, size: int):
    """Map linear indices to pairs (i, j), i < j, in lexicographic order."""

    def offset(i):
        return i * (2 * size - i - 1) // 2

    b = 2.0 * size - 1.0
    i = np.floor((b - np.sqrt(b * b - 8.0 * t.astype(np.float64))) / 2.0).astype(np.int64)
    i = np.maximum(i, 0)
    while np.any(offset(i + 1) <= t):
        i = np.where(offset(i + 1) <= t, i + 1, i)
    while np.any(offset(i) > t):
        i = np.where(offset(i) > t, i - 1, i)
    j = t - offset(i) + i + 1
    return i, j


def _intra_pairs(lo: int, size: int, p: float, rng):
    """Sampled unordered pairs inside a block of `size` vertices starting at `lo`."""
    t = _bernoulli_indices(size * (size - 1) // 2, p, rng)
    i, j = _decode_triangle(t, size)
    return lo + i, lo + j


def _cross_pairs(lo_a: int, size_a: int, lo_b: int, size_b: int, p: float, rng):
    """Sampled pairs between two disjoint blocks."""
    t = _bernoulli_indices(size_a * size_b, p, rng)
    return lo_a + t // size_b, lo_b + t % size_b


def _orient(u: np.ndarray, v: np.ndarray, forward_prob: float, rng):
    """Direct each pair u->v with the given probability, else v->u."""
    flip = rng.random(u.size) >= forward_prob
    return np.where(flip, v, u), np.where(flip, u, v)


def gen_sbm(spec: SbmSpec, seed: int):
    """Generate the three-cluster model; returns (graph, labels).

    Labels are 0 and 1 for the planted pair clusters and 2 for the background
    cluster. The graph is undirected with unit weights.
    """
    spec.validate()
    rng = np.random.default_rng(seed)
    n1, n3 = spec.n1, spec.n3
    blocks = [
        _intra_pairs(0, n1, spec.p1, rng),
        _intra_pairs(n1, n1, spec.p1, rng),
        _intra_pairs(2 * n1, n3, spec.p2, rng),
        _cross_pairs(0, n1, n1, n1, spec.q1, rng),
        _cross_pairs(0, n1, 2 * n1, n3, spec.q2, rng),
        _cross_pairs(n1, n1, 2 * n1, n3, spec.q2, rng),
    ]
    g = _graph(2 * n1 + n3, blocks, directed=False)
    return g, np.repeat(np.arange(3, dtype=np.int64), [n1, n1, n3])


def gen_cbm(spec: CbmSpec, seed: int):
    """Generate the cyclic block model; returns (graph, labels)."""
    spec.validate()
    rng = np.random.default_rng(seed)
    g = _graph(spec.k * spec.n, _cbm_arcs(spec, rng), directed=True)
    return g, np.repeat(np.arange(spec.k, dtype=np.int64), spec.n)


def _cbm_arcs(spec: CbmSpec, rng) -> list:
    """The CBM's arcs as (tails, heads) array pairs, sampled cluster by cluster."""
    arcs = []
    n = spec.n
    for c in range(spec.k):
        arcs.append(_orient(*_intra_pairs(c * n, n, spec.p, rng), 0.5, rng))
    for c in range(spec.k):
        nxt = (c + 1) % spec.k
        arcs.append(_orient(*_cross_pairs(c * n, n, nxt * n, n, spec.q, rng), spec.eta, rng))
    return arcs


def _graph(n: int, blocks: list, directed: bool) -> Graph:
    """The graph on n vertices whose edges are a list of (u, v) array pairs."""
    u, v = (np.concatenate(side) for side in zip(*blocks))
    return Graph.from_arrays(n, u, v, directed=directed)


def gen_cbm_plus(spec: CbmPlusSpec, seed: int):
    """Generate CBM+ with a planted local cycle; returns (graph, labels).

    The first k clusters are laid out as in the CBM; the two extra clusters
    carry labels k and k+1 and occupy the last 2*n_prime vertex ids.
    """
    spec.validate()
    rng = np.random.default_rng(seed)
    arcs = _cbm_arcs(spec.cbm(), rng)

    n, np_, k = spec.n, spec.n_prime, spec.k
    lo_a = k * n
    lo_b = k * n + np_
    for lo in (lo_a, lo_b):
        arcs.append(_orient(*_intra_pairs(lo, np_, spec.p, rng), 0.5, rng))
    arcs.append(_orient(*_cross_pairs(lo_a, np_, lo_b, np_, spec.q1_prime, rng), 0.5, rng))
    # local cycle through the first cluster: C1 feeds the first extra cluster,
    # the second extra cluster feeds back into C1
    a, b = _cross_pairs(lo_a, np_, 0, n, spec.q2_prime, rng)
    arcs.append(_orient(b, a, spec.eta_prime, rng))
    arcs.append(_orient(*_cross_pairs(lo_b, np_, 0, n, spec.q2_prime, rng), spec.eta_prime, rng))

    g = _graph(k * n + 2 * np_, arcs, directed=True)
    return g, np.repeat(np.arange(k + 2, dtype=np.int64), [n] * k + [np_, np_])
