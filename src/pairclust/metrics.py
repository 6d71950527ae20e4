"""Clustering-quality metrics: Adjusted Rand Index and misclassified ratio."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .graph import as_vertex_array

__all__ = ["ari", "misclassified_ratio", "pair_labeling"]


def ari(a: Iterable[int], b: Iterable[int]) -> float:
    """Adjusted Rand Index between two labelings of the same points, in [-1, 1].

    Chance-corrected pair-counting agreement; 1 for identical partitions, about
    0 for independent ones. Two trivial identical partitions score 1.
    """
    a = np.asarray(list(a) if not isinstance(a, np.ndarray) else a)
    b = np.asarray(list(b) if not isinstance(b, np.ndarray) else b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("labelings must be 1-d and of equal length")
    n = a.size
    if n == 0:
        raise ValueError("labelings must be nonempty")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    na = int(ai.max()) + 1
    nb = int(bi.max()) + 1
    contingency = np.bincount(ai * nb + bi, minlength=na * nb).reshape(na, nb)

    def comb2(x):
        return x * (x - 1) / 2.0

    index = comb2(contingency).sum()
    sum_a = comb2(contingency.sum(axis=1)).sum()
    sum_b = comb2(contingency.sum(axis=0)).sum()
    total = comb2(n)
    expected = sum_a * sum_b / total if total > 0 else 0.0
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return float((index - expected) / (max_index - expected))


def misclassified_ratio(
    l: Iterable[int], r: Iterable[int], c1: Iterable[int], c2: Iterable[int]
) -> float:
    """Symmetric-difference error of (L, R) against (C1, C2), in [0, 1].

    Because the pair orientation of a found (L, R) is arbitrary, the minimum
    over the two pairings ((L, R) vs (R, L)) is returned.
    """
    l, r, c1, c2 = set(l), set(r), set(c1), set(c2)
    if l & r:
        raise ValueError("L and R must be disjoint")
    if c1 & c2:
        raise ValueError("C1 and C2 must be disjoint")
    if not (l or r or c1 or c2):
        raise ValueError("all four sets are empty")

    def ratio(left, right):
        num = len(left ^ c1) + len(right ^ c2)
        den = len(left | c1) + len(right | c2)
        return num / den if den else 0.0

    return min(ratio(l, r), ratio(r, l))


def pair_labeling(n: int, l: Iterable[int], r: Iterable[int]) -> np.ndarray:
    """Three-way labeling of [0, n): 1 on L, 2 on R, 0 outside.

    This is the convention used to compare a two-cluster local output against
    ground truth with more clusters: both sides are collapsed to
    {first, second, outside} before computing the ARI. Raises ValueError for
    ids outside [0, n) and for L and R that overlap.
    """
    labels = np.zeros(n, dtype=np.int64)
    labels[as_vertex_array(n, l)] = 1
    r_ids = as_vertex_array(n, r)
    if labels[r_ids].any():
        raise ValueError("L and R must be disjoint")
    labels[r_ids] = 2
    return labels
