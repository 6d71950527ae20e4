import itertools

import numpy as np
import pytest

from pairclust import ari, misclassified_ratio, pair_labeling


def brute_force_ari(a, b):
    """Pair-counting reference: agreement over all unordered point pairs, chance-corrected."""
    n = len(a)
    both = same_a = same_b = 0
    total = 0
    for i, j in itertools.combinations(range(n), 2):
        total += 1
        sa = a[i] == a[j]
        sb = b[i] == b[j]
        both += sa and sb
        same_a += sa
        same_b += sb
    expected = same_a * same_b / total
    max_index = 0.5 * (same_a + same_b)
    if max_index == expected:
        return 1.0
    return (both - expected) / (max_index - expected)


class TestAri:
    def test_identical_labelings(self):
        assert ari([0, 0, 1, 1], [5, 5, 9, 9]) == 1.0

    def test_all_same_vs_all_distinct(self):
        assert ari([0] * 6, list(range(6))) == 0.0

    def test_matches_brute_force_on_fixed_case(self):
        a = [0, 0, 0, 1, 1, 1]
        b = [0, 0, 1, 1, 1, 1]
        assert ari(a, b) == pytest.approx(brute_force_ari(a, b), abs=1e-12)

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = int(rng.integers(3, 12))
            a = rng.integers(0, 3, size=n).tolist()
            b = rng.integers(0, 4, size=n).tolist()
            assert ari(a, b) == pytest.approx(brute_force_ari(a, b), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.integers(0, 3, size=10)
            b = rng.integers(0, 3, size=10)
            assert ari(a, b) == pytest.approx(ari(b, a), abs=1e-15)

    def test_invariant_under_label_permutation(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 3, size=15)
        b = rng.integers(0, 3, size=15)
        permuted = np.array([2, 0, 1])[b]
        assert ari(a, b) == pytest.approx(ari(a, permuted), abs=1e-15)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ari([0, 1], [0, 1, 2])


class TestMisclassifiedRatio:
    def test_exact_match(self):
        assert misclassified_ratio([0, 1], [2, 3], [0, 1], [2, 3]) == 0.0

    def test_swapped_orientation_is_free(self):
        assert misclassified_ratio([2, 3], [0, 1], [0, 1], [2, 3]) == 0.0

    def test_one_dropped_vertex(self):
        c1 = list(range(10))
        c2 = list(range(10, 20))
        l = list(range(1, 10))  # drops vertex 0
        assert misclassified_ratio(l, c2, c1, c2) == pytest.approx(1 / 20)

    def test_orientation_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a, b, c = (set(map(int, rng.integers(0, 30, size=8))) for _ in range(3))
            l, r = a - b, b - a
            c1, c2 = c - a, a - c
            if not (l or r or c1 or c2):
                continue
            assert misclassified_ratio(l, r, c1, c2) == pytest.approx(
                misclassified_ratio(r, l, c1, c2)
            )

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            misclassified_ratio([0, 1], [1, 2], [0], [1])
        with pytest.raises(ValueError):
            misclassified_ratio([0], [1], [2, 3], [3, 4])

    def test_all_empty_rejected(self):
        with pytest.raises(ValueError):
            misclassified_ratio([], [], [], [])


class TestPairLabeling:
    def test_three_way_layout(self):
        labels = pair_labeling(6, [1, 2], [4])
        assert labels.tolist() == [0, 1, 1, 0, 2, 0]

    def test_empty_sides(self):
        assert pair_labeling(3, [], []).tolist() == [0, 0, 0]

    def test_overlap_rejected(self):
        # an overlap used to be scored as R: [0, 2, 1, 0]
        with pytest.raises(ValueError, match="disjoint"):
            pair_labeling(4, [1, 2], [1])

    @pytest.mark.parametrize("l, r, bad", [([-1], [0], -1), ([0], [4], 4), ([5], [], 5)])
    def test_id_outside_range_rejected(self, l, r, bad):
        with pytest.raises(ValueError, match=rf"vertex id {bad} out of range \[0, 4\)"):
            pair_labeling(4, l, r)
