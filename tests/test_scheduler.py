from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from dimsched.errors import DimensionMismatch
from dimsched.scheduler import compute_dimension_probabilities, sample_subset


class Draws:
    """A stand-in for a Generator whose ``random()`` returns the given values."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class TestProbabilities:
    def test_single_active_dimension(self):
        rng = np.random.default_rng(0)
        X = np.zeros((50, 4))
        X[:, 0] = rng.normal(size=50)
        P = compute_dimension_probabilities(X, floor_eps=0.1)
        assert abs(P[0] - (0.9 + 0.1 / 4)) < 1e-10
        assert np.allclose(P[1:], 0.1 / 4)

    def test_isotropic_uniform(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(5000, 3))
        P = compute_dimension_probabilities(X, floor_eps=0.1)
        assert np.allclose(P, 1.0 / 3.0, atol=0.02)

    def test_identical_points_uniform_fallback(self):
        X = np.ones((10, 5))
        P = compute_dimension_probabilities(X)
        assert np.allclose(P, 0.2)

    def test_sums_to_one_and_floor(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = int(rng.integers(2, 10))
            X = rng.normal(size=(20, d)) * rng.uniform(0, 3, size=d)
            P = compute_dimension_probabilities(X, floor_eps=0.1)
            assert abs(P.sum() - 1.0) < 1e-12
            assert np.all(P >= 0.1 / d - 1e-12)

    @pytest.mark.parametrize("shape", [(1, 3), (5, 1)], ids=["one_point", "one_coordinate"])
    def test_too_few_points_or_coordinates_rejected(self, shape):
        with pytest.raises(DimensionMismatch, match="at least 2 points and 2 dims"):
            compute_dimension_probabilities(np.zeros(shape))

    def test_importance_equals_covariance_diagonal(self):
        # s_j must equal C_jj, the diagonal of the sample covariance.
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 6)) @ rng.normal(size=(6, 6))
        Xc = X - X.mean(axis=0)
        C = Xc.T @ Xc / (X.shape[0] - 1)
        diag = np.diag(C)
        P = compute_dimension_probabilities(X, floor_eps=0.0)
        assert np.allclose(P, diag / diag.sum(), atol=1e-10)


class TestSampleSubset:
    def test_full_set(self):
        P = np.array([0.7, 0.2, 0.1])
        rng = np.random.default_rng(0)
        assert sample_subset(P, 3, rng) == (0, 1, 2)

    def test_concentrated_marginal(self):
        d = 4
        p = np.full(d, 0.01)
        p[0] = 0.97
        P = p / p.sum()
        rng = np.random.default_rng(1)
        hits = sum(sample_subset(P, 1, rng) == (0,) for _ in range(100_000))
        assert abs(hits / 100_000 - 0.97) < 0.01

    def test_uniform_pairs(self):
        P = np.full(3, 1.0 / 3.0)
        rng = np.random.default_rng(2)
        counts = Counter(sample_subset(P, 2, rng) for _ in range(100_000))
        # By symmetry each unordered pair has probability 1/3.
        for pair in combinations(range(3), 2):
            assert abs(counts[pair] / 100_000 - 1.0 / 3.0) < 0.01

    def test_deterministic_with_seed(self):
        P = np.array([0.5, 0.3, 0.2])
        a = [sample_subset(P, 2, np.random.default_rng(7)) for _ in range(1)]
        b = [sample_subset(P, 2, np.random.default_rng(7)) for _ in range(1)]
        assert a == b

    def test_marginals_match_sequential_oracle(self):
        # Inclusion frequency vs explicit enumeration of two sequential draws.
        p = np.array([0.5, 0.25, 0.15, 0.1])
        incl = np.zeros(4)
        for first in range(4):
            for second in range(4):
                if second == first:
                    continue
                prob = p[first] * p[second] / (1.0 - p[first])
                incl[first] += prob
                incl[second] += prob
        rng = np.random.default_rng(3)
        n = 100_000
        freq = np.zeros(4)
        for _ in range(n):
            for j in sample_subset(p, 2, rng):
                freq[j] += 1
        freq /= n
        se = np.sqrt(incl * (1 - incl) / n)
        assert np.all(np.abs(freq - incl) <= 3 * se + 1e-9)

    def test_distinct_and_sorted(self):
        # Weights with zeros, so the uniform draws among the coordinates
        # left are taken too.
        rng = np.random.default_rng(6)
        for _ in range(500):
            d = int(rng.integers(1, 9))
            p = rng.uniform(0, 1, size=d) * (rng.uniform(size=d) < 0.5)
            k = int(rng.integers(1, d + 1))
            dims = sample_subset(p, k, rng)
            assert len(dims) == k
            assert dims == tuple(sorted(set(dims)))
            assert all(type(j) is int and 0 <= j < d for j in dims)

    def test_bad_k(self):
        P = np.array([0.5, 0.5])
        with pytest.raises(DimensionMismatch):
            sample_subset(P, 3, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "p, message",
        [
            # Each drew from weights it cannot use: the first picked the
            # zero-weight coordinate 3 twice, (3, 3); the second took the
            # uniform branch; the third picked the negative coordinate 1.
            ([0.5, 0.5, np.inf, 0.0], r"weight 2 is not finite \(inf\)"),
            ([np.nan] * 4, r"weight 0 is not finite \(nan\)"),
            ([1.0, -5.0, 1.0, 1.0], r"weight 1 is negative \(-5\)"),
            ([1.0, 1.0, -np.inf, 1.0], r"weight 2 is not finite \(-inf\)"),
            ([1e308, 1e308, 1.0], "the weights sum to more than the largest float"),
        ],
        ids=["inf", "all_nan", "negative", "minus_inf", "sum_overflows"],
    )
    def test_unusable_weights_rejected(self, p, message):
        with pytest.raises(ValueError, match=message):
            sample_subset(p, 2, np.random.default_rng(0))

    @pytest.mark.parametrize("p", [[[0.5, 0.5]], 0.5], ids=["matrix", "scalar"])
    def test_weights_of_wrong_shape_rejected(self, p):
        with pytest.raises(DimensionMismatch, match="need one per coordinate"):
            sample_subset(p, 1, np.random.default_rng(0))

    def test_valid_weights_keep_their_draws(self):
        # The picks of valid weights, pinned from before the checks: one
        # rng.random() per pick, so the loops' traces stay.
        rng = np.random.default_rng(17)
        picks = [sample_subset([0.4, 0.0, 0.3, 0.2, 0.1], 2, rng) for _ in range(8)]
        assert picks == [(0, 3), (0, 2), (0, 2), (2, 3), (0, 3), (0, 3), (0, 4), (0, 3)]
        assert sample_subset([0.0, 0.0, 0.0], 2, Draws(0.5, 0.5)) == (1, 2)

    def test_total_rounded_up_picks_a_weighted_coordinate(self):
        # u * total rounds up to a subnormal total, past the end of the
        # cumulative sum.  The pick must still have weight: it used to be
        # the zero-weight last coordinate, (1,) and (0, 2).
        assert sample_subset([5e-324, 0.0], 1, Draws(0.9)) == (0,)
        assert sample_subset([1.0, 5e-324, 0.0], 2, Draws(0.1, 0.9)) == (0, 1)


class TestCanonicalKey:
    def test_order_insensitive(self):
        # Coordinate 3 then 1, and 1 then 3, name the same subset.
        P = np.full(4, 0.25)
        assert sample_subset(P, 2, Draws(0.9, 0.4)) == (1, 3)
        assert sample_subset(P, 2, Draws(0.3, 0.9)) == (1, 3)

    def test_injective(self):
        P = np.full(4, 0.25)
        assert sample_subset(P, 2, Draws(0.1, 0.2)) == (0, 1)
        assert sample_subset(P, 2, Draws(0.1, 0.6)) == (0, 2)

    def test_key_count_bounded_by_combinations(self):
        P = np.full(5, 0.2)
        rng = np.random.default_rng(4)
        keys = {sample_subset(P, 2, rng) for _ in range(2000)}
        assert len(keys) <= 10
