"""Per-dimension scheduling weights and coordinate-subset sampling.

The weights are the per-coordinate sample variance of the observed
inputs, mixed with a uniform floor so no coordinate can starve.  This is
the PCA importance: eigenvalue mass projected back onto coordinates
through squared loadings, sum_m lambda_m * V_jm^2, is the j-th diagonal
of the sample covariance.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

from .errors import DimensionMismatch


def compute_dimension_probabilities(X, floor_eps: float = 0.1) -> np.ndarray:
    """Per-coordinate sample variance as importance, floored and normalized.

    Identical points (zero total variance) fall back to the uniform vector.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    if n < 2 or d < 2:
        raise DimensionMismatch(f"need at least 2 points and 2 dims, got {X.shape}")
    s = np.var(X, axis=0, ddof=1)
    total = s.sum()
    if total <= 0.0:
        return np.full(d, 1.0 / d)
    p = (1.0 - floor_eps) * s / total + floor_eps / d
    return p / p.sum()


def sample_subset(p, k: int, rng: np.random.Generator) -> tuple[int, ...]:
    """k draws without replacement, weighted by p and renormalizing after each.

    p holds one finite, nonnegative weight per coordinate; they need not
    sum to 1, but their sum must be finite.  Once the weight left is all
    zero, the rest are drawn uniformly among the coordinates not yet
    picked.  Each pick takes one ``rng.random()``.  Returns the k distinct
    picked coordinates, sorted.
    """
    weights = np.asarray(p, dtype=float)
    if weights.ndim != 1:
        raise DimensionMismatch(f"weights of shape {weights.shape}; need one per coordinate")
    weights = weights.tolist()  # a copy: picked weights are zeroed
    d = len(weights)
    if not 1 <= k <= d:
        raise DimensionMismatch(f"subset size {k} outside [1, {d}]")
    for j, w in enumerate(weights):
        if not 0.0 <= w < math.inf:  # nan fails both
            cause = "not finite" if not math.isfinite(w) else "negative"
            raise ValueError(f"weight {j} is {cause} ({w:g})")
    picked: list[int] = []
    for _ in range(k):
        # Running sums, added left to right.
        cum = list(itertools.accumulate(weights))
        if cum[-1] == math.inf:
            raise ValueError("the weights sum to more than the largest float")
        u = rng.random()
        if cum[-1] > 0.0:
            # Inverse-CDF draw; the first sum above u * total skips
            # zeroed-out entries.
            idx = bisect.bisect_right(cum, u * cum[-1])
            if idx == d:  # u * total rounded up to a subnormal total: the last weighted one
                idx = max(j for j, w in enumerate(weights) if w > 0.0)
        else:
            left = [j for j in range(d) if j not in picked]
            idx = left[int(u * len(left))]
        picked.append(idx)
        weights[idx] = 0.0
    return tuple(sorted(picked))
