"""Per-dimension scheduling weights and coordinate-subset sampling.

The weights are the per-coordinate sample variance of the observed
inputs, mixed with a uniform floor so no coordinate can starve.  This is
the PCA importance: eigenvalue mass projected back onto coordinates
through squared loadings, sum_m lambda_m * V_jm^2, is the j-th diagonal
of the sample covariance.
"""

from __future__ import annotations

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

    Once the weight left is all zero, the rest are drawn uniformly among
    the coordinates not yet picked.  Each pick takes one ``rng.random()``.
    Returns the k distinct picked coordinates, sorted.
    """
    weights = np.array(p, dtype=float)  # a copy: picked weights are zeroed
    d = weights.shape[0]
    if not 1 <= k <= d:
        raise DimensionMismatch(f"subset size {k} outside [1, {d}]")
    picked: list[int] = []
    for _ in range(k):
        cum = np.cumsum(weights)
        u = rng.random()
        if cum[-1] > 0.0:
            # Inverse-CDF draw; side='right' skips zeroed-out entries.
            idx = min(int(np.searchsorted(cum, u * cum[-1], side="right")), d - 1)
        else:
            left = [j for j in range(d) if j not in picked]
            idx = left[int(u * len(left))]
        picked.append(idx)
        weights[idx] = 0.0
    return tuple(sorted(picked))

