"""Per-dimension scheduling weights and coordinate-subset sampling.

The weights are the per-coordinate sample variance of the observed
inputs, mixed with a uniform floor so no coordinate can starve.  This is
the PCA importance: eigenvalue mass projected back onto coordinates
through squared loadings, sum_m lambda_m * V_jm^2, is the j-th diagonal
of the sample covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class ProbabilityVector:
    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float).ravel()
        object.__setattr__(self, "p", p)

    @property
    def d(self) -> int:
        return self.p.shape[0]


@dataclass(frozen=True)
class DimensionSubset:
    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(sorted(int(j) for j in self.dims))
        if not dims or len(set(dims)) != len(dims):
            raise DimensionMismatch("subset must be nonempty with distinct indices")
        object.__setattr__(self, "dims", dims)

    @property
    def k(self) -> int:
        return len(self.dims)


def compute_dimension_probabilities(X, floor_eps: float = 0.1) -> ProbabilityVector:
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
        return ProbabilityVector(np.full(d, 1.0 / d))
    p = (1.0 - floor_eps) * s / total + floor_eps / d
    return ProbabilityVector(p / p.sum())


def sample_subset(P: ProbabilityVector, k: int, rng: np.random.Generator) -> DimensionSubset:
    """k weighted draws without replacement, renormalizing after each."""
    d = P.d
    if not 1 <= k <= d:
        raise DimensionMismatch(f"subset size {k} outside [1, {d}]")
    weights = P.p.copy()
    picked: list[int] = []
    for _ in range(k):
        # Inverse-CDF draw; side='right' skips zeroed-out entries.
        cum = np.cumsum(weights)
        u = rng.random() * cum[-1]
        idx = min(int(np.searchsorted(cum, u, side="right")), d - 1)
        picked.append(idx)
        weights[idx] = 0.0
    return DimensionSubset(tuple(picked))

