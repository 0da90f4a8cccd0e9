"""Small dense linear algebra and scalar normal-distribution helpers.

Everything here operates on plain numpy arrays.  Matrices are small
(GP kernel matrices up to a few hundred rows), so clarity wins over
asymptotics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import DimensionMismatch, NotPositiveDefinite

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)

# Jitter ladder, as multiples of the mean diagonal of the input matrix.
_JITTER_SCALES = (0.0, 1e-10, 1e-8, 1e-6, 1e-4)


def _as_sym_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got shape {A.shape}")
    if np.array_equal(A, A.T):  # cheap exact test first; A - A.T is slow to form
        return A
    scale = np.abs(A).max()
    if scale > 0 and np.abs(A - A.T).max() > 1e-12 * scale:
        raise DimensionMismatch("matrix is not symmetric")
    return A


@dataclass(frozen=True)
class CholFactor:
    """Lower-triangular Cholesky factor of A + jitter*I."""

    L: np.ndarray
    jitter_used: float

    @property
    def n(self) -> int:
        return self.L.shape[0]


def cholesky_spd(A) -> CholFactor:
    """Factorize a symmetric matrix, escalating diagonal jitter as needed.

    Tries jitter levels 0, 1e-10, 1e-8, 1e-6, 1e-4 times the mean
    diagonal until numpy's Cholesky succeeds.
    """
    A = _as_sym_matrix(A)
    n = A.shape[0]
    base = np.trace(A) / n if n > 0 else 0.0
    if base <= 0.0:
        base = 1.0
    for scale in _JITTER_SCALES:
        jitter = scale * base
        A_jit = A
        if jitter:
            A_jit = A.copy()
            A_jit.flat[:: n + 1] += jitter
        try:
            L = np.linalg.cholesky(A_jit)
        except np.linalg.LinAlgError:
            continue
        return CholFactor(L=L, jitter_used=jitter)
    raise NotPositiveDefinite(
        f"factorization failed at all jitter levels (n={n}, mean diag={base:g})"
    )


def solve_tri(T: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """Solve T x = b for a float triangular T with a finite, nonzero diagonal.

    This is the LAPACK call that scipy's ``solve_triangular`` makes,
    without its per-call checks, which cost several times the solve
    itself at GP sizes.  Nothing is checked for finiteness.
    """
    if T.flags.f_contiguous:
        x, info = lapack.dtrtrs(T, b, lower=lower)
    else:  # trtrs reads Fortran order, so solve the transposed system
        x, info = lapack.dtrtrs(T.T, b, lower=not lower, trans=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (info={info})")
    return x


def solve_chol(factor: CholFactor, b) -> np.ndarray:
    """Solve (A + jitter*I) x = b by forward then backward substitution."""
    b = np.asarray_chkfinite(b, dtype=float)
    if b.shape[0] != factor.n:
        raise DimensionMismatch(f"rhs length {b.shape[0]} != matrix size {factor.n}")
    z = solve_tri(factor.L, b, lower=True)
    return solve_tri(factor.L.T, z, lower=False)


def std_normal_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / _SQRT_2PI


def std_normal_cdf(z: float) -> float:
    # erfc form keeps full accuracy in the left tail.
    return 0.5 * math.erfc(-z / _SQRT_2)
