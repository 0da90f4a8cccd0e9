"""Small dense linear algebra and normal-distribution helpers.

Everything here operates on plain numpy arrays.  Matrices are small
(GP kernel matrices up to a few hundred rows).  A factor is computed
once in O(n^3) and then grown by one row at a time in O(n^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg
from scipy.linalg import lapack

from .errors import DimensionMismatch, NotPositiveDefinite

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)

# Jitter ladder, as multiples of the mean diagonal of the input matrix.
_JITTER_SCALES = (0.0, 1e-10, 1e-8, 1e-6, 1e-4)


def _non_finite() -> DimensionMismatch:
    return DimensionMismatch("matrix has non-finite entries")


def _as_sym_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got shape {A.shape}")
    if (A == A.T).all():  # cheap exact test first; A - A.T is slow to form
        return A
    scale = np.abs(A).max()
    if not math.isfinite(scale):
        raise _non_finite()
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


def _not_positive_definite(err, flag):
    raise np.linalg.LinAlgError("Matrix is not positive definite")


# np.linalg.cholesky is this ufunc behind a Python wrapper that costs
# twice the factorization at n = 20.  The ufunc raises the invalid-value
# flag exactly when the factorization fails, and np.linalg.cholesky turns
# that flag into LinAlgError under this errstate; so does this call, and
# both compute the same bits.  As a decorator, the errstate object is
# built once, at import, not on every call.
#
# numpy's Cholesky, not scipy's lapack.dpotrf: scipy bundles its own
# OpenBLAS build, and on 114 of 350 random kernel matrices (n = 5-220,
# d = 1-10) its factor differed from numpy's in the last bits (numpy 2.4.6
# with OpenBLAS 0.3.31, scipy 1.17.1 with 0.3.30), which would move every
# optimizer trace.
@np.errstate(
    call=_not_positive_definite, invalid="call", over="ignore", divide="ignore", under="ignore"
)
def _cholesky_lo(A: np.ndarray) -> np.ndarray:
    return _umath_linalg.cholesky_lo(A, signature="d->d")


def _cholesky(A: np.ndarray, jitter: float) -> CholFactor:
    L = _cholesky_lo(A)  # raises LinAlgError if A is not positive definite
    # numpy does not raise on every non-finite input, but a non-finite
    # entry of A's lower triangle always reaches L's diagonal.
    if not math.isfinite(L.trace()):
        raise _non_finite()
    return CholFactor(L=L, jitter_used=jitter)


def cholesky_spd(A) -> CholFactor:
    """Factorize a symmetric matrix, escalating diagonal jitter as needed.

    Tries jitter levels 0, 1e-10, 1e-8, 1e-6, 1e-4 times the mean
    diagonal until numpy's Cholesky ufunc succeeds; the mean diagonal is
    only computed once the unjittered attempt has failed.  Each attempt
    gives the bits and the failures of ``np.linalg.cholesky`` without its
    wrapper, whatever ``np.errstate`` the caller set.  A matrix with a
    non-finite entry raises ``DimensionMismatch``.
    """
    A = _as_sym_matrix(A)
    try:
        return _cholesky(A, 0.0)
    except np.linalg.LinAlgError:
        pass
    if not np.isfinite(A).all():
        raise _non_finite()
    n = A.shape[0]
    base = np.trace(A) / n
    if base <= 0.0:
        base = 1.0
    for scale in _JITTER_SCALES[1:]:
        jitter = scale * base
        A_jit = A.copy()
        A_jit.flat[:: n + 1] += jitter
        try:
            return _cholesky(A_jit, jitter)
        except np.linalg.LinAlgError:
            continue
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


def chol_append(factor: CholFactor, col, diag: float) -> CholFactor:
    """Factor of A bordered by one row and column, from the factor of A.

    The bordered matrix is [[A, col], [col^T, diag]].  Its factor keeps L
    and gains the row l = L^-1 col with pivot sqrt(diag + jitter - l.l), so
    it still factors the bordered matrix plus the same jitter*I.
    """
    n = factor.n
    row = solve_tri(factor.L, np.asarray(col, dtype=float), lower=True)
    pivot = diag + factor.jitter_used - float(row @ row)
    if not pivot > 0.0:
        raise NotPositiveDefinite(f"appended pivot {pivot:g} is not positive (n={n + 1})")
    L = np.zeros((n + 1, n + 1))
    L[:n, :n] = factor.L
    L[n, :n] = row
    L[n, n] = math.sqrt(pivot)
    return CholFactor(L=L, jitter_used=factor.jitter_used)


def solve_chol(factor: CholFactor, b) -> np.ndarray:
    """Solve (A + jitter*I) x = b by forward then backward substitution."""
    b = np.asarray_chkfinite(b, dtype=float)
    if b.shape[0] != factor.n:
        raise DimensionMismatch(f"rhs length {b.shape[0]} != matrix size {factor.n}")
    z = solve_tri(factor.L, b, lower=True)
    return solve_tri(factor.L.T, z, lower=False)


def std_normal_pdf(z):
    """Standard normal density, elementwise."""
    return np.exp(-0.5 * z * z) / _SQRT_2PI


def std_normal_cdf(z):
    """Standard normal distribution function, elementwise."""
    # erfc form keeps full accuracy in the left tail.  numpy has no erfc,
    # and scipy.special is slow to import, so math.erfc maps over the values.
    w = np.asarray(z, dtype=float) / -_SQRT_2
    erfc = np.fromiter(map(math.erfc, w.ravel().tolist()), dtype=float, count=w.size)
    return 0.5 * erfc.reshape(w.shape)
