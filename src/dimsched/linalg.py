"""Small dense linear algebra and normal-distribution helpers.

Everything here operates on plain numpy arrays.  Matrices are small
(GP kernel matrices up to a few hundred rows).  A factor is computed
once in O(n^3) and then grown by one row at a time in O(n^2).

This is the one module that knows where LAPACK comes from.  It loads
scipy's compiled LAPACK wrappers, the ``_flapack`` extension module that
``scipy.linalg.lapack`` re-exports, straight from scipy's ``linalg``
directory, because importing the ``scipy.linalg`` package, which pulls in
scipy's array-API layer and ``numpy.f2py``, costs more than twice the
rest of ``import dimsched``.  In ``python -X importtime`` over 12 fresh
interpreters (Python 3.11.7, numpy 2.4.6, scipy 1.17.1, a 2-core x86
host), ``scipy.linalg`` took a median 256 ms of the 361 ms that ``import
dimsched`` took with it; ``_flapack`` alone loads in 3-11 ms, and
``import dimsched`` without ``scipy.linalg`` took 150 ms.  The routines
run from the same shared library either way, so every result is the
same to the last bit.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from typing import NamedTuple

import numpy as np
import scipy  # its __init__ prepares the bundled OpenBLAS on some platforms
from numpy.linalg import _umath_linalg

from .errors import DimensionMismatch, NotPositiveDefinite


def _load_flapack():
    directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    finder = importlib.machinery.FileFinder(
        directory,
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    )
    # The extension's init function is found by the last component of
    # the name, so a private name ending in _flapack loads the file without
    # claiming scipy.linalg's own module name.
    spec = finder.find_spec(f"{__name__}._flapack")
    if spec is None:
        raise ImportError(
            f"no _flapack extension module in {directory} (scipy {scipy.__version__})"
        )
    module = importlib.util.module_from_spec(spec)
    # CPython files a single-phase extension module in sys.modules as it
    # creates it; this private copy does not belong there.
    sys.modules.pop(spec.name, None)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)

# Jitter ladder, as multiples of the mean diagonal of the input matrix.
_JITTER_SCALES = (0.0, 1e-10, 1e-8, 1e-6, 1e-4)

# The largest matrix whose symmetry is tested by its bytes (see _as_sym_matrix).
_BYTES_TEST_MAX_N = 96


def _non_finite() -> DimensionMismatch:
    return DimensionMismatch("matrix has non-finite entries")


def _as_sym_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got shape {A.shape}")
    # The cheap exact test first.  Up to about 100 rows, equal bytes of A
    # and its transpose are the cheaper test (n = 20: 0.7 against 2.7 µs for
    # A == A.T); above, their two copies cost more (n = 220: 40 against 30).
    # Where the bytes differ but the values compare equal (a -0.0 facing a
    # 0.0), the tolerance test below accepts A as it is, and a nan facing its
    # own bits passes to the factorization, which rejects it.
    if A.shape[0] <= _BYTES_TEST_MAX_N:
        symmetric = A.tobytes() == A.T.tobytes()
    else:
        symmetric = np.logical_and.reduce(A == A.T, axis=None)
    if symmetric:
        return A
    scale = np.abs(A).max()
    if not math.isfinite(scale):
        raise _non_finite()
    if scale > 0 and np.abs(A - A.T).max() > 1e-12 * scale:
        raise DimensionMismatch("matrix is not symmetric")
    return A


class CholFactor(NamedTuple):
    """Lower-triangular Cholesky factor of A + jitter*I.

    A named tuple, not a frozen dataclass: it is read-only either way,
    and the tuple is built in half the time, once per factorization.
    """

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
    # entry of A's lower triangle always reaches L's diagonal.  The diagonal
    # is positive and at most sqrt(max float), so its sum is finite exactly
    # when every entry is (L.trace() sums it too, with more overhead).
    if not math.isfinite(np.add.reduce(L.diagonal())):
        raise _non_finite()
    return CholFactor(L, jitter)


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
    itself at GP sizes.  Nothing is checked for finiteness.  The flags go
    by position, (a, b, lower, trans): f2py parses keywords slowly.
    """
    if T.flags.f_contiguous:
        x, info = _flapack.dtrtrs(T, b, lower)
    else:  # trtrs reads Fortran order, so solve the transposed system
        x, info = _flapack.dtrtrs(T.T, b, not lower, 1)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (info={info})")
    return x


def chol_inverse_lower(factor: CholFactor) -> np.ndarray:
    """Lower triangle of (A + jitter*I)^-1, from LAPACK's potri.

    The strict upper triangle is the factor's, all zeros.  The lower flag
    goes by position, as in ``solve_tri``.
    """
    inverse, info = _flapack.dpotri(factor.L, 1)
    if info != 0:
        raise NotPositiveDefinite(f"inverse from the Cholesky factor failed (info={info})")
    return inverse


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


def std_normal_pdf_floats(zs: list[float]) -> list[float]:
    """Standard normal density at a list of Python floats.

    exp(-0.5 * z * z) / sqrt(2 pi) with one numpy call, the exp over all of
    them: the product and the division are single IEEE operations on
    Python floats as on arrays, so the bits are those of the array form,
    whereas ``math.exp`` differs from ``np.exp`` in the last bit.
    """
    exps = np.exp(np.array([-0.5 * z * z for z in zs])).tolist()
    return [e / _SQRT_2PI for e in exps]


def std_normal_pdf(z):
    """Standard normal density, elementwise."""
    w = np.asarray(z, dtype=float)
    pdf = np.array(std_normal_pdf_floats(w.ravel().tolist()))
    return pdf.reshape(w.shape) if w.ndim else pdf[0]


def std_normal_cdf_float(z: float) -> float:
    """Standard normal distribution function at one Python float."""
    # The erfc form keeps full accuracy in the left tail.  numpy has no
    # erfc, and scipy.special is slow to import, so math.erfc runs on one
    # Python float at a time.
    return 0.5 * math.erfc(z / -_SQRT_2)


def std_normal_cdf(z):
    """Standard normal distribution function, elementwise."""
    w = np.asarray(z, dtype=float)
    cdf = np.array(list(map(std_normal_cdf_float, w.ravel().tolist())))
    return cdf.reshape(w.shape) if w.ndim else cdf[0]
