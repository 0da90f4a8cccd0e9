import math
import os
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import solve_triangular

import dimsched.linalg as linalg
from dimsched.errors import DimensionMismatch, NotPositiveDefinite
from dimsched.linalg import (
    _JITTER_SCALES,
    CholFactor,
    chol_append,
    chol_inverse_lower,
    cholesky_spd,
    solve_tri,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_pdf_floats,
)


class TestCholesky:
    def test_identity(self):
        F = cholesky_spd(np.eye(3))
        assert np.allclose(F.L, np.eye(3))
        assert F.jitter_used == 0.0

    def test_two_by_two_frozen(self):
        # L computed by hand: [[2,0],[1,sqrt(2)]] reproduces [[4,2],[2,3]].
        A = np.array([[4.0, 2.0], [2.0, 3.0]])
        F = cholesky_spd(A)
        expected = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
        assert np.allclose(F.L, expected)
        assert np.allclose(F.L @ F.L.T, A)

    def test_rank_one_needs_jitter(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        F = cholesky_spd(A)
        assert F.jitter_used > 0.0
        assert np.all(np.diag(F.L) > 0)
        # The jitter is the first rung of the ladder that factorizes.
        base = np.trace(A) / 2
        for scale in _JITTER_SCALES:
            try:
                np.linalg.cholesky(A + scale * base * np.eye(2))
            except np.linalg.LinAlgError:
                continue
            break
        assert F.jitter_used == scale * base

    def test_spd_takes_one_cholesky_call(self, monkeypatch):
        calls = []
        original = linalg._umath_linalg.cholesky_lo

        def counted(A, **kwargs):
            calls.append(A)
            return original(A, **kwargs)

        monkeypatch.setattr(linalg, "_umath_linalg", SimpleNamespace(cholesky_lo=counted))
        M = np.random.default_rng(4).normal(size=(8, 8))
        F = cholesky_spd(M @ M.T + np.eye(8))
        assert len(calls) == 1
        assert F.jitter_used == 0.0

    @pytest.mark.parametrize(
        "A",
        [[[np.inf, 1.0], [1.0, 4.0]], [[4.0, 1.0], [3.0, np.nan]], [[np.inf, 1.0], [3.0, 4.0]]],
        ids=["inf-symmetric", "nan-asymmetric", "inf-asymmetric"],
    )
    def test_non_finite_rejected(self, A):
        with pytest.raises(DimensionMismatch, match="non-finite"):
            cholesky_spd(np.array(A))

    def test_factor_reproduces_input(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(6, 6))
        A = M @ M.T + np.eye(6)
        F = cholesky_spd(A)
        rel = np.linalg.norm(F.L @ F.L.T - (A + F.jitter_used * np.eye(6)))
        assert rel < 1e-8 * np.linalg.norm(A)

    def test_asymmetric_rejected(self):
        with pytest.raises(DimensionMismatch):
            cholesky_spd(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(DimensionMismatch, match="expected square matrix"):
            cholesky_spd(np.ones(shape))

    def test_symmetric_to_rounding_accepted(self):
        # An asymmetry of at most 1e-12 of the largest entry is rounding,
        # as in a kernel matrix summed in another order; the factor is the
        # lower triangle's.
        M = np.random.default_rng(5).normal(size=(5, 5))
        A = M @ M.T + np.eye(5)
        A_lower = A.copy()
        A[0, 3] += 0.5e-12 * np.abs(A).max()
        assert not (A == A.T).all()
        F = cholesky_spd(A)
        assert np.array_equal(F.L, cholesky_spd(A_lower).L)

    @pytest.mark.parametrize("n", [5, 150], ids=["by_bytes", "by_value"])
    def test_symmetry_tested_exactly_at_every_size(self, n):
        # Small matrices are compared with their transpose by bytes, large
        # ones by value: a -0.0 facing a 0.0 is symmetric either way, and
        # an asymmetry beyond rounding is not.
        M = np.random.default_rng(6).normal(size=(n, n))
        A = M @ M.T + n * np.eye(n)
        A[0, 1] = A[1, 0] = 0.0
        expected = cholesky_spd(A).L
        A[0, 1] = -0.0
        assert cholesky_spd(A).L.tobytes() == expected.tobytes()
        A[2, 0] += 1.0
        with pytest.raises(DimensionMismatch, match="not symmetric"):
            cholesky_spd(A)

    def test_jitter_leaves_input_unchanged(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        F = cholesky_spd(A)
        assert F.jitter_used > 0.0
        assert np.array_equal(A, np.ones((2, 2)))


def kernel_like(rng, n, d, noise, scale=1.0, duplicates=0):
    """scale * (k(X, X) + noise * I) for an SE kernel at random lengthscales.

    The last ``duplicates`` points repeat the first ones.
    """
    X = rng.uniform(-5.0, 5.0, size=(n, d))
    X[n - duplicates :] = X[:duplicates]
    diff = (X[:, None, :] - X[None, :, :]) / rng.uniform(0.3, 5.0, size=d)
    K = np.exp(-0.5 * np.einsum("ijk,ijk->ij", diff, diff))
    K[np.diag_indices(n)] += noise
    return scale * K


def sweep_matrices():
    """float64 matrices for comparing Cholesky calls, by family.

    Each is symmetric unless its family puts a non-finite entry in one triangle.
    """
    rng = np.random.default_rng(40)
    noises = (1e-2, 1e-6, 1e-12, 1e-300, 0.0)
    for n in range(1, 231):
        yield "kernel", kernel_like(rng, n, 1 + n % 10, noises[n % 5])
    for n in (2, 5, 20, 60, 150):
        yield "duplicates", kernel_like(rng, n, 2, 0.0, duplicates=n // 2)
        M = rng.normal(size=(n, max(1, n // 3)))
        yield "low-rank", M @ M.T
        yield "ones", np.ones((n, n))
        yield "zero", np.zeros((n, n))
        yield "negative", -kernel_like(rng, n, 3, 1e-2)
        for scale in (1e300, 1.7e308 / (n + 1)):
            yield "huge", kernel_like(rng, n, 2, 1e-2, scale)
        yield "tiny-noise", kernel_like(rng, n, 1, 1e-300)
        for value in (np.inf, -np.inf, np.nan):
            i, j = sorted(rng.choice(n, size=2, replace=n < 2))
            for where in ("lower", "upper", "both", "diagonal"):
                A = kernel_like(rng, n, 2, 1e-2)
                if where == "diagonal":
                    A[i, i] = value
                if where in ("lower", "both"):
                    A[max(i, j), min(i, j)] = value
                if where in ("upper", "both"):
                    A[min(i, j), max(i, j)] = value
                yield f"{value}-{where}", A


def spd_outcome(A):
    """What cholesky_spd makes of A: its factor's bytes and jitter, or its error."""
    try:
        F = cholesky_spd(A)
    except Exception as exc:
        return type(exc), str(exc)
    return F.L.shape, F.L.dtype, F.L.tobytes(), F.jitter_used


class TestCholeskyUfunc:
    """The ufunc call against np.linalg.cholesky, the wrapper around it."""

    def test_same_bits_or_same_failure(self):
        for family, A in sweep_matrices():
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("error")
                try:
                    expected = np.linalg.cholesky(A)
                except np.linalg.LinAlgError:
                    with pytest.raises(np.linalg.LinAlgError):
                        linalg._cholesky_lo(A)
                    continue
                got = linalg._cholesky_lo(A)
            assert got.tobytes() == expected.tobytes(), family

    @pytest.mark.parametrize("errstate", ["warn", "raise", "ignore"])
    def test_ladder_as_on_numpy_wrapper(self, monkeypatch, errstate):
        # The same rung or the same error as the ladder built on
        # np.linalg.cholesky, whatever floating-point errstate is set.
        families = set()
        for family, A in sweep_matrices():
            with warnings.catch_warnings(), np.errstate(all=errstate):
                warnings.simplefilter("error")
                got = spd_outcome(A)
                with monkeypatch.context() as m:
                    m.setattr(linalg, "_cholesky_lo", np.linalg.cholesky)
                    expected = spd_outcome(A)
            assert got == expected, family
            families.add((family, got[0] if len(got) == 2 else got[3] > 0.0))
        # Every ending is exercised: no jitter, jitter, and each error.
        assert ("kernel", False) in families and ("duplicates", True) in families
        assert ("negative", NotPositiveDefinite) in families
        assert ("inf-both", DimensionMismatch) in families
        assert ("nan-lower", DimensionMismatch) in families

    def test_any_memory_layout(self):
        A = kernel_like(np.random.default_rng(41), 30, 3, 1e-6)
        expected = cholesky_spd(A).L
        for view in (np.asfortranarray(A), A.T, np.repeat(A, 2, axis=1)[:, ::2]):
            assert cholesky_spd(view).L.tobytes() == expected.tobytes()


class TestCholAppend:
    def test_matches_factor_of_bordered_matrix(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            M = rng.normal(size=(n + 1, n + 1))
            A = M @ M.T + 0.1 * np.eye(n + 1)
            grown = chol_append(cholesky_spd(A[:n, :n]), A[:n, n], A[n, n])
            whole = cholesky_spd(A)
            assert grown.jitter_used == whole.jitter_used == 0.0
            assert np.allclose(grown.L, whole.L, rtol=0.0, atol=1e-10 * np.abs(whole.L).max())
            assert np.array_equal(np.triu(grown.L, 1), np.zeros((n + 1, n + 1)))

    def test_carries_parent_jitter(self):
        # The all-ones parent is singular, so it needs jitter; the grown
        # factor must factor the bordered matrix plus that same jitter.
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            A = np.ones((n + 1, n + 1))
            A[:n, n] = A[n, :n] = rng.uniform(0.5, 1.5)
            A[n, n] = A[0, n] ** 2 + rng.uniform(0.1, 2.0)
            parent = cholesky_spd(A[:n, :n])
            assert parent.jitter_used > 0.0
            grown = chol_append(parent, A[:n, n], A[n, n])
            assert grown.jitter_used == parent.jitter_used
            shifted = A + parent.jitter_used * np.eye(n + 1)
            whole = cholesky_spd(shifted)
            assert whole.jitter_used == 0.0
            assert np.allclose(grown.L, whole.L, rtol=0.0, atol=1e-8 * np.abs(whole.L).max())
            # The jitter (about 1e-10 here) must be on the new diagonal entry too.
            assert np.allclose(grown.L @ grown.L.T, shifted, rtol=0.0, atol=1e-13)

    def test_nonpositive_pivot_raises(self):
        parent = cholesky_spd(np.eye(1))
        for diag in (1.0, 0.5):  # pivots 0 and -0.5
            with pytest.raises(NotPositiveDefinite):
                chol_append(parent, [1.0], diag)


class TestSolveTri:
    def test_bitwise_equal_to_scipy(self):
        # solve_tri makes scipy's LAPACK call without its checks, so the
        # results are the same to the last bit, in either memory order.
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            M = rng.normal(size=(n, n))
            L = np.linalg.cholesky(M @ M.T + n * np.eye(n))
            b = rng.normal(size=n) if rng.random() < 0.5 else rng.normal(size=(n, 3))
            for T, lower in ((L, True), (L.T, False), (np.asfortranarray(L), True)):
                expected = solve_triangular(T, b, lower=lower)
                assert np.array_equal(solve_tri(T, b, lower=lower), expected)

    def test_singular_raises(self):
        T = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            solve_tri(T, np.ones(2), lower=True)


# Compares dimsched.linalg's own copy of scipy's _flapack module with the
# one scipy.linalg.lapack re-exports, through the calls dimsched makes.
_SAME_BYTES_SCRIPT = """
import numpy as np
{imports}
from scipy.linalg import lapack
from dimsched.linalg import CholFactor, chol_inverse_lower, solve_tri
rng = np.random.default_rng(5)
for n in range(1, 221):
    M = rng.normal(size=(n, n))
    L = np.linalg.cholesky(M @ M.T + n * np.eye(n))
    b = rng.normal(size=n) if n % 2 else rng.normal(size=(n, 3))
    x, info = lapack.dtrtrs(L.T, b, lower=0, trans=1)
    assert info == 0 and solve_tri(L, b, lower=True).tobytes() == x.tobytes(), n
    x, info = lapack.dtrtrs(L.T, b, lower=0)
    assert info == 0 and solve_tri(L.T, b, lower=False).tobytes() == x.tobytes(), n
    inverse, info = lapack.dpotri(L, lower=1)
    got = chol_inverse_lower(CholFactor(L=L, jitter_used=0.0))
    assert info == 0 and got.tobytes() == inverse.tobytes(), n
print("same")
"""


class TestLapackModule:
    # In a fresh interpreter under -W error, with scipy.linalg imported
    # after dimsched.linalg (its _flapack is then initialised a second
    # time) or before it.
    @pytest.mark.parametrize(
        "imports",
        [
            "import dimsched.linalg\nimport scipy.linalg",
            "import scipy.linalg\nimport dimsched.linalg",
        ],
        ids=["scipy-linalg-after", "scipy-linalg-before"],
    )
    def test_same_bytes_as_scipy_linalg_lapack(self, imports):
        src = os.path.dirname(os.path.dirname(linalg.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c", _SAME_BYTES_SCRIPT.format(imports=imports)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "same"

    def test_missing_extension_names_directory_and_version(self, tmp_path, monkeypatch):
        fake_scipy = SimpleNamespace(__file__=str(tmp_path / "__init__.py"), __version__="0.0")
        monkeypatch.setattr(linalg, "scipy", fake_scipy)
        with pytest.raises(ImportError) as info:
            linalg._load_flapack()
        assert str(tmp_path / "linalg") in str(info.value)
        assert "scipy 0.0" in str(info.value)

    def test_inverse_of_singular_factor_raises(self):
        L = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(NotPositiveDefinite):
            chol_inverse_lower(CholFactor(L=L, jitter_used=0.0))


def fromiter_cdf(z):
    """The normal cdf as math.erfc mapped over the values through np.fromiter."""
    w = np.asarray(z, dtype=float) / -math.sqrt(2.0)
    erfc = np.fromiter(map(math.erfc, w.ravel().tolist()), dtype=float, count=w.size)
    return 0.5 * erfc.reshape(w.shape)


# Signed zeros, the tails where erfc leaves [0, 2] or underflows,
# subnormals, the largest floats and the non-finite values.
EXTREMES = [0.0, -0.0, 8.3, -8.3, 38.0, -38.0, 40.0, -40.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
            1e308, -1e308, np.inf, -np.inf, np.nan]


class TestNormal:
    def test_cdf_matches_fromiter_form(self):
        # The cdf builds its values in a list; each must have the bits of
        # the np.fromiter form, signed zeros and nan included.
        rng = np.random.default_rng(5)
        z = np.concatenate(
            [EXTREMES, np.linspace(-40.0, 40.0, 200_001), 10.0 * rng.normal(size=10_000)]
        )
        assert std_normal_cdf(z).tobytes() == fromiter_cdf(z).tobytes()
        for shape in [(0,), (1,), (7,), (2, 3), (3, 1, 2)]:
            zs = z[: math.prod(shape)].reshape(shape)
            got, expected = std_normal_cdf(zs), fromiter_cdf(zs)
            assert got.shape == shape and got.tobytes() == expected.tobytes()
        for scalar in (0.0, -0.0, -1.5, np.float64(38.0), np.array(2.0), np.nan):
            got, expected = std_normal_cdf(scalar), fromiter_cdf(scalar)
            assert type(got) is type(expected) is np.float64
            assert got.tobytes() == expected.tobytes()
        assert std_normal_cdf([-1.0, 1.0]).tobytes() == fromiter_cdf([-1.0, 1.0]).tobytes()

    def test_pdf_matches_array_formula(self):
        # The pdf takes -0.5 * z * z and the division on Python floats and
        # only the exp from numpy, once per call; each value must have the
        # bits of the formula on arrays, at every batch length EI passes.
        rng = np.random.default_rng(6)
        z = np.concatenate(
            [EXTREMES, np.linspace(-40.0, 40.0, 200_001), 10.0 * rng.normal(size=10_000)]
        )

        def array_pdf(z):
            with np.errstate(over="ignore"):  # -0.5 * z * z overflows to -inf at 1e308
                return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

        assert std_normal_pdf(z).tobytes() == array_pdf(z).tobytes()
        for m in range(30):
            zs = 10.0 * rng.normal(size=m)
            assert np.array(std_normal_pdf_floats(zs.tolist())).tobytes() == array_pdf(zs).tobytes()
        for shape in [(0,), (1,), (7,), (2, 3), (3, 1, 2)]:
            zs = z[: math.prod(shape)].reshape(shape)
            got = std_normal_pdf(zs)
            assert got.shape == shape and got.tobytes() == array_pdf(zs).tobytes()
        for scalar in (0.0, -0.0, -1.5, np.float64(38.0), np.array(2.0), np.nan, 1e308):
            got, expected = std_normal_pdf(scalar), array_pdf(np.float64(scalar))
            assert type(got) is type(expected) is np.float64
            assert got.tobytes() == expected.tobytes()

    def test_pdf_at_zero(self):
        assert abs(std_normal_pdf(0.0) - 0.3989422804014327) < 1e-12

    def test_cdf_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_symmetry(self):
        for z in np.linspace(-6, 6, 101):
            assert abs(std_normal_cdf(-z) + std_normal_cdf(z) - 1.0) < 1e-14

    def test_cdf_monotone_on_grid(self):
        grid = np.linspace(-8.0, 8.0, 10_000)
        vals = [std_normal_cdf(z) for z in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_cdf_reference_values(self):
        # scipy.stats.norm.cdf cross-check, absolute error < 1e-10
        from scipy.stats import norm

        for z in (-5.0, -1.3, -0.2, 0.7, 2.5, 6.0):
            assert abs(std_normal_cdf(z) - norm.cdf(z)) < 1e-10
