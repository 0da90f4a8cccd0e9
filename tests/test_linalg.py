import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from dimsched.errors import DimensionMismatch, NotPositiveDefinite
from dimsched.linalg import (
    _JITTER_SCALES,
    chol_append,
    cholesky_spd,
    solve_chol,
    solve_tri,
    std_normal_cdf,
    std_normal_pdf,
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
        original = np.linalg.cholesky

        def counted(A):
            calls.append(A)
            return original(A)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
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

    def test_jitter_leaves_input_unchanged(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        F = cholesky_spd(A)
        assert F.jitter_used > 0.0
        assert np.array_equal(A, np.ones((2, 2)))


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


class TestSolveChol:
    def test_identity_solve(self):
        F = cholesky_spd(np.eye(3))
        assert np.allclose(solve_chol(F, [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_residual(self):
        A = np.array([[4.0, 2.0], [2.0, 3.0]])
        F = cholesky_spd(A)
        b = np.array([2.0, 1.0])
        x = solve_chol(F, b)
        assert np.linalg.norm(A @ x - b) < 1e-10

    def test_length_mismatch(self):
        F = cholesky_spd(np.eye(3))
        with pytest.raises(DimensionMismatch):
            solve_chol(F, [1.0, 2.0])

    def test_random_spd_matches_gaussian_elimination(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 21))
            M = rng.normal(size=(n, n))
            A = M.T @ M + np.eye(n)
            b = rng.normal(size=n)
            x = solve_chol(cholesky_spd(A), b)
            x_naive = np.linalg.solve(A, b)  # LAPACK Gaussian elimination
            assert np.linalg.norm(x - x_naive) < 1e-8 * np.linalg.norm(x_naive)


class TestNormal:
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
