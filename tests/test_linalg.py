import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from dimsched.errors import DimensionMismatch
from dimsched.linalg import (
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
