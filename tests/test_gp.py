import collections
import math
import re
import warnings
from typing import NamedTuple

import numpy as np
import pytest
from scipy.linalg import lapack, solve_triangular

import dimsched.gp as gp_module
from dimsched.errors import DimensionMismatch, DimschedError, NotPositiveDefinite
from dimsched.gp import (
    Dataset,
    KernelHyperparams,
    _coordinate_ranges,
    _random_starts,
    gp_augment,
    gp_fit,
    gp_predict,
    kernel_matrix,
    log_marginal_likelihood,
    lml_gradient,
    train_hyperparams,
)
from dimsched.linalg import solve_tri
from dimsched.objectives import benchmark_catalog
from dimsched.optimize import initial_design


def hyper(d, ls=1.0, sf2=1.0, sn2=1e-2):
    return KernelHyperparams(
        log_lengthscales=np.full(d, math.log(ls)),
        log_signal_variance=math.log(sf2),
        log_noise_variance=math.log(sn2),
    )


def random_instance(rng, n=None, d=None):
    n = n or int(rng.integers(2, 13))
    d = d or int(rng.integers(1, 6))
    X = rng.uniform(-2, 2, size=(n, d))
    Y = rng.normal(size=n)
    h = KernelHyperparams(
        log_lengthscales=rng.uniform(-0.5, 1.0, size=d),
        log_signal_variance=rng.uniform(-1.0, 1.0),
        log_noise_variance=rng.uniform(-5.0, -2.0),
    )
    return Dataset(X, Y), h


def se_kernel(x, x2, hyper):
    """The dense oracle: the squared-exponential covariance of two points.

    Built from the lengthscales, not from the library's kernel weights,
    and with no floor, so it is a second formula to check the one kernel
    formula of dimsched.gp against.
    """
    x = np.asarray(x, dtype=float).ravel()
    x2 = np.asarray(x2, dtype=float).ravel()
    if x.shape[0] != x2.shape[0] or x.shape[0] != hyper.d:
        raise DimensionMismatch(f"dims {x.shape[0]}, {x2.shape[0]} vs hyper dim {hyper.d}")
    diff = (x - x2) / hyper.lengthscales
    return hyper.signal_variance * math.exp(-0.5 * float(diff @ diff))


def naive_predict(data, h, x_star):
    """Explicit-inverse oracle for the posterior mean/variance."""
    K = kernel_matrix(data.X, data.X, h) + h.noise_variance * np.eye(data.n)
    K_inv = np.linalg.inv(K)
    k_star = np.array([se_kernel(xi, x_star, h) for xi in data.X])
    shift = np.mean(data.Y)
    mean = shift + k_star @ K_inv @ (data.Y - shift)
    var = h.signal_variance - k_star @ K_inv @ k_star
    return float(mean), float(var)


def count_calls(monkeypatch, name):
    """Wrap gp's ``name`` to record the arguments of each call."""
    calls = []
    original = getattr(gp_module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(gp_module, name, counted)
    return calls


class TestSeKernel:
    """The dense oracle and the library's kernel at closed-form values."""

    def test_zero_distance(self):
        h = hyper(3, sf2=2.5)
        assert abs(se_kernel([1, 2, 3], [1, 2, 3], h) - 2.5) < 1e-14
        assert kernel_matrix([[1, 2, 3]], [[1, 2, 3]], h)[0, 0] == 2.5

    def test_huge_lengthscale_limit(self):
        h = hyper(2, ls=1e8, sf2=1.7)
        assert abs(se_kernel([0, 0], [5, -3], h) - 1.7) < 1e-10
        assert abs(kernel_matrix([[0, 0]], [[5, -3]], h)[0, 0] - 1.7) < 1e-10

    def test_unit_case(self):
        h = hyper(1)
        assert abs(se_kernel([0.0], [1.0], h) - math.exp(-0.5)) < 1e-14
        assert abs(kernel_matrix([[0.0]], [[1.0]], h)[0, 0] - math.exp(-0.5)) < 1e-14

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            se_kernel([0.0], [1.0, 2.0], hyper(1))
        for X in ([[0.0]], [[0.0, 1.0]]):  # one side, then both, of the wrong dimension
            with pytest.raises(DimensionMismatch, match="for a 1-d kernel"):
                kernel_matrix(X, [[1.0, 2.0]], hyper(1))


class TestKernelBits:
    """Prediction and the append build k(x, x') as the fit core builds K."""

    def test_kernel_matrix_is_the_fit_core_K(self):
        rng = np.random.default_rng(21)
        for d in range(1, 21):
            for n in (1, 2, 3, 5, 7, 9, 17, 40, 120):
                X = rng.uniform(-5.0, 5.0, size=(n, d))
                X[-1, : d // 2] = X[0, : d // 2]  # some zero differences
                data = Dataset(X, rng.normal(size=n))
                for lo, hi in ((-0.5, 1.5), (-40.0, 20.0)):
                    log_ls = rng.uniform(lo, hi, size=d)
                    h = KernelHyperparams(log_ls, float(rng.uniform(-5, 5)), -3.0)
                    fit = gp_module._fit(data, data.Y - np.mean(data.Y), h.to_vector()[None])
                    K = kernel_matrix(X, X, h)
                    assert K.shape == (n, n)
                    assert np.array_equal(K, fit.K[0]), (d, n, lo)

    def test_predict_and_augment_use_the_same_bits(self):
        rng = np.random.default_rng(23)
        data, h = random_instance(rng, n=12, d=10)
        model = gp_fit(data, h)
        X_star = rng.uniform(-2, 2, size=(7, 10))
        k_star = kernel_matrix(X_star, data.X, h)
        mean, var = gp_predict(model, X_star)
        assert np.array_equal(mean, model.mean_shift + k_star @ model.alpha)
        v = solve_tri(model.factor.L, k_star.T, lower=True)
        expected_var = np.maximum(h.signal_variance - np.add.reduce(v * v, axis=0), 0.0)
        assert np.array_equal(var, expected_var)
        x_new = rng.uniform(-2, 2, size=10)
        k_new = kernel_matrix(x_new[None, :], data.X, h)
        (mean_new,), _ = gp_predict(model, x_new[None, :])
        assert mean_new == model.mean_shift + float((k_new @ model.alpha)[0])
        grown = gp_augment(model, x_new, 0.3, retrain=False)
        row = solve_tri(model.factor.L, k_new[0], lower=True)
        assert np.array_equal(grown.factor.L[-1, :-1], row)

    def test_cached_constants_are_exact_and_read_only(self):
        log_ls = np.array([-3.0, 0.25, 7.0])
        h = KernelHyperparams(log_ls, 1.5, -4.0)
        assert np.array_equal(h.lengthscales, np.exp(log_ls))
        assert h.signal_variance == math.exp(1.5)
        assert h.noise_variance == math.exp(-4.0)
        assert h.lengthscales is h.lengthscales
        for array in (h.lengthscales, h.log_lengthscales):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        log_ls[0] = 9.0  # the caller's array is not the model's
        assert h.log_lengthscales[0] == -3.0
        assert h.lengthscales[0] == math.exp(-3.0)

    def test_dataset_columns(self):
        data = Dataset(np.arange(12.0).reshape(4, 3), np.zeros(4))
        assert np.array_equal(data.columns, data.X.T)
        assert data.columns.flags.c_contiguous
        assert not data.columns.flags.writeable


class TestInputChecks:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Dataset(np.zeros((3, 2)), np.zeros(2)), r"\|X\| = 3 but \|Y\| = 2"),
            (lambda: Dataset([[0.0, np.inf]], [1.0]), "non-finite"),
            (lambda: Dataset([[0.0, 1.0]], [np.nan]), "non-finite"),
            (lambda: Dataset([[0.0, 1.0]], [1.0]).append([0.5], 2.0), "point has dim 1, dataset has 2"),
        ],
        ids=["lengths_differ", "non_finite_x", "non_finite_y", "append_of_wrong_dim"],
    )
    def test_dataset_rejected(self, build, message):
        with pytest.raises(DimensionMismatch, match=message):
            build()

    @pytest.mark.parametrize(
        "Y, cause",
        [
            ([1.7e308, 1.7e308, 0.0], "their mean"),
            ([1.7e308, -1.7e308, -1.7e308], "the centred targets"),
            ([1e160, -1e160, 0.0], "the mean of their squares"),
            ([1e154] * 4 + [-1e154] * 4, "the mean of their squares"),  # each square is finite
        ],
        ids=["mean", "centred", "squares", "sum_of_squares"],
    )
    def test_targets_that_cannot_be_centred(self, Y, cause):
        data = Dataset(np.zeros((len(Y), 1)), Y)
        message = re.escape(
            f"targets from {min(Y):g} to {max(Y):g} cannot be centred: {cause} overflows"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimschedError, match=message):
                data._centred

    def test_centred_variance_is_numpy_var(self):
        rng = np.random.default_rng(16)
        for scale in (1e-300, 1e-8, 1.0, 1e5, 1e150):
            Y = scale * rng.standard_cauchy(size=int(rng.integers(1, 300)))
            mean, yc, var = Dataset(np.zeros((Y.size, 1)), Y)._centred
            assert (mean, var) == (float(np.mean(Y)), float(np.var(Y)))
            assert np.array_equal(yc, Y - np.mean(Y))

    # The last is one point of the model's dimension, which is passed as one row.
    @pytest.mark.parametrize(
        "x_star", [np.zeros(3), np.zeros((4, 3)), np.zeros((1, 2, 2)), np.zeros(2)]
    )
    def test_predict_on_points_of_wrong_shape(self, x_star):
        model = gp_fit(Dataset([[0.0, 1.0], [1.0, 0.0]], [1.0, 2.0]), hyper(2))
        message = re.escape(f"shape {x_star.shape} for a 2-d model")
        with pytest.raises(DimensionMismatch, match=message):
            gp_predict(model, x_star)

    @pytest.mark.parametrize(
        "data, h, message",
        [
            (Dataset(np.zeros((0, 2)), np.zeros(0)), hyper(2), "at least one observation"),
            (Dataset([[0.0, 1.0]], [1.0]), hyper(3), "hyper dim 3 != data dim 2"),
            # One point: K is its diagonal alone, which a nan lengthscale
            # makes nan, so sigma_n^2 must be added to it, not set in place.
            (Dataset([[0.5]], [1.0]), KernelHyperparams([np.nan], 0.0, -2.0), "non-finite"),
        ],
        ids=["no_observations", "hyper_of_wrong_dim", "nan_lengthscale_one_point"],
    )
    def test_fit_rejected(self, data, h, message):
        with pytest.raises(DimensionMismatch, match=message):
            gp_fit(data, h)


class TestKernelFloor:
    """Kernel values below eps^2 * sigma_f^2 are exactly 0."""

    def test_values_are_zero_or_above_the_floor(self):
        # The cases of test_kernel_matrix_matches_oracle_at_extreme_hyperparams.
        floor = np.finfo(float).eps ** 2
        rng = np.random.default_rng(14)
        for case in range(400):
            d = int(rng.integers(1, 11))
            n = int(rng.integers(2, 16))
            offset = rng.uniform(-1000.0, 1000.0, size=d) if case % 2 else np.zeros(d)
            width = 10.0 ** rng.uniform(-3.0, 1.0)
            X = offset + rng.uniform(-width, width, size=(n, d))
            X[-1] = X[0]
            h = KernelHyperparams(
                log_lengthscales=rng.uniform(-40.0, 20.0, size=d),
                log_signal_variance=float(rng.uniform(-5.0, 10.0)),
                log_noise_variance=-5.0,
            )
            sf2 = h.signal_variance
            x_star = X[int(rng.integers(n))]
            assert np.all(np.diag(kernel_matrix(X, X, h)) == sf2)
            for X2 in (X, x_star[None, :]):
                K = kernel_matrix(X, X2, h)
                oracle = np.array([[se_kernel(a, b, h) for b in X2] for a in X])
                assert np.all((K == 0.0) | (K >= floor * sf2)), case
                assert np.all(K[oracle < 0.5 * floor * sf2] == 0.0), case

    def test_no_subnormal_kernel_on_styblinski_tang(self):
        # Before the floor, this kernel held 324 subnormal entries and its
        # Cholesky factor 443.  Elimination can still make a few in the
        # factor, so only the kernel is checked.
        X = np.random.default_rng(0).uniform(-5.0, 5.0, size=(200, 10))
        Y = 0.5 * np.sum(X**4 - 16.0 * X**2 + 5.0 * X, axis=1)
        var_y = float(np.var(Y))
        h = KernelHyperparams(
            np.random.default_rng(1).uniform(-3.0, 3.0, size=10),
            math.log(var_y),
            math.log(1e-6 * var_y),
        )
        K = kernel_matrix(X, X, h)
        assert not np.any((K != 0.0) & (K < np.finfo(float).tiny))
        model = gp_fit(Dataset(X, Y), h)
        assert np.isfinite(model.alpha).all()


class TestFitPredict:
    def test_single_point_alpha_zero(self):
        model = gp_fit(Dataset([[0.5]], [3.0]), hyper(1))
        assert abs(model.alpha[0]) < 1e-14
        assert model.mean_shift == 3.0

    def test_mean_shift_is_read_from_the_data(self):
        # The fit, the O(n^2) append and the refit after a zero pivot all
        # centre on the mean of the model's own targets.
        data = Dataset([[0.0], [1.0], [2.0]], [1.0, 2.0, 6.0])
        model = gp_fit(data, hyper(1, ls=1e-9, sn2=1e-20))
        grown = gp_augment(model, [3.0], 11.0, retrain=False)
        refit = gp_augment(model, [1.0], 11.0, retrain=False)  # a repeated point
        assert refit.factor.jitter_used > 0.0
        for m, mean in ((model, 3.0), (grown, 5.0), (refit, 5.0)):
            assert m.mean_shift == mean == float(np.mean(m.data.Y))
            assert np.array_equal(m.data._centred[1], m.data.Y - mean)

    def test_duplicate_inputs_regularized(self):
        data = Dataset([[1.0], [1.0]], [0.0, 1.0])
        model = gp_fit(data, hyper(1))
        assert np.isfinite(model.alpha).all()

    def test_kernel_matrix_entrywise(self):
        rng = np.random.default_rng(0)
        data, h = random_instance(rng, n=10, d=3)
        K = kernel_matrix(data.X, data.X, h)
        for i in range(10):
            for j in range(10):
                assert abs(K[i, j] - se_kernel(data.X[i], data.X[j], h)) < 1e-12

    def test_kernel_matrix_matches_oracle_at_extreme_hyperparams(self):
        # Tiny lengthscales blow the scaled norms up, so |a|^2 + |b|^2 - 2a.b
        # cancels; close pairs, duplicates and offset boxes do the same.
        rng = np.random.default_rng(14)
        y_rng = np.random.default_rng(15)  # targets and test points for gp_predict
        for case in range(400):
            d = int(rng.integers(1, 11))
            n = int(rng.integers(2, 16))
            offset = rng.uniform(-1000.0, 1000.0, size=d) if case % 2 else np.zeros(d)
            width = 10.0 ** rng.uniform(-3.0, 1.0)
            X = offset + rng.uniform(-width, width, size=(n, d))
            X[-1] = X[0]  # duplicate row
            h = KernelHyperparams(
                log_lengthscales=rng.uniform(-40.0, 20.0, size=d),
                log_signal_variance=float(rng.uniform(-5.0, 10.0)),
                log_noise_variance=-5.0,
            )
            sf2 = h.signal_variance
            x_star = X[int(rng.integers(n))]
            for X2 in (X, X.copy(), x_star[None, :]):
                K = kernel_matrix(X, X2, h)
                oracle = np.array([[se_kernel(a, b, h) for b in X2] for a in X])
                assert np.max(np.abs(K - oracle)) <= 1e-10 * sf2
                if X2.shape[0] == n:
                    assert np.all(np.diag(K) == sf2)
            # gp_predict builds k* itself; check it against the dense oracle
            # at a training row and at a fresh point of the box, as the rows
            # of one matrix.
            Y = y_rng.normal(size=n)
            model = gp_fit(Dataset(X, Y), h)
            K = np.array([[se_kernel(a, b, h) for b in X] for a in X])
            K += (h.noise_variance + model.factor.jitter_used) * np.eye(n)
            yc = Y - np.mean(Y)
            points = (x_star, offset + y_rng.uniform(-width, width, size=d))
            means, variances = gp_predict(model, np.vstack(points))
            assert means.shape == variances.shape == (2,)
            for x, row_mean, row_var in zip(points, means, variances):
                k_star = np.array([se_kernel(a, x, h) for a in X])
                mean_o = np.mean(Y) + k_star @ np.linalg.solve(K, yc)
                var_o = sf2 - k_star @ np.linalg.solve(K, k_star)
                assert abs(row_mean - mean_o) <= 1e-8
                assert abs(row_var - max(var_o, 0.0)) <= 1e-12 * sf2
            one_mean, one_var = gp_predict(model, x_star[None, :])
            assert one_mean.shape == one_var.shape == (1,)

    def test_noise_free_interpolation(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, size=(6, 2))
        Y = rng.normal(size=6)
        model = gp_fit(Dataset(X, Y), hyper(2, sn2=1e-10))
        (mean,), (var,) = gp_predict(model, X[2:3])
        assert abs(mean - Y[2]) < 1e-4
        assert var < 1e-4

    def test_prior_reversion_far_away(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, size=(5, 2))
        Y = rng.normal(size=5)
        model = gp_fit(Dataset(X, Y), hyper(2, ls=0.5, sf2=2.0))
        (mean,), (var,) = gp_predict(model, [[50.0, 50.0]])
        assert abs(mean - model.mean_shift) < 1e-10
        assert abs(var - 2.0) < 1e-10

    def test_matches_naive_inverse(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            data, h = random_instance(rng, n=8)
            model = gp_fit(data, h)
            for _ in range(5):
                x_star = rng.uniform(-2, 2, size=data.d)
                (mean,), (var,) = gp_predict(model, x_star[None, :])
                mean_o, var_o = naive_predict(data, h, x_star)
                assert abs(mean - mean_o) < 1e-8 * max(abs(mean_o), 1.0)
                assert abs(var - max(var_o, 0.0)) < 1e-8 * max(abs(var_o), 1.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        data, h = random_instance(rng, n=9, d=2)
        shifted = Dataset(data.X, data.Y + 13.5)
        m1, m2 = gp_fit(data, h), gp_fit(shifted, h)
        for _ in range(10):
            x_star = rng.uniform(-2, 2, size=2)
            (mu1,), (v1,) = gp_predict(m1, x_star[None, :])
            (mu2,), (v2,) = gp_predict(m2, x_star[None, :])
            assert abs((mu2 - mu1) - 13.5) < 1e-9
            assert abs(v2 - v1) < 1e-12


class TestLml:
    def test_scalar_hand_formula(self):
        data = Dataset([[0.0]], [7.0])  # centered target is 0
        h = hyper(1, sf2=1.0, sn2=1e-12)
        expected = -0.5 * math.log(2 * math.pi) - 0.5 * math.log(1 + 1e-12)
        assert abs(log_marginal_likelihood(data, h) - expected) < 1e-9

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            data, h = random_instance(rng)
            K = kernel_matrix(data.X, data.X, h) + h.noise_variance * np.eye(data.n)
            yc = data.Y - np.mean(data.Y)
            sign, logdet = np.linalg.slogdet(K)
            assert sign > 0
            expected = -0.5 * (
                yc @ np.linalg.inv(K) @ yc + logdet + data.n * math.log(2 * math.pi)
            )
            got = log_marginal_likelihood(data, h)
            assert abs(got - expected) < 1e-8 * max(abs(expected), 1.0)

    def test_signal_scaling_symmetry(self):
        # Scaling Y by c and signal/noise variances by c^2 changes the LML
        # only through the determinant term: LML' = LML - N log c.
        rng = np.random.default_rng(6)
        data, h = random_instance(rng, n=7, d=2)
        c = 3.0
        data2 = Dataset(data.X, data.Y * c)
        h2 = KernelHyperparams(
            h.log_lengthscales,
            h.log_signal_variance + 2 * math.log(c),
            h.log_noise_variance + 2 * math.log(c),
        )
        lml1 = log_marginal_likelihood(data, h)
        lml2 = log_marginal_likelihood(data2, h2)
        assert abs(lml2 - (lml1 - data.n * math.log(c))) < 1e-9


class TestLmlGradient:
    def finite_difference(self, data, h, step=1e-5):
        theta = h.to_vector()
        grad = np.empty_like(theta)
        for i in range(theta.size):
            plus, minus = theta.copy(), theta.copy()
            plus[i] += step
            minus[i] -= step
            grad[i] = (
                log_marginal_likelihood(data, KernelHyperparams.from_vector(plus))
                - log_marginal_likelihood(data, KernelHyperparams.from_vector(minus))
            ) / (2 * step)
        return grad

    def test_matches_central_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            data, h = random_instance(rng, n=6, d=3)
            analytic = lml_gradient(data, h)
            fd = self.finite_difference(data, h)
            for a, f in zip(analytic, fd):
                assert abs(a - f) < 1e-4 * max(abs(f), 1e-4)

    def test_zero_centered_targets(self):
        # Constant Y: alpha = 0, so only the trace term survives.
        rng = np.random.default_rng(8)
        X = rng.uniform(-1, 1, size=(6, 2))
        data = Dataset(X, np.full(6, 4.2))
        h = hyper(2)
        grad = lml_gradient(data, h)
        K = kernel_matrix(X, X, h)
        K_noisy = K + h.noise_variance * np.eye(6)
        K_inv = np.linalg.inv(K_noisy)
        ells = h.lengthscales
        expected = np.empty(4)
        for j in range(2):
            diff = (X[:, j][:, None] - X[:, j][None, :]) / ells[j]
            expected[j] = -0.5 * np.sum(K_inv * (K * diff * diff))
        expected[2] = -0.5 * np.sum(K_inv * K)
        expected[3] = -0.5 * h.noise_variance * np.trace(K_inv)
        assert np.allclose(grad, expected, atol=1e-10)


def per_dimension_gradient(data, h):
    """The LML gradient one lengthscale at a time, with K^-1 from solving
    against the identity, and the magnitude each sum was cancelled from."""
    K_sig = kernel_matrix(data.X, data.X, h)
    K_sig = 0.5 * (K_sig + K_sig.T)
    L = np.linalg.cholesky(K_sig + h.noise_variance * np.eye(data.n))
    yc = data.Y - np.mean(data.Y)
    alpha = solve_triangular(L.T, solve_triangular(L, yc, lower=True), lower=False)
    Linv = solve_triangular(L, np.eye(data.n), lower=True)
    M = np.outer(alpha, alpha) - Linv.T @ Linv
    terms = []
    for j in range(data.d):
        diff = (data.X[:, j][:, None] - data.X[:, j][None, :]) / h.lengthscales[j]
        terms.append(0.5 * M * (K_sig * diff * diff))
    terms.append(0.5 * M * K_sig)
    terms.append(0.5 * h.noise_variance * np.diag(M))
    grad = np.array([np.sum(t) for t in terms])
    scale = np.array([np.sum(np.abs(t)) for t in terms])
    return grad, scale


class TestOnePassGradient:
    def test_matches_per_dimension_formula(self):
        # Summation order differs, so the bound is relative to the sum of
        # the magnitudes each component is cancelled from.
        rng = np.random.default_rng(16)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            d = int(rng.integers(1, 11))
            data = Dataset(rng.uniform(-2, 2, size=(n, d)), rng.normal(size=n))
            h = KernelHyperparams(
                log_lengthscales=rng.uniform(-0.5, 1.5, size=d),
                log_signal_variance=rng.uniform(-1.0, 1.0),
                log_noise_variance=rng.uniform(-5.0, -2.0),
            )
            expected, scale = per_dimension_gradient(data, h)
            assert np.all(np.abs(lml_gradient(data, h) - expected) <= 1e-10 * scale)

    @staticmethod
    def symmetrized_gradient(data, fit, noise_variance):
        """The gradient from W = alpha alpha^T - K^-1 with K^-1 symmetrized first."""
        n, d = data.n, data.d
        K_inv, info = lapack.dpotri(fit.factors[0].L, lower=1)
        assert info == 0
        K_inv += K_inv.T
        K_inv.flat[:: n + 1] *= 0.5
        W = np.outer(fit.alpha[0], fit.alpha[0])
        W -= K_inv
        trace_m = float(np.trace(W))
        W *= fit.K[0]
        grad = np.empty(d + 2)
        grad[:d] = -(data.sq_diffs @ W.ravel()) * fit.weights[0]
        grad[d] = 0.5 * float(W.sum())
        grad[d + 1] = 0.5 * noise_variance * trace_m
        return grad

    def test_bitwise_equal_to_symmetrized_inverse(self):
        # Subtracting K^-1's lower triangle and then its transpose with a
        # zero diagonal gives the gradient of the symmetric K^-1 to the
        # same bits.  W itself may differ in the sign of a zero entry where
        # K^-1 and alpha alpha^T both hold -0.0; the last 200 cases make
        # such entries, and K is 0 there.
        rng = np.random.default_rng(18)
        cases = []
        for n in range(2, 231):  # half with duplicated points and no noise
            d = int(rng.integers(1, 11))
            X = rng.uniform(-5.0, 5.0, size=(n, d))
            log_noise = rng.uniform(-8.0, -2.0)
            if n % 2:
                X[n - n // 3 :] = X[: n // 3]
                log_noise = -300.0
            theta = np.concatenate([rng.uniform(-0.5, 2.0, size=d), [0.0, log_noise]])
            cases.append((Dataset(X, rng.normal(size=n)), theta))
        for _ in range(200):  # far-apart points, targets at their mean: zeros in W
            n = int(rng.integers(2, 9))
            X = 100.0 * rng.integers(0, 4, size=(n, 1)) + 0.5 * rng.integers(0, 2, size=(n, 1))
            Y = rng.integers(-2, 3, size=n).astype(float)
            cases.append((Dataset(X, Y), np.array([0.0, 0.0, -2.0])))
        jittered = 0
        for data, theta in cases:
            yc = data.Y - np.mean(data.Y)
            fit = gp_module._fit(data, yc, theta[None])
            jittered += fit.factors[0].jitter_used > 0.0
            noise = math.exp(theta[-1])
            got = gp_module._lml_gradient(data, fit, [0])[0]
            assert got.tobytes() == self.symmetrized_gradient(data, fit, noise).tobytes()
        assert jittered > 20

    def test_finite_at_log_clip(self):
        # Corners of the trainer's +-300 box, a duplicate row and offset
        # boxes: zero differences meet 1/ell^2 = e^600, which must give 0.
        # Kernel entries may underflow to 0; nothing may overflow or be nan.
        rng = np.random.default_rng(17)
        for case in range(300):
            d = int(rng.integers(1, 11))
            n = int(rng.integers(2, 16))
            offset = rng.uniform(-1000.0, 1000.0, size=d) if case % 2 else np.zeros(d)
            width = 10.0 ** rng.uniform(-3.0, 1.0)
            X = offset + rng.uniform(-width, width, size=(n, d))
            X[-1] = X[0]
            data = Dataset(X, rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 5.0))
            corner = rng.choice([-300.0, 300.0], size=d + 2)
            theta = np.where(rng.random(d + 2) < 0.5, corner, rng.uniform(-300.0, 300.0, size=d + 2))
            h = KernelHyperparams.from_vector(theta)
            with np.errstate(invalid="raise", over="raise", divide="raise"):
                assert np.isfinite(log_marginal_likelihood(data, h))
                assert np.isfinite(lml_gradient(data, h)).all()


    def test_overflowed_inverse_lengthscale_gives_white_noise(self):
        # exp(800) overflows; a zero difference must still weigh 0, so the
        # kernel is sigma_f^2 on the diagonal and 0 off it.
        X = np.array([[0.0, 1.0], [0.5, 1.0], [2.0, -1.0]])
        data = Dataset(X, [1.0, -2.0, 0.5])
        h = KernelHyperparams([-400.0, 0.0], 0.3, -1.0)
        with np.errstate(over="ignore"):
            lml = log_marginal_likelihood(data, h)
            grad = lml_gradient(data, h)
        var = h.signal_variance + h.noise_variance
        yc = data.Y - np.mean(data.Y)
        expected = -0.5 * (yc @ yc / var + 3 * math.log(var) + 3 * math.log(2 * math.pi))
        assert abs(lml - expected) < 1e-12 * abs(expected)
        assert np.isfinite(grad).all()


def styblinski_tang_data(rng, n, d, duplicates=0):
    X = rng.uniform(-5.0, 5.0, size=(n - duplicates, d))
    X = np.vstack([X, X[:duplicates]])
    return Dataset(X, np.sum(X**4 - 16.0 * X**2 + 5.0 * X, axis=1) / 2.0)


def training_box(data, ranges):
    """The box train_hyperparams keeps theta in, built from its docstring."""
    var_y = max(float(np.var(data.Y)), 1e-8)
    log_r = np.log(ranges)
    noise_floor = min(math.log(max(1e-8, 1e-8 * var_y)), 300.0)
    lo = np.r_[log_r - math.log(100.0), -300.0, noise_floor]
    hi = np.r_[log_r + math.log(100.0), 300.0, 300.0]
    return lo, hi


# The span of every coordinate of Styblinski-Tang's box [-5, 5].
SPAWN_RANGES = np.array([10.0, 10.0])


@pytest.fixture(scope="module")
def trained_spawns():
    """40 spawn-sized st10 datasets, each with its seed and trained hyperparameters.

    As in a DSA spawn: 20 uniform 10-d points and their st10 values, seen
    on coordinates 0-1, trained with 3 restarts and max_iter=100.
    """
    rng = np.random.default_rng(37)
    spawns = []
    for _ in range(40):
        full = styblinski_tang_data(rng, 20, 10)
        data = Dataset(full.X[:, :2], full.Y)
        seed = int(rng.integers(2**32))
        trained = train_hyperparams(
            data, restarts=3, rng=seed, bounds_ranges=SPAWN_RANGES, max_iter=100
        )
        spawns.append((data, seed, trained))
    return spawns


# The sequential ascent that train_hyperparams ran before its starts climbed
# in lockstep: one start at a time, one theta per fit.  It is the reference
# the lockstep ascent must match bit for bit.  It calls cholesky_spd and
# chol_inverse_lower through dimsched.gp, so a test can count those calls
# on both sides.


class OracleFit(NamedTuple):
    lml: float
    factor: object
    alpha: np.ndarray
    K: np.ndarray
    weights: np.ndarray
    noise_variance: float


def oracle_fit(data, yc, theta):
    n = data.n
    weights = gp_module._kernel_weights(theta[:-2])
    noise_variance = math.exp(theta[-1])
    K = gp_module._correlation(weights, data.sq_diffs).reshape(n, n)
    K *= math.exp(theta[-2])
    K_noisy = K.copy()
    K_noisy.reshape(-1)[:: n + 1] += noise_variance
    factor = gp_module.cholesky_spd(K_noisy)
    alpha = gp_module._solve_alpha(factor, yc)
    log_det = 2.0 * float(np.log(factor.L.diagonal()).sum())
    lml = -0.5 * (float(yc @ alpha) + log_det + n * gp_module._LOG_2PI)
    return OracleFit(lml, factor, alpha, K, weights, noise_variance)


def oracle_safe_fit(data, yc, theta):
    try:
        fit = oracle_fit(data, yc, theta)
    except (NotPositiveDefinite, DimensionMismatch):
        return None
    return fit if math.isfinite(fit.lml) else None


def oracle_gradient(data, fit):
    n, d = data.n, data.d
    K_inv = gp_module.chol_inverse_lower(fit.factor)
    W = np.outer(fit.alpha, fit.alpha)
    W -= K_inv
    K_inv.flat[:: n + 1] = 0.0
    W -= K_inv.T
    trace_m = float(np.trace(W))
    W *= fit.K
    grad = np.empty(d + 2)
    grad[:d] = -(data.sq_diffs @ W.ravel()) * fit.weights
    grad[d] = 0.5 * float(W.sum())
    grad[d + 1] = 0.5 * fit.noise_variance * trace_m
    return grad


def oracle_armijo(data, yc, theta, f, pg, p, lo, hi):
    t = 1.0
    while True:
        cand = np.minimum(np.maximum(theta + t * p, lo), hi)
        s = cand - theta
        predicted = float(pg @ s)
        if not predicted > gp_module._REL_GAIN_TOL * max(abs(f), 1.0):
            return None
        trial = oracle_safe_fit(data, yc, cand)
        if trial is None:
            t *= 0.1
            continue
        gain = trial.lml - f
        if gain >= 1e-4 * predicted:
            return cand, s, trial
        t *= min(max(0.5 * predicted / (predicted - gain), 0.1), 0.5)


def oracle_ascend(data, yc, theta, fit, lo, hi, max_iter, events):
    f = fit.lml
    H = None
    s = None
    steps = 0
    for _ in range(max_iter):
        try:
            g_next = oracle_gradient(data, fit)
        except NotPositiveDefinite:
            break
        if s is not None:
            y = g - g_next
            sy = float(s @ y)
            if sy > 0.0:
                if H is None:
                    H = np.diag(np.full(len(s), sy / float(y @ y)))
                Hy = H @ y
                rho = 1.0 / sy
                v = s * (0.5 * rho * rho * (sy + float(y @ Hy)))
                v -= rho * Hy
                W = v[:, None] * s
                H += W
                H += W.T
        g = g_next
        held = np.where(g > 0.0, theta >= hi, theta <= lo)
        pg = g.copy()
        pg[held] = 0.0
        pg_max = float(np.maximum.reduce(np.abs(pg)))
        if not (math.isfinite(pg_max) and pg_max >= gp_module._GRAD_TOL):
            break
        while True:
            p = pg / max(1.0, pg_max) if H is None else H @ pg
            p[held] = 0.0
            slope = float(p @ pg)
            found = (
                oracle_armijo(data, yc, theta, f, pg, p, lo, hi)
                if 0.0 < slope < math.inf else None
            )
            if found is not None or H is None:
                break
            H = None
            events["H reset"] += 1
        if found is None:
            break
        theta, s, fit = found
        steps += 1
        f_last, f = f, fit.lml
        if f - f_last <= gp_module._REL_GAIN_TOL * max(abs(f), abs(f_last), 1.0):
            break
    if steps == 1:
        events["stopped after one step"] += 1
    return f, theta


def oracle_random_start(rng, ranges, var_y):
    """One start theta from a draw of its own, as the trainer once drew each start."""
    log_ls = rng.uniform(np.log(0.1 * ranges), np.log(2.0 * ranges))
    return np.concatenate([log_ls, [math.log(var_y), math.log(1e-2 * var_y)]])


def oracle_train(data, restarts=3, rng=None, bounds_ranges=None, max_iter=200, warm_start=None):
    """train_hyperparams with its starts climbing one after another."""
    events = collections.Counter()
    rng = np.random.default_rng(rng)
    _, yc, var_y = data._centred
    var_y = max(var_y, 1e-8)
    ranges = _coordinate_ranges(data, bounds_ranges)
    lo, hi = training_box(data, ranges)
    starts = [] if warm_start is None else [warm_start.to_vector()]
    starts.extend(oracle_random_start(rng, ranges, var_y) for _ in range(restarts))
    best_f, best = -np.inf, np.minimum(np.maximum(starts[0], lo), hi)
    with np.errstate(all="ignore"):
        for theta in starts:
            theta = np.minimum(np.maximum(theta, lo), hi)
            fit = oracle_safe_fit(data, yc, theta)
            if fit is None:
                events["first fit failed"] += 1
                continue
            f_end, theta_end = oracle_ascend(data, yc, theta, fit, lo, hi, max_iter, events)
            if f_end > best_f:
                best_f, best = f_end, theta_end
    return best, events


def assert_matches_oracle(monkeypatch, data, **kwargs):
    """train_hyperparams and oracle_train give the same bits from the same
    calls to cholesky_spd and chol_inverse_lower; returns the oracle's events."""
    counts = {}
    for name in ("cholesky_spd", "chol_inverse_lower"):
        counts[name] = count_calls(monkeypatch, name)
    trained = train_hyperparams(data, **kwargs).to_vector()
    lockstep_counts = {name: len(calls) for name, calls in counts.items()}
    for calls in counts.values():
        calls.clear()
    expected, events = oracle_train(data, **kwargs)
    monkeypatch.undo()
    assert trained.tobytes() == expected.tobytes()
    assert lockstep_counts == {name: len(calls) for name, calls in counts.items()}
    return events


class TestRandomStarts:
    """The starts come from one draw, as from the one draw per start they replaced."""

    @pytest.mark.parametrize("restarts", [0, 1, 3])
    def test_one_draw_as_one_per_start(self, restarts):
        rng = np.random.default_rng(41)
        for _ in range(100):
            d = int(rng.integers(1, 11))
            ranges = 10.0 ** rng.uniform(-3.0, 3.0, size=d)
            var_y = float(10.0 ** rng.uniform(-8.0, 8.0))
            seed = int(rng.integers(2**32))
            drawn, one_by_one = np.random.default_rng(seed), np.random.default_rng(seed)
            starts = _random_starts(drawn, ranges, var_y, restarts)
            expected = [oracle_random_start(one_by_one, ranges, var_y) for _ in range(restarts)]
            assert starts.shape == (restarts, d + 2)
            assert starts.tobytes() == np.array(expected).tobytes()
            assert drawn.bit_generator.state == one_by_one.bit_generator.state

    @pytest.mark.parametrize("restarts", [0, 1, 3])
    def test_after_a_warm_start(self, restarts):
        # The warm start comes first; the trainer and the oracle, each on
        # its own generator of one seed, train alike and leave the two
        # generators in one state.
        rng = np.random.default_rng(42)
        for _ in range(5):
            data = styblinski_tang_data(rng, 12, 3)
            warm = KernelHyperparams.from_vector(rng.uniform(-2.0, 2.0, size=5))
            seed = int(rng.integers(2**32))
            drawn, one_by_one = np.random.default_rng(seed), np.random.default_rng(seed)
            trained = train_hyperparams(
                data, restarts=restarts, rng=drawn, warm_start=warm, max_iter=20
            )
            expected, _ = oracle_train(
                data, restarts=restarts, rng=one_by_one, warm_start=warm, max_iter=20
            )
            assert trained.to_vector().tobytes() == expected.tobytes()
            assert drawn.bit_generator.state == one_by_one.bit_generator.state


class TestLockstepMatchesSequential:
    """train_hyperparams against the sequential ascent it replaced."""

    @pytest.mark.parametrize("restarts", [1, 3])
    def test_spawn_sized_st10(self, monkeypatch, trained_spawns, restarts):
        # With one restart every round fits and differentiates a stack of
        # one row, through the whole of each ascent.
        for data, seed, _ in trained_spawns:
            assert_matches_oracle(
                monkeypatch, data, restarts=restarts, rng=seed, bounds_ranges=SPAWN_RANGES,
                max_iter=100,
            )

    @pytest.mark.parametrize("n", [30, 90, 160, 220])
    def test_retrain_shaped(self, monkeypatch, n):
        # As a BO retrain: 10-d, the data's ranges, a warm start from the
        # model of the first n - 10 points and one random restart.
        rng = np.random.default_rng(38 + n)
        data = styblinski_tang_data(rng, n, 10)
        head = Dataset(data.X[:-10], data.Y[:-10])
        warm = train_hyperparams(head, restarts=1, rng=rng, max_iter=20)
        seed = int(rng.integers(2**32))
        assert_matches_oracle(
            monkeypatch, data, restarts=1, rng=seed, warm_start=warm, max_iter=20
        )

    def test_edge_cases(self, monkeypatch):
        # max_iter of 0, 1 and 2; a warm start whose first fit fails (a nan
        # lengthscale); small and duplicated data; starts far outside the box.
        # Over all of them, ascents stop after one step and reset H.
        rng = np.random.default_rng(39)
        events = collections.Counter()
        for case in range(60):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(2, 30))
            data = styblinski_tang_data(rng, n, d, duplicates=int(rng.integers(0, n // 2 + 1)))
            warm = None
            if case % 3 == 1:
                warm = KernelHyperparams.from_vector(rng.uniform(-5.0, 5.0, size=d + 2))
            elif case % 3 == 2:
                warm = KernelHyperparams(np.full(d, np.nan), 0.0, -2.0)
            events += assert_matches_oracle(
                monkeypatch, data, restarts=int(rng.integers(1, 4)), rng=case,
                max_iter=[0, 1, 2, 30][case % 4], warm_start=warm,
            )
        assert events["first fit failed"] >= 20
        assert events["stopped after one step"] >= 10
        assert events["H reset"] >= 1


def pair_projections(design, box, count):
    """The first count projections of a design on coordinate pairs, each with its box's span."""
    pairs = [(a, b) for a in range(design.d) for b in range(a + 1, design.d)][:count]
    return [
        (Dataset(design.X[:, [a, b]], design.Y), box.subset([a, b]).span) for a, b in pairs
    ]


def st10_projections(count):
    spec = benchmark_catalog()["styblinski_tang-10"]
    design, _ = initial_design(spec.evaluator, spec.bounds, 20, np.random.default_rng(43))
    return pair_projections(design, spec.bounds, count)


def lv4_projections():
    spec = benchmark_catalog()["lotka_volterra"]
    design, _ = initial_design(spec.evaluator, spec.bounds, 20, np.random.default_rng(44))
    return pair_projections(design, spec.bounds, 6)


def assert_batch_matches_alone(monkeypatch, datasets, seeds, ranges, warm_starts, **kwargs):
    """One training of all the datasets gives each the bits of training it alone,
    from as many calls to cholesky_spd and chol_inverse_lower, and leaves
    each generator where training alone leaves it."""
    counts = {}
    for name in ("cholesky_spd", "chol_inverse_lower"):
        counts[name] = count_calls(monkeypatch, name)
    drawn = [np.random.default_rng(seed) for seed in seeds]
    batch = train_hyperparams(
        datasets, rng=drawn, bounds_ranges=ranges, warm_start=warm_starts, **kwargs
    )
    batch_counts = {name: len(calls) for name, calls in counts.items()}
    for calls in counts.values():
        calls.clear()
    alone_drawn = [np.random.default_rng(seed) for seed in seeds]
    alone = [
        train_hyperparams(data, rng=rng, bounds_ranges=r, warm_start=w, **kwargs)
        for data, rng, r, w in zip(datasets, alone_drawn, ranges, warm_starts)
    ]
    monkeypatch.undo()
    assert len(batch) == len(datasets)
    assert [h.to_vector().tobytes() for h in batch] == [h.to_vector().tobytes() for h in alone]
    assert batch_counts == {name: len(calls) for name, calls in counts.items()}
    assert [g.bit_generator.state for g in drawn] == [g.bit_generator.state for g in alone_drawn]


class TestSeveralDatasets:
    """train_hyperparams on a list of datasets of one shape: one lockstep
    stack of all their starts, each dataset with its own data, targets,
    box and generator."""

    @pytest.mark.parametrize("restarts", [1, 3])
    @pytest.mark.parametrize("source", ["st10", "lv4"])
    def test_each_dataset_as_alone(self, monkeypatch, restarts, source):
        projections = st10_projections(30) if source == "st10" else lv4_projections()
        datasets = [data for data, _ in projections]
        ranges = [span for _, span in projections]
        assert_batch_matches_alone(
            monkeypatch, datasets, range(50, 50 + len(datasets)), ranges,
            [None] * len(datasets), restarts=restarts, max_iter=100,
        )

    def test_a_box_per_dataset_and_failed_first_fits(self, monkeypatch):
        # Spans from 0.01 to 100, warm starts among them, one of them with a
        # nan lengthscale, so its first fit fails and its row stops at once.
        projections = st10_projections(8)
        datasets = [data for data, _ in projections]
        ranges = [np.array([10.0 ** (i - 2), 10.0 ** (2 - i % 3)]) for i in range(8)]
        warm = [None] * 8
        warm[2] = KernelHyperparams(np.full(2, np.nan), 0.0, -2.0)
        warm[5] = KernelHyperparams(np.array([0.3, -1.0]), 8.0, 1.0)
        for restarts in (1, 3):
            assert_batch_matches_alone(
                monkeypatch, datasets, range(60, 68), ranges, warm, restarts=restarts,
                max_iter=30,
            )

    def test_non_contiguous_sources(self, monkeypatch):
        # Datasets, targets and ranges that are strided views of larger arrays.
        rng = np.random.default_rng(45)
        grid = rng.uniform(-5.0, 5.0, size=(40, 12))
        targets = np.sum(grid**4 - 16.0 * grid**2 + 5.0 * grid, axis=1).reshape(20, 2) / 2.0
        spans = np.array([[10.0, 3.0, 10.0, 7.0]] * 6)
        datasets = [Dataset(grid[::2, j:j + 4:3], targets[:, j % 2]) for j in range(6)]
        assert not datasets[0].X.flags.c_contiguous
        ranges = [spans[j, ::2] for j in range(6)]
        assert_batch_matches_alone(
            monkeypatch, datasets, range(70, 76), ranges, [None] * 6, restarts=3, max_iter=50,
        )

    def test_one_dataset_in_a_list(self):
        data, span = st10_projections(1)[0]
        (listed,) = train_hyperparams([data], rng=[7], bounds_ranges=[span], max_iter=40)
        alone = train_hyperparams(data, rng=7, bounds_ranges=span, max_iter=40)
        assert listed.to_vector().tobytes() == alone.to_vector().tobytes()

    @pytest.mark.parametrize(
        "datasets, kwargs, error, message",
        [
            ([], {}, DimensionMismatch, "datasets of one shape"),
            (
                [Dataset(np.zeros((4, 2)) + np.arange(4)[:, None], np.arange(4.0)),
                 Dataset(np.zeros((5, 2)) + np.arange(5)[:, None], np.arange(5.0))],
                {}, DimensionMismatch, "datasets of one shape",
            ),
            (
                [Dataset(np.arange(8.0).reshape(4, 2), np.arange(4.0))] * 2,
                {"rng": [0]}, ValueError, "an entry per dataset",
            ),
        ],
        ids=["none", "two_shapes", "one_rng_for_two"],
    )
    def test_bad_lists_rejected(self, datasets, kwargs, error, message):
        with pytest.raises(error, match=message):
            train_hyperparams(datasets, **kwargs)


class TestTraining:
    def test_generate_and_recover_lengthscale(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(-5, 5, size=(40, 1))
        true = hyper(1, ls=1.0, sf2=1.0, sn2=1e-4)
        K = kernel_matrix(X, X, true) + 1e-4 * np.eye(40)
        Y = np.linalg.cholesky(K) @ rng.normal(size=40)
        trained = train_hyperparams(Dataset(X, Y), restarts=4, rng=0)
        ell = trained.lengthscales[0]
        assert 0.5 <= ell <= 2.0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(10)
        data, _ = random_instance(rng, n=10, d=2)
        a = train_hyperparams(data, restarts=1, rng=42)
        b = train_hyperparams(data, restarts=1, rng=42)
        c = train_hyperparams(data, restarts=1, rng=np.random.default_rng(42))
        assert np.array_equal(a.to_vector(), b.to_vector())
        assert np.array_equal(a.to_vector(), c.to_vector())

    def test_constant_targets(self):
        X = np.random.default_rng(11).uniform(-1, 1, size=(8, 2))
        data = Dataset(X, np.full(8, 2.0))
        trained = train_hyperparams(data, restarts=2, rng=1)
        model = gp_fit(data, trained)
        (mean,), _ = gp_predict(model, [[0.0, 0.0]])
        assert abs(mean - 2.0) < 1e-6
        assert trained.log_noise_variance >= math.log(1e-8) - 1e-12

    def test_non_finite_centred_targets_rejected(self):
        # Finite targets whose mean overflows are named, before any numpy warning.
        X = np.random.default_rng(12).uniform(-1, 1, size=(3, 2))
        data = Dataset(X, [1.7e308, 1.7e308, 0.0])
        message = re.escape("targets from 0 to 1.7e+308 cannot be centred: their mean overflows")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimschedError, match=message):
                gp_fit(data, hyper(2))
            with pytest.raises(DimschedError, match=message):
                train_hyperparams(data, restarts=1, rng=0)

    def test_never_below_best_start(self):
        rng = np.random.default_rng(12)
        for seed in range(5):
            data, _ = random_instance(rng, n=8, d=2)
            trained = train_hyperparams(data, restarts=3, rng=seed)
            lml_trained = log_marginal_likelihood(data, trained)
            # Rebuild the same starts the trainer saw.
            var_y = max(float(np.var(data.Y)), 1e-8)
            ranges = _coordinate_ranges(data)
            starts = _random_starts(np.random.default_rng(seed), ranges, var_y, 3)
            for theta in starts:
                start = KernelHyperparams.from_vector(theta)
                assert lml_trained >= log_marginal_likelihood(data, start) - 1e-9


    @pytest.mark.parametrize("setting", ["warn", "raise", "ignore"])
    def test_errstate_left_as_set(self, setting):
        # At the warm start alpha is about 1e160, so alpha alpha^T in its
        # gradient overflows: training rejects that gradient, and the
        # caller's floating-point settings neither see it nor change.
        rng = np.random.default_rng(27)
        data = Dataset(rng.uniform(-5.0, 5.0, size=(12, 2)), 1e30 * rng.normal(size=12))
        warm = KernelHyperparams(np.full(2, -3.0), -300.0, -300.0)
        with warnings.catch_warnings(), np.errstate(all=setting):
            warnings.simplefilter("error")
            before = np.geterr()
            trained = train_hyperparams(data, restarts=2, rng=0, warm_start=warm)
            assert np.geterr() == before
        with np.errstate(all="ignore"):
            expected = train_hyperparams(data, restarts=2, rng=0, warm_start=warm)
        assert np.array_equal(trained.to_vector(), expected.to_vector())

    def test_errstate_left_as_set_when_every_start_fails(self, monkeypatch):
        def fail(A):
            raise NotPositiveDefinite("no factor")

        monkeypatch.setattr(gp_module, "cholesky_spd", fail)
        data = styblinski_tang_data(np.random.default_rng(28), 10, 2)
        old = np.seterr(all="raise")
        try:
            trained = train_hyperparams(data, restarts=2, rng=0)
            assert np.geterr() == {k: "raise" for k in old}
        finally:
            np.seterr(**old)
        assert np.isfinite(trained.to_vector()).all()

    @pytest.mark.parametrize("n, d", [(25, 2), (80, 10)], ids=["dsa-like", "bo-like"])
    def test_no_matrix_factorized_twice(self, monkeypatch, n, d):
        # The LML and its gradient at a point share one factorization.
        calls = count_calls(monkeypatch, "cholesky_spd")
        rng = np.random.default_rng(25)
        X = rng.uniform(-5.0, 5.0, size=(n, d))
        Y = np.sum(X**4 - 16.0 * X**2 + 5.0 * X, axis=1) / 2.0
        train_hyperparams(Dataset(X, Y), restarts=3, rng=rng, max_iter=100)
        factorized = [args[0].tobytes() for args in calls]
        assert len(factorized) > 10
        assert len(set(factorized)) == len(factorized)

    @pytest.mark.parametrize(
        "n, warm_dim, message",
        [
            (1, None, "at least two observations"),
            (10, 3, "warm start dim 3 != data dim 2"),
        ],
        ids=["one_observation", "warm_start_of_wrong_dim"],
    )
    def test_bad_input_rejected(self, n, warm_dim, message):
        data = styblinski_tang_data(np.random.default_rng(31), n, 2)
        warm = None if warm_dim is None else hyper(warm_dim)
        with pytest.raises(DimensionMismatch, match=message):
            train_hyperparams(data, restarts=1, rng=0, warm_start=warm)

    @pytest.mark.parametrize("name", ["cholesky_spd", "chol_inverse_lower"])
    def test_one_failure_inside_the_ascent(self, monkeypatch, name):
        # The second call fails.  Of cholesky_spd, that is the factorization
        # of the first trial point of the line search, whose step is then cut
        # tenfold; of chol_inverse_lower (LAPACK's dpotri), the gradient after
        # the first step, which stops the ascent there.  Either way training
        # returns a point whose LML is no lower than its start's.
        calls = []
        original = getattr(gp_module, name)

        def fails_second_call(*args):
            calls.append(args)
            if len(calls) == 2:
                raise NotPositiveDefinite("injected")
            return original(*args)

        data = styblinski_tang_data(np.random.default_rng(36), 12, 2)
        var_y = float(np.var(data.Y))
        start = KernelHyperparams(
            np.log(np.ptp(data.X, axis=0)), math.log(var_y), math.log(1e-2 * var_y)
        )
        monkeypatch.setattr(gp_module, name, fails_second_call)
        trained = train_hyperparams(data, restarts=0, warm_start=start, max_iter=20)
        monkeypatch.undo()
        if name == "cholesky_spd":
            assert len(calls) > 2  # the line search went on after the failure
        else:
            assert len(calls) == 2  # no gradient after the failed one
        assert not np.array_equal(trained.to_vector(), start.to_vector())
        assert log_marginal_likelihood(data, trained) >= log_marginal_likelihood(data, start)

    def test_no_start_rejected(self):
        data = styblinski_tang_data(np.random.default_rng(32), 10, 2)
        with pytest.raises(ValueError, match="restarts=0"):
            train_hyperparams(data, restarts=0, rng=0)

    def test_bounds_ranges_of_wrong_length_rejected(self):
        data = styblinski_tang_data(np.random.default_rng(33), 10, 2)
        with pytest.raises(DimensionMismatch, match="3 bounds ranges for 2-d data"):
            train_hyperparams(data, restarts=1, rng=0, bounds_ranges=[1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_bounds_ranges_rejected(self, bad):
        data = styblinski_tang_data(np.random.default_rng(34), 10, 2)
        with pytest.raises(ValueError, match="bounds ranges must be finite"):
            train_hyperparams(data, restarts=1, rng=0, bounds_ranges=[1.0, bad])

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(max_iter=2.5), "max_iter must be an integer, got 2.5"),
            (dict(max_iter=-1), "max_iter must be >= 0, got -1"),
            (dict(restarts=1.5), "restarts must be an integer, got 1.5"),
            (dict(restarts=-1), "restarts must be >= 0, got -1"),
            (dict(bounds_ranges=[-1.0, 2.0]), "bounds range of coordinate 0 is negative: -1"),
            (dict(max_iter=True), "max_iter must be an integer, got True"),
            (dict(restarts=False), "restarts must be an integer, got False"),
        ],
        ids=["fractional_max_iter", "negative_max_iter", "fractional_restarts",
             "negative_restarts", "negative_bounds_range", "bool_max_iter", "bool_restarts"],
    )
    def test_argument_named_when_wrong(self, kwargs, message):
        # Each of these used to train: a max_iter of 2.5 or -1 without a
        # gradient cap, a negative range as its magnitude, and restarts=-1
        # from the warm start alone; restarts=1.5 raised range()'s TypeError.
        data = styblinski_tang_data(np.random.default_rng(41), 20, 2)
        warm = KernelHyperparams(np.zeros(2), 0.0, -2.0)
        with pytest.raises(ValueError, match=re.escape(message)):
            train_hyperparams(data, **{"rng": 0, "warm_start": warm, **kwargs})

    @pytest.mark.parametrize(
        "value, message", [(2.5, "an integer, got 2.5"), (-1, ">= 0, got -1")],
        ids=["fractional", "negative"],
    )
    def test_retrain_max_iter_named_when_wrong(self, value, message):
        data = styblinski_tang_data(np.random.default_rng(42), 12, 2)
        model = gp_fit(data, hyper(2))
        with pytest.raises(ValueError, match=re.escape(f"retrain_max_iter must be {message}")):
            gp_augment(model, [0.5, 0.5], 1.0, retrain=True, rng=0, retrain_max_iter=value)

    def test_trained_point_stays_in_its_box(self):
        # Starts far outside the box, duplicated rows, data ranges and given
        # ranges, including ranges of 0, which count as 1.
        rng = np.random.default_rng(35)
        for case in range(60):
            d = int(rng.integers(1, 11))
            n = int(rng.integers(2, 41))
            data = styblinski_tang_data(rng, n, d, duplicates=int(rng.integers(0, n // 2 + 1)))
            ranges = None
            if case % 2:
                ranges = np.where(rng.random(d) < 0.2, 0.0, rng.uniform(0.1, 20.0, size=d))
            warm = None
            if case % 3:
                magnitude = 10.0 ** rng.uniform(0.0, 3.0, size=d + 2)
                warm = KernelHyperparams.from_vector(rng.choice([-1.0, 1.0], d + 2) * magnitude)
            trained = train_hyperparams(
                data, restarts=int(rng.integers(1, 3)), rng=rng, bounds_ranges=ranges,
                max_iter=30, warm_start=warm,
            )
            lo, hi = training_box(data, _coordinate_ranges(data, ranges))
            theta = trained.to_vector()
            assert np.all(theta >= lo - 1e-12) and np.all(theta <= hi + 1e-12)

    def test_huge_targets_train_inside_the_box(self):
        # Targets of +-1e150 have variance 1e300: the noise floor
        # log(1e-8 var(Y)) = 672.4 lies above log sigma_n^2's upper bound of
        # 300, and is capped there, so the box is not empty.
        rng = np.random.default_rng(40)
        X = rng.uniform(-1.0, 1.0, size=(12, 3))
        data = Dataset(X, np.where(np.sin(7.0 * X.sum(axis=1)) > 0.0, 1e150, -1e150))
        lo, hi = training_box(data, _coordinate_ranges(data))
        assert lo[-1] == hi[-1] == 300.0
        for warm in (None, KernelHyperparams(np.zeros(3), 0.0, 0.0)):
            trained = train_hyperparams(data, restarts=2, rng=0, warm_start=warm, max_iter=30)
            theta = trained.to_vector()
            assert np.all((lo <= theta) & (theta <= hi))
            assert trained.log_noise_variance == 300.0

    def test_matches_lbfgsb_in_the_box(self, trained_spawns):
        # scipy.optimize only here: importing it would add to every run's setup.
        from scipy.optimize import minimize

        def neg_lml(theta, data):
            h = KernelHyperparams.from_vector(theta)
            with np.errstate(all="ignore"):
                return -log_marginal_likelihood(data, h), -lml_gradient(data, h)

        diffs = []
        for data, seed, trained in trained_spawns:
            lo, hi = training_box(data, SPAWN_RANGES)
            rng = np.random.default_rng(seed)
            var_y = max(float(np.var(data.Y)), 1e-8)
            best = -np.inf
            # The trainer's starts, projected on the box.
            for start in np.clip(_random_starts(rng, SPAWN_RANGES, var_y, 3), lo, hi):
                result = minimize(
                    neg_lml, start, args=(data,), jac=True, method="L-BFGS-B",
                    bounds=list(zip(lo, hi)), options={"maxiter": 100},
                )
                best = max(best, -float(result.fun))
            diffs.append(log_marginal_likelihood(data, trained) - best)
        diffs = np.array(diffs)
        assert np.sum(diffs >= -0.01) >= 30
        assert np.median(diffs) >= -0.01

    def test_no_lengthscale_below_a_hundredth_of_the_range(self, trained_spawns):
        for _, _, trained in trained_spawns:
            assert np.all(trained.log_lengthscales >= np.log(1e-2 * SPAWN_RANGES) - 1e-12)

    def test_bo_retrain_fits_per_gradient(self, monkeypatch):
        # A retrain's full steps pass: at most 1.3 fits per gradient, counting
        # the fit at each start.  A call fits or differentiates a stack of
        # starts, so its rows are counted.
        rng = np.random.default_rng(36)
        data = styblinski_tang_data(rng, 120, 10)
        head = Dataset(data.X[:110], data.Y[:110])
        warm = train_hyperparams(head, restarts=1, rng=rng, max_iter=20)
        fits = count_calls(monkeypatch, "_fit")
        gradients = count_calls(monkeypatch, "_lml_gradient")
        train_hyperparams(data, restarts=1, rng=rng, warm_start=warm, max_iter=20)
        fitted = sum(len(thetas) for _, _, thetas in fits)
        differentiated = sum(len(rows) for _, _, rows in gradients)
        assert differentiated >= 20
        assert fitted <= 1.3 * differentiated


class TestAugment:
    def test_interpolates_new_point(self):
        rng = np.random.default_rng(13)
        data, _ = random_instance(rng, n=6, d=2)
        model = gp_fit(data, hyper(2, sn2=1e-8))
        x_new = np.array([0.3, -0.4])
        model2 = gp_augment(model, x_new, 5.0, retrain=False)
        (mean,), _ = gp_predict(model2, x_new[None, :])
        assert abs(mean - 5.0) < 1e-2

    def test_size_grows_by_one(self):
        data = Dataset([[0.0], [1.0]], [0.0, 1.0])
        model = gp_fit(data, hyper(1))
        model2 = gp_augment(model, [2.0], 2.0, retrain=False)
        assert model2.n == model.n + 1
        assert model.n == 2  # original untouched

    def test_no_retrain_keeps_hyper(self):
        data = Dataset([[0.0], [1.0]], [0.0, 1.0])
        model = gp_fit(data, hyper(1))
        model2 = gp_augment(model, [2.0], 2.0, retrain=False)
        assert np.array_equal(model.hyper.to_vector(), model2.hyper.to_vector())

    def test_append_matches_refit(self, monkeypatch):
        # The grown factor and a refit factor the same matrix, so they agree
        # to within the conditioning of that matrix.  Growing it never calls
        # cholesky_spd.
        calls = count_calls(monkeypatch, "cholesky_spd")
        eps = np.finfo(float).eps
        rng = np.random.default_rng(23)
        for case in range(120):
            n = int(rng.integers(1, 61))
            d = int(rng.integers(1, 11))
            X = rng.uniform(-2.0, 2.0, size=(n, d))
            log_sf2 = float(rng.uniform(-3.0, 3.0))
            h = KernelHyperparams(
                log_lengthscales=rng.uniform(-30.0, 15.0, size=d) if case % 2
                else rng.uniform(-1.0, 2.0, size=d),
                log_signal_variance=log_sf2,
                log_noise_variance=log_sf2 + float(rng.uniform(-25.0, -2.0)),
            )
            model = gp_fit(Dataset(X, rng.normal(size=n)), h)
            x_new = X[int(rng.integers(n))] if case % 3 == 0 else rng.uniform(-2.0, 2.0, size=d)
            y_new = float(rng.normal())
            calls.clear()
            grown = gp_augment(model, x_new, y_new, retrain=False)
            assert calls == []
            refit = gp_fit(model.data.append(x_new, y_new), h)
            assert grown.factor.jitter_used == refit.factor.jitter_used
            assert grown.mean_shift == refit.mean_shift
            tol = 8.0 * eps * np.linalg.cond(refit.factor.L @ refit.factor.L.T)
            alpha_norm = np.linalg.norm(refit.alpha)
            assert np.linalg.norm(grown.alpha - refit.alpha) <= tol * alpha_norm
            X_star = rng.uniform(-2.0, 2.0, size=(5, d))
            k_norms = np.linalg.norm(kernel_matrix(X_star, refit.data.X, h), axis=1)
            mean_g, var_g = gp_predict(grown, X_star)
            mean_r, var_r = gp_predict(refit, X_star)
            assert np.all(np.abs(mean_g - mean_r) <= tol * k_norms * alpha_norm)
            assert np.all(np.abs(var_g - var_r) <= tol * h.signal_variance)

    def test_duplicate_point_falls_back_to_refit(self, monkeypatch):
        # Tiny lengthscales make k(X, X) the identity, and the noise is below
        # rounding, so a repeated training point gives a zero pivot.  The
        # refit that follows needs the jitter ladder.
        calls = count_calls(monkeypatch, "cholesky_spd")
        rng = np.random.default_rng(24)
        for _ in range(20):
            n = int(rng.integers(1, 61))
            d = int(rng.integers(1, 11))
            X = rng.uniform(-2.0, 2.0, size=(n, d))
            h = hyper(d, ls=1e-9, sn2=1e-20)
            model = gp_fit(Dataset(X, rng.normal(size=n)), h)
            assert model.factor.jitter_used == 0.0
            x_dup, y_new = X[int(rng.integers(n))], float(rng.normal())
            calls.clear()
            grown = gp_augment(model, x_dup, y_new, retrain=False)
            assert len(calls) == 1
            refit = gp_fit(model.data.append(x_dup, y_new), h)
            assert refit.factor.jitter_used > 0.0
            assert grown.factor.jitter_used == refit.factor.jitter_used
            assert np.array_equal(grown.factor.L, refit.factor.L)
            assert np.array_equal(grown.alpha, refit.alpha)
            assert grown.mean_shift == refit.mean_shift
