import math
from functools import partial

import numpy as np
import pytest

from dimsched import acquisition
from dimsched.acquisition import acquisition_objective, expected_improvement
from dimsched.errors import DimensionMismatch
from dimsched.gp import Dataset, KernelHyperparams, gp_fit, gp_predict
from test_linalg import std_normal_cdf, std_normal_pdf


def closed_form(mu, sigma, y_best):
    if sigma < 1e-12:
        return max(y_best - mu, 0.0)
    z = (y_best - mu) / sigma
    return (y_best - mu) * std_normal_cdf(z) + sigma * std_normal_pdf(z)


def mc_improvement(mu, sigma, y_best, rng, n=1_000_000):
    """Monte-Carlo oracle with antithetic pairs."""
    z = rng.normal(size=n // 2)
    samples = np.concatenate([mu + sigma * z, mu - sigma * z])
    return float(np.mean(np.maximum(y_best - samples, 0.0)))


def toy_model():
    """A GP on 8 points in 2-d, and its best observed value."""
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, size=(8, 2))
    Y = rng.normal(size=8)
    hyper = KernelHyperparams(np.zeros(2), 0.0, math.log(1e-2))
    return gp_fit(Dataset(X, Y), hyper), float(Y.min())


def where_ei(model, y_best, X):
    """EI with both np.where passes taken on every call."""
    mu, var = gp_predict(model, X)
    sigma = np.sqrt(var)
    gap = y_best - mu
    flat = sigma < 1e-12
    z = gap / np.where(flat, 1.0, sigma)
    ei = np.where(flat, gap, gap * std_normal_cdf(z) + sigma * std_normal_pdf(z))
    np.maximum(ei, 0.0, out=ei)
    return ei


class TestBits:
    def test_matches_where_formula(self):
        # Lengthscales far below the spacing of the points and sigma_f^2 = 1
        # make the posterior variance exactly 0 on a training point.
        rng = np.random.default_rng(4)
        for case in range(60):
            d = int(rng.integers(1, 11))
            X = rng.uniform(-1, 1, size=(int(rng.integers(1, 15)), d))
            Y = rng.normal(size=X.shape[0])
            log_ls = np.full(d, -12.0) if case % 2 else rng.uniform(-1.0, 1.0, size=d)
            hyper = KernelHyperparams(log_ls, 0.0 if case % 2 else float(rng.uniform(-1, 1)), -70.0)
            model, y_best = gp_fit(Dataset(X, Y), hyper), float(rng.normal())
            probes = np.vstack([rng.uniform(-1, 1, size=(int(rng.integers(1, 25)), d)), X[:3]])
            if case % 2:
                assert (np.sqrt(gp_predict(model, probes)[1]) < 1e-12).any()
            for x in (probes, probes[:-3], probes[:1], probes[-1:]):  # one-row matrices last
                got = expected_improvement(model, y_best, x)
                assert got.tobytes() == where_ei(model, y_best, x).tobytes()

    def test_matches_where_formula_at_bo_sizes(self):
        # BO's one full-space GP: d=10, up to 220 points, about 21 probes a call.
        rng = np.random.default_rng(6)
        for n in (60, 120, 220):
            X = rng.uniform(-5, 5, size=(n, 10))
            Y = rng.normal(size=n)
            hyper = KernelHyperparams(rng.uniform(0.5, 2.5, size=10), float(rng.uniform(-1, 1)), -8.0)
            model, y_best = gp_fit(Dataset(X, Y), hyper), float(Y.min())
            for m in (1, 2, 5, 21, 25):
                x = np.vstack([rng.uniform(-5, 5, size=(m - 1, 10)), X[:1]])
                got = expected_improvement(model, y_best, x)
                assert got.tobytes() == where_ei(model, y_best, x).tobytes()

    def test_negative_zero_gap_at_a_flat_point_gives_positive_zero(self):
        # All-zero targets give mu = +0.0, so y_best = -0.0 makes the gap
        # -0.0; on a training point the lengthscales and noise of
        # test_matches_where_formula make sigma exactly 0.  np.maximum turns
        # the sigma -> 0 limit's -0.0 into +0.0.
        X = np.random.default_rng(7).uniform(-1, 1, size=(5, 2))
        hyper = KernelHyperparams(np.full(2, -12.0), 0.0, -70.0)
        model = gp_fit(Dataset(X, np.zeros(5)), hyper)
        mu, var = gp_predict(model, X)
        assert mu.tobytes() == np.zeros(5).tobytes() and not var.any()
        probes = np.vstack([X, [[2.0, 2.0]]])  # and one point far from the data
        got = expected_improvement(model, -0.0, probes)
        assert got[:5].tobytes() == np.zeros(5).tobytes() and got[5] > 0.0
        assert got.tobytes() == where_ei(model, -0.0, probes).tobytes()

    def test_no_points_give_an_empty_array(self):
        model, y_best = toy_model()
        for ei in (partial(expected_improvement, model, y_best), acquisition_objective(model, y_best)):
            got = ei(np.zeros((0, 2)))
            assert got.dtype == np.float64 and got.shape == (0,)

    def test_reaches_gp_predict_through_the_module(self, monkeypatch):
        # perfbench's layer trace wraps acquisition.gp_predict by name.
        calls = []
        original = acquisition.gp_predict

        def counted(model, x):
            calls.append(x.shape)
            return original(model, x)

        monkeypatch.setattr(acquisition, "gp_predict", counted)
        model, y_best = toy_model()
        expected_improvement(model, y_best, np.zeros((1, 2)))
        expected_improvement(model, y_best, np.zeros((3, 2)))
        assert calls == [(1, 2), (3, 2)]


class TestClosedForm:
    def test_at_incumbent_mean(self):
        # mu == y_best, sigma = 1 -> EI = pdf(0)
        assert abs(closed_form(0.0, 1.0, 0.0) - 0.3989422804014327) < 1e-12

    def test_degenerate_no_improvement(self):
        assert closed_form(1.0, 0.0, 0.0) == 0.0

    def test_degenerate_certain_improvement(self):
        assert closed_form(-1.0, 0.0, 0.0) == 1.0

    def test_monte_carlo_small(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            mu = rng.uniform(-1, 1)
            sigma = rng.uniform(0.05, 1.0)
            y_best = rng.uniform(-1, 1)
            assert abs(
                closed_form(mu, sigma, y_best) - mc_improvement(mu, sigma, y_best, rng)
            ) < 2e-3

    def test_monotone_in_sigma(self):
        mu, y_best = 0.5, 0.0
        vals = [closed_form(mu, s, y_best) for s in np.linspace(0.05, 3.0, 50)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestOnGp:
    def test_always_nonnegative(self):
        model, y_best = toy_model()
        rng = np.random.default_rng(2)
        for _ in range(500):
            x = rng.uniform(-3, 3, size=2)
            assert expected_improvement(model, y_best, x[None, :])[0] >= 0.0

    def test_objective_is_negation(self):
        model, y_best = toy_model()
        neg = acquisition_objective(model, y_best)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.uniform(-2, 2, size=2)
            assert neg(x[None, :])[0] == -expected_improvement(model, y_best, x[None, :])[0]
        # On a matrix, row by row: the values of the one-row calls.
        X = rng.uniform(-2, 2, size=(50, 2))
        np.testing.assert_allclose(
            neg(X), [-expected_improvement(model, y_best, x[None, :])[0] for x in X],
            rtol=1e-12, atol=1e-15,
        )

    def test_argmin_matches_argmax_on_grid(self):
        model, y_best = toy_model()
        neg = acquisition_objective(model, y_best)
        grid = [np.array([a, b]) for a in np.linspace(-1, 1, 9) for b in np.linspace(-1, 1, 9)]
        ei_vals = [expected_improvement(model, y_best, x[None, :])[0] for x in grid]
        neg_vals = [neg(x[None, :])[0] for x in grid]
        assert int(np.argmax(ei_vals)) == int(np.argmin(neg_vals))

    def test_point_rejected_naming_its_shape(self):
        model, y_best = toy_model()
        ei_forms = (partial(expected_improvement, model, y_best), acquisition_objective(model, y_best))
        for ei in ei_forms:
            with pytest.raises(DimensionMismatch, match=r"shape \(2,\) for a 2-d model"):
                ei(np.zeros(2))

    def test_flat_landscape_direct_terminates(self):
        from dimsched.direct import Bounds, DirectConfig, direct_minimize

        # Single-point model far from the search box: near-flat EI surface.
        hyper = KernelHyperparams(np.zeros(2), 0.0, math.log(1e-2))
        model = gp_fit(Dataset([[100.0, 100.0]], [0.0]), hyper)
        _, _, evals = direct_minimize(
            acquisition_objective(model, 0.0),
            Bounds([0.0, 0.0], [1.0, 1.0]),
            DirectConfig(max_evals=200, max_iters=50),
        )
        assert evals <= 200
