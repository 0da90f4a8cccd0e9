import math

import numpy as np

from dimsched.acquisition import (
    AcquisitionContext,
    acquisition_objective,
    expected_improvement,
)
from dimsched.gp import Dataset, KernelHyperparams, gp_fit
from dimsched.linalg import std_normal_cdf, std_normal_pdf


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


def toy_context(y_shift=0.0, y_best=None):
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, size=(8, 2))
    Y = rng.normal(size=8) + y_shift
    hyper = KernelHyperparams(np.zeros(2), 0.0, math.log(1e-2))
    model = gp_fit(Dataset(X, Y), hyper)
    return AcquisitionContext(model=model, y_best=float(Y.min()) if y_best is None else y_best)


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
        ctx = toy_context()
        rng = np.random.default_rng(2)
        for _ in range(500):
            x = rng.uniform(-3, 3, size=2)
            assert expected_improvement(ctx, x) >= 0.0

    def test_objective_is_negation(self):
        ctx = toy_context()
        neg = acquisition_objective(ctx)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.uniform(-2, 2, size=2)
            assert neg(x) == -expected_improvement(ctx, x)
        # On a matrix, row by row: the values of the scalar calls.
        X = rng.uniform(-2, 2, size=(50, 2))
        np.testing.assert_allclose(
            neg(X), [-expected_improvement(ctx, x) for x in X], rtol=1e-12, atol=1e-15
        )

    def test_argmin_matches_argmax_on_grid(self):
        ctx = toy_context()
        neg = acquisition_objective(ctx)
        grid = [np.array([a, b]) for a in np.linspace(-1, 1, 9) for b in np.linspace(-1, 1, 9)]
        ei_vals = [expected_improvement(ctx, x) for x in grid]
        neg_vals = [neg(x) for x in grid]
        assert int(np.argmax(ei_vals)) == int(np.argmin(neg_vals))

    def test_flat_landscape_direct_terminates(self):
        from dimsched.direct import Bounds, DirectConfig, direct_minimize

        # Single-point model far from the search box: near-flat EI surface.
        hyper = KernelHyperparams(np.zeros(2), 0.0, math.log(1e-2))
        model = gp_fit(Dataset([[100.0, 100.0]], [0.0]), hyper)
        ctx = AcquisitionContext(model=model, y_best=0.0)
        _, _, evals = direct_minimize(
            acquisition_objective(ctx),
            Bounds([0.0, 0.0], [1.0, 1.0]),
            DirectConfig(max_evals=200, max_iters=50),
        )
        assert evals <= 200
