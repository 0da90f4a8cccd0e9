import math

import numpy as np
import pytest

from dimsched.errors import ChannelMismatch
from dimsched.objectives import (
    OdeProblem,
    TimeSeriesData,
    benchmark_catalog,
    lotka_volterra_problem,
    make_lotka_volterra_objective,
    rk4_integrate,
    weighted_sse,
)


def evaluate(name, x):
    return benchmark_catalog()[name].evaluator(np.asarray(x, dtype=float))


class TestBenchmarks:
    def test_sphere_origin(self):
        assert evaluate("sphere-10", np.zeros(10)) == 0.0

    def test_rosenbrock_ones(self):
        assert evaluate("rosenbrock-11", np.ones(11)) == 0.0

    def test_ackley_origin(self):
        # Both exponential terms cancel exactly at the origin.
        for d in (2, 10, 12):
            assert abs(evaluate(f"ackley-{d}", np.zeros(d))) < 1e-12

    def test_styblinski_tang_minimum(self):
        x = np.full(10, -2.903534)
        assert abs(evaluate("styblinski_tang-10", x) - (-39.16616570377142 * 10)) < 1e-3

    def test_additive_optimum(self):
        x = np.concatenate([np.zeros(5), np.ones(5)])
        assert evaluate("additive_sphere_rosenbrock-10", x) == 0.0

    def test_catalog_dimensions_and_finiteness(self):
        catalog = benchmark_catalog()
        assert {10, 11, 12} <= {s.dimension for s in catalog.values()}
        rng = np.random.default_rng(0)
        for spec in catalog.values():
            for _ in range(50):
                x = rng.uniform(spec.bounds.lower, spec.bounds.upper)
                assert math.isfinite(spec.evaluator(x))


class TestRk4:
    def test_zero_rhs_constant(self):
        problem = OdeProblem(
            state_dim=2,
            rhs=lambda t, s, p: np.zeros(2),
            y0=[1.0, -2.0],
            param_bounds=lotka_volterra_problem().param_bounds,
        )
        out = rk4_integrate(problem, [0.0], np.linspace(0, 1, 5))
        for _, vals in out.channels:
            assert np.allclose(vals, vals[0])

    def exp_decay_problem(self):
        return OdeProblem(
            state_dim=1,
            rhs=lambda t, s, p: -s,
            y0=[1.0],
            param_bounds=lotka_volterra_problem().param_bounds,
        )

    def test_exponential_decay(self):
        out = rk4_integrate(self.exp_decay_problem(), [0.0], np.linspace(0, 1, 11))
        assert abs(out.channels[0][1][-1] - math.exp(-1.0)) < 1e-8

    def test_step_refinement_stability(self):
        problem = lotka_volterra_problem()
        times = np.linspace(0, 10, 25)
        coarse = rk4_integrate(problem, [1.5, 1.0, 3.0, 1.0], times)
        fine_times = np.linspace(0, 10, 49)  # halves the internal step
        fine = rk4_integrate(problem, [1.5, 1.0, 3.0, 1.0], fine_times)
        # With the fixed internal step of min(dt)/20 the halving residual
        # sits around 1e-6 on this oscillatory system; the order-4
        # convergence test below pins the integrator's accuracy.
        assert np.allclose(coarse.channels[0][1], fine.channels[0][1][::2], atol=1e-5)

    def test_fourth_order_convergence(self):
        # Error on y' = -y over [0,1] should shrink as O(h^4).
        def solve_with_points(n_points):
            times = np.linspace(0, 1, n_points)
            out = rk4_integrate(self.exp_decay_problem(), [0.0], times)
            return abs(out.channels[0][1][-1] - math.exp(-1.0))

        # Internal step is dt/20, so doubling the grid halves h.
        errs = [solve_with_points(n) for n in (3, 5, 9)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(o >= 3.8 for o in orders)


class TestWeightedSse:
    def make_series(self, values_by_channel, times=None):
        times = np.arange(len(next(iter(values_by_channel.values())))) if times is None else times
        return TimeSeriesData(
            times=times,
            channels=tuple((k, np.asarray(v, float)) for k, v in values_by_channel.items()),
        )

    def test_perfect_fit(self):
        data = self.make_series({"a": [1.0, 2.0, 3.0]})
        assert weighted_sse(data, data) == 0.0

    def test_constant_offset(self):
        c = 4.0
        data = self.make_series({"a": [c, c, c, c, c]})
        sim = self.make_series({"a": [2 * c] * 5})
        # sum_t c^2 / c^2 = number of time points
        assert abs(weighted_sse(sim, data) - 5.0) < 1e-12

    def test_joint_scaling_invariance(self):
        data = self.make_series({"a": [1.0, 2.0, 3.0]})
        sim = self.make_series({"a": [1.5, 2.5, 2.0]})
        base = weighted_sse(sim, data)
        alpha = 7.0
        data2 = self.make_series({"a": [alpha, 2 * alpha, 3 * alpha]})
        sim2 = self.make_series({"a": [1.5 * alpha, 2.5 * alpha, 2.0 * alpha]})
        assert abs(weighted_sse(sim2, data2) - base) < 1e-12

    def test_channel_mismatch(self):
        a = self.make_series({"a": [1.0, 2.0]})
        b = self.make_series({"b": [1.0, 2.0]})
        with pytest.raises(ChannelMismatch):
            weighted_sse(a, b)

    def test_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(1)
        data = self.make_series({"a": rng.uniform(1, 2, 6)})
        sim = self.make_series({"a": rng.uniform(1, 2, 6)})
        assert weighted_sse(sim, data) > 0.0


class TestLotkaVolterra:
    def test_ground_truth_zero_noise_free(self):
        spec = make_lotka_volterra_objective(seed=0, noise_std=0.0)
        assert spec.evaluator(np.array([1.5, 1.0, 3.0, 1.0])) < 1e-10

    def test_ground_truth_beats_random_probes(self):
        spec = make_lotka_volterra_objective(seed=0, noise_std=0.0)
        truth_val = spec.evaluator(np.array([1.5, 1.0, 3.0, 1.0]))
        rng = np.random.default_rng(2)
        for _ in range(1000):
            x = rng.uniform(spec.bounds.lower, spec.bounds.upper)
            assert spec.evaluator(x) >= truth_val

    def test_noisy_truth_positive(self):
        spec = make_lotka_volterra_objective(seed=0, noise_std=0.5)
        assert spec.evaluator(np.array([1.5, 1.0, 3.0, 1.0])) > 0.0
