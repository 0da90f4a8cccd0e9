import math
import warnings

import numpy as np
import pytest

from dimsched.errors import DimensionMismatch, NonFiniteState
from dimsched.objectives import (
    _LV_TRUE_PARAMS,
    _LV_Y0,
    _lv_rhs,
    benchmark_catalog,
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
        out = rk4_integrate(lambda t, s, p: np.zeros(2), [1.0, -2.0], [0.0], np.linspace(0, 1, 5))
        assert out.shape == (5, 2)
        assert np.all(out == [1.0, -2.0])

    def decay(self, times):
        return rk4_integrate(lambda t, s, p: -s, [1.0], [0.0], times)

    def test_exponential_decay(self):
        out = self.decay(np.linspace(0, 1, 11))
        assert abs(out[-1, 0] - math.exp(-1.0)) < 1e-8

    def test_step_refinement_stability(self):
        coarse = rk4_integrate(_lv_rhs, _LV_Y0, _LV_TRUE_PARAMS, np.linspace(0, 10, 25))
        fine_times = np.linspace(0, 10, 49)  # halves the internal step
        fine = rk4_integrate(_lv_rhs, _LV_Y0, _LV_TRUE_PARAMS, fine_times)
        # With the fixed internal step of min(dt)/20 the halving residual
        # sits around 1e-6 on this oscillatory system; the order-4
        # convergence test below pins the integrator's accuracy.
        assert np.allclose(coarse[:, 0], fine[::2, 0], atol=1e-5)

    def test_fourth_order_convergence(self):
        # Error on y' = -y over [0,1] should shrink as O(h^4).
        def solve_with_points(n_points):
            return abs(self.decay(np.linspace(0, 1, n_points))[-1, 0] - math.exp(-1.0))

        # Internal step is dt/20, so doubling the grid halves h.
        errs = [solve_with_points(n) for n in (3, 5, 9)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(o >= 3.8 for o in orders)

    def test_blow_up_raises_without_numpy_warning(self):
        # The state overflows inside an RK4 stage before it turns non-finite.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState) as info:
                rk4_integrate(_lv_rhs, _LV_Y0, [4.0, -0.2, 4.8, -0.3], np.linspace(0, 10, 25))
        assert 0.0 < info.value.fraction_completed < 1.0

    @pytest.mark.parametrize(
        "times, message",
        [
            ([0.0], "at least two"),
            ([0.0, 0.0, 1.0], "strictly increasing"),
            ([1.0, 0.5], "strictly increasing"),
            ([0.0, 1.0, 1.0], "strictly increasing"),
        ],
        ids=["single", "repeated_start", "decreasing", "repeated_end"],
    )
    def test_bad_time_grid_rejected_before_integrating(self, times, message):
        calls = []

        def rhs(t, s, p):
            calls.append(t)
            return -s

        with pytest.raises(DimensionMismatch, match=message):
            rk4_integrate(rhs, [1.0], [0.0], times)
        assert calls == []


class TestWeightedSse:
    def column(self, values):
        return np.asarray(values, dtype=float).reshape(-1, 1)

    def test_perfect_fit(self):
        data = self.column([1.0, 2.0, 3.0])
        assert weighted_sse(data, data) == 0.0

    def test_constant_offset(self):
        c = 4.0
        data = self.column([c] * 5)
        sim = self.column([2 * c] * 5)
        # sum_t c^2 / c^2 = number of time points
        assert abs(weighted_sse(sim, data) - 5.0) < 1e-12

    def test_joint_scaling_invariance(self):
        data = self.column([1.0, 2.0, 3.0])
        sim = self.column([1.5, 2.5, 2.0])
        base = weighted_sse(sim, data)
        alpha = 7.0
        assert abs(weighted_sse(alpha * sim, alpha * data) - base) < 1e-12

    def test_columns_weighted_by_own_mean(self):
        # A 10% offset costs 0.01 per time point in each column, whatever
        # the column's magnitude.
        data = np.column_stack([np.full(4, 2.0), np.full(4, 300.0)])
        assert abs(weighted_sse(1.1 * data, data) - 8 * 0.01) < 1e-12

    def test_channel_mismatch(self):
        a = np.ones((2, 1))
        b = np.ones((2, 2))
        with pytest.raises(DimensionMismatch, match=r"\(2, 1\).*\(2, 2\)"):
            weighted_sse(a, b)
        with pytest.raises(DimensionMismatch):
            weighted_sse(np.ones((3, 2)), b)
        with pytest.raises(DimensionMismatch):
            weighted_sse(np.ones(2), np.ones(2))

    def test_overflow_is_inf_without_warning(self):
        data = self.column([1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert weighted_sse(self.column([1e200, 1.0]), data) == math.inf

    def test_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(1)
        data = self.column(rng.uniform(1, 2, 6))
        sim = self.column(rng.uniform(1, 2, 6))
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

    def test_overflowing_misfit_is_end_of_horizon_penalty(self):
        # Outside the box, this trajectory stays finite but its misfit
        # overflows; it ranks as a blow-up at the end of the horizon.
        spec = make_lotka_volterra_objective(seed=0, noise_std=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spec.evaluator(np.array([0.1, -0.0, 2.7, 5.7])) == 1e9 + 1.0

    def test_noisy_truth_positive(self):
        spec = make_lotka_volterra_objective(seed=0, noise_std=0.5)
        assert spec.evaluator(np.array([1.5, 1.0, 3.0, 1.0])) > 0.0


# The objective layer's outputs, recorded at the commit before the ODE fit
# moved to plain arrays.  Criterion 8 and the bench digests rest on these
# bits, so any change to them must be deliberate.
# name: (dimension, lower bound, upper bound, known optimum); every
# coordinate has the same bounds.
CATALOG_LISTING = {
    "sphere-2": (2, -5.12, 5.12, 0.0),
    "sphere-4": (4, -5.12, 5.12, 0.0),
    "sphere-10": (10, -5.12, 5.12, 0.0),
    "sphere-11": (11, -5.12, 5.12, 0.0),
    "sphere-12": (12, -5.12, 5.12, 0.0),
    "rosenbrock-2": (2, -2.048, 2.048, 0.0),
    "rosenbrock-4": (4, -2.048, 2.048, 0.0),
    "rosenbrock-10": (10, -2.048, 2.048, 0.0),
    "rosenbrock-11": (11, -2.048, 2.048, 0.0),
    "rosenbrock-12": (12, -2.048, 2.048, 0.0),
    "ackley-2": (2, -32.768, 32.768, 0.0),
    "ackley-4": (4, -32.768, 32.768, 0.0),
    "ackley-10": (10, -32.768, 32.768, 0.0),
    "ackley-11": (11, -32.768, 32.768, 0.0),
    "ackley-12": (12, -32.768, 32.768, 0.0),
    "styblinski_tang-2": (2, -5.0, 5.0, -78.33233140754284),
    "styblinski_tang-4": (4, -5.0, 5.0, -156.66466281508568),
    "styblinski_tang-10": (10, -5.0, 5.0, -391.6616570377142),
    "styblinski_tang-11": (11, -5.0, 5.0, -430.8278227414856),
    "styblinski_tang-12": (12, -5.0, 5.0, -469.99398844525706),
    "additive_sphere_rosenbrock-4": (4, -2.048, 2.048, 0.0),
    "additive_sphere_rosenbrock-10": (10, -2.048, 2.048, 0.0),
    "additive_sphere_rosenbrock-11": (11, -2.048, 2.048, 0.0),
    "additive_sphere_rosenbrock-12": (12, -2.048, 2.048, 0.0),
    "lotka_volterra": (4, 0.1, 5.0, 0.0),
}

# float.hex of each objective at the four points of _pin_points.  The two
# Lotka-Volterra rows (the noise-free and the noise_std=0.5 objective) also
# hold the truth first and the two _LV_BLOWUPS penalties last.
PINNED_VALUES = {
    "sphere-2": (
        "0x1.82af35d66a592p+2",
        "0x1.e1b7eda0e4580p+4",
        "0x1.f21acef8a364cp+3",
        "0x1.1a9c5e8405bc0p+4",
    ),
    "sphere-10": (
        "0x1.298c5cf20056fp+6",
        "0x1.41e8959762486p+5",
        "0x1.bed46e01f8402p+6",
        "0x1.2a469b3d852a4p+6",
    ),
    "rosenbrock-2": (
        "0x1.3bbae530f55c3p-2",
        "0x1.7d0afd48d50d1p+10",
        "0x1.bc48db2f285d9p+6",
        "0x1.60d24fbef5f90p+9",
    ),
    "rosenbrock-10": (
        "0x1.09c379663ebb0p+12",
        "0x1.f10e2b978efd6p+10",
        "0x1.5f19792b9b2f3p+12",
        "0x1.5ada38c588ac9p+11",
    ),
    "ackley-2": (
        "0x1.3bac44ab7b7c0p+4",
        "0x1.5f2e5f78d696bp+4",
        "0x1.4133adb5a5f80p+4",
        "0x1.5e56833214fb3p+4",
    ),
    "ackley-10": (
        "0x1.52a19e0b86575p+4",
        "0x1.3e876b2d4ee3cp+4",
        "0x1.54917244e1009p+4",
        "0x1.50adb9339da14p+4",
    ),
    "styblinski_tang-2": (
        "-0x1.ca30ddc0c62cap+4",
        "-0x1.51beb75c358edp+5",
        "-0x1.9485deb41f3e8p+4",
        "-0x1.386b26bbe6e6ap+6",
    ),
    "styblinski_tang-10": (
        "-0x1.89895d0c0a573p+7",
        "-0x1.9535c2807815cp+6",
        "0x1.3834efa8ec6b3p+6",
        "-0x1.6d19e911ee1ccp+6",
    ),
    "additive_sphere_rosenbrock-4": (
        "0x1.7d48dbe0ce65cp+10",
        "0x1.621119392eb38p+9",
        "0x1.c934f05daa1d8p+5",
        "0x1.05fd973cb01b1p+7",
    ),
    "additive_sphere_rosenbrock-10": (
        "0x1.dfe0cc6ed846ep+10",
        "0x1.c8e722b2e97a8p+6",
        "0x1.91ac1cf69ad18p+10",
        "0x1.48ea310b74d10p+10",
    ),
    "lotka_volterra noise_std=0.0": (
        "0x0.0p+0",
        "0x1.3fd5cb798616ap+5",
        "0x1.7dbee21741af0p+5",
        "0x1.0a6f41f719ffcp+5",
        "0x1.989cd7520546ap+5",
        "0x1.dcd650001c71cp+29",
        "0x1.dcd6500065966p+29",
    ),
    "lotka_volterra noise_std=0.5": (
        "0x1.32e1673c613cfp+1",
        "0x1.66df7faa4cbf6p+5",
        "0x1.a2b77a6e1f650p+5",
        "0x1.f48aa9d3e15f8p+4",
        "0x1.c1aef7fb738f0p+5",
        "0x1.dcd650001c71cp+29",
        "0x1.dcd6500065966p+29",
    ),
}

# Two parameter vectors, outside the box, whose trajectories blow up.
_LV_BLOWUPS = [[100.0, 0.1, 0.1, 0.1], [5.0, 5.0, -5.0, 5.0]]


def _pin_points(spec):
    return np.random.default_rng(23).uniform(
        spec.bounds.lower, spec.bounds.upper, size=(4, spec.dimension)
    )


class TestPinned:
    def test_catalog_listing(self):
        catalog = benchmark_catalog()
        assert list(catalog) == list(CATALOG_LISTING)
        for name, (d, lo, hi, optimum) in CATALOG_LISTING.items():
            spec = catalog[name]
            assert spec.name == name
            assert spec.dimension == spec.bounds.d == d
            assert np.all(spec.bounds.lower == lo) and np.all(spec.bounds.upper == hi)
            assert spec.known_optimum == optimum

    @pytest.mark.parametrize("name", list(PINNED_VALUES))
    def test_values(self, name):
        if name.startswith("lotka_volterra"):
            noise_std = float(name.rpartition("=")[2])
            spec = make_lotka_volterra_objective(seed=0, noise_std=noise_std)
            points = np.vstack([_LV_TRUE_PARAMS, _pin_points(spec), _LV_BLOWUPS])
        else:
            spec = benchmark_catalog()[name]
            points = _pin_points(spec)
        got = tuple(float.hex(float(spec.evaluator(x))) for x in points)
        assert got == PINNED_VALUES[name]
