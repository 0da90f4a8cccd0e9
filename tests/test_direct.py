import hashlib

import numpy as np
import pytest

from dimsched.direct import (
    Bounds,
    DirectConfig,
    Rect,
    direct_minimize,
    potentially_optimal,
    trisect,
)
from dimsched.errors import NonFiniteObjective


def rowwise(f):
    """A batch objective, as DIRECT takes it, from one that scores one point."""
    return lambda X: [f(x) for x in X]


def six_hump_camel(x):
    x1, x2 = x
    return (
        (4.0 - 2.1 * x1**2 + x1**4 / 3.0) * x1**2
        + x1 * x2
        + (-4.0 + 4.0 * x2**2) * x2**2
    )


class TestDirectMinimize:
    def test_optimum_at_center(self):
        bounds = Bounds([0.0, 2.0], [4.0, 6.0])
        mid = np.array([2.0, 4.0])
        calls = []

        def g(x):
            calls.append(x.copy())
            return float(np.sum((x - mid) ** 2))

        x, f, evals = direct_minimize(rowwise(g), bounds, DirectConfig(max_evals=1))
        assert f == 0.0
        assert evals == 1
        assert np.allclose(calls[0], mid)

    def test_one_dim_quadratic(self):
        # Oracle: 1e5-point grid puts the minimum at 0.9 with value 0.
        g = lambda x: float((x[0] - 0.9) ** 2)
        _, f, _ = direct_minimize(rowwise(g), Bounds([0.0], [1.0]), DirectConfig(max_evals=200))
        assert f < 1e-4

    def test_six_hump_camel(self):
        bounds = Bounds([-3.0, -2.0], [3.0, 2.0])
        _, f, _ = direct_minimize(
            rowwise(lambda x: six_hump_camel(x)), bounds, DirectConfig(max_evals=1000, max_iters=200)
        )
        # Reference minimum from a dense grid oracle (computed in
        # test_acceptance at 2001^2 resolution): about -1.0316.
        assert f < -1.0316 + 1e-2

    def test_determinism(self):
        seqs = []
        for _ in range(2):
            calls = []

            def g(x):
                calls.append(tuple(x))
                return six_hump_camel(x)

            direct_minimize(
                rowwise(g), Bounds([-3.0, -2.0], [3.0, 2.0]), DirectConfig(max_evals=400)
            )
            seqs.append(calls)
        assert seqs[0] == seqs[1]

    def test_monotone_best(self):
        best_trace = []
        best = [np.inf]

        def g(x):
            v = six_hump_camel(x)
            best[0] = min(best[0], v)
            best_trace.append(best[0])
            return v

        direct_minimize(rowwise(g), Bounds([-3.0, -2.0], [3.0, 2.0]), DirectConfig(max_evals=500))
        assert all(b <= a for a, b in zip(best_trace, best_trace[1:]))

    def test_never_leaves_bounds(self):
        bounds = Bounds([-1.0, 0.0, 2.0], [1.0, 5.0, 3.0])

        def g(x):
            assert np.all(x >= bounds.lower - 1e-12)
            assert np.all(x <= bounds.upper + 1e-12)
            return float(np.sum(x**2))

        direct_minimize(rowwise(g), bounds, DirectConfig(max_evals=600))

    def test_separable_quadratics(self):
        rng = np.random.default_rng(5)
        for d in (1, 2, 3, 4):
            center = rng.uniform(-0.5, 0.5, size=d)
            g = lambda x: float(np.sum((x - center) ** 2))
            _, f, _ = direct_minimize(
                rowwise(g), Bounds(-np.ones(d), np.ones(d)), DirectConfig(max_evals=1500, max_iters=300)
            )
            assert f < 1e-3

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteObjective):
            direct_minimize(
                rowwise(lambda x: float("nan")), Bounds([0.0], [1.0]), DirectConfig(max_evals=10)
            )

    def test_partition_invariant(self):
        # Measures of all rectangles sum to 1 after every iteration.
        from dimsched import direct as mod

        measured = []
        orig_po = mod.potentially_optimal

        def spy(rects, f_min, eps):
            measured.append(sum(r.measure for r in rects))
            return orig_po(rects, f_min, eps)

        mod.potentially_optimal = spy
        try:
            direct_minimize(
                rowwise(lambda x: six_hump_camel(x)),
                Bounds([-3.0, -2.0], [3.0, 2.0]),
                DirectConfig(max_evals=500),
            )
        finally:
            mod.potentially_optimal = orig_po
        assert measured
        for total in measured:
            assert abs(total - 1.0) < 1e-12


    @pytest.mark.parametrize(
        "objective, bounds, config, count, sha256",
        [
            (
                six_hump_camel,
                Bounds([-3.0, -2.0], [3.0, 2.0]),
                DirectConfig(max_evals=400, max_iters=100),
                399,
                "cb8923ccc2613635cca0794518eabf5e4690321bc34ce3242972e15e332730a2",
            ),
            (
                # The campaign's DIRECT config on a 10-d weighted quadratic.
                lambda x: float(np.arange(1.0, 11.0) @ (x - np.linspace(-0.45, 0.35, 10)) ** 2),
                Bounds(-np.ones(10), np.ones(10)),
                DirectConfig(max_evals=150, max_iters=50),
                149,
                "ce840abd1b139b26ef97ba947db6b50c011e1692fe60f566ee58bb2e12fffde5",
            ),
        ],
        ids=["six_hump_camel", "quadratic_10d"],
    )
    def test_evaluation_order_pinned(self, objective, bounds, config, count, sha256):
        # Count and SHA-256 of the points in evaluation order, from a DIRECT
        # that called its objective on one point at a time: scoring each
        # iteration as one batch must not change which points it visits.
        from dimsched import direct as mod

        batches = []
        iterations = [0]
        orig_po = mod.potentially_optimal

        def spy(rects, f_min, eps):
            selected = orig_po(rects, f_min, eps)
            iterations[0] += bool(selected)
            return selected

        def g(X):
            assert X.ndim == 2 and X.shape[1] == bounds.d
            assert X.shape[0] <= config.max_evals - sum(len(b) for b in batches)
            batches.append(X.copy())
            return [objective(x) for x in X]

        mod.potentially_optimal = spy
        try:
            _, _, evals = direct_minimize(g, bounds, config)
        finally:
            mod.potentially_optimal = orig_po
        points = np.vstack(batches)
        assert evals == points.shape[0] == count
        assert hashlib.sha256(points.tobytes()).hexdigest() == sha256
        assert len(batches) == 1 + iterations[0]  # the center, then one per iteration


class TestPotentiallyOptimal:
    def rect(self, sides, f, index):
        sides = np.asarray(sides, dtype=float)
        return Rect(center=np.full(sides.shape[0], 0.5), side_lengths=sides, f_center=f, index=index)

    def oracle(self, rects, f_min, eps):
        """Brute force over a dense K grid."""
        selected = set()
        diams = [r.diameter for r in rects]
        fs = [r.f_center for r in rects]
        for K in np.concatenate([[0.0], np.logspace(-6, 6, 20000)]):
            scores = [f - K * d for f, d in zip(fs, diams)]
            m = min(scores)
            for j, s in enumerate(scores):
                if abs(s - m) < 1e-12 and s <= f_min - eps * abs(f_min) + 1e-12:
                    selected.add(j)
        return selected

    def test_single_rect_selected(self):
        r = self.rect([1.0], 3.0, 0)
        assert potentially_optimal([r], 3.0, 1e-4) == [0]

    def test_equal_diameter_dominance(self):
        rects = [self.rect([1.0, 1.0], 2.0, 0), self.rect([1.0, 1.0], 1.0, 1)]
        assert potentially_optimal(rects, 1.0, 1e-4) == [1]

    def test_hand_built_config_matches_k_sweep(self):
        # Four rects across three diameters; hull membership vs K-sweep.
        rects = [
            self.rect([1.0, 1.0], 5.0, 0),
            self.rect([1.0 / 3, 1.0], 4.0, 1),
            self.rect([1.0 / 3, 1.0 / 3], 4.5, 2),
            self.rect([1.0 / 3, 1.0 / 3], 6.0, 3),
        ]
        got = set(potentially_optimal(rects, 4.0, 1e-4))
        expected = self.oracle(rects, 4.0, 1e-4)
        assert got == expected

    def test_random_configs_match_k_sweep(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            rects = []
            for i in range(8):
                depth = rng.integers(0, 4, size=2)
                sides = (1.0 / 3.0) ** depth
                rects.append(self.rect(sides, float(rng.uniform(0, 10)), i))
            f_min = min(r.f_center for r in rects)
            got = set(potentially_optimal(rects, f_min, 1e-4))
            expected = self.oracle(rects, f_min, 1e-4)
            assert got == expected


class TestTrisect:
    def test_unit_square_constant(self):
        rect = Rect(np.array([0.5, 0.5]), np.array([1.0, 1.0]), 1.0, 0)
        evals = []

        def g(x):
            evals.append(x.copy())
            return 1.0

        children = trisect(rect, rowwise(g), 100)
        assert len(evals) == 4
        assert len(children) == 5
        assert abs(sum(c.measure for c in children) - rect.measure) < 1e-12

    def test_one_dim_centers(self):
        rect = Rect(np.array([0.5]), np.array([1.0]), 0.0, 0)
        children = trisect(rect, rowwise(lambda x: float(x[0])), 100)
        centers = sorted(c.center[0] for c in children)
        assert np.allclose(centers, [1.0 / 6.0, 0.5, 5.0 / 6.0])
        assert all(np.allclose(c.side_lengths, 1.0 / 3.0) for c in children)

    def test_single_longest_side(self):
        rect = Rect(np.array([0.5, 0.5]), np.array([1.0, 1.0 / 3.0]), 0.0, 0)
        evals = []

        def g(x):
            evals.append(x.copy())
            return float(x[0])

        children = trisect(rect, rowwise(g), 100)
        assert len(evals) == 2
        assert len(children) == 3

    def test_budget_exhaustion_keeps_partition(self):
        rect = Rect(np.array([0.5, 0.5, 0.5]), np.ones(3), 0.0, 0)
        children = trisect(rect, rowwise(lambda x: float(np.sum(x))), 4)  # room for 2 of 3 dims
        assert abs(sum(c.measure for c in children) - 1.0) < 1e-12
