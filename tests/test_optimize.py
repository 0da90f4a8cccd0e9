import re
import warnings
from math import comb

import numpy as np
import pytest

from dimsched import acquisition
from dimsched.direct import Bounds, DirectConfig
from dimsched.errors import (
    DimensionMismatch,
    DimschedError,
    NonFiniteAcquisition,
    NonFiniteObjective,
)
from dimsched.gp import Dataset
from dimsched.objectives import benchmark_catalog
from dimsched.optimize import (
    RunConfig,
    initial_design,
    run_bo,
    run_dsa,
    run_dsa_parallel,
)


def small_direct():
    return DirectConfig(max_evals=150, max_iters=50)


def sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


class CountingObjective:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.history = []

    def __call__(self, x):
        self.calls += 1
        self.history.append((np.array(x, copy=True), self.fn(x)))
        return self.fn(x)


class TestInitialDesign:
    def test_deterministic(self):
        bounds = Bounds([-1.0, -1.0], [1.0, 1.0])
        a, _ = initial_design(sphere, bounds, 5, np.random.default_rng(0))
        b, _ = initial_design(sphere, bounds, 5, np.random.default_rng(0))
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.Y, b.Y)

    def test_within_bounds(self):
        bounds = Bounds([-3.0, 2.0], [-1.0, 7.0])
        design, _ = initial_design(sphere, bounds, 40, np.random.default_rng(1))
        assert np.all(design.X >= bounds.lower)
        assert np.all(design.X <= bounds.upper)

    def test_incumbent_is_brute_minimum(self):
        bounds = Bounds([-1.0], [1.0])
        design, _ = initial_design(sphere, bounds, 5, np.random.default_rng(2))
        assert design.Y.min() == min(sphere(x) for x in design.X)

    def test_fewer_than_two_points_rejected_before_evaluation(self):
        objective = CountingObjective(sphere)
        with pytest.raises(DimensionMismatch, match="n_init >= 2"):
            initial_design(objective, Bounds([-1.0], [1.0]), 1, np.random.default_rng(0))
        assert objective.calls == 0

    @pytest.mark.parametrize("run", [run_bo, run_dsa])
    def test_design_of_other_dimension_rejected(self, run):
        # A 3-d design on a 2-d box is refused before any evaluation, not
        # run on 3-d points (run_bo) or failed with an IndexError (run_dsa).
        initial = initial_design(sphere, Bounds([-1.0] * 3, [1.0] * 3), 5, np.random.default_rng(0))
        objective = CountingObjective(sphere)
        config = RunConfig(n_init=5, max_iter=2, direct_config=small_direct())
        with pytest.raises(DimensionMismatch, match="initial design is 3-d, the box is 2-d"):
            run(objective, Bounds([-1.0, -1.0], [1.0, 1.0]), config, initial=initial)
        assert objective.calls == 0

    @pytest.mark.parametrize("run", [run_bo, run_dsa])
    def test_design_outside_box_rejected(self, run):
        # A best design point outside the box would be the incumbent that
        # run_dsa copies its clamped coordinates from.
        bounds = Bounds([-1.0] * 3, [1.0] * 3)
        design, eval_ms = initial_design(sphere, bounds, 5, np.random.default_rng(0))
        X = design.X.copy()
        X[2] = 5.0
        initial = (Dataset(X, np.where(np.arange(5) == 2, -1.0, design.Y)), eval_ms)
        objective = CountingObjective(sphere)
        config = RunConfig(n_init=5, max_iter=2, direct_config=small_direct())
        with pytest.raises(DimensionMismatch, match="1 points outside the box, the first at row 2"):
            run(objective, bounds, config, initial=initial)
        assert objective.calls == 0

    def test_eval_times_of_other_length_rejected(self):
        # Too few eval times would fail only later, in write_trace.
        bounds = Bounds([-1.0, -1.0], [1.0, 1.0])
        design, eval_ms = initial_design(sphere, bounds, 5, np.random.default_rng(0))
        objective = CountingObjective(sphere)
        config = RunConfig(n_init=5, max_iter=2, direct_config=small_direct())
        with pytest.raises(DimensionMismatch, match="4 eval times for an initial design of 5"):
            run_bo(objective, bounds, config, initial=(design, eval_ms[:4]))
        assert objective.calls == 0


class TestRunConfig:
    @pytest.mark.parametrize(
        "key, least",
        [
            ("n_init", 2), ("pca_period", 1), ("retrain_period", 1), ("seed", 0),
            ("max_iter", 0), ("train_max_iter", 0), ("retrain_max_iter", 0),
        ],
    )
    def test_out_of_range_rejected(self, key, least):
        # Each of these values used to crash the loop deep inside a run
        # (ZeroDivisionError, IndexError, numpy's ValueError for a negative
        # seed) or, for an iteration count, to pass as 0; the config now
        # refuses it.
        with pytest.raises(ValueError, match=f"{key} must be >= {least}"):
            RunConfig(**{key: least - 1})
        assert getattr(RunConfig(**{key: least}), key) == least

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_init", 4.5), ("max_iter", 2.5), ("subset_size", 1.5), ("pca_period", 2.5),
            ("seed", 1.5), ("retrain_period", 2.5), ("train_max_iter", 2.5),
            ("retrain_max_iter", 2.5), ("max_iter", True), ("seed", False),
            ("retrain_period", True), ("subset_size", False),
        ],
    )
    def test_non_integer_rejected(self, key, value):
        # max_iter = 2.5 used to run 3 iterations, and n_init = 4.5 or
        # subset_size = 1.5 to stop inside numpy with a TypeError, mid-run.
        # A bool, which Python counts as an int, was stored as the count.
        with pytest.raises(ValueError, match=f"{key} must be an integer, got {value}"):
            RunConfig(**{key: value})
        assert getattr(RunConfig(**{key: np.int64(int(value))}), key) == int(value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5, 2.0])
    def test_floor_eps_outside_unit_interval_rejected(self, value):
        # nan used to fail the subset draw mid-run; values outside [0, 1]
        # gave negative scheduling weights.
        with pytest.raises(ValueError, match=r"floor_eps must be in \[0, 1\]"):
            RunConfig(floor_eps=value)

    def test_floor_eps_ends_accepted(self):
        assert RunConfig(floor_eps=0.0).floor_eps == 0.0
        assert RunConfig(floor_eps=1.0).floor_eps == 1.0

    def test_floor_eps_zero_with_constant_coordinates(self):
        # With no floor, coordinates 0 and 1 get zero weight; the second
        # pick of a pair is then uniform over them, never a repeat of 2.
        bounds = Bounds([-1.0] * 3, [1.0] * 3)
        X = np.zeros((5, 3))
        X[:, 2] = np.linspace(-1.0, 1.0, 5)
        initial = (Dataset(X, [sphere(x) for x in X]), [0.0] * 5)
        config = RunConfig(n_init=5, max_iter=6, floor_eps=0.0, direct_config=small_direct())
        result = run_dsa(sphere, bounds, config, initial=initial)
        assert len(result.records) == 6
        assert all(len(r.subset) == 2 and 2 in r.subset for r in result.records)


class TestRunBo:
    def test_constant_objective(self):
        config = RunConfig(n_init=4, max_iter=5, seed=0, direct_config=small_direct())
        result = run_bo(lambda x: 7.0, Bounds([-1.0, -1.0], [1.0, 1.0]), config)
        assert result.incumbent.value == 7.0
        assert len(result.records) == 5

    def test_sphere_2d_converges(self):
        config = RunConfig(
            n_init=10, max_iter=60, seed=1,
            direct_config=DirectConfig(max_evals=400, max_iters=100),
        )
        result = run_bo(sphere, Bounds([-2.0, -2.0], [2.0, 2.0]), config)
        assert result.incumbent.value < 1e-2

    def test_trace_contract(self):
        objective = CountingObjective(sphere)
        config = RunConfig(n_init=5, max_iter=12, seed=2, direct_config=small_direct())
        result = run_bo(objective, Bounds([-1.0, -1.0], [1.0, 1.0]), config)
        assert len(result.records) == 12
        assert objective.calls == 5 + 12
        bests = [r.y_best for r in result.records]
        assert all(b <= a for a, b in zip(bests, bests[1:]))
        assert result.gp_count == 1

    def test_deterministic_given_seed(self):
        config = RunConfig(n_init=5, max_iter=8, seed=3, direct_config=small_direct())
        bounds = Bounds([-1.0, -1.0], [1.0, 1.0])
        r1 = run_bo(sphere, bounds, config)
        r2 = run_bo(sphere, bounds, config)
        for a, b in zip(r1.records, r2.records):
            assert np.array_equal(a.x, b.x)
            assert a.y == b.y

    def test_draws_no_scheduler_randomness(self):
        # The scheduler settings must not touch BO: no weights, no subset
        # draws, no subset-size check, one full-space GP.
        bounds = Bounds([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
        base = dict(n_init=5, max_iter=8, seed=3, direct_config=small_direct())
        r1 = run_bo(sphere, bounds, RunConfig(**base))
        r2 = run_bo(
            sphere, bounds,
            RunConfig(subset_size=1, pca_period=3, floor_eps=0.5, **base),
        )
        assert len(r1.records) == len(r2.records) == 8
        for a, b in zip(r1.records, r2.records):
            assert np.array_equal(a.x, b.x)
            assert a.y == b.y
        assert all(r.subset is None for r in r1.records + r2.records)
        assert r1.gp_count == r2.gp_count == 1

    def test_one_dim_box_default_subset_size(self):
        config = RunConfig(n_init=4, max_iter=5, seed=0, direct_config=small_direct())
        assert config.subset_size == 2
        result = run_bo(sphere, Bounds([-1.0], [1.0]), config)
        assert len(result.records) == 5
        assert result.gp_count == 1

    def test_partial_result_on_nonfinite(self):
        calls = [0]

        def objective(x):
            calls[0] += 1
            return float("nan") if calls[0] > 10 else sphere(x)

        config = RunConfig(n_init=6, max_iter=20, seed=10, direct_config=small_direct())
        result = run_bo(objective, Bounds([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]), config)
        assert result.aborted
        assert len(result.records) == 4  # 10 total calls = 6 design + 4 good iterations
        assert [r.iter for r in result.records] == [6, 7, 8, 9]


@pytest.mark.parametrize("loop", [run_bo, run_dsa])
def test_targets_that_cannot_be_centred_fail_by_name(loop):
    # The sum of the design's values overflows; the first GP fails by name,
    # before numpy warns.
    def objective(x):
        return 1.7e308 if np.sin(7.0 * np.sum(x)) > 0.0 else -1.7e308

    config = RunConfig(n_init=6, max_iter=5, seed=0, direct_config=small_direct())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimschedError, match=re.escape(
            "targets from -1.7e+308 to 1.7e+308 cannot be centred: their mean overflows"
        )):
            loop(objective, Bounds([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]), config)


@pytest.mark.parametrize("loop", [run_bo, run_dsa])
def test_huge_targets_run_to_the_end(loop):
    # Values of +-1e150: their variance, 1e300, still centres, and the
    # trainer's noise floor is capped at its upper bound, so both loops run
    # every iteration without a floating-point warning.
    def objective(x):
        return 1e150 if np.sin(7.0 * np.sum(x)) > 0.0 else -1e150

    config = RunConfig(n_init=6, max_iter=10, seed=0, direct_config=small_direct())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = loop(objective, Bounds([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]), config)
    assert not result.aborted
    assert len(result.records) == 10


class TestRunDsa:
    def test_state_machine_invariants(self):
        objective = CountingObjective(sphere)
        d = 5
        config = RunConfig(
            n_init=8, max_iter=30, subset_size=2, pca_period=10, seed=4,
            direct_config=small_direct(),
        )
        bounds = Bounds(np.full(d, -2.0), np.full(d, 2.0))
        result = run_dsa(objective, bounds, config)
        assert objective.calls == 8 + 30
        assert len(result.records) == 30
        # incumbent equals running min over everything observed
        all_y = list(result.design.Y) + [r.y for r in result.records]
        assert result.incumbent.value == min(all_y)
        # registry bound
        assert result.gp_count <= comb(d, 2)
        # subset keys valid, sorted, size 2
        for rec in result.records:
            assert rec.subset is not None
            assert len(rec.subset) == 2
            assert tuple(sorted(rec.subset)) == rec.subset

    def test_clamping_invariant(self):
        d = 4
        config = RunConfig(
            n_init=6, max_iter=20, subset_size=2, pca_period=50, seed=5,
            direct_config=small_direct(),
        )
        bounds = Bounds(np.full(d, -1.0), np.full(d, 1.0))

        trace = []

        def objective(x):
            trace.append(np.array(x, copy=True))
            return sphere(x)

        result = run_dsa(objective, bounds, config)
        # replay: each proposal differs from incumbent-at-the-time only on Z
        design_y = [sphere(x) for x in trace[:6]]
        best_idx = int(np.argmin(design_y))
        incumbent_x = trace[best_idx].copy()
        incumbent_y = design_y[best_idx]
        for i, rec in enumerate(result.records):
            x = trace[6 + i]
            off_subset = [j for j in range(d) if j not in rec.subset]
            assert np.array_equal(x[off_subset], incumbent_x[off_subset])
            if rec.y < incumbent_y:
                incumbent_y = rec.y
                incumbent_x = x.copy()

    def test_growth_isolation(self):
        d = 4
        config = RunConfig(
            n_init=6, max_iter=25, subset_size=2, pca_period=50, seed=6,
            direct_config=small_direct(),
        )
        bounds = Bounds(np.full(d, -1.0), np.full(d, 1.0))
        result = run_dsa(sphere, bounds, config)
        # sum of growth across GPs equals iteration count
        sizes = {}
        for rec in result.records:
            expected = sizes.get(rec.subset, 6) + 1
            assert rec.gp_size == expected
            sizes[rec.subset] = expected
        assert sum(s - 6 for s in sizes.values()) == 25

    def test_full_subset_single_gp(self):
        d = 2
        config = RunConfig(
            n_init=5, max_iter=10, subset_size=d, pca_period=50, seed=7,
            direct_config=small_direct(),
        )
        bounds = Bounds(np.full(d, -1.0), np.full(d, 1.0))
        result = run_dsa(sphere, bounds, config)
        assert result.gp_count == 1
        assert all(r.subset == (0, 1) for r in result.records)

    def test_proposals_within_bounds(self):
        d = 3
        config = RunConfig(
            n_init=5, max_iter=15, subset_size=2, pca_period=50, seed=8,
            direct_config=small_direct(),
        )
        bounds = Bounds(np.array([-1.0, 0.0, 5.0]), np.array([1.0, 2.0, 9.0]))
        result = run_dsa(sphere, bounds, config)
        for rec in result.records:
            assert np.all(rec.x >= bounds.lower - 1e-12)
            assert np.all(rec.x <= bounds.upper + 1e-12)

    def test_deterministic_given_seed(self):
        d = 3
        config = RunConfig(
            n_init=5, max_iter=10, subset_size=2, pca_period=5, seed=9,
            direct_config=small_direct(),
        )
        bounds = Bounds(np.full(d, -1.0), np.full(d, 1.0))
        r1 = run_dsa(sphere, bounds, config)
        r2 = run_dsa(sphere, bounds, config)
        for a, b in zip(r1.records, r2.records):
            assert np.array_equal(a.x, b.x)
            assert a.y == b.y
            assert a.subset == b.subset

    def test_bad_subset_size(self):
        config = RunConfig(subset_size=5)
        with pytest.raises(DimensionMismatch):
            run_dsa(sphere, Bounds([-1.0, -1.0], [1.0, 1.0]), config)

    @pytest.mark.parametrize("run", [run_dsa, run_dsa_parallel])
    def test_one_dim_box_rejected_before_design(self, run):
        objective = CountingObjective(sphere)
        config = RunConfig(subset_size=1, direct_config=small_direct())
        with pytest.raises(DimensionMismatch, match="at least 2 coordinates"):
            run(objective, Bounds([-1.0], [1.0]), config)
        assert objective.calls == 0

    def test_zero_workers_rejected_before_design(self):
        objective = CountingObjective(sphere)
        config = RunConfig(n_init=5, max_iter=2, direct_config=small_direct())
        with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
            run_dsa_parallel(objective, Bounds([-1.0, -1.0], [1.0, 1.0]), config, workers=0)
        assert objective.calls == 0

    def test_non_integer_workers_rejected_before_design(self):
        # workers = 1.5 used to give exactly the records of workers = 2, and
        # workers = True those of workers = 1.
        objective = CountingObjective(sphere)
        config = RunConfig(n_init=5, max_iter=2, direct_config=small_direct())
        for workers in (1.5, True):
            with pytest.raises(ValueError, match=f"workers must be an integer, got {workers}"):
                run_dsa_parallel(objective, Bounds([-1.0, -1.0], [1.0, 1.0]), config, workers=workers)
        assert objective.calls == 0

    def test_partial_result_on_nonfinite(self):
        calls = [0]

        def objective(x):
            calls[0] += 1
            return float("nan") if calls[0] > 10 else sphere(x)

        config = RunConfig(
            n_init=6, max_iter=20, subset_size=2, seed=10, direct_config=small_direct()
        )
        result = run_dsa(objective, Bounds([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]), config)
        assert result.aborted
        assert len(result.records) == 4  # 10 total calls = 6 design + 4 good iterations

    def test_styblinski_tang_seed0_completes(self):
        # The criterion-6 config at seed 0 trains a subset GP to
        # log-lengthscales near (-11, -30); the kernel must stay positive
        # definite there rather than abort the run in gp_augment.
        spec = benchmark_catalog()["styblinski_tang-10"]
        config = RunConfig(
            n_init=20, max_iter=200, subset_size=2, pca_period=50, seed=0,
            retrain_period=10, train_max_iter=100, retrain_max_iter=20,
            direct_config=small_direct(),
        )
        initial = initial_design(
            spec.evaluator, spec.bounds, config.n_init, np.random.default_rng(0)
        )
        result = run_dsa(spec.evaluator, spec.bounds, config, initial=initial)
        assert not result.aborted
        assert len(result.records) == 200


class TestNonFiniteAcquisition:
    """A NaN inside the EI search is reported as such, not as the objective's."""

    @staticmethod
    def nan_from(monkeypatch, n_min):
        original = acquisition.gp_predict

        def predict(model, x):
            mean, var = original(model, x)
            return (mean * np.nan if model.n >= n_min else mean), var

        monkeypatch.setattr(acquisition, "gp_predict", predict)

    def test_bo_names_subset_and_size(self, monkeypatch):
        self.nan_from(monkeypatch, n_min=9)
        config = RunConfig(n_init=6, max_iter=20, seed=10, direct_config=small_direct())
        with pytest.raises(NonFiniteAcquisition) as info:
            run_bo(sphere, Bounds([-1.0] * 3, [1.0] * 3), config)
        assert not isinstance(info.value, NonFiniteObjective)
        assert isinstance(info.value.__cause__, NonFiniteObjective)
        assert "subset (0, 1, 2)" in str(info.value)
        assert "n=9" in str(info.value)

    def test_dsa_names_subset_and_size(self, monkeypatch):
        self.nan_from(monkeypatch, n_min=0)
        config = RunConfig(
            n_init=6, max_iter=20, subset_size=2, seed=10, direct_config=small_direct()
        )
        with pytest.raises(NonFiniteAcquisition) as info:
            run_dsa(sphere, Bounds([-1.0] * 3, [1.0] * 3), config)
        assert isinstance(info.value.__cause__, NonFiniteObjective)
        assert re.search(r"subset \(\d, \d\) \(n=6\)", str(info.value))
