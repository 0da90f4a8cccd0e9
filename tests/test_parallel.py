from dataclasses import replace

import numpy as np
import pytest

from dimsched import optimize
from dimsched.direct import Bounds, DirectConfig
from dimsched.objectives import benchmark_catalog
from dimsched.optimize import RunConfig, initial_design, run_dsa, run_dsa_parallel


def sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


def make_config(seed):
    return RunConfig(
        n_init=6,
        max_iter=20,
        subset_size=2,
        pca_period=10,
        seed=seed,
        direct_config=DirectConfig(max_evals=120, max_iters=40),
    )


BOUNDS = Bounds(np.full(4, -2.0), np.full(4, 2.0))


def nontiming(r):
    return (r.iter, r.subset, tuple(r.x), r.y, r.y_best, r.gp_size)


class TestSingleWorkerEquivalence:
    def test_matches_sequential_loop(self):
        """With one worker the manager replays the sequential schedule:
        same rng consumption order, hence identical proposals and records
        (timing fields aside)."""
        config = make_config(11)
        seq = run_dsa(sphere, BOUNDS, config)
        par = run_dsa_parallel(sphere, BOUNDS, config, workers=1)
        assert len(seq.records) == len(par.records)
        for a, b in zip(seq.records, par.records):
            assert a.iter == b.iter
            assert a.subset == b.subset
            assert np.array_equal(a.x, b.x)
            assert a.y == b.y
            assert a.y_best == b.y_best
            assert a.gp_size == b.gp_size
        assert np.array_equal(seq.incumbent.point, par.incumbent.point)
        assert seq.incumbent.value == par.incumbent.value
        assert seq.gp_count == par.gp_count

    def test_shared_initial_design(self):
        rng = np.random.default_rng(3)
        initial = initial_design(sphere, BOUNDS, 6, rng)
        config = make_config(11)
        seq = run_dsa(sphere, BOUNDS, config, initial=initial)
        par = run_dsa_parallel(sphere, BOUNDS, config, workers=1, initial=initial)
        assert np.array_equal(seq.design.X, par.design.X)
        assert [r.y for r in seq.records] == [r.y for r in par.records]


class TestMultiWorker:
    def test_incumbent_and_budget_invariants(self):
        config = make_config(12)
        calls = []

        def objective(x):
            calls.append(np.array(x, copy=True))
            return sphere(x)

        result = run_dsa_parallel(objective, BOUNDS, config, workers=4)
        assert len(result.records) == config.max_iter
        assert len(calls) == config.n_init + config.max_iter
        all_y = list(result.design.Y) + [r.y for r in result.records]
        assert result.incumbent.value == min(all_y)
        bests = [r.y_best for r in result.records]
        assert all(b <= a for a, b in zip(bests, bests[1:]))
        for rec in result.records:
            assert np.all(rec.x >= BOUNDS.lower - 1e-12)
            assert np.all(rec.x <= BOUNDS.upper + 1e-12)

    def test_seed_deterministic(self):
        config = make_config(14)
        a = run_dsa_parallel(sphere, BOUNDS, config, workers=4)
        b = run_dsa_parallel(sphere, BOUNDS, config, workers=4)
        assert [nontiming(r) for r in a.records] == [nontiming(r) for r in b.records]
        assert np.array_equal(a.incumbent.point, b.incumbent.point)
        assert a.incumbent.value == b.incumbent.value

    def test_single_key_runs_full_budget(self):
        """With d == subset_size every draw after the first is checked out,
        so each proposal is completed before the next is made."""
        config = RunConfig(
            n_init=4, max_iter=12, subset_size=2, seed=15,
            direct_config=DirectConfig(max_evals=60, max_iters=20),
        )
        bounds = Bounds([-2.0, -2.0], [2.0, 2.0])
        result = run_dsa_parallel(sphere, bounds, config, workers=3)
        assert not result.aborted
        assert len(result.records) == config.max_iter
        assert [r.gp_size for r in result.records] == list(
            range(config.n_init + 1, config.n_init + config.max_iter + 1)
        )

    def test_no_subset_checked_out_twice(self):
        """Each model only grows by one point per proposal it produced."""
        config = make_config(13)
        result = run_dsa_parallel(sphere, BOUNDS, config, workers=3)
        sizes = {}
        for rec in sorted(result.records, key=lambda r: r.iter):
            expected = sizes.get(rec.subset, config.n_init) + 1
            assert rec.gp_size == expected
            sizes[rec.subset] = expected


class TestWeightRefresh:
    """The weights are refreshed every pca_period proposals, pending ones
    included, from the design and the records told by then."""

    CONFIG = replace(make_config(16), max_iter=25)  # pca_period 10: proposals 0, 10, 20

    @staticmethod
    def refreshes(monkeypatch) -> list[np.ndarray]:
        seen = []
        original = optimize.compute_dimension_probabilities

        def spy(X, *args):
            seen.append(np.array(X, copy=True))
            return original(X, *args)

        monkeypatch.setattr(optimize, "compute_dimension_probabilities", spy)
        return seen

    @staticmethod
    def told(result, k: int) -> np.ndarray:
        return np.vstack([result.design.X, *(r.x for r in result.records[:k])])

    def test_sequential(self, monkeypatch):
        seen = self.refreshes(monkeypatch)
        result = run_dsa(sphere, BOUNDS, self.CONFIG)
        assert len(seen) == 3
        for X, k in zip(seen, (0, 10, 20)):
            assert np.array_equal(X, self.told(result, k))

    def test_parallel_counts_pending_proposals(self, monkeypatch):
        seen = self.refreshes(monkeypatch)
        result = run_dsa_parallel(sphere, BOUNDS, self.CONFIG, workers=3)
        assert len(seen) == 3
        for X, k in zip(seen, (0, 10, 20)):
            told = X.shape[0] - self.CONFIG.n_init
            assert k - 2 <= told <= k  # up to 2 of the first k still pending
            assert np.array_equal(X, self.told(result, told))


class TestAbort:
    def test_partial_result_on_nonfinite(self):
        """The objective is not called after a NaN, and only the good
        iterations are kept, whatever the number of pending proposals."""
        config = RunConfig(
            n_init=6, max_iter=20, subset_size=2, seed=10,
            direct_config=DirectConfig(max_evals=150, max_iters=50),
        )
        bounds = Bounds([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
        for workers in (1, 4):
            calls = [0]

            def objective(x):
                calls[0] += 1
                return float("nan") if calls[0] == 11 else sphere(x)

            result = run_dsa_parallel(objective, bounds, config, workers=workers)
            assert result.aborted
            assert calls[0] == 11  # 6 design + 4 good iterations + the NaN
            assert [r.iter for r in result.records] == [6, 7, 8, 9]


class TestFirstWindow:
    """The first window's spawns (asks 0 to pca_period - 1) are trained in one
    call before the first proposal, and the records are those of lazy spawns."""

    ST10 = RunConfig(
        n_init=10, max_iter=30, pca_period=20, retrain_period=3, train_max_iter=30,
        retrain_max_iter=10, direct_config=DirectConfig(max_evals=60, max_iters=20),
    )
    LV4 = RunConfig(
        n_init=8, max_iter=16, pca_period=12, retrain_period=2, train_max_iter=30,
        retrain_max_iter=10, direct_config=DirectConfig(max_evals=60, max_iters=20),
    )
    CASES = {
        "st10-k1": ("styblinski_tang-10", replace(ST10, subset_size=1), 1),
        "st10-k2": ("styblinski_tang-10", ST10, 1),
        "st10-k3": ("styblinski_tang-10", replace(ST10, subset_size=3, seed=1), 1),
        "lv4-retrains": ("lotka_volterra", LV4, 1),
        "st10-2-workers": ("styblinski_tang-10", replace(ST10, seed=2), 2),
        "st10-4-workers": ("styblinski_tang-10", replace(ST10, seed=3), 4),
        "window-past-max-iter": ("styblinski_tang-10", replace(ST10, pca_period=100), 2),
    }

    @staticmethod
    def run(monkeypatch, name, config, workers, initial=True):
        """The run's records, and its trainer calls: (datasets trained, proposals made before)."""
        spec = benchmark_catalog()[name]
        proposals, calls = [], []
        trainer, search = optimize.train_hyperparams, optimize.direct_minimize

        def train(data, **kwargs):
            calls.append((len(data) if isinstance(data, list) else 1, len(proposals)))
            return trainer(data, **kwargs)

        def propose(*args):
            proposals.append(args)
            return search(*args)

        monkeypatch.setattr(optimize, "train_hyperparams", train)
        monkeypatch.setattr(optimize, "direct_minimize", propose)
        design = None
        if initial:
            design = initial_design(
                spec.evaluator, spec.bounds, config.n_init, np.random.default_rng(config.seed)
            )
        result = run_dsa_parallel(spec.evaluator, spec.bounds, config, workers, initial=design)
        monkeypatch.undo()
        return result, calls

    @pytest.mark.parametrize("case", list(CASES))
    def test_records_as_with_lazy_spawns(self, monkeypatch, case):
        name, config, workers = self.CASES[case]
        result, calls = self.run(monkeypatch, name, config, workers)
        # One batch before the first proposal, of every spawn of the window;
        # each later call trains one spawn of a later window.
        (batch, before), *later = calls
        assert before == 0
        assert batch > 1
        assert batch + len(later) == result.gp_count
        assert all(size == 1 and made >= config.pca_period for size, made in later)
        if case == "lv4-retrains":
            assert batch == 6 and not later
            gp_sizes = [r.gp_size - config.n_init for r in result.records]
            assert any(size >= config.retrain_period for size in gp_sizes)

        monkeypatch.setattr(optimize, "_first_window", lambda *args: [])
        lazy, lazy_calls = self.run(monkeypatch, name, config, workers)
        assert [nontiming(r) for r in result.records] == [nontiming(r) for r in lazy.records]
        assert [size for size, _ in lazy_calls] == [1] * result.gp_count

    def test_without_an_initial_design(self, monkeypatch):
        name, config, workers = self.CASES["st10-k2"]
        result, calls = self.run(monkeypatch, name, config, workers, initial=False)
        assert calls[0] == (result.gp_count - len(calls) + 1, 0)
        monkeypatch.setattr(optimize, "_first_window", lambda *args: [])
        lazy, _ = self.run(monkeypatch, name, config, workers, initial=False)
        assert [nontiming(r) for r in result.records] == [nontiming(r) for r in lazy.records]

    def test_a_large_window_in_several_batches(self, monkeypatch):
        # With room for two spawns' kernel matrices a batch, the window's
        # spawns train two at a time, all before the first proposal.
        name, config, workers = self.CASES["st10-k2"]
        result, calls = self.run(monkeypatch, name, config, workers)
        monkeypatch.setattr(optimize, "_BATCH_BYTES", 2 * 8 * 3 * config.n_init**2)
        batched, batched_calls = self.run(monkeypatch, name, config, workers)
        assert [nontiming(r) for r in result.records] == [nontiming(r) for r in batched.records]
        first = [size for size, made in batched_calls if made == 0]
        assert sum(first) == calls[0][0]
        assert first[:-1] == [2] * (len(first) - 1) and first[-1] in (1, 2)
        assert batched_calls[len(first):] == calls[1:]

    def test_a_wrong_prediction_falls_back(self, monkeypatch):
        # The generator of one predicted spawn is moved by one draw, so the
        # batch trains that spawn from other starts.  The spawn sees that its
        # generator is elsewhere and trains as a lazy spawn does.
        name, config, workers = self.CASES["st10-k2"]
        result, calls = self.run(monkeypatch, name, config, workers)
        predict = optimize._first_window

        def wrong(*args):
            spawns = predict(*args)
            spawns[3][1].random()
            return spawns

        monkeypatch.setattr(optimize, "_first_window", wrong)
        fallback, fallback_calls = self.run(monkeypatch, name, config, workers)
        assert [nontiming(r) for r in result.records] == [nontiming(r) for r in fallback.records]
        assert fallback_calls[0] == calls[0]
        assert len(fallback_calls) == len(calls) + 1
        assert fallback_calls[1][1] < config.pca_period  # the fallback, in the first window
