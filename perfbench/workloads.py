"""Workload table for the dimsched benchmark.

Every workload follows the campaign protocol of ``run_campaign``: the
seeded run ``r`` of a workload run with seed ``seed`` uses ``s = seed + r``
for both its ``RunConfig`` and the ``default_rng(s)`` that draws its
initial design, which is passed to the loop as ``initial=``.  The seed
list is never filtered, so seeds on which the library fails stay in.

Importing this module imports dimsched, so the caller must have put the
checkout's ``src`` directory on ``sys.path`` and pinned BLAS threads first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dimsched import RunConfig, benchmark_catalog, initial_design
from dimsched.direct import DirectConfig

# Seeded runs that go at a time, each in its own process on its own core.
PARALLEL_RUNS = 2

# The criterion-6 campaign config of the acceptance gate.
CAMPAIGN_CONFIG = dict(
    n_init=20,
    subset_size=2,
    pca_period=50,
    retrain_period=10,
    train_max_iter=100,
    retrain_max_iter=20,
    direct_config=DirectConfig(max_evals=150, max_iters=50),
)

# The criterion-8 config (retrain_period keeps its default of 5).
ODE_FIT_CONFIG = dict(
    n_init=20,
    subset_size=2,
    pca_period=50,
    train_max_iter=100,
    retrain_max_iter=30,
    direct_config=DirectConfig(max_evals=150, max_iters=50),
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    objective: str
    loop: str  # "dsa" or "bo"
    max_iter: int
    # Wall seconds of one seeded run on the reference host (2-core x86).
    # It only turns --seconds into a fixed seed list, so the work per run
    # is the same on every commit.
    seed_cost_s: float
    config: dict

    def run_config(self, seed: int) -> RunConfig:
        return RunConfig(seed=seed, max_iter=self.max_iter, **self.config)

    def seeds(self, seed: int, seconds: float) -> list[int]:
        """The seeds of a run of the given length: seed, seed + 1, ...

        The list depends on seed and seconds alone and is never filtered.
        PARALLEL_RUNS of them run at a time, each process the same number,
        so a run takes about seconds.
        """
        count = PARALLEL_RUNS * max(1, round(seconds / self.seed_cost_s))
        return list(range(seed, seed + count))

    def objective_spec(self):
        return benchmark_catalog()[self.objective]

    def design(self, spec, seed: int):
        """The seeded initial design, as run_campaign draws it."""
        rng = np.random.default_rng(seed)
        return initial_design(spec.evaluator, spec.bounds, self.config["n_init"], rng)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="st10-dsa",
            why="spawn-heavy DSA: subset GP training and DIRECT bookkeeping dominate, GPs stay small",
            objective="styblinski_tang-10",
            loop="dsa",
            max_iter=200,
            seed_cost_s=10.0,
            config=CAMPAIGN_CONFIG,
        ),
        Workload(
            name="st10-bo",
            why="one full-space GP grows to n=220: retraining and O(n^3) Cholesky dominate",
            objective="styblinski_tang-10",
            loop="bo",
            max_iter=200,
            seed_cost_s=11.0,
            config=CAMPAIGN_CONFIG,
        ),
        Workload(
            name="lv4-dsa",
            why="ODE fit: RK4 objective costs real time and 6 subsets make the GP registry reuse-heavy",
            objective="lotka_volterra",
            loop="dsa",
            max_iter=300,
            seed_cost_s=15.0,
            config=ODE_FIT_CONFIG,
        ),
    )
}
