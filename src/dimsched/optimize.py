"""Optimizer loops: classical BO, dimension-scheduled BO, and the
latter with several proposals in flight.

All three are entry points of one manager loop.  At each iteration the
manager picks a coordinate subset, proposes a point by maximizing EI
over that subset with DIRECT, clamps the other coordinates to the
incumbent, evaluates and augments the subset's GP.  Dimension-scheduled
runs sample the subset from per-coordinate weights (the sample variance
of the observed inputs, mixed with a uniform floor); classical BO is the
case where the subset is always every coordinate, so it keeps a single
full-space GP.  The manager keeps a registry of GP models keyed by the
sorted subset; each model is spawned lazily from the initial design's
projection and only ever grows through its own subset's proposals.

``run_dsa_parallel`` keeps up to ``workers`` proposals pending in a FIFO.
Each is computed in the calling thread when it is assigned, and the
oldest is completed first, as in a pool whose workers finish in
submission order; runs stay deterministic given the seed.  There is no
pool because proposals are Python (DIRECT and EI) that holds the GIL: a
thread pool took 1.32-1.47 s at 2 workers and 1.66-1.88 s at 4, against
1.14-1.34 s for ``run_dsa`` (styblinski_tang-10, 200 iterations, 2-core
x86 host, BLAS on one thread), and its traces varied between runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .acquisition import AcquisitionContext, acquisition_objective
from .direct import Bounds, DirectConfig, direct_minimize
from .errors import DimensionMismatch, NonFiniteAcquisition, NonFiniteObjective
from .gp import Dataset, GpModel, gp_augment, gp_fit, train_hyperparams
from .scheduler import ProbabilityVector, compute_dimension_probabilities, sample_subset


@dataclass(frozen=True)
class Incumbent:
    point: np.ndarray
    value: float


@dataclass(frozen=True)
class RunConfig:
    n_init: int = 20
    max_iter: int = 500
    subset_size: int = 2
    pca_period: int = 50
    floor_eps: float = 0.1
    seed: int = 0
    direct_config: DirectConfig = field(default_factory=DirectConfig)
    retrain_period: int = 5
    train_restarts: int = 3
    train_max_iter: int = 200
    retrain_max_iter: int = 50


@dataclass(frozen=True)
class IterationRecord:
    iter: int
    subset: tuple[int, ...] | None
    x: np.ndarray
    y: float
    y_best: float
    wall_time_ms: float
    eval_time_ms: float
    gp_size: int


@dataclass
class RunResult:
    records: list[IterationRecord]
    incumbent: Incumbent
    total_time_ms: float
    gp_count: int
    design: Dataset
    design_eval_ms: list[float]
    aborted: bool = False

    @property
    def total_eval_ms(self) -> float:
        return sum(r.eval_time_ms for r in self.records) + sum(self.design_eval_ms)

    @property
    def computation_ms(self) -> float:
        return self.total_time_ms - self.total_eval_ms


def _timed_eval(objective, x) -> tuple[float, float]:
    t0 = time.perf_counter()
    y = float(objective(x))
    ms = (time.perf_counter() - t0) * 1e3
    if not np.isfinite(y):
        raise NonFiniteObjective(f"objective returned {y} at {x}")
    return y, ms


def initial_design(
    objective, bounds: Bounds, n_init: int, rng: np.random.Generator
) -> tuple[Dataset, list[float]]:
    """Uniform random design inside bounds, with per-point eval times."""
    if n_init < 2:
        raise DimensionMismatch("initial design needs n_init >= 2")
    X = rng.uniform(bounds.lower, bounds.upper, size=(n_init, bounds.d))
    Y = np.empty(n_init)
    eval_ms = []
    for i in range(n_init):
        Y[i], ms = _timed_eval(objective, X[i])
        eval_ms.append(ms)
    return Dataset(X, Y), eval_ms


def _design_incumbent(design: Dataset) -> Incumbent:
    best = int(np.argmin(design.Y))  # argmin breaks ties by lowest index
    return Incumbent(point=design.X[best].copy(), value=float(design.Y[best]))


def run_bo(
    objective, bounds: Bounds, config: RunConfig, initial=None
) -> RunResult:
    """Classical loop: one full-dimensional GP over every observation."""
    return _run(objective, bounds, config, 1, initial, scheduled=False)


def run_dsa(
    objective, bounds: Bounds, config: RunConfig, initial=None
) -> RunResult:
    """Dimension-scheduled loop (sequential)."""
    return _run(objective, bounds, config, 1, initial, scheduled=True)


def run_dsa_parallel(
    objective, bounds: Bounds, config: RunConfig, workers: int = 1, initial=None
) -> RunResult:
    """Dimension scheduling with up to ``workers`` proposals in flight.

    A proposal is made when it is assigned, against the incumbent value
    of that moment, and waits in a FIFO.  A subset with a pending proposal
    is resampled (up to 10 times).  When the FIFO is full or every draw is
    pending, the oldest proposal is completed: evaluated, added to its
    model and compared with the incumbent.  One worker is ``run_dsa``'s
    schedule.  ``wall_time_ms`` spans a record's proposal to its
    completion, so with ``workers > 1`` it includes later proposals.
    """
    return _run(objective, bounds, config, workers, initial, scheduled=True)


def _run(
    objective, bounds: Bounds, config: RunConfig, workers: int, initial,
    scheduled: bool,
) -> RunResult:
    """The one optimizer loop behind run_bo, run_dsa and run_dsa_parallel.

    Unscheduled runs (classical BO, always one worker) use the full
    coordinate set as their only key and draw no scheduler randomness.
    """
    if workers < 1:
        raise DimensionMismatch("workers must be >= 1")
    if scheduled and not 1 <= config.subset_size <= bounds.d:
        raise DimensionMismatch(
            f"subset size {config.subset_size} outside [1, {bounds.d}]"
        )
    t_start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    if initial is None:
        design, design_ms = initial_design(objective, bounds, config.n_init, rng)
    else:
        design, design_ms = initial
    incumbent = _design_incumbent(design)

    models: dict[tuple[int, ...], GpModel] = {}
    observed_x = [row.copy() for row in design.X]
    probs: ProbabilityVector | None = None
    records: list[IterationRecord] = []
    aborted = False
    assigned = 0
    completed = 0
    # Assigned, not yet completed proposals, oldest first: (key, x_sub, t_iter).
    pending: list[tuple[tuple[int, ...], np.ndarray, float]] = []

    def schedule() -> tuple[int, ...] | None:
        """The next key to propose on, or None if every draw is checked out."""
        nonlocal probs
        if not scheduled:
            return tuple(range(bounds.d))
        if assigned % config.pca_period == 0:
            probs = compute_dimension_probabilities(
                np.asarray(observed_x), config.floor_eps
            )
        checked_out = {key for key, _, _ in pending}
        for _ in range(11):  # one draw, then up to 10 resamples
            key = sample_subset(probs, config.subset_size, rng).dims
            if key not in checked_out:
                return key
        return None

    while completed < config.max_iter:
        while assigned < config.max_iter and len(pending) < workers:
            t_iter = time.perf_counter()
            key = schedule()
            if key is None:
                break  # every draw is checked out; complete the oldest first
            dims = list(key)
            if key not in models:
                proj = Dataset(np.ascontiguousarray(design.X[:, dims]), design.Y)
                hyper = train_hyperparams(
                    proj,
                    restarts=config.train_restarts,
                    rng=rng,
                    bounds_ranges=bounds.span[dims],
                    max_iter=config.train_max_iter,
                )
                models[key] = gp_fit(proj, hyper)
            ctx = AcquisitionContext(model=models[key], y_best=incumbent.value)
            try:
                x_sub, _, _ = direct_minimize(
                    acquisition_objective(ctx), bounds.subset(dims), config.direct_config
                )
            except NonFiniteObjective as exc:
                raise NonFiniteAcquisition(
                    f"EI of the GP on subset {key} (n={ctx.model.n}) is not finite"
                ) from exc
            pending.append((key, x_sub, t_iter))
            assigned += 1
        key, x_sub, t_iter = pending.pop(0)
        x_new = incumbent.point.copy()
        x_new[list(key)] = x_sub
        try:
            y_new, eval_ms = _timed_eval(objective, x_new)
        except NonFiniteObjective:
            aborted = True
            break
        model = models[key]
        # One retrain per retrain_period points added to this model.
        retrain = (model.n + 1 - design.n) % config.retrain_period == 0
        models[key] = gp_augment(
            model, x_sub, y_new, retrain=retrain, rng=rng,
            retrain_max_iter=config.retrain_max_iter,
        )
        observed_x.append(x_new.copy())
        if y_new < incumbent.value:
            incumbent = Incumbent(point=x_new.copy(), value=y_new)
        records.append(
            IterationRecord(
                iter=config.n_init + completed,
                subset=key if scheduled else None,
                x=x_new,
                y=y_new,
                y_best=incumbent.value,
                wall_time_ms=(time.perf_counter() - t_iter) * 1e3,
                eval_time_ms=eval_ms,
                gp_size=models[key].n,
            )
        )
        completed += 1
    return RunResult(
        records=records,
        incumbent=incumbent,
        total_time_ms=(time.perf_counter() - t_start) * 1e3,
        gp_count=len(models),
        design=design,
        design_eval_ms=list(design_ms),
        aborted=aborted,
    )
