"""Optimizer loops: classical BO, dimension-scheduled BO, and the
latter with several proposals in flight.

All three are entry points of one manager loop, made of two steps.
``ask`` spawns the GP of its coordinate subset if the subset is new and
proposes a point on it by maximizing EI over the subset with DIRECT.
``tell`` fills the other coordinates in from the incumbent, evaluates
the point, augments the subset's GP, updates the incumbent and records
the iteration.  Dimension-scheduled runs sample the subset from
per-coordinate weights (the sample variance of the observed inputs,
mixed with a uniform floor); classical BO is the case where the subset
is always every coordinate, so it keeps a single full-space GP.  The
manager keeps a registry of GP models keyed by the sorted subset; each
model is spawned from the initial design's projection when its subset is
first drawn, and only ever grows through its own subset's proposals.

Between the two steps sits a FIFO of pending proposals: the loop asks
until ``workers`` proposals are pending (one for ``run_bo`` and
``run_dsa``), or until every subset drawn has one pending, then tells
the oldest.  Until the next weight refresh, the FIFO's order, the
subsets drawn, which of them are new, which tells retrain and the
random starts of each training depend on no result.  So ``_schedule``
draws that schedule once per window, at each refresh, from the run's
generator: a plan of asks and tells, where each spawn and each retrain
holds a copy of the generator at the state its starts are drawn from.
``ask`` and ``tell`` carry the plan out and draw nothing.  The first
window's spawns train before the first proposal, in one
``train_hyperparams`` call, one lockstep stack of all their starts
(classical BO: a batch of one; a design so large that their kernel
matrices would pass ``_BATCH_BYTES`` trains them in several batches).
Later spawns train at their ask.  Record 0's ``wall_time_ms`` includes
the batch.  Each plan is one DEBUG record of this module's logger.

Each proposal is computed in the calling thread when it is asked for,
as in a pool whose workers finish in submission order; runs stay
deterministic given the seed.  There is no pool because proposals are
Python (DIRECT and EI) that holds the GIL: a thread pool took 1.32-1.47
s at 2 workers and 1.66-1.88 s at 4, against 1.14-1.34 s for
``run_dsa`` (styblinski_tang-10, 200 iterations, 2-core x86 host, BLAS on
one thread), and its traces varied between runs.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .acquisition import acquisition_objective
from .direct import Bounds, DirectConfig, direct_minimize
from .errors import DimensionMismatch, NonFiniteAcquisition, NonFiniteObjective, _as_int
from .gp import (
    _RETRAIN_RESTARTS, Dataset, GpModel, KernelHyperparams, _random_starts, gp_augment, gp_fit,
    train_hyperparams,
)
from .scheduler import compute_dimension_probabilities, sample_subset

log = logging.getLogger(__name__)

# The random starts of a spawn's training.
_SPAWN_RESTARTS = 3
# The bytes of kernel matrices one first-window batch may stack (its
# gradient stacks as many again), so a large design trains its first window
# in several batches, and memory does not grow with the number of spawns.
_BATCH_BYTES = 2**26


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
    train_max_iter: int = 200
    retrain_max_iter: int = 50

    def __post_init__(self):
        # Smaller values crash the loop (a design too small to train a GP on,
        # a zero modulus, a seed numpy rejects) or would pass as 0 iterations,
        # which is legal: a design-only run, or a training that keeps its start.
        # BO ignores subset_size; the scheduled loops check it against the box.
        for key, least in (
            ("n_init", 2), ("pca_period", 1), ("retrain_period", 1), ("seed", 0),
            ("max_iter", 0), ("train_max_iter", 0), ("retrain_max_iter", 0), ("subset_size", None),
        ):
            _as_int(key, getattr(self, key), least=least)
        # Outside [0, 1] the scheduling weights can go negative; nan fails
        # the subset draw mid-run.
        if not 0.0 <= self.floor_eps <= 1.0:
            raise ValueError(f"floor_eps must be in [0, 1], got {self.floor_eps}")


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

    A proposal is made when it is asked for, against the incumbent value
    of that moment, and waits in a FIFO.  A subset with a pending proposal
    is resampled (up to 10 times).  When the FIFO is full or every draw is
    pending, the oldest proposal is told: evaluated, added to its model
    and compared with the incumbent.  One worker is ``run_dsa``'s
    schedule.  ``wall_time_ms`` spans a record's proposal to its
    telling, so with ``workers > 1`` it includes later proposals.
    """
    return _run(objective, bounds, config, workers, initial, scheduled=True)


def _starts(rng: np.random.Generator, key, restarts: int) -> np.random.Generator:
    """A copy of rng where a training on key draws its starts; rng moves past them.

    The generator moves by the starts' count, not their values, so unit
    ranges stand in for the box's.
    """
    copy = np.random.Generator(type(rng.bit_generator)())
    copy.bit_generator.state = rng.bit_generator.state
    _random_starts(rng, np.ones(len(key)), 1.0, restarts)
    return copy


def _schedule(rng, weights, design: Dataset, config: RunConfig, workers: int, scheduled: bool):
    """The FIFO's events, drawn from rng and yielded a window's plan at a time.

    The FIFO asks until ``workers`` proposals are pending (fewer near the
    end), or until an ask finds all 11 of its draws (one, then up to 10
    resamples) pending, then tells the oldest.  A window starts at each
    weight refresh: an ask when the told and the pending proposals number
    a multiple of pca_period, again after an ask that found every draw
    pending.  Its plan lists the events up to the next refresh, in order:
    ``("ask", key, spawn)`` and ``("tell", key, retrain)``, where spawn
    and retrain are None or a copy of rng at the state the training's
    starts are drawn from.  weights() gives a scheduled window's weights;
    the caller has carried out every earlier event by then.  Unscheduled
    runs ask for every coordinate.  Each plan is logged at DEBUG level.
    """
    sizes: dict[tuple[int, ...], int] = {}  # each model's number of points
    pending: list[tuple[int, ...]] = []  # the keys asked and not told, oldest first
    told = 0
    while told < config.max_iter:
        first, plan = told + len(pending), []
        probs = weights() if scheduled else None
        while told < config.max_iter:
            if len(pending) < min(workers, config.max_iter - told):
                if plan and (told + len(pending)) % config.pca_period == 0:
                    break  # the next refresh
                key = tuple(range(design.d))
                if scheduled:  # one draw, then up to 10 resamples of pending keys
                    draws = (sample_subset(probs, config.subset_size, rng) for _ in range(11))
                    key = next((key for key in draws if key not in pending), None)
                if key is not None:
                    spawn = None if key in sizes else _starts(rng, key, _SPAWN_RESTARTS)
                    sizes.setdefault(key, design.n)
                    pending.append(key)
                    plan.append(("ask", key, spawn))
                    continue
            # No room, or every draw is pending: tell the oldest.
            key = pending.pop(0)
            retrain = (sizes[key] + 1 - design.n) % config.retrain_period == 0
            plan.append(("tell", key, _starts(rng, key, _RETRAIN_RESTARTS) if retrain else None))
            sizes[key] += 1
            told += 1
        if log.isEnabledFor(logging.DEBUG):
            asks = sum(kind == "ask" for kind, _, _ in plan)
            fields = {
                "first_ask": first, "asks": asks, "tells": len(plan) - asks,
                "spawns": [key for kind, key, draw in plan if kind == "ask" and draw is not None],
                "retrains": sum(kind == "tell" and draw is not None for kind, _, draw in plan),
            }
            log.debug("window plan: %s", fields, extra=fields)
        yield plan


def _run(
    objective, bounds: Bounds, config: RunConfig, workers: int, initial,
    scheduled: bool,
) -> RunResult:
    """The one optimizer loop behind run_bo, run_dsa and run_dsa_parallel.

    Its steps are the local functions ``ask`` and ``tell``, which carry
    out the events of ``_schedule``'s plans.  Unscheduled runs (classical
    BO, always one worker) use the full coordinate set as their only key
    and draw no scheduler randomness.
    """
    _as_int("workers", workers, least=1)
    if scheduled and bounds.d < 2:
        raise DimensionMismatch(
            f"dimension scheduling needs at least 2 coordinates, got a {bounds.d}-d box"
        )
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
        if design.d != bounds.d:
            raise DimensionMismatch(f"initial design is {design.d}-d, the box is {bounds.d}-d")
        if len(design_ms) != design.n:
            raise DimensionMismatch(
                f"{len(design_ms)} eval times for an initial design of {design.n} points"
            )
        # run_dsa copies the clamped coordinates from the incumbent.
        outside = ~((design.X >= bounds.lower) & (design.X <= bounds.upper)).all(axis=1)
        if outside.any():
            raise DimensionMismatch(
                f"initial design has {int(outside.sum())} points outside the box, "
                f"the first at row {int(outside.argmax())}"
            )
    best = int(np.argmin(design.Y))  # argmin breaks ties by lowest index
    incumbent = Incumbent(point=design.X[best].copy(), value=float(design.Y[best]))
    models: dict[tuple[int, ...], GpModel] = {}
    boxes: dict[tuple[int, ...], Bounds] = {}  # the box of each model's coordinates
    trained: dict[tuple[int, ...], KernelHyperparams] = {}  # the first window's spawns
    records: list[IterationRecord] = []

    def weights() -> np.ndarray:
        """The scheduling weights of the design and the records told by now."""
        return compute_dimension_probabilities(
            np.vstack([design.X, *(r.x for r in records)]), config.floor_eps
        )

    def projection(key) -> Dataset:
        """The design seen on key's coordinates."""
        return Dataset(np.ascontiguousarray(design.X[:, list(key)]), design.Y)

    def train(spawns) -> dict[tuple[int, ...], KernelHyperparams]:
        """Each spawn's hyperparameters by key, from its generator: one call, one lockstep stack."""
        keys, generators = zip(*spawns)
        for key in keys:
            boxes[key] = bounds.subset(list(key))
        hypers = train_hyperparams(
            [projection(key) for key in keys],
            restarts=_SPAWN_RESTARTS,
            rng=list(generators),
            bounds_ranges=[boxes[key].span for key in keys],
            max_iter=config.train_max_iter,
        )
        return dict(zip(keys, hypers))

    def ask(key, spawn, t_iter) -> tuple[tuple[int, ...], np.ndarray, float]:
        """A proposal (key, x_sub, t_iter) on key, spawning its GP from spawn's starts if new."""
        if spawn is not None:
            hyper = trained.pop(key) if key in trained else train([(key, spawn)])[key]
            models[key] = gp_fit(projection(key), hyper)
        model = models[key]
        try:
            x_sub, _, _ = direct_minimize(
                acquisition_objective(model, incumbent.value), boxes[key],
                config.direct_config,
            )
        except NonFiniteObjective as exc:
            raise NonFiniteAcquisition(
                f"EI of the GP on subset {key} (n={model.n}) is not finite"
            ) from exc
        return key, x_sub, t_iter

    def tell(proposal, retrain) -> bool:
        """Evaluate a proposal, grow its GP and record it; False if its value is not finite.

        The GP retrains from retrain's starts unless it is None.  The
        coordinates outside the proposal's subset are the incumbent's at
        this moment, not at the proposal's.
        """
        nonlocal incumbent
        key, x_sub, t_iter = proposal
        x_new = incumbent.point.copy()
        x_new[list(key)] = x_sub
        try:
            y_new, eval_ms = _timed_eval(objective, x_new)
        except NonFiniteObjective:
            return False
        models[key] = gp_augment(
            models[key], x_sub, y_new, retrain=retrain is not None, rng=retrain,
            retrain_max_iter=config.retrain_max_iter,
        )
        if y_new < incumbent.value:
            incumbent = Incumbent(point=x_new.copy(), value=y_new)
        records.append(
            IterationRecord(
                iter=design.n + len(records),
                subset=key if scheduled else None,
                x=x_new,
                y=y_new,
                y_best=incumbent.value,
                wall_time_ms=(time.perf_counter() - t_iter) * 1e3,
                eval_time_ms=eval_ms,
                gp_size=models[key].n,
            )
        )
        return True

    # A proposal's clock starts where the last event ended, so record 0's
    # holds the first window's plan and batch.
    t_iter = time.perf_counter()
    plans = _schedule(rng, weights, design, config, workers, scheduled)
    first = next(plans, [])
    spawns = [(key, spawn) for kind, key, spawn in first if kind == "ask" and spawn is not None]
    size = max(1, _BATCH_BYTES // (8 * _SPAWN_RESTARTS * design.n**2))
    for at in range(0, len(spawns), size):
        trained.update(train(spawns[at:at + size]))
    pending = []  # the proposals asked and not told, oldest first
    aborted = False
    for kind, key, draw in itertools.chain(first, itertools.chain.from_iterable(plans)):
        if kind == "ask":
            pending.append(ask(key, draw, t_iter))
        elif not tell(pending.pop(0), draw):
            aborted = True
            break
        t_iter = time.perf_counter()
    return RunResult(
        records=records,
        incumbent=incumbent,
        total_time_ms=(time.perf_counter() - t_start) * 1e3,
        gp_count=len(models),
        design=design,
        design_eval_ms=list(design_ms),
        aborted=aborted,
    )
