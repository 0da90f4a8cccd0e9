"""Optimizer loops: classical BO, dimension-scheduled BO, and the
latter with several proposals in flight.

All three are entry points of one manager loop, made of two steps.
``ask`` picks a coordinate subset, spawns its GP if the subset is new
and proposes a point on it by maximizing EI over the subset with
DIRECT.  ``tell`` fills the other coordinates in from the incumbent,
evaluates the point, augments the subset's GP, updates the incumbent and
records the iteration.  Dimension-scheduled runs sample the subset from
per-coordinate weights (the sample variance of the observed inputs,
mixed with a uniform floor); classical BO is the case where the subset
is always every coordinate, so it keeps a single full-space GP.  The
manager keeps a registry of GP models keyed by the sorted subset; each
model is spawned from the initial design's projection when its subset is
first drawn, and only ever grows through its own subset's proposals.

Until the next weight refresh, which subsets are drawn, which are new,
which tells retrain and what each of them draws from the run's generator
depend on no result.  So the first ask, at the first refresh, runs the
schedule of the first window (asks 0 to pca_period - 1, at most
max_iter) on a copy of the generator, without proposals or evaluations,
and trains every spawn it predicts in one ``train_hyperparams`` call, one
lockstep stack of all their starts (classical BO: a batch of one; a
design so large that their kernel matrices would pass ``_BATCH_BYTES``
trains them in several batches).  A
spawn takes its pre-trained hyperparameters only where the run's
generator stands where the batch drew that spawn's starts, so they are
the same starts, byte for byte, and it moves the generator past them;
else it trains as a later window's spawn does.  A wrong prediction costs
time, never bits.  Record 0's ``wall_time_ms`` includes the batch.

Between the two steps sits a FIFO of pending proposals: the loop asks
until ``workers`` proposals are pending (one for ``run_bo`` and
``run_dsa``), or until every subset drawn has one pending, then tells
the oldest.  Each proposal is computed in the calling thread when it is
asked for, as in a pool whose workers finish in submission order; runs
stay deterministic given the seed.  There is no pool because proposals
are Python (DIRECT and EI) that holds the GIL: a thread pool took
1.32-1.47 s at 2 workers and 1.66-1.88 s at 4, against 1.14-1.34 s for
``run_dsa`` (styblinski_tang-10, 200 iterations, 2-core x86 host, BLAS on
one thread), and its traces varied between runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .acquisition import acquisition_objective
from .direct import Bounds, DirectConfig, direct_minimize
from .errors import DimensionMismatch, NonFiniteAcquisition, NonFiniteObjective, _as_int
from .gp import (
    _RETRAIN_RESTARTS, Dataset, GpModel, _random_starts, gp_augment, gp_fit, train_hyperparams,
)
from .scheduler import compute_dimension_probabilities, sample_subset

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
        for key, least in (
            ("n_init", 2), ("pca_period", 1), ("retrain_period", 1), ("seed", 0),
            ("max_iter", 0), ("train_max_iter", 0), ("retrain_max_iter", 0),
        ):
            if _as_int(key, getattr(self, key)) < least:
                raise ValueError(f"{key} must be >= {least}")
        # BO ignores subset_size; the scheduled loops check it against the box.
        _as_int("subset_size", self.subset_size)
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


def _fifo(ask, tell, workers: int, steps: int) -> bool:
    """The FIFO of pending proposals, run for steps tells; False once a tell fails.

    It asks until ``workers`` proposals are pending (fewer near the end),
    or until ask returns None because every draw is pending, then tells
    the oldest.  ask takes the pending proposals, each a tuple whose first
    item is its key.
    """
    pending = []
    told = 0
    while told < steps:
        while len(pending) < min(workers, steps - told):
            proposal = ask(pending)
            if proposal is None:
                break  # every draw is pending; tell the oldest first
            pending.append(proposal)
        if not tell(pending.pop(0)):
            return False
        told += 1
    return True


def _draw_key(probs, size: int, rng, pending, sample=sample_subset):
    """A subset that no pending proposal holds: one draw, then up to 10 resamples.

    None if all 11 draws are pending.  The loop passes this module's
    ``sample_subset``, which perfbench's layer trace wraps; the default is
    the function itself, so the first window's prediction is not traced.
    """
    checked_out = {proposal[0] for proposal in pending}
    draws = (sample(probs, size, rng) for _ in range(11))
    return next((key for key in draws if key not in checked_out), None)


def _retrains(n: int, design_n: int, period: int) -> bool:
    """Whether a model of n points retrains on the next: once per period points added."""
    return (n + 1 - design_n) % period == 0


def _generator_copy(rng: np.random.Generator) -> np.random.Generator:
    copy = np.random.Generator(type(rng.bit_generator)())
    copy.bit_generator.state = rng.bit_generator.state
    return copy


def _first_window(rng, probs, design: Dataset, config: RunConfig, workers: int, scheduled: bool):
    """The spawns of asks 0 to pca_period - 1 (at most max_iter), each (key, generator).

    Until the next weight refresh, the key draws, the FIFO, which subsets
    are new and which tells retrain depend on no result, nor do the draws
    the loop makes for them.  So the loop's schedule runs here on a copy
    of rng, with no proposal, evaluation or training: a spawn and a
    retrain draw their random starts, whose count and not their values
    moves the generator.  Each spawn comes with a copy of the generator
    as its training finds it.  A run that aborts spawns fewer.
    """
    sim = _generator_copy(rng)
    sizes: dict[tuple[int, ...], int] = {}  # each model's number of points
    spawns = []

    def ask(pending):
        key = (
            _draw_key(probs, config.subset_size, sim, pending) if scheduled
            else tuple(range(design.d))
        )
        if key is None:
            return None
        if key not in sizes:
            spawns.append((key, _generator_copy(sim)))
            _random_starts(sim, np.ones(len(key)), 1.0, _SPAWN_RESTARTS)
            sizes[key] = design.n
        return (key,)

    def tell(proposal):
        key = proposal[0]
        if _retrains(sizes[key], design.n, config.retrain_period):
            _random_starts(sim, np.ones(len(key)), 1.0, _RETRAIN_RESTARTS)
        sizes[key] += 1
        return True

    _fifo(ask, tell, workers, min(config.pca_period, config.max_iter))
    return spawns


def _run(
    objective, bounds: Bounds, config: RunConfig, workers: int, initial,
    scheduled: bool,
) -> RunResult:
    """The one optimizer loop behind run_bo, run_dsa and run_dsa_parallel.

    Its steps are the local functions ``ask`` and ``tell``, with the FIFO
    of pending proposals between them.  Unscheduled runs (classical BO,
    always one worker) use the full coordinate set as their only key and
    draw no scheduler randomness.
    """
    if _as_int("workers", workers) < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
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
    # The first window's spawns, trained before its first proposal: by key,
    # the projection, the generator state its starts were drawn at, the
    # generator past them and the hyperparameters.
    pretrained: dict[tuple[int, ...], tuple] = {}
    probs: np.ndarray | None = None
    records: list[IterationRecord] = []

    def projection(key) -> Dataset:
        """The design seen on key's coordinates."""
        return Dataset(np.ascontiguousarray(design.X[:, list(key)]), design.Y)

    def train_first_window():
        """Train the first window's predicted spawns, each batch one call, one lockstep stack."""
        spawns = _first_window(rng, probs, design, config, workers, scheduled)
        size = max(1, _BATCH_BYTES // (8 * _SPAWN_RESTARTS * design.n**2))
        for at in range(0, len(spawns), size):
            keys, generators = zip(*spawns[at:at + size])
            states = [generator.bit_generator.state for generator in generators]
            for key in keys:
                boxes[key] = bounds.subset(list(key))
            projs = [projection(key) for key in keys]
            hypers = train_hyperparams(
                projs,
                restarts=_SPAWN_RESTARTS,
                rng=list(generators),
                bounds_ranges=[boxes[key].span for key in keys],
                max_iter=config.train_max_iter,
            )
            pretrained.update(zip(keys, zip(projs, states, generators, hypers)))

    def ask(pending) -> tuple[tuple[int, ...], np.ndarray, float] | None:
        """A proposal (key, x_sub, t_iter) on a key with none pending.

        None if every draw is pending.  The weights are refreshed every
        pca_period proposals, counting the told and the pending ones.  The
        first ask trains the first window's spawns before it proposes.
        """
        nonlocal probs
        t_iter = time.perf_counter()
        key = tuple(range(bounds.d))
        asked = len(records) + len(pending)
        if scheduled and asked % config.pca_period == 0:
            probs = compute_dimension_probabilities(
                np.vstack([design.X, *(r.x for r in records)]), config.floor_eps
            )
        if asked == 0:
            train_first_window()
        if scheduled:
            key = _draw_key(probs, config.subset_size, rng, pending, sample_subset)
            if key is None:
                return None
        if key not in models:
            proj, state, generator, hyper = pretrained.pop(key, (None,) * 4)
            if hyper is not None and rng.bit_generator.state == state:
                # The batch drew this spawn's starts where the run draws them
                # now, so they are the same, byte for byte.
                rng.bit_generator.state = generator.bit_generator.state
            else:
                boxes[key] = bounds.subset(list(key))
                proj = projection(key)
                hyper = train_hyperparams(
                    proj,
                    restarts=_SPAWN_RESTARTS,
                    rng=rng,
                    bounds_ranges=boxes[key].span,
                    max_iter=config.train_max_iter,
                )
            models[key] = gp_fit(proj, hyper)
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

    def tell(proposal) -> bool:
        """Evaluate a proposal, grow its GP and record it; False if its value is not finite.

        The coordinates outside the proposal's subset are the incumbent's
        at this moment, not at the proposal's.
        """
        nonlocal incumbent
        key, x_sub, t_iter = proposal
        x_new = incumbent.point.copy()
        x_new[list(key)] = x_sub
        try:
            y_new, eval_ms = _timed_eval(objective, x_new)
        except NonFiniteObjective:
            return False
        model = models[key]
        models[key] = gp_augment(
            model, x_sub, y_new, retrain=_retrains(model.n, design.n, config.retrain_period),
            rng=rng,
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

    aborted = not _fifo(ask, tell, workers, config.max_iter)
    return RunResult(
        records=records,
        incumbent=incumbent,
        total_time_ms=(time.perf_counter() - t_start) * 1e3,
        gp_count=len(models),
        design=design,
        design_eval_ms=list(design_ms),
        aborted=aborted,
    )
