"""Objective catalog: synthetic benchmarks and an ODE fitting problem.

The ODE problem is a 4-parameter Lotka-Volterra fit against synthetic
data; the objective is a weighted sum of squared errors where each
channel is scaled by the inverse square of its data mean, so channels
with different magnitudes contribute comparably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .direct import Bounds
from .errors import ChannelMismatch, DimensionMismatch, NonFiniteState

# Finite, rankable penalty for parameter vectors whose simulation blows up.
_BLOWUP_PENALTY = 1e9

_LV_TRUE_PARAMS = np.array([1.5, 1.0, 3.0, 1.0])
_LV_Y0 = np.array([5.0, 2.0])


@dataclass(frozen=True)
class ObjectiveSpec:
    name: str
    dimension: int
    bounds: Bounds
    evaluator: Callable[[np.ndarray], float]
    known_optimum: float | None = None


@dataclass(frozen=True)
class TimeSeriesData:
    times: np.ndarray
    channels: tuple[tuple[str, np.ndarray], ...]

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).ravel()
        if times.shape[0] >= 2 and not np.all(np.diff(times) > 0):
            raise ChannelMismatch("times must be strictly increasing")
        chans = []
        for name, values in self.channels:
            values = np.asarray(values, dtype=float).ravel()
            if values.shape[0] != times.shape[0]:
                raise ChannelMismatch(
                    f"channel {name!r} has {values.shape[0]} values for "
                    f"{times.shape[0]} time points"
                )
            chans.append((str(name), values))
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "channels", tuple(chans))


@dataclass(frozen=True)
class OdeProblem:
    state_dim: int
    rhs: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    y0: np.ndarray
    param_bounds: Bounds
    channel_names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "y0", np.asarray(self.y0, dtype=float).ravel())
        names = self.channel_names or tuple(f"s{i}" for i in range(self.state_dim))
        object.__setattr__(self, "channel_names", tuple(names))


# --- synthetic benchmarks -------------------------------------------------


def _sphere(x: np.ndarray) -> float:
    return float(np.sum(x * x))


def _rosenbrock(x: np.ndarray) -> float:
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _ackley(x: np.ndarray) -> float:
    d = x.shape[0]
    term1 = -20.0 * math.exp(-0.2 * math.sqrt(float(np.sum(x * x)) / d))
    term2 = -math.exp(float(np.sum(np.cos(2.0 * math.pi * x))) / d)
    return term1 + term2 + 20.0 + math.e


def _styblinski_tang(x: np.ndarray) -> float:
    return 0.5 * float(np.sum(x**4 - 16.0 * x**2 + 5.0 * x))


def _additive_sphere_rosenbrock(x: np.ndarray) -> float:
    half = (x.shape[0] + 1) // 2
    return _sphere(x[:half]) + _rosenbrock(x[half:])


_BENCHMARKS: dict[str, Callable[[np.ndarray], float]] = {
    "sphere": _sphere,
    "rosenbrock": _rosenbrock,
    "ackley": _ackley,
    "styblinski_tang": _styblinski_tang,
    "additive_sphere_rosenbrock": _additive_sphere_rosenbrock,
}

_BENCHMARK_BOUNDS = {
    "sphere": (-5.12, 5.12),
    "rosenbrock": (-2.048, 2.048),
    "ackley": (-32.768, 32.768),
    "styblinski_tang": (-5.0, 5.0),
    "additive_sphere_rosenbrock": (-2.048, 2.048),
}

_MIN_DIMS = {"rosenbrock": 2, "additive_sphere_rosenbrock": 4}


def _benchmark_optimum(name: str, d: int) -> float:
    if name == "styblinski_tang":
        return -39.16616570377142 * d
    return 0.0


def benchmark_catalog() -> dict[str, ObjectiveSpec]:
    """All benchmark instances at the experiment dimensionalities."""
    catalog: dict[str, ObjectiveSpec] = {}
    for family, fn in _BENCHMARKS.items():
        lo, hi = _BENCHMARK_BOUNDS[family]
        for d in (2, 4, 10, 11, 12):
            if d < _MIN_DIMS.get(family, 1):
                continue
            name = f"{family}-{d}"
            catalog[name] = ObjectiveSpec(
                name=name,
                dimension=d,
                bounds=Bounds(np.full(d, lo), np.full(d, hi)),
                evaluator=fn,
                known_optimum=_benchmark_optimum(family, d),
            )
    lv = make_lotka_volterra_objective(seed=0, noise_std=0.0)
    catalog[lv.name] = lv
    return catalog


# --- ODE machinery --------------------------------------------------------


def rk4_integrate(problem: OdeProblem, params, times) -> TimeSeriesData:
    """Fixed-step classical Runge-Kutta; states reported at the given times.

    Internal step is min(dt)/20; each reporting interval is subdivided
    evenly so grid points are hit exactly.  Raises NonFiniteState if the
    trajectory blows up.
    """
    params = np.asarray(params, dtype=float).ravel()
    times = np.asarray(times, dtype=float).ravel()
    if times.shape[0] < 2:
        raise DimensionMismatch("need at least two time points")
    dts = np.diff(times)
    h_target = float(dts.min()) / 20.0
    horizon = float(times[-1] - times[0])

    state = problem.y0.copy()
    states = [state.copy()]
    rhs = problem.rhs
    t = float(times[0])
    for i, dt in enumerate(dts):
        n_sub = max(int(math.ceil(dt / h_target)), 1)
        h = dt / n_sub
        half, sixth = 0.5 * h, h / 6.0
        for _ in range(n_sub):
            k1 = rhs(t, state, params)
            k2 = rhs(t + half, state + half * k1, params)
            k3 = rhs(t + half, state + half * k2, params)
            k4 = rhs(t + h, state + h * k3, params)
            state = state + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
            if not np.isfinite(state).all():
                frac = (t - times[0]) / horizon if horizon > 0 else 0.0
                raise NonFiniteState(min(max(frac, 0.0), 1.0))
        t = float(times[i + 1])
        states.append(state.copy())
    arr = np.asarray(states)
    channels = tuple(
        (name, arr[:, j]) for j, name in enumerate(problem.channel_names)
    )
    return TimeSeriesData(times=times, channels=channels)


def weighted_sse(sim: TimeSeriesData, data: TimeSeriesData) -> float:
    """Channel-weighted squared error; weight is 1/mean(data channel)^2."""
    sim_names = [name for name, _ in sim.channels]
    data_names = [name for name, _ in data.channels]
    if sim_names != data_names or sim.times.shape != data.times.shape or not np.allclose(
        sim.times, data.times
    ):
        raise ChannelMismatch("simulation and data channels/times do not align")
    total = 0.0
    for (_, sim_vals), (_, data_vals) in zip(sim.channels, data.channels):
        mean = float(np.mean(data_vals))
        weight = 1.0 / (mean * mean) if mean != 0.0 else 1.0
        total += weight * float(np.sum((sim_vals - data_vals) ** 2))
    return total


def _lv_rhs(t: float, state: np.ndarray, params: np.ndarray) -> np.ndarray:
    # Plain floats: scalar arithmetic on numpy scalars is several times slower.
    alpha, beta, gamma, delta = params.tolist()
    prey, predator = state.tolist()
    return np.array(
        [
            alpha * prey - beta * prey * predator,
            delta * prey * predator - gamma * predator,
        ]
    )


def lotka_volterra_problem() -> OdeProblem:
    return OdeProblem(
        state_dim=2,
        rhs=_lv_rhs,
        y0=_LV_Y0,
        param_bounds=Bounds(np.full(4, 0.1), np.full(4, 5.0)),
        channel_names=("prey", "predator"),
    )


def make_lotka_volterra_objective(seed: int, noise_std: float) -> ObjectiveSpec:
    """Predator-prey parameter fit against synthetic noisy observations."""
    problem = lotka_volterra_problem()
    times = np.linspace(0.0, 10.0, 25)
    truth = rk4_integrate(problem, _LV_TRUE_PARAMS, times)
    rng = np.random.default_rng(seed)
    noisy_channels = tuple(
        (name, values + rng.normal(0.0, noise_std, values.shape) if noise_std > 0 else values)
        for name, values in truth.channels
    )
    data = TimeSeriesData(times=times, channels=noisy_channels)

    def objective(params) -> float:
        try:
            sim = rk4_integrate(problem, params, times)
        except NonFiniteState as exc:
            return _BLOWUP_PENALTY + exc.fraction_completed
        return weighted_sse(sim, data)

    return ObjectiveSpec(
        name="lotka_volterra",
        dimension=4,
        bounds=problem.param_bounds,
        evaluator=objective,
        known_optimum=0.0 if noise_std == 0 else None,
    )
