"""Objective catalog: synthetic benchmarks and an ODE fitting problem.

An ODE fit works on plain arrays.  The model is a function
``rhs(t, state, params)``; ``rk4_integrate`` returns its states at the
observation times as a (T, k) array, one column per state, and
``weighted_sse`` compares two such arrays column by column, each column
scaled by the inverse square of its data mean, so states of different
magnitudes contribute comparably.  The catalog's ODE problem is a
4-parameter Lotka-Volterra fit against synthetic data built that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .direct import Bounds
from .errors import DimensionMismatch, NonFiniteState

# Finite, rankable penalty for parameter vectors whose simulation blows up.
_BLOWUP_PENALTY = 1e9

_LV_TRUE_PARAMS = np.array([1.5, 1.0, 3.0, 1.0])
_LV_Y0 = np.array([5.0, 2.0])
_LV_BOX = (0.1, 5.0)


@dataclass(frozen=True)
class ObjectiveSpec:
    name: str
    bounds: Bounds
    evaluator: Callable[[np.ndarray], float]
    known_optimum: float | None = None

    @property
    def dimension(self) -> int:
        return self.bounds.d


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


# family: (function, box half-width, least dimension, optimum per coordinate)
_FAMILIES = {
    "sphere": (_sphere, 5.12, 1, 0.0),
    "rosenbrock": (_rosenbrock, 2.048, 2, 0.0),
    "ackley": (_ackley, 32.768, 1, 0.0),
    "styblinski_tang": (_styblinski_tang, 5.0, 1, -39.16616570377142),
    "additive_sphere_rosenbrock": (_additive_sphere_rosenbrock, 2.048, 4, 0.0),
}


def benchmark_catalog() -> dict[str, ObjectiveSpec]:
    """All benchmark instances at the experiment dimensionalities."""
    catalog: dict[str, ObjectiveSpec] = {}
    for family, (fn, half_width, min_dim, optimum) in _FAMILIES.items():
        for d in (2, 4, 10, 11, 12):
            if d < min_dim:
                continue
            name = f"{family}-{d}"
            catalog[name] = ObjectiveSpec(
                name=name,
                bounds=Bounds(np.full(d, -half_width), np.full(d, half_width)),
                evaluator=fn,
                known_optimum=optimum * d,
            )
    lv = make_lotka_volterra_objective(seed=0, noise_std=0.0)
    catalog[lv.name] = lv
    return catalog


# --- ODE machinery --------------------------------------------------------


def rk4_integrate(rhs, y0, params, times) -> np.ndarray:
    """Fixed-step classical Runge-Kutta; row i is the state at ``times[i]``.

    Returns a (len(times), len(y0)) array.  Internal step is min(dt)/20;
    each reporting interval is subdivided evenly so grid points are hit
    exactly.  Raises DimensionMismatch unless ``times`` holds at least two
    strictly increasing points, and NonFiniteState if the trajectory
    blows up.
    """
    params = np.asarray(params, dtype=float).ravel()
    times = np.asarray(times, dtype=float).ravel()
    if times.shape[0] < 2:
        raise DimensionMismatch("need at least two time points")
    dts = np.diff(times)
    if not np.all(dts > 0):
        raise DimensionMismatch("times must be strictly increasing")
    h_target = float(dts.min()) / 20.0
    horizon = float(times[-1] - times[0])

    state = np.array(y0, dtype=float).ravel()
    states = np.empty((times.shape[0], state.shape[0]))
    states[0] = state
    t = float(times[0])
    # A blow-up is reported as NonFiniteState, not as numpy's overflow warning.
    with np.errstate(over="ignore", invalid="ignore"):
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
                    raise NonFiniteState(min((t - times[0]) / horizon, 1.0))
            t = float(times[i + 1])
            states[i + 1] = state
    return states


def weighted_sse(sim, data) -> float:
    """Column-weighted squared error; weight is 1/mean(data column)^2.

    A misfit too large for a float is inf, with no overflow warning.
    """
    sim = np.asarray(sim, dtype=float)
    data = np.asarray(data, dtype=float)
    if sim.shape != data.shape or data.ndim != 2:
        raise DimensionMismatch(
            f"need two (T, k) arrays of one shape, got {sim.shape} and {data.shape}"
        )
    total = 0.0
    with np.errstate(over="ignore"):
        for sim_vals, data_vals in zip(sim.T, data.T):
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


def make_lotka_volterra_objective(seed: int, noise_std: float) -> ObjectiveSpec:
    """Predator-prey parameter fit against synthetic noisy observations."""
    times = np.linspace(0.0, 10.0, 25)
    data = rk4_integrate(_lv_rhs, _LV_Y0, _LV_TRUE_PARAMS, times)
    if noise_std > 0:
        rng = np.random.default_rng(seed)
        for column in data.T:
            column += rng.normal(0.0, noise_std, column.shape)

    def objective(params) -> float:
        try:
            sim = rk4_integrate(_lv_rhs, _LV_Y0, params, times)
        except NonFiniteState as exc:
            return _BLOWUP_PENALTY + exc.fraction_completed
        sse = weighted_sse(sim, data)
        # A finite trajectory too far out for its misfit to be a float:
        # the penalty of a blow-up at the end of the horizon.
        return sse if math.isfinite(sse) else _BLOWUP_PENALTY + 1.0

    lo, hi = _LV_BOX
    return ObjectiveSpec(
        name="lotka_volterra",
        bounds=Bounds(np.full(4, lo), np.full(4, hi)),
        evaluator=objective,
        known_optimum=0.0 if noise_std == 0 else None,
    )
