"""DIRECT (DIviding RECTangles) global minimizer.

Works in the normalized unit cube with an affine map to the caller's
bounds.  Rectangles are trisected along their longest sides; candidates
for division are the potentially optimal rectangles on the lower-right
convex hull of (diameter, center value).  A rectangle stores how often
each side was trisected, and its diameter is cached by these levels.
Live rectangles sit in one min-heap per diameter class, ordered by
(center value, creation index) as in Gablonsky & Kelley (J. Global
Optim. 2001): only a class's best rectangle can be potentially optimal,
so each iteration reads the hull off the class heads alone.  The classes
alone decide grouping and order: they hand the hull one head per
diameter, in ascending diameter, and the heads it selects are divided in
that order.  The objective is vectorized and scores the probe points of
one iteration in one call.  Deterministic for a given objective, bounds
and configuration.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, NonFiniteObjective


@dataclass(frozen=True)
class Bounds:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float).ravel()
        hi = np.asarray(self.upper, dtype=float).ravel()
        if lo.shape != hi.shape:
            raise DimensionMismatch("lower/upper lengths differ")
        if not np.all(lo < hi):
            raise DimensionMismatch("need lower < upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def d(self) -> int:
        return self.lower.shape[0]

    @property
    def span(self) -> np.ndarray:
        return self.upper - self.lower

    def subset(self, dims) -> "Bounds":
        dims = list(dims)
        return Bounds(self.lower[dims], self.upper[dims])


@dataclass(frozen=True)
class DirectConfig:
    max_evals: int = 2000
    max_iters: int = 100
    epsilon: float = 1e-4

    def __post_init__(self):
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")


@functools.lru_cache(maxsize=None)
def _side(level: int) -> float:
    """A side of the unit cube trisected level times: 1.0 / 3.0 / ... / 3.0."""
    return functools.reduce(lambda side, _: side / 3.0, range(level), 1.0)


@functools.lru_cache(maxsize=1 << 16)
def _diameter(levels: tuple[int, ...]) -> float:
    # Sorted, so equal geometries give the identical float the hull groups by.
    return 0.5 * float(np.linalg.norm(np.sort([_side(k) for k in levels])))


@dataclass
class Rect:
    center: np.ndarray        # in [0,1]^d
    levels: tuple[int, ...]   # side j is _side(levels[j])
    f_center: float
    index: int                # creation order, used for tie-breaking

    def __post_init__(self):
        self.diameter = _diameter(self.levels)

    @property
    def measure(self) -> float:
        return float(np.prod([_side(k) for k in self.levels]))


class _Classes(dict):
    """Live rects by diameter, each class a min-heap of (f_center, index, rect)."""

    def push(self, rects: list[Rect]) -> None:
        for r in rects:
            heapq.heappush(self.setdefault(r.diameter, []), (r.f_center, r.index, r))

    def heads(self) -> list[Rect]:
        """The best rect of each nonempty class, in ascending diameter."""
        return [heap[0][2] for _, heap in sorted(self.items()) if heap]


class _Evaluator:
    """Counts evaluations, tracks the best point, rejects non-finite values."""

    def __init__(self, g: Callable, bounds: Bounds, max_evals: int):
        self.g = g
        self.lower, self.span = bounds.lower, bounds.span
        self.max_evals = max_evals
        self.count = 0
        self.best_x: np.ndarray | None = None
        self.best_f = np.inf

    @property
    def remaining(self) -> int:
        return self.max_evals - self.count

    def __call__(self, centers: np.ndarray) -> list[float]:
        """Values of g at the rows of centers, from one call of g.

        Counted, checked and compared with the best in row order, as if
        g had been called on one row after the other.
        """
        X = self.lower + centers * self.span
        values = np.asarray(self.g(X), dtype=float)
        if values.shape != (X.shape[0],):
            raise DimensionMismatch(
                f"objective returned shape {values.shape} for {X.shape[0]} points"
            )
        finite = np.isfinite(values)
        if not finite.all():
            i = int(np.argmin(finite))
            raise NonFiniteObjective(f"objective returned {values[i]} at {X[i]}")
        self.count += X.shape[0]
        i = int(np.argmin(values))  # the first row at the minimum
        if values[i] < self.best_f:
            self.best_f = float(values[i])
            self.best_x = X[i]
        return values.tolist()


def potentially_optimal(heads: list[Rect], f_min: float, epsilon: float) -> list[int]:
    """Indices of the heads on the lower-right hull of (diameter, f_center).

    heads holds one rect per diameter class, in ascending diameter, as
    _Classes.heads() returns them; the indices come in that order.  A head
    qualifies if some slope K >= 0 makes it the minimizer of
    f_center - K * diameter and achieves the epsilon improvement
    f_center - K * diameter <= f_min - epsilon * |f_min|.  The last hull
    vertex always qualifies.
    """
    # Lower convex hull over (diameter, f) by monotone chain.
    hull: list[tuple[float, float, int]] = []  # (diameter, f_center, index)
    for i, r in enumerate(heads):
        d, f = r.diameter, r.f_center
        while len(hull) >= 2:
            (d1, f1, _), (d2, f2, _) = hull[-2], hull[-1]
            # Drop the middle point unless it lies strictly below the chord.
            if (f2 - f1) * (d - d1) >= (f - f1) * (d2 - d1):
                hull.pop()
            else:
                break
        hull.append((d, f, i))

    # K >= 0 restricts the hull to diameters at or beyond the min-f vertex.
    start = min(range(len(hull)), key=lambda p: hull[p][1], default=0)  # the first minimum
    hull = hull[start:]

    selected: list[int] = []
    for (d, f, i), (d_next, f_next, _) in zip(hull, hull[1:]):
        k_max = (f_next - f) / (d_next - d)
        if f - k_max * d <= f_min - epsilon * abs(f_min):
            selected.append(i)
    return selected + [i for _, _, i in hull[-1:]]


def _probes(rect: Rect, budget: int) -> tuple[list[int], np.ndarray]:
    """The dimensions to split rect along, and the centers to probe.

    These are rect's longest sides, in index order, as many as budget
    evaluations pay for.  Rows 2k and 2k + 1 of the centers step the
    k-th dimension up and down by a third of the longest side.
    """
    levels = rect.levels
    top = min(levels)
    dims = [j for j, k in enumerate(levels) if k == top][: max(budget, 0) // 2]
    delta = _side(top + 1)  # a third of the longest side
    # Adding 0 leaves a coordinate as it is, and adding -delta equals
    # subtracting delta, so each probe is exactly the center stepped once.
    steps = np.zeros((len(dims), 2, len(levels)))
    for k, j in enumerate(dims):
        steps[k, 0, j] = delta
        steps[k, 1, j] = -delta
    return dims, (rect.center + steps).reshape(-1, len(levels))


def _split(rect: Rect, dims: list[int], centers: np.ndarray, values: list[float],
           next_index: int) -> tuple[list[Rect], int]:
    """Trisect rect along dims from its probes, best dimensions first.

    The returned rectangles tile the parent exactly; with no dims the
    rect comes back unchanged.
    """
    if not dims:
        return [rect], next_index
    order = sorted(range(len(dims)), key=lambda k: (min(values[2 * k : 2 * k + 2]), dims[k]))
    children: list[Rect] = []
    levels = list(rect.levels)
    for k in order:
        levels[dims[k]] += 1
        child_levels = tuple(levels)
        for row in (2 * k, 2 * k + 1):
            children.append(Rect(centers[row], child_levels, values[row], next_index))
            next_index += 1
    children.append(Rect(rect.center, tuple(levels), rect.f_center, next_index))
    next_index += 1
    return children, next_index


def trisect(rect: Rect, g: Callable, evals_budget: int) -> list[Rect]:
    """Standalone trisection in normalized coordinates (identity bounds).

    g takes an (m, d) array of points and returns their m values.
    """
    dims, centers = _probes(rect, evals_budget)
    unit = Bounds(np.zeros(len(rect.levels)), np.ones(len(rect.levels)))
    values = _Evaluator(g, unit, evals_budget)(centers) if dims else []
    return _split(rect, dims, centers, values, rect.index + 1)[0]


def direct_minimize(
    g: Callable, bounds: Bounds, config: DirectConfig = DirectConfig()
) -> tuple[np.ndarray, float, int]:
    """Minimize g over bounds; returns (x_best, g_best, evaluations used).

    g takes an (m, d) array of points and returns their m values.  It is
    called once for the center of the box and then once per iteration,
    on every probe of the rectangles that iteration divides: DIRECT fixes
    them all before it looks at any of their values.
    """
    evaluate = _Evaluator(g, bounds, config.max_evals)
    center = np.full(bounds.d, 0.5)
    (f0,) = evaluate(center[None, :])
    live = _Classes()
    live.push([Rect(center, (0,) * bounds.d, f0, 0)])
    next_index = 1

    for _ in range(config.max_iters):
        if evaluate.remaining < 2:
            break
        heads = live.heads()
        budget = evaluate.remaining
        plans = []
        # In ascending diameter, as the hull returns them.
        for i in potentially_optimal(heads, evaluate.best_f, config.epsilon):
            rect = heads[i]
            heapq.heappop(live[rect.diameter])  # rect heads its class
            # Once the budget runs out a rect gets no probes and stays
            # whole, so the partition stays exact.
            dims, centers = _probes(rect, budget)
            budget -= centers.shape[0]
            plans.append((rect, dims, centers))
        values = evaluate(np.vstack([centers for _, _, centers in plans]))
        for rect, dims, centers in plans:
            children, next_index = _split(rect, dims, centers, values[: len(centers)], next_index)
            values = values[len(centers) :]
            live.push(children)
    assert evaluate.best_x is not None
    return evaluate.best_x, evaluate.best_f, evaluate.count
