"""DIRECT (DIviding RECTangles) global minimizer.

Works in the normalized unit cube with an affine map to the caller's
bounds.  Rectangles are trisected along their longest sides; candidates
for division are the potentially optimal rectangles on the lower-right
convex hull of (diameter, center value).  The objective is vectorized
and scores the probe points of one iteration in one call.  Fully
deterministic for a given objective, bounds, and configuration.
"""

from __future__ import annotations

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


@dataclass
class Rect:
    center: np.ndarray        # in [0,1]^d
    side_lengths: np.ndarray  # powers of 1/3
    f_center: float
    index: int                # creation order, used for tie-breaking

    def __post_init__(self):
        # Computed once: potentially_optimal reads it for every rect on
        # every iteration.  Sorting makes the float identical for rects of
        # equal geometry, so the diameter grouping there stays exact.
        self._diameter = 0.5 * float(np.linalg.norm(np.sort(self.side_lengths)))

    @property
    def diameter(self) -> float:
        return self._diameter

    @property
    def measure(self) -> float:
        return float(np.prod(self.side_lengths))


class _Evaluator:
    """Counts evaluations, tracks the best point, rejects non-finite values."""

    def __init__(self, g: Callable, bounds: Bounds, max_evals: int):
        self.g = g
        self.bounds = bounds
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
        X = self.bounds.lower + centers * self.bounds.span
        values = np.asarray(self.g(X), dtype=float)
        if values.shape != (X.shape[0],):
            raise DimensionMismatch(
                f"objective returned shape {values.shape} for {X.shape[0]} points"
            )
        bad = ~np.isfinite(values)
        if bad.any():
            i = int(np.argmax(bad))
            raise NonFiniteObjective(f"objective returned {values[i]} at {X[i]}")
        self.count += X.shape[0]
        i = int(np.argmin(values))  # the first row at the minimum
        if values[i] < self.best_f:
            self.best_f = float(values[i])
            self.best_x = X[i]
        return values.tolist()


def potentially_optimal(rects: list[Rect], f_min: float, epsilon: float) -> list[int]:
    """Indices of rectangles on the lower-right hull of (diameter, f_center).

    A rectangle qualifies if some slope K >= 0 makes it the minimizer of
    f_center - K * diameter and achieves the epsilon improvement
    f_center - K * diameter <= f_min - epsilon * |f_min|.
    """
    if not rects:
        return []
    # One candidate per distinct diameter: lowest f, ties by creation index.
    best_at: dict[float, int] = {}
    for i, r in enumerate(rects):
        d = r.diameter
        j = best_at.get(d)
        if (
            j is None
            or r.f_center < rects[j].f_center
            or (r.f_center == rects[j].f_center and r.index < rects[j].index)
        ):
            best_at[d] = i
    cands = sorted(best_at.items())  # ascending diameter
    if len(cands) == 1:
        return [cands[0][1]]

    # Lower convex hull over (diameter, f) by monotone chain.
    hull: list[tuple[float, int]] = []
    for d, i in cands:
        f = rects[i].f_center
        while len(hull) >= 2:
            d1, i1 = hull[-2]
            d2, i2 = hull[-1]
            f1, f2 = rects[i1].f_center, rects[i2].f_center
            # Drop the middle point unless it lies strictly below the chord.
            if (f2 - f1) * (d - d1) >= (f - f1) * (d2 - d1):
                hull.pop()
            else:
                break
        hull.append((d, i))

    # K >= 0 restricts the hull to diameters at or beyond the min-f vertex.
    fs = [rects[i].f_center for _, i in hull]
    start = int(np.argmin(fs))
    hull = hull[start:]

    selected: list[int] = []
    for pos, (d, i) in enumerate(hull):
        f = rects[i].f_center
        if pos + 1 < len(hull):
            d_next, i_next = hull[pos + 1]
            k_max = (rects[i_next].f_center - f) / (d_next - d)
            if f - k_max * d > f_min - epsilon * abs(f_min):
                continue
        selected.append(i)
    return selected


def _probes(rect: Rect, budget: int) -> tuple[list[int], np.ndarray]:
    """The dimensions to split rect along, and the centers to probe.

    These are rect's longest sides, in index order, as many as budget
    evaluations pay for.  Rows 2k and 2k + 1 of the centers step the
    k-th dimension up and down by a third of the longest side.
    """
    sides = rect.side_lengths
    longest = sides.max()
    dims = [j for j in range(sides.shape[0]) if sides[j] >= longest * (1 - 1e-12)]
    dims = dims[: max(budget, 0) // 2]
    delta = longest / 3.0
    # Adding 0 leaves a coordinate as it is, and adding -delta equals
    # subtracting delta, so each probe is exactly the center stepped once.
    steps = np.zeros((len(dims), 2, sides.shape[0]))
    for k, j in enumerate(dims):
        steps[k, 0, j] = delta
        steps[k, 1, j] = -delta
    return dims, (rect.center + steps).reshape(-1, sides.shape[0])


def _split(
    rect: Rect, dims: list[int], centers: np.ndarray, values: list[float], next_index: int
) -> tuple[list[Rect], int]:
    """Trisect rect along dims from its probes, best dimensions first.

    The returned rectangles tile the parent exactly; with no dims the
    rect comes back unchanged.
    """
    if not dims:
        return [rect], next_index
    order = sorted(
        range(len(dims)), key=lambda k: (min(values[2 * k], values[2 * k + 1]), dims[k])
    )
    children: list[Rect] = []
    middle_sides = rect.side_lengths.copy()
    for k in order:
        middle_sides = middle_sides.copy()
        middle_sides[dims[k]] /= 3.0
        for row in (2 * k, 2 * k + 1):
            children.append(
                Rect(center=centers[row], side_lengths=middle_sides.copy(),
                     f_center=values[row], index=next_index)
            )
            next_index += 1
    children.append(
        Rect(center=rect.center, side_lengths=middle_sides, f_center=rect.f_center, index=next_index)
    )
    next_index += 1
    return children, next_index


def trisect(rect: Rect, g: Callable, evals_budget: int) -> list[Rect]:
    """Standalone trisection in normalized coordinates (identity bounds).

    g takes an (m, d) array of points and returns their m values.
    """
    d = rect.center.shape[0]
    dims, centers = _probes(rect, evals_budget)
    if not dims:
        return [rect]
    evaluate = _Evaluator(g, Bounds(np.zeros(d), np.ones(d)), evals_budget)
    children, _ = _split(rect, dims, centers, evaluate(centers), rect.index + 1)
    return children


def direct_minimize(
    g: Callable, bounds: Bounds, config: DirectConfig = DirectConfig()
) -> tuple[np.ndarray, float, int]:
    """Minimize g over bounds; returns (x_best, g_best, evaluations used).

    g takes an (m, d) array of points and returns their m values.  It is
    called once for the center of the box and then once per iteration,
    on every probe of the rectangles that iteration divides: DIRECT fixes
    them all before it looks at any of their values.
    """
    d = bounds.d
    evaluate = _Evaluator(g, bounds, config.max_evals)

    center = np.full(d, 0.5)
    (f0,) = evaluate(center[None, :])
    rects = [Rect(center=center, side_lengths=np.ones(d), f_center=f0, index=0)]
    next_index = 1

    for _ in range(config.max_iters):
        if evaluate.remaining < 2:
            break
        selected = potentially_optimal(rects, evaluate.best_f, config.epsilon)
        if not selected:
            break
        # Divide in ascending diameter order for a stable schedule.
        selected.sort(key=lambda i: (rects[i].diameter, rects[i].index))
        budget = evaluate.remaining
        plans = []
        for i in selected:
            # Once the budget runs out a rect gets no probes and stays
            # whole, so the partition stays exact.
            dims, centers = _probes(rects[i], budget)
            budget -= centers.shape[0]
            plans.append((rects[i], dims, centers))
        values = evaluate(np.vstack([centers for _, _, centers in plans]))
        chosen = set(selected)
        divided: list[Rect] = []
        start = 0
        for rect, dims, centers in plans:
            stop = start + centers.shape[0]
            children, next_index = _split(rect, dims, centers, values[start:stop], next_index)
            divided.extend(children)
            start = stop
        rects = [r for i, r in enumerate(rects) if i not in chosen] + divided
    assert evaluate.best_x is not None
    return evaluate.best_x, evaluate.best_f, evaluate.count
