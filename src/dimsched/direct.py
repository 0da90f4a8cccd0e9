"""DIRECT (DIviding RECTangles) global minimizer.

Works in the normalized unit cube with an affine map to the caller's
bounds.  Rectangles are trisected along their longest sides; candidates
for division are the potentially optimal rectangles on the lower-right
convex hull of (diameter, center value).  A rectangle stores its center
as a tuple of floats and how often each side was trisected, and its
diameter is cached by these levels.
Live rectangles sit in one min-heap per diameter class, ordered by
(center value, creation index) as in Gablonsky & Kelley (J. Global
Optim. 2001): only a class's best rectangle can be potentially optimal,
so each iteration reads the hull off the class heads alone.  The classes
alone decide grouping and order: they hand the hull one head per
diameter, in ascending diameter, and the heads it selects are divided in
that order.  The probes of one iteration are built as float tuples and
handed to the objective as one array, which it scores in one call.
Deterministic for a given objective, bounds and configuration.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .errors import DimensionMismatch, NonFiniteObjective, _as_int


@dataclass(frozen=True)
class Bounds:
    """A box of at least one coordinate, each with a finite, positive span."""

    lower: np.ndarray
    upper: np.ndarray
    span: np.ndarray = field(init=False, repr=False)  # upper - lower

    def __post_init__(self):
        # Copies: a caller's later edit to its arrays cannot leave span stale.
        lo = np.array(self.lower, dtype=float).ravel()
        hi = np.array(self.upper, dtype=float).ravel()
        if lo.shape != hi.shape:
            raise DimensionMismatch("lower/upper lengths differ")
        if lo.size == 0:
            raise DimensionMismatch("the box has no coordinates")
        with np.errstate(over="ignore", invalid="ignore"):
            span = hi - lo
        ok = (span > 0.0) & (span < np.inf)  # nan fails both
        if not ok.all():
            j = int(ok.argmin())
            if not (math.isfinite(lo[j]) and math.isfinite(hi[j])):
                cause = "a bound is not finite"
            elif lo[j] >= hi[j]:
                cause = "need lower < upper"
            else:
                cause = "upper - lower overflows"
            raise DimensionMismatch(
                f"coordinate {j} of the box: {cause} (lower {lo[j]:g}, upper {hi[j]:g})"
            )
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "span", span)

    @property
    def d(self) -> int:
        return self.lower.shape[0]

    def subset(self, dims) -> "Bounds":
        dims = list(dims)
        return Bounds(self.lower[dims], self.upper[dims])


# The least improvement, relative to |f_min|, a potentially optimal
# rectangle must promise: Jones, Perttunen & Stuckman (J. Optim. Theory
# Appl. 1993) recommend 1e-4.
_EPSILON = 1e-4


@dataclass(frozen=True)
class DirectConfig:
    max_evals: int = 2000
    max_iters: int = 100

    def __post_init__(self):
        for key, least in (("max_evals", 1), ("max_iters", 0)):
            if _as_int(key, getattr(self, key)) < least:
                raise ValueError(f"{key} must be >= {least}")


@functools.lru_cache(maxsize=None)
def _side(level: int) -> float:
    """A side of the unit cube trisected level times: 1.0 / 3.0 / ... / 3.0."""
    return functools.reduce(lambda side, _: side / 3.0, range(level), 1.0)


@functools.lru_cache(maxsize=1 << 16)
def _diameter(levels: tuple[int, ...]) -> float:
    # Sorted, so equal geometries give the identical float the hull groups by.
    return 0.5 * float(np.linalg.norm(np.sort([_side(k) for k in levels])))


class Rect:
    __slots__ = ("center", "levels", "f_center", "index", "diameter")

    def __init__(self, center: tuple[float, ...], levels: tuple[int, ...], f_center: float,
                 index: int):
        self.center = center        # in [0,1]^d
        self.levels = levels        # side j is _side(levels[j])
        self.f_center = f_center
        self.index = index          # creation order, used for tie-breaking
        self.diameter = _diameter(levels)


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
        values = values.tolist()
        if not all(map(math.isfinite, values)):
            i = next(i for i, v in enumerate(values) if not math.isfinite(v))
            raise NonFiniteObjective(f"objective returned {values[i]} at {X[i]}")
        self.count += X.shape[0]
        i = values.index(min(values))  # the first row at the minimum
        if values[i] < self.best_f:
            self.best_f = values[i]
            self.best_x = X[i]
        return values


def potentially_optimal(heads: list[Rect], f_min: float) -> list[int]:
    """Indices of the heads on the lower-right hull of (diameter, f_center).

    heads holds one rect per diameter class, in ascending diameter, as
    _Classes.heads() returns them; the indices come in that order.  A head
    qualifies if some slope K >= 0 makes it the minimizer of
    f_center - K * diameter and achieves the improvement
    f_center - K * diameter <= f_min - _EPSILON * |f_min|.  The last hull
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
    fs = [f for _, f, _ in hull]
    hull = hull[fs.index(min(fs)) if fs else 0 :]  # from the first minimum

    selected: list[int] = []
    for (d, f, i), (d_next, f_next, _) in zip(hull, hull[1:]):
        k_max = (f_next - f) / (d_next - d)
        if f - k_max * d <= f_min - _EPSILON * abs(f_min):
            selected.append(i)
    return selected + [i for _, _, i in hull[-1:]]


def _probes(rect: Rect, budget: int) -> tuple[list[int], list[tuple[float, ...]]]:
    """The dimensions to split rect along, and the centers to probe.

    These are rect's longest sides, in index order, as many as budget
    evaluations pay for.  Centers 2k and 2k + 1 step the k-th dimension
    up and down by a third of the longest side.
    """
    center, levels = rect.center, rect.levels
    top = min(levels)
    dims = [j for j, k in enumerate(levels) if k == top][: max(budget, 0) // 2]
    delta = _side(top + 1)  # a third of the longest side
    centers = []
    for j in dims:
        head, c, tail = center[:j], center[j], center[j + 1 :]
        centers += (head + (c + delta,) + tail, head + (c - delta,) + tail)
    return dims, centers


def _split(rect: Rect, dims: list[int], centers: list[tuple[float, ...]], values: list[float],
           indices: Iterator[int]) -> list[Rect]:
    """Trisect rect along dims from its probes, best dimensions first.

    The children take their creation indices from indices, in the order
    they are returned.  They tile the parent exactly; with no dims the
    rect comes back unchanged.
    """
    if not dims:
        return [rect]
    order = sorted(range(len(dims)), key=lambda k: (min(values[2 * k : 2 * k + 2]), dims[k]))
    children: list[Rect] = []
    levels = list(rect.levels)
    for k in order:
        levels[dims[k]] += 1
        child_levels = tuple(levels)
        for row in (2 * k, 2 * k + 1):
            children.append(Rect(centers[row], child_levels, values[row], next(indices)))
    children.append(Rect(rect.center, tuple(levels), rect.f_center, next(indices)))
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
    evaluate = _Evaluator(g, bounds, config.max_evals)
    center = (0.5,) * bounds.d
    (f0,) = evaluate(np.array([center]))
    indices = itertools.count()  # creation order, for tie-breaking
    live = _Classes()
    live.push([Rect(center, (0,) * bounds.d, f0, next(indices))])

    for _ in range(config.max_iters):
        if evaluate.remaining < 2:
            break
        heads = live.heads()
        budget = evaluate.remaining
        plans = []
        probes = []
        # In ascending diameter, as the hull returns them.
        for i in potentially_optimal(heads, evaluate.best_f):
            rect = heads[i]
            heapq.heappop(live[rect.diameter])  # rect heads its class
            # Once the budget runs out a rect gets no probes and stays
            # whole, so the partition stays exact.
            dims, centers = _probes(rect, budget)
            budget -= len(centers)
            plans.append((rect, dims, centers))
            probes += centers
        values = evaluate(np.array(probes))
        for rect, dims, centers in plans:
            live.push(_split(rect, dims, centers, values[: len(centers)], indices))
            values = values[len(centers) :]
    assert evaluate.best_x is not None
    return evaluate.best_x, evaluate.best_f, evaluate.count
