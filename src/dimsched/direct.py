"""DIRECT (DIviding RECTangles) global minimizer.

Works in the normalized unit cube with an affine map to the caller's
bounds.  Rectangles are trisected along their longest sides; candidates
for division are the potentially optimal rectangles on the lower-right
convex hull of (diameter, center value).  A rectangle stores its center
as a tuple of floats and how often each side was trisected; one cache
keyed by these levels holds its diameter, its longest sides and a third
of their length, and the children of one trisected side share one lookup.
Live rectangles sit in one min-heap per diameter class, ordered by
(center value, creation index) as in Gablonsky & Kelley (J. Global
Optim. 2001): only a class's best rectangle can be potentially optimal,
so each iteration decides from the class heads alone.  The classes hand
the hull one head per diameter, in ascending diameter, and the heads it
selects are divided in that order; the classes are listed in that order
as they appear, so no iteration sorts them.  The hull starts at the first
head of least value, which is the best value found so far and gives the
improvement target.  The probes of one iteration are built as float
tuples and handed to the objective as one array, which it scores in one
call.  Deterministic for a given objective, bounds and configuration.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .errors import DimensionMismatch, NonFiniteObjective, _as_int


@dataclass(frozen=True, eq=False)
class Bounds:
    """A box of at least one coordinate, each with a finite, positive span.

    Two boxes are equal when their lower and upper bounds are.
    """

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Bounds):
            return NotImplemented
        return np.array_equal(self.lower, other.lower) and np.array_equal(self.upper, other.upper)

    def __hash__(self) -> int:
        # From floats, which hash -0.0 as 0.0, as array_equal compares them.
        return hash((tuple(self.lower.tolist()), tuple(self.upper.tolist())))

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
def _geometry(levels: tuple[int, ...]) -> tuple[float, tuple[int, ...], float]:
    """The diameter, the longest sides' dimensions in index order, and a third of their length."""
    top = min(levels)
    # Sorted, so equal geometries give the identical float the hull groups by.
    diameter = 0.5 * float(np.linalg.norm(np.sort([_side(k) for k in levels])))
    return diameter, tuple(j for j, k in enumerate(levels) if k == top), _side(top + 1)


class Rect:
    __slots__ = ("center", "levels", "f_center", "index", "diameter")

    def __init__(self, center: tuple[float, ...], levels: tuple[int, ...], f_center: float,
                 index: int, diameter: float | None = None):
        self.center = center        # in [0,1]^d
        self.levels = levels        # side j is _side(levels[j])
        self.f_center = f_center
        self.index = index          # creation order, used for tie-breaking
        # From _geometry(levels), unless the caller has looked it up already.
        self.diameter = _geometry(levels)[0] if diameter is None else diameter


class _Classes(dict):
    """Live rects by diameter, each class a min-heap of (f_center, index, rect).

    The heaps are also listed in ascending diameter, as their classes
    appear, so the classes are never sorted.
    """

    def __init__(self):
        super().__init__()
        self._ascending: list[tuple[float, list]] = []  # (diameter, heap)

    def push(self, rects: list[Rect]) -> None:
        for r in rects:
            heap = self.get(r.diameter)
            if heap is None:  # a new class; its diameter is in no other
                heap = self[r.diameter] = []
                bisect.insort(self._ascending, (r.diameter, heap))
            heapq.heappush(heap, (r.f_center, r.index, r))

    def heads(self) -> list[Rect]:
        """The best rect of each nonempty class, in ascending diameter."""
        return [heap[0][2] for _, heap in self._ascending if heap]


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
        X = centers * self.span
        X += self.lower
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


def potentially_optimal(heads: list[Rect]) -> list[int]:
    """Indices of the heads on the lower-right hull of (diameter, f_center).

    heads holds one rect per diameter class, in ascending diameter, as
    _Classes.heads() returns them; the indices come in that order.  A head
    qualifies if some slope K >= 0 makes it the minimizer of
    f_center - K * diameter and achieves the improvement
    f_center - K * diameter <= f_min - _EPSILON * |f_min|, where f_min is
    the least head value.  In direct_minimize that is the best value found
    so far: every evaluated point is the center of a live rect, and each
    head is the least of its class.  The last hull vertex always qualifies.
    """
    if not heads:
        return []
    fs = [r.f_center for r in heads]
    f_min = min(fs)
    # K >= 0 leaves the heads from the first of least value on, so the
    # lower convex hull is a monotone chain from that head, which no
    # rounding can pop.
    hull: list[tuple[float, float, int]] = []  # (diameter, f_center, index)
    for i in range(fs.index(f_min), len(heads)):
        d, f = heads[i].diameter, fs[i]
        while len(hull) >= 2:
            d1, f1, _ = hull[-2]
            d2, f2, _ = hull[-1]
            # Drop the middle point unless it lies strictly below the chord.
            if (f2 - f1) * (d - d1) >= (f - f1) * (d2 - d1):
                hull.pop()
            else:
                break
        hull.append((d, f, i))

    # A vertex but the last qualifies if it achieves the improvement at the
    # largest K that keeps it the minimizer: the slope to the next vertex.
    target = f_min - _EPSILON * abs(f_min)
    selected: list[int] = []
    d, f, i = hull[0]
    for d_next, f_next, i_next in hull[1:]:
        if f - (f_next - f) / (d_next - d) * d <= target:
            selected.append(i)
        d, f, i = d_next, f_next, i_next
    selected.append(i)  # the last hull vertex
    return selected


def _probes(rect: Rect, budget: int) -> tuple[tuple[int, ...], list[tuple[float, ...]]]:
    """The dimensions to split rect along, and the centers to probe.

    These are rect's longest sides, in index order, as many as budget
    evaluations pay for.  Centers 2k and 2k + 1 step the k-th dimension
    up and down by a third of the longest side.
    """
    center = rect.center
    _, dims, delta = _geometry(rect.levels)
    dims = dims[: max(budget, 0) // 2]
    centers = []
    for j in dims:
        head, c, tail = center[:j], center[j], center[j + 1 :]
        centers += (head + (c + delta,) + tail, head + (c - delta,) + tail)
    return dims, centers


def _split(rect: Rect, dims: tuple[int, ...], centers: list[tuple[float, ...]],
           values: list[float], indices: Iterator[int]) -> list[Rect]:
    """Trisect rect along dims from its probes, best dimensions first.

    The children take their creation indices from indices, in the order
    they are returned.  They tile the parent exactly; with no dims the
    rect comes back unchanged.
    """
    if not dims:
        return [rect]
    order = range(len(dims))
    if len(dims) > 1:  # by the lower value of the two probes, then by dimension
        order = sorted(order, key=lambda k: (min(values[2 * k], values[2 * k + 1]), dims[k]))
    children: list[Rect] = []
    levels = list(rect.levels)
    for k in order:
        levels[dims[k]] += 1
        child_levels = tuple(levels)
        diameter = _geometry(child_levels)[0]
        for row in (2 * k, 2 * k + 1):
            children.append(Rect(centers[row], child_levels, values[row], next(indices), diameter))
    # The center keeps the last pair's geometry.
    children.append(Rect(rect.center, child_levels, rect.f_center, next(indices), diameter))
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
        for i in potentially_optimal(heads):
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
