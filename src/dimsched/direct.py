"""DIRECT (DIviding RECTangles) global minimizer.

Works in the normalized unit cube with an affine map to the caller's
bounds.  Rectangles are trisected along their longest sides; candidates
for division are the potentially optimal rectangles on the lower-right
convex hull of (diameter, center value).  A rectangle is a plain tuple
that is its own heap entry: its center value and creation index, which
order it, then its diameter, its center in the unit cube and in the
caller's coordinates, and its geometry.  One cache keyed by how often
each side was trisected holds a geometry's diameter, its longest sides
and a third of their length, and the children of one trisected side
share one lookup.  Live rectangles sit in one min-heap per diameter
class, ordered by (center value, creation index) as in Gablonsky &
Kelley (J. Global Optim. 2001): only a class's best rectangle can be
potentially optimal, so each iteration decides from the class heads
alone.  The classes hand the hull one head per diameter, in ascending
diameter, and the heads it selects are divided in that order; the
classes are listed in that order as they appear, so no iteration sorts
them.  The hull starts at the first head of least value, which is the
best value found so far and gives the improvement target; where a
product of differences in the hull's test underflows, the test is
decided in exact rational arithmetic.  A probe's coordinates in the
caller's box are computed in Python, c * span + lower as numpy would
round them, and the probes of one iteration go to the objective as one
array, made in one numpy call, which it scores in one call.  The first
iteration divides the whole box whatever its center's value, so the
center is scored in the same call as the box's probes.  Deterministic
for a given objective, bounds and configuration.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
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

# The least positive normal float.
_TINY = 2.2250738585072014e-308


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
def _geometry(levels: tuple[int, ...]) -> tuple[float, tuple[int, ...], float, tuple[int, ...]]:
    """The diameter, the longest sides (in index order), a third of their length, and levels."""
    top = min(levels)
    # Sorted, so equal geometries give the identical float the hull groups by.
    diameter = 0.5 * float(np.linalg.norm(np.sort([_side(k) for k in levels])))
    return diameter, tuple(j for j, k in enumerate(levels) if k == top), _side(top + 1), levels


# A rect is a plain tuple and its own entry in its class's heap:
#   (f_center, index, diameter, (center, point), geometry).
# center is in [0,1]^d and point is the same center in the caller's
# coordinates, each a tuple of floats; geometry is _geometry(levels), where
# side j is _side(levels[j]), and diameter its first field.  index, the
# creation order, is unique, so rects compare by (f_center, index) alone.
Rect = tuple


class _Classes(dict):
    """Live rects by diameter, each class a min-heap of rects.

    The heaps are also listed in ascending diameter, as their classes
    appear, so the classes are never sorted.
    """

    def __init__(self):
        super().__init__()
        self._ascending: list[tuple[float, list[Rect]]] = []  # (diameter, heap)

    def new(self, diameter: float) -> list[Rect]:
        """The heap of a new class; its diameter is in no other."""
        heap = self[diameter] = []
        bisect.insort(self._ascending, (diameter, heap))
        return heap

    def heads(self) -> list[Rect]:
        """The best rect of each nonempty class, in ascending diameter."""
        return [heap[0] for _, heap in self._ascending if heap]


class _Evaluator:
    """Counts evaluations, tracks the best point, rejects non-finite values."""

    def __init__(self, g: Callable, max_evals: int):
        self.g = g
        self.max_evals = max_evals
        self.count = 0
        self.best_x: np.ndarray | None = None
        self.best_f = np.inf

    @property
    def remaining(self) -> int:
        return self.max_evals - self.count

    def __call__(self, X: np.ndarray) -> list[float]:
        """Values of g at the rows of X, from one call of g.

        Counted, checked and compared with the best in row order, as if
        g had been called on one row after the other.
        """
        values = np.asarray(self.g(X), dtype=float)
        if values.shape != (X.shape[0],):
            raise DimensionMismatch(
                f"objective returned shape {values.shape} for {X.shape[0]} points"
            )
        values = values.tolist()
        # A sum of finite values is finite unless it overflows.
        if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
            i = next(i for i, v in enumerate(values) if not math.isfinite(v))
            raise NonFiniteObjective(f"objective returned {values[i]} at {X[i]}")
        self.count += len(values)
        best = min(values)  # the first row at the minimum
        if best < self.best_f:
            self.best_f = best
            self.best_x = X[values.index(best)]
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
    A chord test whose two products of differences are both zero or
    subnormal is made in exact rational arithmetic, so no underflow drops
    a vertex from the hull.
    """
    if not heads:
        return []
    fs = [r[0] for r in heads]
    f_min = min(fs)
    # K >= 0 leaves the heads from the first of least value on, so the
    # lower convex hull is a monotone chain from that head, which no
    # rounding can pop.  The chain's last vertex is (d2, f2, i2), and the
    # vertices before it are in below.
    i2 = fs.index(f_min)
    d2, f2 = heads[i2][2], f_min
    below: list[tuple[float, float, int]] = []  # (diameter, f_center, index)
    tiny, neg_tiny = _TINY, -_TINY
    for i in range(i2 + 1, len(heads)):
        d, f = heads[i][2], fs[i]
        while below:
            d1, f1, i1 = below[-1]
            # Drop the middle point unless it lies strictly below the chord.
            left = (f2 - f1) * (d - d1)
            right = (f - f1) * (d2 - d1)
            # A zero or subnormal product may have underflowed.  Where one
            # product is normal, it decides the test in floats; where neither
            # is, the test is made exactly.  Diameters differ, so a product
            # is exactly zero where its two values are equal, and two such
            # zeros need no exact test.
            if neg_tiny < left < tiny and neg_tiny < right < tiny and (f2 != f1 or f != f1):
                left = (Fraction(f2) - Fraction(f1)) * (Fraction(d) - Fraction(d1))
                right = (Fraction(f) - Fraction(f1)) * (Fraction(d2) - Fraction(d1))
            if left >= right:
                below.pop()
                d2, f2, i2 = d1, f1, i1
            else:
                break
        below.append((d2, f2, i2))
        d2, f2, i2 = d, f, i

    # A vertex but the last qualifies if it achieves the improvement at the
    # largest K that keeps it the minimizer: the slope to the next vertex.
    target = f_min - _EPSILON * abs(f_min)
    selected: list[int] = []
    below.append((d2, f2, i2))
    d, f, i = below[0]
    for d_next, f_next, i_next in below[1:]:
        if f - (f_next - f) / (d_next - d) * d <= target:
            selected.append(i)
        d, f, i = d_next, f_next, i_next
    selected.append(i)  # the last hull vertex
    return selected


def _probes(rect: Rect, budget: int, lower: list[float], span: list[float],
            rows: list[float]) -> tuple[tuple[int, ...], list[tuple[tuple, tuple]]]:
    """The dimensions to split rect along, and the (center, point) of each probe.

    These are rect's longest sides, in index order, as many as budget
    evaluations pay for.  Probes 2k and 2k + 1 step the k-th dimension up
    and down by a third of the longest side.  Each probe's point is also
    appended to rows, coordinate by coordinate.
    """
    _, _, _, (center, point), (_, dims, delta, _) = rect
    dims = dims[: budget // 2]
    probes = []
    # One list of each edited in place: cheaper than slicing the tuples.
    # A point's coordinate is c * span + lower, as numpy maps the unit
    # cube: a product, then a sum, each rounded once.
    c_row, p_row = list(center), list(point)
    for j in dims:
        c, s, lo = center[j], span[j], lower[j]
        c_row[j] = x = c + delta
        p_row[j] = x * s + lo
        probes.append((tuple(c_row), tuple(p_row)))
        rows += p_row
        c_row[j] = x = c - delta
        p_row[j] = x * s + lo
        probes.append((tuple(c_row), tuple(p_row)))
        rows += p_row
        c_row[j] = c
        p_row[j] = point[j]
    return dims, probes


def _divide(live: _Classes, rect: Rect, dims: tuple[int, ...], probes: list[tuple[tuple, tuple]],
            values: list[float], at: int, indices: Iterator[int]) -> None:
    """Trisect rect along dims from its probes, best dimensions first, and file the pieces in live.

    Probe r's value is values[at + r].  The pieces take their creation
    indices from indices as they are filed: the two probes of each side,
    then the center, which keeps the last side's geometry.  They tile rect
    exactly; with no dims, rect goes back to its class unchanged.
    """
    if not dims:
        heapq.heappush(live[rect[2]], rect)
        return
    # By the lower value of the two probes, then by dimension; dims ascend.
    order = range(len(dims))
    if len(dims) == 2:
        if min(values[at + 2], values[at + 3]) < min(values[at], values[at + 1]):
            order = (1, 0)
    elif len(dims) > 2:
        order = sorted(
            order, key=lambda k: (min(values[at + 2 * k], values[at + 2 * k + 1]), dims[k])
        )
    levels = list(rect[4][3])
    push = heapq.heappush
    for k in order:
        levels[dims[k]] += 1
        geometry = _geometry(tuple(levels))
        diameter = geometry[0]
        # One lookup for the side's pieces, and for the center after the last side.
        heap = live.get(diameter)
        if heap is None:
            heap = live.new(diameter)
        r = 2 * k
        push(heap, (values[at + r], next(indices), diameter, probes[r], geometry))
        push(heap, (values[at + r + 1], next(indices), diameter, probes[r + 1], geometry))
    push(heap, (rect[0], next(indices), diameter, rect[3], geometry))


def _points(rows: list[float], d: int) -> np.ndarray:
    """The (m, d) array of points whose coordinates rows lists one point after another."""
    return np.fromiter(rows, float, len(rows)).reshape(-1, d)


def direct_minimize(
    g: Callable, bounds: Bounds, config: DirectConfig = DirectConfig()
) -> tuple[np.ndarray, float, int]:
    """Minimize g over bounds; returns (x_best, g_best, evaluations used).

    g takes an (m, d) array of points and returns their m values.  It is
    called once per iteration, on every probe of the rectangles that
    iteration divides: DIRECT fixes them all before it looks at any of
    their values.  The first iteration divides the whole box, which is
    the only rectangle, whatever its center's value, so the center is
    scored in the same call as the box's probes, first.  With max_iters 0,
    or a budget below 3, the center is scored alone and nothing is divided.
    """
    d = bounds.d
    evaluate = _Evaluator(g, config.max_evals)
    lower, span = bounds.lower.tolist(), bounds.span.tolist()
    geometry = _geometry((0,) * d)
    rows = [0.5 * s + lo for s, lo in zip(span, lower)]
    root = (math.nan, 0, geometry[0], ((0.5,) * d, tuple(rows)), geometry)
    indices = itertools.count(1)  # creation order, for tie-breaking
    if config.max_iters == 0 or config.max_evals < 3:  # no iteration, or no probe pair paid for
        evaluate(_points(rows, d))
        return evaluate.best_x, evaluate.best_f, evaluate.count
    dims, probes = _probes(root, config.max_evals - 1, lower, span, rows)
    values = evaluate(_points(rows, d))
    live = _Classes()
    _divide(live, (values[0], *root[1:]), dims, probes, values, 1, indices)

    for _ in range(config.max_iters - 1):
        budget = evaluate.remaining
        if budget < 2:
            break
        heads = live.heads()
        plans = []
        rows = []
        # In ascending diameter, as the hull returns them.
        for i in potentially_optimal(heads):
            rect = heads[i]
            heapq.heappop(live[rect[2]])  # rect heads its class
            # Once the budget runs out a rect gets no probes and stays
            # whole, so the partition stays exact.
            dims, probes = _probes(rect, budget, lower, span, rows)
            budget -= len(probes)
            plans.append((rect, dims, probes))
        values = evaluate(_points(rows, d))
        at = 0
        for rect, dims, probes in plans:
            _divide(live, rect, dims, probes, values, at, indices)
            at += len(probes)
    assert evaluate.best_x is not None
    return evaluate.best_x, evaluate.best_f, evaluate.count

