import bisect
import functools
import hashlib
import heapq
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimsched.acquisition import acquisition_objective
from dimsched.direct import (
    Bounds,
    DirectConfig,
    _Classes,
    _divide,
    _Evaluator,
    _geometry,
    _points,
    _probes,
    _side,
    direct_minimize,
    potentially_optimal,
)
from dimsched.errors import DimensionMismatch, NonFiniteObjective
from dimsched.gp import Dataset, KernelHyperparams, gp_fit, train_hyperparams
from dimsched.objectives import benchmark_catalog


def rowwise(f):
    """A batch objective, as DIRECT takes it, from one that scores one point."""
    return lambda X: [f(x) for x in X]


# direct_minimize's rects are tuples, (f_center, index, diameter, (center,
# point), geometry); these name their fields.
def f_center(rect) -> float:
    return rect[0]


def index(rect) -> int:
    return rect[1]


def diameter(rect) -> float:
    return rect[2]


def center(rect) -> tuple:
    return rect[3][0]


def levels(rect) -> tuple:
    return rect[4][3]


def make_rect(center, levels, f_center, index, diameter=None):
    """A rect of the unit cube, where a center is its own point, as direct_minimize builds it.

    diameter is that of levels unless given.
    """
    geometry = _geometry(tuple(levels))
    return (f_center, index, geometry[0] if diameter is None else diameter,
            (center, center), geometry)


def file(live: _Classes, rects) -> None:
    """File rects in the classes of their diameters."""
    for r in rects:
        heap = live.get(diameter(r))
        if heap is None:
            heap = live.new(diameter(r))
        heapq.heappush(heap, r)


def live_rects(live: _Classes) -> list:
    return [r for heap in live.values() for r in heap]


def measure(rect) -> float:
    """The volume of rect in the unit cube."""
    return float(np.prod([_side(k) for k in levels(rect)]))


def trisect(rect, g, evals_budget: int) -> list:
    """One trisection of rect in the unit cube, as direct_minimize divides it.

    g takes an (m, d) array of points and returns their m values.  The
    pieces come in creation order.
    """
    d = len(levels(rect))
    live = _Classes()
    file(live, [rect])
    heapq.heappop(live[diameter(rect)])
    rows = []
    dims, probes = _probes(rect, evals_budget, [0.0] * d, [1.0] * d, rows)
    values = _Evaluator(g, evals_budget)(_points(rows, d)) if dims else []
    _divide(live, rect, dims, probes, values, 0, itertools.count(index(rect) + 1))
    return sorted(live_rects(live), key=index)


def six_hump_camel(x):
    x1, x2 = x
    return (
        (4.0 - 2.1 * x1**2 + x1**4 / 3.0) * x1**2
        + x1 * x2
        + (-4.0 + 4.0 * x2**2) * x2**2
    )


def bump(c):
    """-max(0, 1 - 4|x - c|^2): flat at exactly 0 beyond distance 1/2 of c."""
    c = np.asarray(c)
    return lambda x: -max(0.0, 1.0 - 4.0 * float(np.sum((x - c) ** 2)))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_evals": 0},
        {"max_evals": -3},
        {"max_iters": -1},
    ],
)
def test_direct_config_rejects_out_of_range(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        DirectConfig(**kwargs)


@pytest.mark.parametrize("key", ["max_evals", "max_iters"])
def test_direct_config_rejects_non_integer(key):
    # max_evals = 60.5 used to stop inside DIRECT on a float slice index,
    # and DirectConfig(max_evals=True, max_iters=False) was accepted.
    for value in (60.5, True, False):
        with pytest.raises(ValueError, match=f"{key} must be an integer, got {value}"):
            DirectConfig(**{key: value})
    assert getattr(DirectConfig(**{key: np.int64(60)}), key) == 60


@pytest.mark.parametrize(
    "lower, upper, message",
    [
        ([0.0, 0.0], [1.0], "lower/upper lengths differ"),
        ([0.0, 1.0], [1.0, 1.0], r"coordinate 1 of the box: need lower < upper \(lower 1,"),
        ([-np.inf, 0.0], [np.inf, 1.0], "coordinate 0 of the box: a bound is not finite"),
        ([0.0, np.nan], [1.0, 1.0], "coordinate 1 of the box: a bound is not finite"),
        ([], [], "the box has no coordinates"),
        ([-1e308] * 2, [1e308] * 2, "coordinate 0 of the box: upper - lower overflows"),
    ],
    ids=["lengths_differ", "lower_not_below_upper", "infinite", "nan", "empty", "span_overflows"],
)
def test_bounds_rejected(lower, upper, message):
    # Each box used to stop a loop later, inside numpy or DIRECT: the
    # infinite and the overflowing ones in rng.uniform with an
    # OverflowError, or in DIRECT as a nan objective value; the empty one
    # in a reshape.
    with pytest.raises(DimensionMismatch, match=message):
        Bounds(lower, upper)


def test_bounds_keep_their_own_copy():
    # span is computed once, so the box must not move when the caller's
    # arrays do.
    lower, upper = np.array([-1.0, 0.0]), np.array([3.0, 0.5])
    bounds = Bounds(lower, upper)
    lower[0], upper[1] = -10.0, 9.0
    assert bounds.lower.tolist() == [-1.0, 0.0] and bounds.upper.tolist() == [3.0, 0.5]
    assert np.array_equal(bounds.span, bounds.upper - bounds.lower)
    assert np.array_equal(bounds.subset([1]).span, [0.5])


def test_bounds_compare_and_hash_by_value():
    # The generated dataclass methods compared the arrays as a tuple and
    # raised ValueError; hash() raised TypeError.
    box = Bounds([0, 0], [1, 1])
    same = Bounds(np.zeros(2), [1.0, 1.0])
    assert box == same and hash(box) == hash(same) and len({box, same}) == 1
    for other in (Bounds([0, 0], [1, 2]), Bounds([0, -1], [1, 1]), Bounds([0], [1])):
        assert box != other
    assert Bounds([-0.0], [1.0]) == Bounds([0.0], [1.0])
    assert hash(Bounds([-0.0], [1.0])) == hash(Bounds([0.0], [1.0]))
    assert box != (box.lower, box.upper)
    assert box.subset([1]) == Bounds([0], [1])


def test_catalog_specs_compare_without_raising():
    first, second = benchmark_catalog(), benchmark_catalog()
    for name, spec in first.items():
        assert spec.bounds == second[name].bounds
        assert isinstance(spec == second[name], bool)
        hash(spec.bounds)


class TestDirectMinimize:
    def test_optimum_at_center(self):
        bounds = Bounds([0.0, 2.0], [4.0, 6.0])
        mid = np.array([2.0, 4.0])
        calls = []

        def g(x):
            calls.append(x.copy())
            return float(np.sum((x - mid) ** 2))

        x, f, evals = direct_minimize(rowwise(g), bounds, DirectConfig(max_evals=1))
        assert f == 0.0
        assert evals == 1
        assert np.allclose(calls[0], mid)

    def test_one_dim_quadratic(self):
        # Oracle: 1e5-point grid puts the minimum at 0.9 with value 0.
        g = lambda x: float((x[0] - 0.9) ** 2)
        _, f, _ = direct_minimize(rowwise(g), Bounds([0.0], [1.0]), DirectConfig(max_evals=200))
        assert f < 1e-4

    def test_six_hump_camel(self):
        bounds = Bounds([-3.0, -2.0], [3.0, 2.0])
        _, f, _ = direct_minimize(
            rowwise(lambda x: six_hump_camel(x)), bounds, DirectConfig(max_evals=1000, max_iters=200)
        )
        # Reference minimum from a dense grid oracle (computed in
        # test_acceptance at 2001^2 resolution): about -1.0316.
        assert f < -1.0316 + 1e-2

    def test_determinism(self):
        seqs = []
        for _ in range(2):
            calls = []

            def g(x):
                calls.append(tuple(x))
                return six_hump_camel(x)

            direct_minimize(
                rowwise(g), Bounds([-3.0, -2.0], [3.0, 2.0]), DirectConfig(max_evals=400)
            )
            seqs.append(calls)
        assert seqs[0] == seqs[1]

    def test_monotone_best(self):
        best_trace = []
        best = [np.inf]

        def g(x):
            v = six_hump_camel(x)
            best[0] = min(best[0], v)
            best_trace.append(best[0])
            return v

        direct_minimize(rowwise(g), Bounds([-3.0, -2.0], [3.0, 2.0]), DirectConfig(max_evals=500))
        assert all(b <= a for a, b in zip(best_trace, best_trace[1:]))

    def test_never_leaves_bounds(self):
        bounds = Bounds([-1.0, 0.0, 2.0], [1.0, 5.0, 3.0])

        def g(x):
            assert np.all(x >= bounds.lower - 1e-12)
            assert np.all(x <= bounds.upper + 1e-12)
            return float(np.sum(x**2))

        direct_minimize(rowwise(g), bounds, DirectConfig(max_evals=600))

    def test_separable_quadratics(self):
        rng = np.random.default_rng(5)
        for d in (1, 2, 3, 4):
            center = rng.uniform(-0.5, 0.5, size=d)
            g = lambda x: float(np.sum((x - center) ** 2))
            _, f, _ = direct_minimize(
                rowwise(g), Bounds(-np.ones(d), np.ones(d)), DirectConfig(max_evals=1500, max_iters=300)
            )
            assert f < 1e-3

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteObjective):
            direct_minimize(
                rowwise(lambda x: float("nan")), Bounds([0.0], [1.0]), DirectConfig(max_evals=10)
            )

    def test_partition_invariant(self):
        # Measures of all live rectangles sum to 1 after every iteration.
        from dimsched import direct as mod

        measured = []
        orig_heads = mod._Classes.heads

        def spy(live):
            measured.append(sum(measure(r) for r in live_rects(live)))
            return orig_heads(live)

        mod._Classes.heads = spy
        try:
            direct_minimize(
                rowwise(lambda x: six_hump_camel(x)),
                Bounds([-3.0, -2.0], [3.0, 2.0]),
                DirectConfig(max_evals=500),
            )
        finally:
            mod._Classes.heads = orig_heads
        assert len(measured) > 10
        for total in measured:
            assert abs(total - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "case", ["six_hump_camel", "quadratic_10d", "ties_2d", "ei_1d", "ei_2d", "ei_4d"]
    )
    def test_least_head_is_best_value(self, case, monkeypatch):
        # potentially_optimal takes its improvement target from the least
        # class head, which must be the best value evaluated so far: every
        # evaluated point is the center of a live rect, and each head is the
        # least of its class.
        from dimsched import direct as mod

        if case.startswith("ei"):
            d = int(case[-2])
            rng = np.random.default_rng(d)
            X = rng.uniform(-1.0, 1.0, size=(12, d))
            data = Dataset(X, np.sum(np.sin(3.0 * X), axis=1) + rng.normal(0.0, 0.1, size=12))
            hyper = KernelHyperparams(np.full(d, math.log(0.3)), 0.0, math.log(1e-4))
            objective = acquisition_objective(gp_fit(data, hyper), float(data.Y.min()))
            bounds = Bounds(-np.ones(d), np.ones(d))
            config = DirectConfig(max_evals=150, max_iters=50)
        else:
            f, bounds = {
                "six_hump_camel": (six_hump_camel, Bounds([-3.0, -2.0], [3.0, 2.0])),
                "quadratic_10d": (
                    lambda x: float(np.sum((x - 0.3) ** 2)), Bounds(-np.ones(10), np.ones(10))
                ),
                "ties_2d": (bump([0.1, -0.3]), Bounds(-np.ones(2), np.ones(2))),
            }[case]
            objective, config = rowwise(f), DirectConfig(max_evals=300, max_iters=60)

        best = [math.inf]
        checked = []
        orig_call = mod._Evaluator.__call__
        orig_heads = mod._Classes.heads

        def call(evaluator, centers):
            values = orig_call(evaluator, centers)
            best[0] = min([best[0], *values])
            return values

        def heads(live):
            found = orig_heads(live)
            checked.append(min(f_center(r) for r in found) == best[0])
            return found

        monkeypatch.setattr(mod._Evaluator, "__call__", call)
        monkeypatch.setattr(mod._Classes, "heads", heads)
        _, f_best, _ = direct_minimize(objective, bounds, config)
        assert len(checked) > 5 and all(checked)
        assert f_best == best[0]

    @pytest.mark.parametrize(
        "objective, bounds, config, count, sha256, sizes",
        [
            (
                six_hump_camel,
                Bounds([-3.0, -2.0], [3.0, 2.0]),
                DirectConfig(max_evals=400, max_iters=100),
                399,
                "cb8923ccc2613635cca0794518eabf5e4690321bc34ce3242972e15e332730a2",
                [5, 6, 4, 6, 8, 12, 8, 10, 12, 16, 10, 14, 14, 18, 16, 22, 22, 28, 18, 24, 24,
                 22, 22, 22, 24, 12],
            ),
            (
                # The campaign's DIRECT config on a 10-d weighted quadratic.
                lambda x: float(np.arange(1.0, 11.0) @ (x - np.linspace(-0.45, 0.35, 10)) ** 2),
                Bounds(-np.ones(10), np.ones(10)),
                DirectConfig(max_evals=150, max_iters=50),
                149,
                "ce840abd1b139b26ef97ba947db6b50c011e1692fe60f566ee58bb2e12fffde5",
                [21, 18, 34, 30, 46],
            ),
            # A bump that is exactly 0 on a quarter to a third of the probes,
            # as EI is where it underflows: the creation-index tie-break
            # decides which of the tied rectangles DIRECT divides.
            (
                bump([0.7]),
                Bounds([-1.0], [1.0]),
                DirectConfig(max_evals=150, max_iters=50),
                149,
                "e12a76896cecb7f84cbf4dbb4334391aabd19b3eb554b409962287ca7af43069",
                [3, 2, 4, 6, 6, 8, 10, 10, 10, 10, 8, 10, 10, 10, 10, 10, 10, 10, 2],
            ),
            (
                bump([0.2, -0.35]),
                Bounds(-np.ones(2), np.ones(2)),
                DirectConfig(max_evals=150, max_iters=50),
                149,
                "a69b050e4077462fbd760e730d9abcb80b59fb77b576e16039f5fa8468a4118b",
                [5, 2, 6, 6, 10, 10, 10, 18, 16, 16, 18, 22, 10],
            ),
            (
                bump([0.1, -0.2, 0.3, 0.05]),
                Bounds(-np.ones(4), np.ones(4)),
                DirectConfig(max_evals=150, max_iters=50),
                149,
                "92e57250db39db4c5ea7c6991570555224db2af715b4c85b14d6a93b10033282",
                [9, 14, 12, 8, 14, 10, 8, 6, 18, 16, 12, 8, 14],
            ),
        ],
        ids=["six_hump_camel", "quadratic_10d", "ties_1d", "ties_2d", "ties_4d"],
    )
    def test_evaluation_order_pinned(self, objective, bounds, config, count, sha256, sizes):
        # Count and SHA-256 of the points in evaluation order, from a DIRECT
        # that called its objective on one point at a time: scoring each
        # iteration as one batch must not change which points it visits.
        # The size of every batch is pinned too: EI's bits depend on the
        # batch a point is scored in, so regrouping the same points would
        # move the trace digests.
        from dimsched import direct as mod

        batches = []
        iterations = [0]
        orig_po = mod.potentially_optimal

        def spy(heads):
            selected = orig_po(heads)
            iterations[0] += bool(selected)
            return selected

        def g(X):
            assert X.ndim == 2 and X.shape[1] == bounds.d
            assert X.shape[0] <= config.max_evals - sum(len(b) for b in batches)
            batches.append(X.copy())
            return [objective(x) for x in X]

        mod.potentially_optimal = spy
        try:
            _, _, evals = direct_minimize(g, bounds, config)
        finally:
            mod.potentially_optimal = orig_po
        points = np.vstack(batches)
        assert evals == points.shape[0] == count
        assert hashlib.sha256(points.tobytes()).hexdigest() == sha256
        assert len(batches) == 1 + iterations[0]  # the center, then one per iteration
        assert [len(b) for b in batches] == sizes


# The loop as it was when rects were objects and every iteration mapped
# its probes from the unit cube with numpy (commit 3aa27c0), with its
# helpers, kept as the reference that direct_minimize must match batch for
# batch and bit for bit.  It imports nothing from dimsched.direct but
# Bounds and DirectConfig.


@functools.lru_cache(maxsize=None)
def ref_side(level):
    return functools.reduce(lambda side, _: side / 3.0, range(level), 1.0)


@functools.lru_cache(maxsize=None)
def ref_geometry(levels):
    top = min(levels)
    diameter = 0.5 * float(np.linalg.norm(np.sort([ref_side(k) for k in levels])))
    return diameter, tuple(j for j, k in enumerate(levels) if k == top), ref_side(top + 1)


class RefRect:
    __slots__ = ("center", "levels", "f_center", "index", "diameter")

    def __init__(self, center, levels, f_center, index, diameter=None):
        self.center = center
        self.levels = levels
        self.f_center = f_center
        self.index = index
        self.diameter = ref_geometry(levels)[0] if diameter is None else diameter


class RefClasses(dict):
    def __init__(self):
        super().__init__()
        self._ascending = []  # (diameter, heap)

    def push(self, rects):
        diameter = heap = None
        for r in rects:
            if r.diameter != diameter:
                diameter = r.diameter
                heap = self.get(diameter)
                if heap is None:
                    heap = self[diameter] = []
                    bisect.insort(self._ascending, (diameter, heap))
            heapq.heappush(heap, (r.f_center, r.index, r))

    def heads(self):
        return [heap[0][2] for _, heap in self._ascending if heap]


class RefEvaluator:
    def __init__(self, g, bounds, max_evals):
        self.g = g
        self.lower, self.span = bounds.lower, bounds.span
        self.max_evals = max_evals
        self.count = 0
        self.best_x = None
        self.best_f = np.inf

    @property
    def remaining(self):
        return self.max_evals - self.count

    def __call__(self, centers):
        X = centers * self.span
        X += self.lower
        values = np.asarray(self.g(X), dtype=float)
        assert values.shape == (X.shape[0],)
        values = values.tolist()
        assert all(map(math.isfinite, values))
        self.count += X.shape[0]
        i = values.index(min(values))
        if values[i] < self.best_f:
            self.best_f = values[i]
            self.best_x = X[i]
        return values


def ref_potentially_optimal(heads):
    if not heads:
        return []
    fs = [r.f_center for r in heads]
    f_min = min(fs)
    hull = []  # (diameter, f_center, index)
    tiny, neg_tiny = 2.2250738585072014e-308, -2.2250738585072014e-308
    for i in range(fs.index(f_min), len(heads)):
        d, f = heads[i].diameter, fs[i]
        while len(hull) >= 2:
            d1, f1, _ = hull[-2]
            d2, f2, _ = hull[-1]
            left = (f2 - f1) * (d - d1)
            right = (f - f1) * (d2 - d1)
            if neg_tiny < left < tiny and neg_tiny < right < tiny and (f2 != f1 or f != f1):
                left = (Fraction(f2) - Fraction(f1)) * (Fraction(d) - Fraction(d1))
                right = (Fraction(f) - Fraction(f1)) * (Fraction(d2) - Fraction(d1))
            if left >= right:
                hull.pop()
            else:
                break
        hull.append((d, f, i))
    target = f_min - 1e-4 * abs(f_min)
    selected = []
    d, f, i = hull[0]
    for d_next, f_next, i_next in hull[1:]:
        if f - (f_next - f) / (d_next - d) * d <= target:
            selected.append(i)
        d, f, i = d_next, f_next, i_next
    selected.append(i)
    return selected


def ref_probes(rect, budget):
    center = rect.center
    _, dims, delta = ref_geometry(rect.levels)
    dims = dims[: max(budget, 0) // 2]
    centers = []
    row = list(center)
    for j in dims:
        c = center[j]
        row[j] = c + delta
        centers.append(tuple(row))
        row[j] = c - delta
        centers.append(tuple(row))
        row[j] = c
    return dims, centers


def ref_split(rect, dims, centers, values, indices):
    if not dims:
        return [rect]
    order = range(len(dims))
    if len(dims) == 2:
        if min(values[2], values[3]) < min(values[0], values[1]):
            order = (1, 0)
    elif len(dims) > 2:
        order = sorted(order, key=lambda k: (min(values[2 * k], values[2 * k + 1]), dims[k]))
    children = []
    levels = list(rect.levels)
    for k in order:
        levels[dims[k]] += 1
        child_levels = tuple(levels)
        diameter = ref_geometry(child_levels)[0]
        for row in (2 * k, 2 * k + 1):
            children.append(
                RefRect(centers[row], child_levels, values[row], next(indices), diameter)
            )
    children.append(RefRect(rect.center, child_levels, rect.f_center, next(indices), diameter))
    return children


def ref_divide_from(evaluate, live, indices, iterations):
    """The reference loop's iterations, from live onwards."""
    for _ in range(iterations):
        budget = evaluate.remaining
        if budget < 2:
            break
        heads = live.heads()
        plans = []
        probes = []
        for i in ref_potentially_optimal(heads):
            rect = heads[i]
            heapq.heappop(live[rect.diameter])
            dims, centers = ref_probes(rect, budget)
            budget -= len(centers)
            plans.append((rect, dims, centers))
            probes += centers
        values = evaluate(np.array(probes))
        stop = 0
        for rect, dims, centers in plans:
            start, stop = stop, stop + len(centers)
            live.push(ref_split(rect, dims, centers, values[start:stop], indices))


def ref_direct_minimize(g, bounds, config):
    """The reference loop: the center is scored with the box's probes."""
    evaluate = RefEvaluator(g, bounds, config.max_evals)
    indices = itertools.count()
    root = RefRect((0.5,) * bounds.d, (0,) * bounds.d, math.nan, next(indices))
    if config.max_iters == 0 or config.max_evals < 3:
        evaluate(np.array([root.center]))
        return evaluate.best_x, evaluate.best_f, evaluate.count
    dims, centers = ref_probes(root, config.max_evals - 1)
    values = evaluate(np.array([root.center, *centers]))
    root.f_center = values[0]
    live = RefClasses()
    live.push(ref_split(root, dims, centers, values[1:], indices))
    ref_divide_from(evaluate, live, indices, config.max_iters - 1)
    return evaluate.best_x, evaluate.best_f, evaluate.count


def center_first_direct(g, bounds, config):
    """The reference loop as it was when it scored the box's center alone.

    Kept as the reference for the merged first batch: the center is scored
    by a call of its own, and the whole box is then divided like any other
    rect, from the class heads and the hull, with the budget left over.
    """
    evaluate = RefEvaluator(g, bounds, config.max_evals)
    center = (0.5,) * bounds.d
    (f0,) = evaluate(np.array([center]))
    indices = itertools.count()
    live = RefClasses()
    live.push([RefRect(center, (0,) * bounds.d, f0, next(indices))])
    ref_divide_from(evaluate, live, indices, config.max_iters)
    return evaluate.best_x, evaluate.best_f, evaluate.count


def smooth(d, seed):
    """A random smooth function of d coordinates: a quadratic plus a sine in each."""
    rng = np.random.default_rng(seed)
    a, b, c, w = rng.uniform(0.5, 3.0, size=(4, d))
    x0 = rng.uniform(-0.8, 0.8, size=d)
    return lambda x: float(np.sum(w * (x - x0) ** 2 + np.sin(a * x + b) * c))


@pytest.mark.parametrize(
    "objective, d",
    [
        (six_hump_camel, 2),
        (lambda x: float(np.arange(1.0, 11.0) @ (x - np.linspace(-0.45, 0.35, 10)) ** 2), 10),
        (bump([0.7]), 1),
        (bump([0.2, -0.35]), 2),
        (bump([0.1, -0.2, 0.3, 0.05]), 4),
        *((smooth(d, seed), d) for d in (1, 2, 4, 10) for seed in range(2)),
    ],
    ids=["six_hump_camel", "quadratic_10d", "ties_1d", "ties_2d", "ties_4d"]
    + [f"smooth_{d}d_{seed}" for d in (1, 2, 4, 10) for seed in range(2)],
)
def test_center_in_first_batch_as_center_first(objective, d):
    # The first iteration divides the box, the only rect, whatever its
    # center's value, so scoring the center with the box's probes must
    # visit the same points in the same order, and return the same point,
    # value and count, as scoring it first and alone.  Each row is scored
    # on its own, so batching cannot change a value.
    bounds = Bounds(-np.ones(d), np.ones(d))
    if objective is six_hump_camel:
        bounds = Bounds([-3.0, -2.0], [3.0, 2.0])
    for max_iters, max_evals in itertools.product((0, 1, 2, 50), (1, 2, 3, 4, 150)):
        config = DirectConfig(max_evals=max_evals, max_iters=max_iters)
        runs = []
        for minimize in (direct_minimize, center_first_direct):
            batches = []

            def g(X):
                batches.append(X.copy())
                return [objective(x) for x in X]

            x, f, evals = minimize(g, bounds, config)
            runs.append((np.vstack(batches).tobytes(), x.tobytes(), f, math.copysign(1.0, f),
                         evals, len(batches)))
        merged, alone = runs
        assert merged[:5] == alone[:5], (max_iters, max_evals)
        # The center rides in the first iteration's call unless no probe is paid for.
        assert merged[5] == alone[5] - (max_iters >= 1 and max_evals >= 3)


def styblinski_tang_ei(d, n, seed):
    """Negated EI, and its box, of a GP fitted as a run fits one.

    The GP is trained on n Styblinski-Tang points of ten coordinates,
    projected on d of them: a DSA subset's GP at d=2, BO's at d=10.
    """
    rng = np.random.default_rng(seed)
    X = rng.uniform(-5.0, 5.0, size=(n, 10))
    Y = 0.5 * np.sum(X**4 - 16.0 * X**2 + 5.0 * X, axis=1)
    dims = np.sort(rng.choice(10, size=d, replace=False))
    data = Dataset(X[:, dims], Y)
    model = gp_fit(data, train_hyperparams(data, restarts=1, rng=seed, max_iter=20))
    return acquisition_objective(model, float(Y.min())), Bounds(np.full(d, -5.0), np.full(d, 5.0))


REFERENCE_CASES = {
    **{f"ei_2d_n{n}": (lambda n=n: styblinski_tang_ei(2, n, n)) for n in (20, 31, 45)},
    **{f"ei_10d_n{n}": (lambda n=n: styblinski_tang_ei(10, n, n)) for n in (20, 120, 220)},
    "six_hump_camel": lambda: (rowwise(six_hump_camel), Bounds([-3.0, -2.0], [3.0, 2.0])),
    "quadratic_10d": lambda: (
        rowwise(lambda x: float(np.arange(1.0, 11.0) @ (x - np.linspace(-0.45, 0.35, 10)) ** 2)),
        Bounds(-np.ones(10), np.ones(10)),
    ),
    "ties_1d": lambda: (rowwise(bump([0.7])), Bounds([-1.0], [1.0])),
    "ties_2d": lambda: (rowwise(bump([0.2, -0.35])), Bounds(-np.ones(2), np.ones(2))),
    "ties_4d": lambda: (rowwise(bump([0.1, -0.2, 0.3, 0.05])), Bounds(-np.ones(4), np.ones(4))),
    **{
        f"smooth_{d}d_{seed}": (lambda d=d, seed=seed: (rowwise(smooth(d, seed)),
                                                        Bounds(-np.ones(d), np.ones(d))))
        for d in (1, 2, 4, 10) for seed in range(2, 4)
    },
}


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_same_batches_and_result_as_reference_loop(case):
    # Rects as tuples, probes mapped to the caller's box in Python and the
    # hull's chain kept in locals must leave every call of g as it was:
    # the same rows, in the same order, split into the same batches (EI's
    # bits depend on the batch), and the same point, value and count.
    objective, bounds = REFERENCE_CASES[case]()
    for max_iters, max_evals in itertools.product((0, 1, 2, 50), (1, 2, 3, 4, 150)):
        config = DirectConfig(max_evals=max_evals, max_iters=max_iters)
        runs = []
        for minimize in (direct_minimize, ref_direct_minimize):
            batches = []

            def g(X):
                batches.append((X.shape, X.tobytes()))
                return objective(X)

            x, f, evals = minimize(g, bounds, config)
            runs.append((batches, x.tobytes(), f, math.copysign(1.0, f), evals))
        assert runs[0] == runs[1], (max_iters, max_evals)


class TestEvaluator:
    bounds = Bounds([-1.0, 2.0], [3.0, 2.5])
    centers = np.array([(0.5, 0.5), (1 / 6, 0.5), (5 / 6, 0.5), (0.5, 1 / 6)])
    points = bounds.lower + centers * bounds.span  # the evaluator takes the caller's coordinates

    def test_first_non_finite_named_and_not_counted(self):
        evaluate = _Evaluator(lambda X: [2.0, 1.0, 0.5, 3.0], 100)
        evaluate(self.points)
        evaluate.g = lambda X: [0.0, float("inf"), float("nan"), -1.0]
        x_second = self.bounds.lower + self.centers[1] * self.bounds.span
        with pytest.raises(NonFiniteObjective, match=re.escape(f"returned inf at {x_second}")):
            evaluate(self.points)
        assert evaluate.count == 4
        assert evaluate.best_f == 0.5

    def test_finite_values_whose_sum_overflows_accepted(self):
        # Finiteness is first tested on the sum, which overflows here.
        evaluate = _Evaluator(lambda X: [1e308, 1e308, -1.0, 1e308], 100)
        assert evaluate(self.points) == [1e308, 1e308, -1.0, 1e308]
        assert evaluate.count == 4 and evaluate.best_f == -1.0
        evaluate.g = lambda X: [1e308, 1e308, 1.0, -math.inf]
        with pytest.raises(NonFiniteObjective, match="returned -inf at"):
            evaluate(self.points)

    def test_best_is_first_tied_minimum(self):
        # -0.0 and 0.0 tie, as numpy's argmin has them: the first row wins.
        evaluate = _Evaluator(lambda X: [1.0, 0.0, -0.0, 0.0], 100)
        assert evaluate(self.points) == [1.0, 0.0, -0.0, 0.0]
        assert evaluate.best_f == 0.0 and math.copysign(1.0, evaluate.best_f) == 1.0
        expected = self.bounds.lower + self.centers[1] * self.bounds.span
        assert evaluate.best_x.tobytes() == expected.tobytes()
        # A later value equal to the best does not replace it.
        evaluate.g = lambda X: [-0.0, 5.0, 5.0, 5.0]
        evaluate(self.points[::-1])
        assert evaluate.best_x.tobytes() == expected.tobytes()
        assert evaluate.count == 8

    def test_values_of_the_wrong_shape_rejected(self):
        evaluate = _Evaluator(lambda X: [1.0, 2.0], 100)
        with pytest.raises(DimensionMismatch, match=r"shape \(2,\) for 4 points"):
            evaluate(self.points)
        assert evaluate.count == 0

    def test_list_and_array_values_agree(self):
        bounds = Bounds([-3.0, -2.0], [3.0, 2.0])
        config = DirectConfig(max_evals=300, max_iters=60)
        as_list = rowwise(six_hump_camel)
        as_array = lambda X: np.array(as_list(X))
        x_list, f_list, n_list = direct_minimize(as_list, bounds, config)
        x_array, f_array, n_array = direct_minimize(as_array, bounds, config)
        assert x_list.tobytes() == x_array.tobytes()
        assert (f_list, n_list) == (f_array, n_array)
        assert type(f_list) is float and type(f_array) is float


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 4),
    max_evals=st.integers(1, 200),
    max_iters=st.integers(0, 25),
    lower=st.lists(st.integers(-5, 4), min_size=4, max_size=4),
    span=st.lists(st.integers(1, 5), min_size=4, max_size=4),
    target=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    digits=st.integers(0, 2),
)
def test_direct_properties(d, max_evals, max_iters, lower, span, target, digits):
    # Integer bounds make lower + span exactly upper, so a point mapped from
    # the unit cube cannot round past a bound.  A side is trisected at most
    # once per iteration, so with max_iters <= 25 every step stays far above
    # the rounding error of a center.  Rounded values tie often, so the
    # creation-index tie-break and the first-minimum rule both run.
    from dimsched import direct as mod

    lo = np.array(lower[:d], dtype=float)
    hi = lo + np.array(span[:d], dtype=float)
    bounds = Bounds(lo, hi)
    c = lo + np.array(target[:d]) * (hi - lo)
    points, values, measures = [], [], []

    def g(X):
        assert np.all(X >= lo) and np.all(X <= hi)
        batch = [round(float(np.sum(np.abs(x - c))), digits) for x in X]
        points.extend(X.copy())
        values.extend(batch)
        return batch

    orig_heads = mod._Classes.heads

    def spy(live):
        measures.append(sum(measure(r) for r in live_rects(live)))
        return orig_heads(live)

    mod._Classes.heads = spy
    try:
        x_best, f_best, evals = direct_minimize(
            g, bounds, DirectConfig(max_evals=max_evals, max_iters=max_iters)
        )
    finally:
        mod._Classes.heads = orig_heads
    assert evals == len(values) <= max_evals
    assert all(abs(total - 1.0) < 1e-12 for total in measures)
    first = values.index(min(values))
    assert f_best == values[first]
    assert math.copysign(1.0, f_best) == math.copysign(1.0, values[first])
    assert x_best.tobytes() == points[first].tobytes()


class TestPotentiallyOptimal:
    def rect(self, levels, f, index):
        levels = tuple(int(k) for k in levels)
        return make_rect((0.5,) * len(levels), levels, f, index)

    def oracle(self, rects, f_min, eps):
        """Brute force over a dense K grid: the indices of the selected rects."""
        selected = set()
        diams = [diameter(r) for r in rects]
        fs = [f_center(r) for r in rects]
        for K in np.concatenate([[0.0], np.logspace(-6, 6, 20000)]):
            scores = [f - K * d for f, d in zip(fs, diams)]
            m = min(scores)
            for j, s in enumerate(scores):
                if abs(s - m) < 1e-12 and s <= f_min - eps * abs(f_min) + 1e-12:
                    selected.add(index(rects[j]))
        return selected

    def select(self, rects):
        """The indices of the rects the hull selects from rects' class heads."""
        live = _Classes()
        file(live, rects)
        heads = live.heads()
        return [index(heads[i]) for i in potentially_optimal(heads)]

    def test_single_rect_selected(self):
        r = self.rect([0], 3.0, 0)
        assert potentially_optimal([r]) == [0]

    def test_equal_diameter_dominance(self):
        rects = [self.rect([0, 0], 2.0, 0), self.rect([0, 0], 1.0, 1)]
        assert self.select(rects) == [1]
        assert self.oracle(rects, 1.0, 1e-4) == {1}

    def test_hand_built_config_matches_k_sweep(self):
        # Four rects across three diameters; hull membership vs K-sweep.
        rects = [
            self.rect([0, 0], 5.0, 0),
            self.rect([1, 0], 4.0, 1),
            self.rect([1, 1], 4.5, 2),
            self.rect([1, 1], 6.0, 3),
        ]
        got = set(self.select(rects))
        expected = self.oracle(rects, 4.0, 1e-4)
        assert got == expected

    def test_random_configs_match_k_sweep(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            rects = []
            for i in range(8):
                depth = rng.integers(0, 4, size=2)
                rects.append(self.rect(depth, float(rng.uniform(0, 10)), i))
            f_min = min(f_center(r) for r in rects)
            got = self.select(rects)
            expected = self.oracle(rects, f_min, 1e-4)
            assert set(got) == expected
            # The selection comes in ascending diameter, the order DIRECT divides in.
            diameters = [diameter(rects[i]) for i in got]
            assert diameters == sorted(set(diameters))

    def test_class_heads_select_as_full_set(self):
        # The hull sees only the class heads, so they must be the rects the
        # full set would offer it: one per diameter, the least
        # (f_center, index), in strictly ascending diameter.  Values on a
        # coarse grid tie often, so the index tie-break is exercised.
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(1, 16))
            rects = [
                self.rect(rng.integers(0, 4, size=3), float(rng.integers(0, 6)), i)
                for i in rng.permutation(n)
            ]
            live = _Classes()
            file(live, rects)
            heads = live.heads()
            best = {}
            for r in rects:
                b = best.get(diameter(r))
                if b is None or (f_center(r), index(r)) < (f_center(b), index(b)):
                    best[diameter(r)] = r
            assert [index(r) for r in heads] == [index(best[d]) for d in sorted(best)]
            # The last hull vertex, the largest head, is always selected.
            rng.uniform(0, 1)  # once an offset of f_min, still drawn so the sets stay
            selected = potentially_optimal(heads)
            assert selected == sorted(set(selected)) and selected[-1] == len(heads) - 1


def test_hull_matches_chain_over_all_heads():
    # Values drawn from signed zeros, subnormals and huge numbers, and with
    # many ties, as EI takes them where it underflows.  The hull's chain
    # must select what exact arithmetic selects: a chain in floats alone
    # differs on 5 of these sets, where a product of differences underflows.
    rng = np.random.default_rng(21)
    geometries = sorted(
        {_geometry(tuple(int(k) for k in rng.integers(0, 7, size=3)))[0] for _ in range(400)}
    )
    pool = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-300, 1.0, -1.0, 2.0, 1e300, -1e300]
    for _ in range(5000):
        n = int(rng.integers(1, 14))
        diameters = np.sort(rng.choice(geometries, size=n, replace=False))
        heads = []
        for i, d in enumerate(diameters):
            f = pool[rng.integers(len(pool))] if rng.random() < 0.6 else float(
                rng.uniform(-3, 3) * 10.0 ** rng.integers(-320, 3))
            heads.append(make_rect((0.5,), (0,), f, i, float(d)))
        # Once an offset of f_min, still drawn so the sets stay as they were.
        rng.random(), rng.integers(3)
        assert potentially_optimal(heads) == exact_selection(heads)
    assert potentially_optimal([]) == []


def exact_selection(heads, eps=1e-4):
    """The selection in exact rational arithmetic, against the target as floats round it.

    A head from the first of least value on qualifies if some slope K makes
    it the only minimizer of f_center - K * diameter, and it achieves the
    improvement at the largest such K, the least slope to a larger head;
    the largest head always qualifies.
    """
    fs = [f_center(r) for r in heads]
    f_min = min(fs)
    target = Fraction(f_min - eps * abs(f_min))
    points = [(Fraction(diameter(r)), Fraction(f)) for r, f in zip(heads, fs)]
    selected = []
    for j in range(fs.index(f_min), len(heads)):
        d, f = points[j]
        k_min = max(((f - f0) / (d - d0) for d0, f0 in points[:j]), default=None)
        k_max = min(((f1 - f) / (d1 - d) for d1, f1 in points[j + 1 :]), default=None)
        if k_max is None or ((k_min is None or k_min < k_max) and f - k_max * d <= target):
            selected.append(j)
    return selected


@pytest.mark.parametrize(
    "values, diameters",
    [
        (
            [5e-324, 0.0, 0.0, 1e-300, 2.7801594165407783e-118, 1.660107145958822e-100,
             1.0148237469427998e-102, 1.1740675451160102e-117, 1.5114502596871392e-54],
            [0.00624858270174506, 0.01874574810523518, 0.020472992533058024,
             0.1756834310627214, 0.5003470488571635, 0.5003808943951494,
             0.5270502931881642, 0.527371513551783, 0.7071337242329551],
        ),
        (
            [5e-324, 5e-324, 1e-300, -5e-324, 0.0],
            [0.0011879635168510817, 0.006542792876659435, 0.008968927867367641,
             0.010691671651659736, 0.020472992533058024],
        ),
        (
            [1e-310, 5e-324, 5e-324, 1e300, 0.0, 8.884061795134288e-158, -0.0],
            [0.019628378629978304, 0.058596834839087, 0.16666948915740204,
             0.1666920673627932, 0.5000762020883797, 0.5003808943951494, 0.5270502931881642],
        ),
        (
            [-0.0, -5e-324, 5e-324],
            [0.008968927867367641, 0.16668077864239678, 0.5030811599782271],
        ),
    ],
    ids=["zero_after_subnormal", "negative_subnormal", "zero_before_signed_zero", "three_heads"],
)
def test_least_head_kept_where_products_underflow(values, diameters):
    # Each set is from test_hull_matches_chain_over_all_heads.  A chain over
    # every head pops the first head of least value: (f2 - f1) * (d - d1)
    # underflows to -0.0, which compares >= the +0.0 on the right.  A head
    # that in exact arithmetic is a hull vertex, and achieves the
    # improvement, was never selected.
    heads = [make_rect((0.5,), (0,), f, i, d) for i, (f, d) in enumerate(zip(values, diameters))]
    first_least = values.index(min(values))
    selected = potentially_optimal(heads)
    assert selected == exact_selection(heads)
    assert selected[0] == first_least


def test_middle_head_kept_where_products_underflow():
    # In the chord test from head 0 over head 3 to head 4 both products
    # underflow to 0.0 (exactly, 1e-324 against 1.5e-324), so a chain in
    # floats alone pops head 3, which in exact arithmetic is a hull vertex
    # that achieves the improvement.
    values = [-5e-324, 9.7e-184, 1e-310, -0.0, 5e-324, 1.0]
    heads = [make_rect((0.5,), (0,), f, i, 0.05 * (i + 1)) for i, f in enumerate(values)]
    assert exact_selection(heads) == [0, 3, 4, 5]
    assert potentially_optimal(heads) == [0, 3, 4, 5]


class TestTrisect:
    def test_children_ranked_by_lower_probe_then_dimension(self):
        # Ties in the lower value, signed zeros among them, fall to the
        # lower dimension; the children come pair by pair in that order.
        # Each piece's point is its center mapped to the box as numpy maps
        # it: center * span, then + lower.
        rng = np.random.default_rng(8)
        for _ in range(300):
            d = int(rng.integers(1, 6))
            lower, span = rng.uniform(-3.0, 0.0, size=d), rng.uniform(0.1, 7.0, size=d)
            rect = make_rect((0.5,) * d, (1,) * d, 0.0, 0)
            rect = rect[:3] + ((center(rect), tuple((0.5 * span + lower).tolist())),) + rect[4:]
            live = _Classes()
            file(live, [rect])
            heapq.heappop(live[diameter(rect)])
            rows = []
            dims, probes = _probes(rect, 2 * d, lower.tolist(), span.tolist(), rows)
            assert rows == [x for _, point in probes for x in point]
            values = [float(v) for v in rng.choice([-0.0, 0.0, 1.0, 2.0], size=2 * d)]
            _divide(live, rect, dims, probes, values, 0, itertools.count(1))
            children = sorted(live_rects(live), key=index)
            order = sorted(
                range(len(dims)), key=lambda k: (min(values[2 * k : 2 * k + 2]), dims[k])
            )
            assert [c[3] for c in children] == [
                probes[row] for k in order for row in (2 * k, 2 * k + 1)
            ] + [rect[3]]
            assert [index(c) for c in children] == list(range(1, 2 * d + 2))
            assert [f_center(c) for c in children] == [
                values[row] for k in order for row in (2 * k, 2 * k + 1)
            ] + [f_center(rect)]
            assert all(diameter(c) == _geometry(levels(c))[0] for c in children)
            for c in children:
                point = (np.array(center(c)) * span + lower).tolist()
                assert np.array(c[3][1]).tobytes() == np.array(point).tobytes()

    def test_unit_square_constant(self):
        rect = make_rect((0.5, 0.5), (0, 0), 1.0, 0)
        evals = []

        def g(x):
            evals.append(x.copy())
            return 1.0

        children = trisect(rect, rowwise(g), 100)
        assert len(evals) == 4
        assert len(children) == 5
        assert abs(sum(measure(c) for c in children) - measure(rect)) < 1e-12

    def test_one_dim_centers(self):
        rect = make_rect((0.5,), (0,), 0.0, 0)
        children = trisect(rect, rowwise(lambda x: float(x[0])), 100)
        centers = sorted(center(c)[0] for c in children)
        assert np.allclose(centers, [1.0 / 6.0, 0.5, 5.0 / 6.0])
        assert all(levels(c) == (1,) and measure(c) == 1.0 / 3.0 for c in children)

    def test_single_longest_side(self):
        rect = make_rect((0.5, 0.5), (0, 1), 0.0, 0)
        evals = []

        def g(x):
            evals.append(x.copy())
            return float(x[0])

        children = trisect(rect, rowwise(g), 100)
        assert len(evals) == 2
        assert len(children) == 3

    def test_budget_exhaustion_keeps_partition(self):
        rect = make_rect((0.5, 0.5, 0.5), (0, 0, 0), 0.0, 0)
        children = trisect(rect, rowwise(lambda x: float(np.sum(x))), 4)  # room for 2 of 3 dims
        assert abs(sum(measure(c) for c in children) - 1.0) < 1e-12
