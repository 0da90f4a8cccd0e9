"""Outside-in layer trace: wrappers around dimsched's module attributes.

A ``Tracer`` replaces each traced attribute with a wrapper that times the
call as a span.  A span's self time is its duration minus the time of the
spans it caused (its children), so the self times add up to the root
span.  Counts ride on the same boundaries.  ``restore`` puts every
original attribute back, and ``merge`` adds up the tracers of several
processes.  The traced loops are single-threaded, and so is the tracer.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

from dimsched import acquisition, direct, gp, optimize


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def _cholesky_counts(tracer, args, result):
    n = args[0].shape[0]
    tracer.add("linalg.cholesky_flops", n**3 / 3.0)
    tracer.add("linalg.jitter_nonzero", int(result.jitter_used > 0.0))


def _direct_counts(tracer, args, result):
    tracer.add("direct.evals", result[2])


def _hull_counts(tracer, args, result):
    tracer.add("direct.rects_scanned", len(args[0]))


def _augment_counts(tracer, args, result):
    tracer.peak("gp.n_max", result.n)


# (span name, module, attribute, count hook).  The spawn and retrain paths
# of training are told apart by the module that looks the trainer up:
# optimize calls it when a GP is spawned, gp_augment when it retrains.
TRACED = (
    ("gp.train_spawn", optimize, "train_hyperparams", None),
    ("gp.train_retrain", gp, "train_hyperparams", None),
    ("gp.lml", gp, "log_marginal_likelihood", None),
    ("gp.lml_gradient", gp, "lml_gradient", None),
    ("gp.fit", optimize, "gp_fit", None),  # fits of a new model: BO's first, DSA's spawns
    ("gp.augment", optimize, "gp_augment", _augment_counts),
    ("gp.predict", acquisition, "gp_predict", None),
    ("linalg.cholesky", gp, "cholesky_spd", _cholesky_counts),
    ("acquisition.ei", acquisition, "expected_improvement", None),
    ("direct", optimize, "direct_minimize", _direct_counts),
    ("direct.potentially_optimal", direct, "potentially_optimal", _hull_counts),
    ("scheduler.probabilities", optimize, "compute_dimension_probabilities", None),
    ("scheduler.sample", optimize, "sample_subset", None),
)


class Tracer:
    def __init__(self):
        self.spans: dict[str, SpanStats] = {}
        self.counts: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self._stack: list[float] = []  # per open span: time covered by its children
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        """Return fn wrapped in a span named name."""
        stats = self.spans.setdefault(name, SpanStats())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self) -> None:
        for name, module, attr, hook in TRACED:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, hook))

    def restore(self) -> bool:
        """Put the original attributes back; True if all of them are back."""
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        ok = all(getattr(m, a) is o for m, a, o in self._originals)
        self._originals.clear()
        return ok

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def merge(self, other: Tracer) -> None:
        """Add another tracer's spans, counts and peaks to this one's."""
        for name, theirs in other.spans.items():
            mine = self.spans.setdefault(name, SpanStats())
            mine.calls += theirs.calls
            mine.total_s += theirs.total_s
            mine.self_s += theirs.self_s
        for name, value in other.counts.items():
            self.add(name, value)
        for name, value in other.peaks.items():
            self.peak(name, value)

    def span(self, name: str) -> SpanStats:
        return self.spans.get(name, SpanStats())
