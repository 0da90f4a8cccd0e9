"""Benchmark runner: seeded runs, output checks, metrics and the report.

The caller (``run.py``) pins BLAS threads and puts the checkout's ``src``
on ``sys.path`` before importing this module.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from dimsched import Dataset, RunResult, run_bo, run_dsa

import hostspeed
from layertrace import Tracer
from workloads import PARALLEL_RUNS, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = Path(__file__).resolve().parent / "run.py"

LOOPS = {"bo": run_bo, "dsa": run_dsa}

# Set-up is measured this many times before the seeded runs and as many
# times after them, so the median spans the run's host conditions.
SETUP_REPEATS = 5

# Candidate tail percentiles, highest first.
TAIL_LEVELS = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


class Evaluator:
    """Objective wrapper: times the host-speed probe, then the objective
    call, which it logs as (start, end, x, y)."""

    def __init__(self, fn, probe=hostspeed.probe):
        self.fn = fn
        self.probe = probe
        self.probes: list[float] = []  # probe seconds, one before each call
        self.calls: list[tuple[float, float, np.ndarray, float]] = []

    def __call__(self, x):
        self.probes.append(self.probe())
        t0 = time.perf_counter()
        y = self.fn(x)
        self.calls.append((t0, time.perf_counter(), np.array(x, dtype=float), y))
        return y


@dataclass
class SeedRun:
    seed: int
    design: Dataset  # the initial design
    result: RunResult | None  # None when the run raised
    error: str | None
    calls: list
    probes: list[float]
    best_gap: float
    digest: str

    @property
    def completed(self) -> bool:
        return self.error is None

    @property
    def slowdown(self) -> float:
        """How much slower than the reference host the run's core was."""
        return statistics.fmean(self.probes) / hostspeed.NOMINAL_S

    def computation_s(self, raw: bool = False) -> float:
        """RunResult.computation_ms in s; unless raw, at reference speed."""
        seconds = self.result.computation_ms / 1e3
        return seconds if raw else seconds / self.slowdown

    def wall_s(self, raw: bool = False) -> float:
        """total_time_ms in s without the probes; unless raw, at reference speed."""
        seconds = self.result.total_time_ms / 1e3 - sum(self.probes)
        return seconds if raw else seconds / self.slowdown

    def gaps_ms(self, raw: bool = False) -> list[float]:
        """Proposal times: end of one evaluation to the start of the next,
        less the probe timed in between; unless raw, each at the speed that
        probe measured."""
        gaps = []
        for a, b, probe in zip(self.calls, self.calls[1:], self.probes[1:]):
            gap = (b[0] - a[1] - probe) * 1e3
            gaps.append(gap if raw else gap * hostspeed.NOMINAL_S / probe)
        return gaps


def trace_digest(design, calls, error) -> str:
    h = hashlib.sha256()
    h.update(design.X.tobytes())
    h.update(design.Y.tobytes())
    for _, _, x, y in calls:
        h.update(x.tobytes())
        h.update(np.float64(y).tobytes())
    h.update(b"ok" if error is None else error.split(":")[0].encode())
    return h.hexdigest()[:16]


def run_seed(workload: Workload, spec, seed: int, tracer=None) -> SeedRun:
    initial = workload.design(spec, seed)
    fn, probe, loop = spec.evaluator, hostspeed.probe, LOOPS[workload.loop]
    if tracer is not None:
        # The probe is a span of its own, so no layer's self time holds it.
        fn = tracer.wrap("objectives.eval", fn)
        probe = tracer.wrap("bench.probe", probe)
        loop = tracer.wrap("optimize", loop)
    evaluator = Evaluator(fn, probe)
    try:
        result = loop(evaluator, spec.bounds, workload.run_config(seed), initial=initial)
        error = "RunAborted: non-finite objective" if result.aborted else None
    except Exception as exc:  # a failing seed is counted and reported, not fatal
        result, error = None, f"{type(exc).__name__}: {exc}"
    design = initial[0]
    best = min([float(np.min(design.Y))] + [float(y) for _, _, _, y in evaluator.calls])
    return SeedRun(
        seed=seed,
        design=design,
        result=result,
        error=error,
        calls=evaluator.calls,
        probes=evaluator.probes,
        best_gap=best - spec.known_optimum,
        digest=trace_digest(design, evaluator.calls, error),
    )


def check_run(run: SeedRun, workload: Workload, spec) -> list[str]:
    """Output checks for one completed run; returns what failed."""
    res, design = run.result, run.design
    problems = []
    if len(res.records) != workload.max_iter:
        problems.append(f"{len(res.records)} records, expected {workload.max_iter}")
    if len(run.calls) != len(res.records):
        problems.append(f"{len(run.calls)} evaluations for {len(res.records)} records")
    lo, hi = spec.bounds.lower, spec.bounds.upper
    best = float(np.min(design.Y))
    for rec, (_, _, x_eval, y_eval) in zip(res.records, run.calls):
        x = np.asarray(rec.x, dtype=float)
        where = f"iteration {rec.iter}"
        if not (np.all(x >= lo) and np.all(x <= hi)):
            problems.append(f"{where}: proposal outside bounds")
        if not np.array_equal(x, x_eval) or rec.y != float(y_eval):
            problems.append(f"{where}: record differs from the evaluation made")
        if float(spec.evaluator(x)) != rec.y:
            problems.append(f"{where}: y differs from a fresh evaluation at x")
        best = min(best, rec.y)
        if rec.y_best != best:
            problems.append(f"{where}: y_best {rec.y_best!r} is not the running minimum {best!r}")
    if res.incumbent.value != best:
        problems.append(f"incumbent {res.incumbent.value!r} is not the minimum {best!r}")
    return problems


def run_worker(name: str, seeds: list[int], trace: bool):
    """One worker process's share of a run: (runs, traced runs, tracer, restored).

    With trace, each seed runs untraced and traced back to back on the same
    core, in alternating order, so the tracing overhead is a paired figure.
    """
    workload = WORKLOADS[name]
    spec = workload.objective_spec()
    runs, traced = [], []
    tracer, restored = (Tracer() if trace else None), True
    for i, seed in enumerate(seeds):
        if not trace:
            runs.append(run_seed(workload, spec, seed))
            continue
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if not with_trace:
                runs.append(run_seed(workload, spec, seed))
                continue
            tracer.install()
            try:
                traced.append(run_seed(workload, spec, seed, tracer))
            finally:
                restored = tracer.restore() and restored
    return runs, traced, tracer, restored


def worker_count() -> int:
    """Processes that run seeds at the same time: one per core, at most PARALLEL_RUNS."""
    return min(PARALLEL_RUNS, len(os.sched_getaffinity(0)))


def worker_main(name: str, seeds: list[int], trace: bool) -> None:
    """Body of a worker interpreter: run_worker's result, pickled, on stdout."""
    result = run_worker(name, seeds, trace)
    sys.stdout.flush()
    sys.stdout.buffer.write(pickle.dumps(result))
    sys.stdout.flush()


def in_workers(tasks: list[tuple]) -> list:
    """run_worker(*task) for every task at the same time, each in a fresh
    interpreter of its own.  Every worker has ended when this returns or
    raises: multiprocessing is not used, as its resource tracker outlives
    the benchmark."""
    procs = []
    try:
        for name, seeds, trace in tasks:
            cmd = [sys.executable, str(RUN_PY), "--worker-seeds", ",".join(map(str, seeds)),
                   "--workload", name, "--trace", str(int(trace))]
            procs.append(subprocess.Popen(cmd, stdout=subprocess.PIPE))
        results = []
        for proc in procs:
            out, _ = proc.communicate()
            if proc.returncode != 0:
                raise RuntimeError(f"worker exited with code {proc.returncode}")
            results.append(pickle.loads(out))
        return results
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def tail_level(samples: int) -> float:
    """Highest candidate percentile with at least ten samples beyond it."""
    for level in TAIL_LEVELS:
        if samples * (100.0 - level) / 100.0 >= 10.0:
            return level
    return TAIL_LEVELS[-1]


def end_to_end(workload: Workload, runs: list[SeedRun], planned: int) -> tuple[dict[str, tuple[float, str]], str]:
    """The end-to-end metrics, and which percentile propose_ms_tail is.

    The tail percentile follows from the number of seeds planned alone, so
    it is the same on every run of the workload.  The *_raw_* metrics and
    host_slowdown are printed for reference and not gated.
    """
    done = [r for r in runs if r.completed]
    gaps = [g for r in runs for g in r.gaps_ms()]
    raw_gaps = [g for r in runs for g in r.gaps_ms(raw=True)]
    level = tail_level(planned * (workload.max_iter - 1))
    metrics = {}
    if done:  # else no run timed; the report names the metrics as undefined
        metrics["computation_s"] = (statistics.median(r.computation_s() for r in done), "s")
        metrics["wall_s"] = (statistics.median(r.wall_s() for r in done), "s")
    if gaps:
        metrics["propose_ms_p50"] = (float(np.percentile(gaps, 50)), "ms")
        metrics["propose_ms_tail"] = (float(np.percentile(gaps, level)), "ms")
    metrics["best_gap"] = (statistics.median(r.best_gap for r in runs), "objective")
    metrics["runs_failed"] = ((len(runs) - len(done)) / len(runs), "share")
    if done:
        metrics["computation_raw_s"] = (statistics.median(r.computation_s(raw=True) for r in done), "s")
        metrics["wall_raw_s"] = (statistics.median(r.wall_s(raw=True) for r in done), "s")
        metrics["host_slowdown"] = (statistics.median(r.slowdown for r in done), "x")
    if raw_gaps:
        metrics["propose_raw_ms_p50"] = (float(np.percentile(raw_gaps, 50)), "ms")
    return metrics, f"p{level:g} of {len(gaps)} gaps"


# --- per-layer view --------------------------------------------------------

# (metric, span, SpanStats field, unit)
SPAN_METRICS = (
    ("optimize.self_s", "optimize", "self_s", "s"),
    ("optimize.spawns", "gp.fit", "calls", "count"),
    ("gp.train_spawn_calls", "gp.train_spawn", "calls", "count"),
    ("gp.train_spawn_s", "gp.train_spawn", "total_s", "s"),
    ("gp.train_retrain_calls", "gp.train_retrain", "calls", "count"),
    ("gp.train_retrain_s", "gp.train_retrain", "total_s", "s"),
    ("gp.lml_calls", "gp.lml", "calls", "count"),
    ("gp.lml_s", "gp.lml", "total_s", "s"),
    ("gp.lml_gradient_calls", "gp.lml_gradient", "calls", "count"),
    ("gp.lml_gradient_s", "gp.lml_gradient", "total_s", "s"),
    ("gp.augment_calls", "gp.augment", "calls", "count"),
    ("gp.augment_self_s", "gp.augment", "self_s", "s"),
    ("gp.predict_calls", "gp.predict", "calls", "count"),
    ("gp.predict_s", "gp.predict", "total_s", "s"),
    ("linalg.cholesky_calls", "linalg.cholesky", "calls", "count"),
    ("linalg.cholesky_s", "linalg.cholesky", "total_s", "s"),
    ("acquisition.ei_calls", "acquisition.ei", "calls", "count"),
    ("acquisition.ei_self_s", "acquisition.ei", "self_s", "s"),
    ("direct.calls", "direct", "calls", "count"),
    ("direct.self_s", "direct", "self_s", "s"),
    ("direct.potentially_optimal_calls", "direct.potentially_optimal", "calls", "count"),
    ("direct.potentially_optimal_s", "direct.potentially_optimal", "total_s", "s"),
    ("scheduler.probabilities_calls", "scheduler.probabilities", "calls", "count"),
    ("scheduler.probabilities_s", "scheduler.probabilities", "total_s", "s"),
    ("scheduler.sample_calls", "scheduler.sample", "calls", "count"),
    ("scheduler.sample_s", "scheduler.sample", "total_s", "s"),
    ("objectives.eval_calls", "objectives.eval", "calls", "count"),
    ("objectives.eval_s", "objectives.eval", "total_s", "s"),
)

# Counts taken by the tracer's hooks: (metric, unit).
COUNT_METRICS = (
    ("linalg.cholesky_flops", "flop"),
    ("linalg.jitter_nonzero", "count"),
    ("direct.evals", "count"),
    ("direct.rects_scanned", "count"),
)
PEAK_METRICS = (("gp.n_max", "count"),)

# Spans whose self time each layer owns.
LAYERS = {
    "optimize": ("optimize",),
    "gp": ("gp.train_spawn", "gp.train_retrain", "gp.lml", "gp.lml_gradient", "gp.fit", "gp.augment",
           "gp.predict"),
    "linalg": ("linalg.cholesky",),
    "acquisition": ("acquisition.ei",),
    "direct": ("direct", "direct.potentially_optimal"),
    "scheduler": ("scheduler.probabilities", "scheduler.sample"),
}


def per_layer(tracer: Tracer) -> dict[str, tuple[float, str]]:
    metrics = {
        name: (getattr(tracer.span(span), field), unit)
        for name, span, field, unit in SPAN_METRICS
    }
    metrics.update((name, (tracer.counts.get(name, 0), unit)) for name, unit in COUNT_METRICS)
    metrics.update((name, (tracer.peaks.get(name, 0), unit)) for name, unit in PEAK_METRICS)
    return metrics


def layer_shares(tracer: Tracer) -> dict[str, float]:
    """Each layer's self time as a share of the traced computation time."""
    computation = (tracer.span("optimize").total_s - tracer.span("objectives.eval").total_s
                   - tracer.span("bench.probe").total_s)
    return {
        layer: sum(tracer.span(s).self_s for s in spans) / computation
        for layer, spans in LAYERS.items()
    }


# --- environment and set-up ------------------------------------------------


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    try:
        openblas = np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": ",".join(
            f"{v}={os.environ.get(v)}"
            for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        ),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": _read(Path("/proc/loadavg")),
        "commit": git_commit(),
    }


def setup_probe(name: str, seed: int, seconds: float, t0: float) -> None:
    """Body of one set-up measurement in a fresh interpreter."""
    workload = WORKLOADS[name]
    spec = workload.objective_spec()
    for s in workload.seeds(seed, seconds):
        workload.design(spec, s)
    print(repr(time.perf_counter() - t0))


def measure_setup(name: str, seed: int, seconds: float) -> list[float]:
    """Import, objective construction and initial designs, SETUP_REPEATS
    times, each in a fresh interpreter."""
    cmd = [sys.executable, str(RUN_PY), "--setup-probe", "--workload", name,
           "--seed", str(seed), "--seconds", repr(seconds)]
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


# --- one workload ----------------------------------------------------------


def _print_runs(label: str, runs: list[SeedRun]) -> None:
    for r in runs:
        if r.completed:
            print(f"  {label} seed {r.seed}: ok, {len(r.calls)} iterations, "
                  f"computation {r.computation_s():.3f} s (raw {r.computation_s(raw=True):.3f} s, "
                  f"host slowdown {r.slowdown:.3f}), wall {r.wall_s():.3f} s, "
                  f"best_gap {r.best_gap:.6g}, digest {r.digest}")
        else:
            print(f"  {label} seed {r.seed}: FAILED after {len(r.calls)} iterations: {r.error}; "
                  f"best_gap {r.best_gap:.6g}, digest {r.digest}")


def _check_all(workload, spec, runs, label) -> list[str]:
    problems = []
    for r in runs:
        if r.completed:
            problems += [f"{label} seed {r.seed}: {p}" for p in check_run(r, workload, spec)]
    return problems


def _print_metrics(workload: Workload, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  metric {workload.name} {name} = {value!r} {unit}")


def report_traced(workload: Workload, spec, runs, traced, tracer: Tracer, restored: bool):
    """Checks and prints the traced pass; returns (per-layer metrics, problems)."""
    _print_runs("traced", traced)
    problems = _check_all(workload, spec, traced, "traced")
    if not restored:
        problems.append("tracer left a wrapper installed")
    if [r.seed for r in traced] != [r.seed for r in runs]:
        problems.append("the traced pass ran other seeds than the untraced one")
    problems += [f"seed {a.seed}: traced digest {b.digest} != untraced {a.digest}"
                 for a, b in zip(runs, traced) if a.digest != b.digest]
    print(f"  traced digests equal untraced: {all(a.digest == b.digest for a, b in zip(runs, traced))}")
    pairs = [(a.computation_s(), b.computation_s()) for a, b in zip(runs, traced)
             if a.completed and b.completed]
    if pairs:
        diff = statistics.median(t - u for u, t in pairs)
        share = statistics.median((t - u) / u for u, t in pairs)
        print(f"  tracing overhead: computation_s traced - untraced, median over {len(pairs)} seeds "
              f"each run both ways on one core = {diff:+.4f} s ({share:+.1%})")
    for layer, share in layer_shares(tracer).items():
        print(f"  share of traced computation, {layer}: {share:.1%}")
    return per_layer(tracer), problems


def bench_workload(workload: Workload, seed: int, seconds: float, trace: bool, reported):
    """Runs one workload; returns its report, with the metrics named in
    reported, and its end-to-end metrics."""
    print(f"workload {workload.name}: {workload.why}")
    # A traced run runs each seed twice, so it takes half the seeds to last as long.
    seeds = workload.seeds(seed, seconds / 2 if trace else seconds)
    workers = worker_count()
    print(f"  seeds {seeds[0]}..{seeds[-1]}, {workload.max_iter} iterations each, "
          f"{workers} process(es)" + (", each seed untraced and traced" if trace else ""))
    tasks = [(workload.name, seeds[j::workers], trace) for j in range(workers)]
    if trace:
        shares = in_workers(tasks)
    else:
        setup = measure_setup(workload.name, seed, seconds)
        shares = in_workers(tasks)
        setup += measure_setup(workload.name, seed, seconds)
        print(f"  setup_s samples: {', '.join(f'{t:.4f}' for t in setup)}")
    runs = sorted((r for share in shares for r in share[0]), key=lambda r: r.seed)
    spec = workload.objective_spec()
    _print_runs("untraced", runs)
    problems = _check_all(workload, spec, runs, "untraced")
    e2e, tail_note = end_to_end(workload, runs, len(seeds))
    print(f"  propose_ms_tail is the {tail_note}")
    if not trace:
        e2e["setup_s"] = (statistics.median(setup), "s")
    _print_metrics(workload, e2e)
    metrics, all_runs = e2e, runs
    if trace:
        traced = sorted((r for share in shares for r in share[1]), key=lambda r: r.seed)
        tracer = Tracer()
        for share in shares:
            tracer.merge(share[2])
        restored = all(share[3] for share in shares)
        metrics, traced_problems = report_traced(workload, spec, runs, traced, tracer, restored)
        _print_metrics(workload, metrics)
        problems += traced_problems
        all_runs = runs + traced

    problems += [f"metric {k} undefined: no seeded run completed" for k in reported if k not in metrics]
    for p in problems:
        print(f"  CHECK FAILED {p}")
    print(f"  output checks: {'pass' if not problems else f'{len(problems)} failed'}")
    report = {
        "correct": not problems,
        "attempted": len(all_runs),
        "failed": sum(not r.completed for r in all_runs),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in reported if k in metrics},
    }
    return report, e2e


def main(args, names: list[str], contract: dict) -> int:
    """Runs the named workloads; contract is BENCHMARK.json, which names the metrics."""
    reported = [m["name"] for m in contract["per_layer" if args.trace else "end_to_end"]]
    env = environment()
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    reports, comp = {}, {}
    for name in names:
        reports[name], e2e = bench_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), reported)
        comp[name] = e2e.get("computation_s", (None,))[0]
    print(f"loadavg_end={_read(Path('/proc/loadavg'))}")
    if comp.get("st10-dsa") and comp.get("st10-bo"):
        print(f"derived (not gated): st10-dsa/st10-bo computation_s ratio = "
              f"{comp['st10-dsa'] / comp['st10-bo']:.4f}")
    if len(reports) == 1:
        (report,) = reports.values()
    else:
        report = {
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {f"{n}/{k}": v for n, r in reports.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(report))
    return 0 if report["correct"] else 1
