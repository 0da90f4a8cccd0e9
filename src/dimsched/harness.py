"""Experiment harness: campaign config files, trace/summary persistence,
convergence plots, and the timing report.

The [run] and [direct] config keys are the fields of ``RunConfig`` (less
``seed``, set per run, and ``direct_config``, the [direct] section) and
of ``DirectConfig``; each value is parsed to the type of its field's
default.  [campaign] algorithms names loops: bo, dsa, dsa-parallel.

Trace CSV schema (fixed): iter,subset,x0..x{d-1},y,y_best,wall_ms,eval_ms,gp_size
One row per ``IterationRecord``, which ``read_trace`` returns; the
initial design's rows come first, with zero wall time.  The subset
column is '-' for full-space rows (classical BO and the initial
design); dimension-scheduled rows join the subset with '|'.
"""

from __future__ import annotations

import configparser
import json
import math
import os
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from html import escape

import numpy as np

from .direct import DirectConfig
from .errors import ConfigError, ParseError, RunAborted
from .objectives import benchmark_catalog
from .optimize import IterationRecord, RunConfig, RunResult, initial_design, run_bo, run_dsa, run_dsa_parallel

_LOOPS = {"bo": run_bo, "dsa": run_dsa, "dsa-parallel": run_dsa_parallel}

_CAMPAIGN_KEYS = {"objective", "algorithms", "runs", "output_dir", "workers", "base_seed"}
# Each section's keys with the type their values parse to.
_SECTION_TYPES = {
    "run": {
        f.name: type(f.default) for f in fields(RunConfig)
        if f.name not in ("seed", "direct_config")
    },
    "direct": {f.name: type(f.default) for f in fields(DirectConfig)},
}


@dataclass(frozen=True)
class CampaignConfig:
    objective_name: str
    algorithms: tuple[str, ...]
    runs: int = 4
    run_config: RunConfig = field(default_factory=RunConfig)
    output_dir: str = "out"
    workers: int = 1
    base_seed: int = 0

    def __post_init__(self):
        # Checked here, not in the file loader, so that a config built in
        # code fails before run_campaign creates or evaluates anything.
        if self.objective_name not in benchmark_catalog():
            raise ConfigError(f"unknown objective {self.objective_name!r}")
        for a in self.algorithms:
            if a not in _LOOPS:
                raise ConfigError(f"unknown algorithm {a!r}")
        if not self.algorithms:
            raise ConfigError("[campaign] algorithms must list at least one algorithm")
        for key, least in (("runs", 1), ("workers", 1), ("base_seed", 0)):
            if getattr(self, key) < least:
                raise ConfigError(f"[campaign] {key} must be >= {least}")


@dataclass(frozen=True)
class SummaryEntry:
    algorithm: str
    run: int
    best_objective: float
    total_wall_ms: float
    computation_ms: float
    gp_count: int


@dataclass(frozen=True)
class CampaignSummary:
    objective: str
    runs: int
    entries: tuple[SummaryEntry, ...]
    aggregates: dict

    def to_json(self) -> str:
        payload = {
            "objective": self.objective,
            "runs": self.runs,
            "entries": [asdict(e) for e in self.entries],
            "aggregates": self.aggregates,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSummary":
        try:
            payload = json.loads(text)
            entries = tuple(SummaryEntry(**e) for e in payload["entries"])
            return cls(
                objective=payload["objective"],
                runs=payload["runs"],
                entries=entries,
                aggregates=payload["aggregates"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad summary JSON: {exc}") from exc


def _parse_typed(section: str, key: str, raw: str, kind):
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: expected {kind.__name__}") from exc


def load_campaign_config(path: str) -> CampaignConfig:
    """Strict key = value config with [campaign], [run], [direct] sections."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")

    allowed = {"campaign": _CAMPAIGN_KEYS, **_SECTION_TYPES}
    for section in parser.sections():
        if section not in allowed:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in allowed[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    if "campaign" not in parser:
        raise ConfigError("missing [campaign] section")

    camp = parser["campaign"]
    objective = camp.get("objective")
    if not objective:
        raise ConfigError("[campaign] objective is required")
    algos_raw = camp.get("algorithms", "bo, dsa")
    algorithms = tuple(a.strip() for a in algos_raw.split(",") if a.strip())
    runs = _parse_typed("campaign", "runs", camp.get("runs", "4"), int)
    workers = _parse_typed("campaign", "workers", camp.get("workers", "1"), int)

    kwargs = {}
    for section, types in _SECTION_TYPES.items():
        if section in parser:
            kwargs[section] = {
                key: _parse_typed(section, key, raw, types[key])
                for key, raw in parser[section].items()
            }
    try:
        direct_config = DirectConfig(**kwargs.get("direct", {}))
    except ValueError as exc:
        raise ConfigError(f"[direct] {exc}") from exc
    try:
        run_config = RunConfig(direct_config=direct_config, **kwargs.get("run", {}))
    except ValueError as exc:
        raise ConfigError(f"[run] {exc}") from exc

    return CampaignConfig(
        objective_name=objective,
        algorithms=algorithms,
        runs=runs,
        run_config=run_config,
        output_dir=camp.get("output_dir", "out"),
        workers=workers,
        base_seed=_parse_typed("campaign", "base_seed", camp.get("base_seed", "0"), int),
    )


# --- trace persistence -----------------------------------------------------


def _format_subset(subset) -> str:
    return "-" if subset is None else "|".join(str(j) for j in subset)


def _trace_row(rec: IterationRecord) -> str:
    # repr(float(v)): a numpy scalar's repr reads "np.float64(...)".
    floats = [*rec.x, rec.y, rec.y_best, rec.wall_time_ms, rec.eval_time_ms]
    return ",".join(
        [str(rec.iter), _format_subset(rec.subset)]
        + [repr(float(v)) for v in floats]
        + [str(rec.gp_size)]
    )


def write_trace(path: str, result: RunResult) -> None:
    d = result.design.d
    header = (
        ["iter", "subset"]
        + [f"x{j}" for j in range(d)]
        + ["y", "y_best", "wall_ms", "eval_ms", "gp_size"]
    )
    design_rows = []
    y_best = math.inf
    for i in range(result.design.n):
        y = float(result.design.Y[i])
        y_best = min(y_best, y)
        design_rows.append(
            IterationRecord(
                iter=i, subset=None, x=result.design.X[i], y=y, y_best=y_best,
                wall_time_ms=0.0, eval_time_ms=result.design_eval_ms[i], gp_size=i + 1,
            )
        )
    lines = [",".join(header)] + [_trace_row(r) for r in design_rows + result.records]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace(path: str) -> list[IterationRecord]:
    """The rows of a trace written by ``write_trace``, design rows first.

    ``write_trace`` always writes the initial design's rows, so a trace
    with a header and no rows is rejected.
    """
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty trace")
    header = lines[0].split(",")
    if (
        len(header) < 8
        or header[:2] != ["iter", "subset"]
        or header[-5:] != ["y", "y_best", "wall_ms", "eval_ms", "gp_size"]
    ):
        raise ParseError(f"{path}: bad trace header {lines[0]!r}")
    d = len(header) - 7
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ParseError(f"{path}: malformed row {ln!r}")
        try:
            subset = None if parts[1] == "-" else tuple(
                int(s) for s in parts[1].split("|")
            )
            rows.append(
                IterationRecord(
                    iter=int(parts[0]),
                    subset=subset,
                    x=np.array([float(v) for v in parts[2 : 2 + d]]),
                    y=float(parts[2 + d]),
                    y_best=float(parts[3 + d]),
                    wall_time_ms=float(parts[4 + d]),
                    eval_time_ms=float(parts[5 + d]),
                    gp_size=int(parts[6 + d]),
                )
            )
        except ValueError as exc:
            raise ParseError(f"{path}: malformed row {ln!r}") from exc
    if not rows:
        raise ParseError(f"{path}: trace has no rows")
    return rows


# --- campaign --------------------------------------------------------------


def _algorithm_means(entries: list[SummaryEntry]) -> dict[str, dict[str, float]]:
    """Per algorithm, the mean of each measured field of its entries, as mean_<field>."""
    groups: dict[str, list[SummaryEntry]] = {}
    for entry in entries:
        groups.setdefault(entry.algorithm, []).append(entry)
    return {
        algorithm: {
            f"mean_{name}": float(np.mean([getattr(e, name) for e in group]))
            for name in ("best_objective", "total_wall_ms", "computation_ms", "gp_count")
        }
        for algorithm, group in groups.items()
    }


def run_campaign(config: CampaignConfig) -> CampaignSummary:
    """Seeded runs of each algorithm; compared runs share the initial design.

    Writes one trace CSV per (algorithm, run) and summary.json into
    output_dir.  Raises if any run aborts (after writing what exists).
    """
    spec = benchmark_catalog()[config.objective_name]
    os.makedirs(config.output_dir, exist_ok=True)
    entries = []
    any_aborted = False
    for r in range(config.runs):
        seed = config.base_seed + r
        design_rng = np.random.default_rng(seed)
        initial = initial_design(
            spec.evaluator, spec.bounds, config.run_config.n_init, design_rng
        )
        for algorithm in config.algorithms:
            run_config = replace(config.run_config, seed=seed)
            loop = _LOOPS[algorithm]
            workers = {"workers": config.workers} if loop is run_dsa_parallel else {}
            result = loop(spec.evaluator, spec.bounds, run_config, initial=initial, **workers)
            any_aborted = any_aborted or result.aborted
            trace_path = os.path.join(
                config.output_dir,
                f"{config.objective_name}_{algorithm}_run{r}.csv",
            )
            write_trace(trace_path, result)
            entries.append(
                SummaryEntry(
                    algorithm=algorithm,
                    run=r,
                    best_objective=result.incumbent.value,
                    total_wall_ms=result.total_time_ms,
                    computation_ms=result.computation_ms,
                    gp_count=result.gp_count,
                )
            )

    summary = CampaignSummary(
        objective=config.objective_name,
        runs=config.runs,
        entries=tuple(entries),
        aggregates=_algorithm_means(entries),
    )
    with open(os.path.join(config.output_dir, "summary.json"), "w") as fh:
        fh.write(summary.to_json() + "\n")
    if any_aborted:
        raise RunAborted("one or more runs aborted on a non-finite objective")
    return summary


# --- plotting and reporting ------------------------------------------------


def emit_convergence_plot(trace_paths: list[str], out: str, log_scale: bool = False) -> None:
    """Self-contained SVG: one polyline of running best per trace."""
    if not trace_paths:
        raise ParseError("no traces given")
    traces = [(os.path.basename(p), read_trace(p)) for p in trace_paths]

    width, height, margin = 720, 480, 60
    all_y = [row.y_best for _, rows in traces for row in rows]
    all_i = [row.iter for _, rows in traces for row in rows]
    if log_scale:
        floor = min(v for v in all_y if v > 0) if any(v > 0 for v in all_y) else 1e-12
        transform = lambda v: math.log10(max(v, floor))
        all_y = [transform(v) for v in all_y]
    else:
        transform = float
    y_lo, y_hi = min(all_y), max(all_y)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    i_lo, i_hi = min(all_i), max(all_i)
    if i_hi == i_lo:
        i_hi = i_lo + 1

    def sx(i):
        return margin + (i - i_lo) / (i_hi - i_lo) * (width - 2 * margin)

    def sy(v):
        return height - margin - (transform(v) - y_lo) / (y_hi - y_lo) * (
            height - 2 * margin
        )

    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 15}" text-anchor="middle">iteration</text>',
        f'<text x="15" y="{height // 2}" transform="rotate(-90 15 {height // 2})" '
        f'text-anchor="middle">running best</text>',
    ]
    for idx, (label, rows) in enumerate(traces):
        color = palette[idx % len(palette)]
        pts = " ".join(f"{sx(r.iter):.2f},{sy(r.y_best):.2f}" for r in rows)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = margin + 18 * idx
        parts.append(
            f'<rect x="{width - margin - 160}" y="{ly - 10}" width="12" height="12" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{width - margin - 142}" y="{ly}" font-size="12">{escape(label)}</text>'
        )
    parts.append("</svg>")
    with open(out, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def emit_timing_report(summaries: list[CampaignSummary]) -> tuple[str, str]:
    """Per-algorithm means plus a dsa/bo computation-time ratio line.

    Returns (text table, CSV) built from one or more campaign summaries.
    """
    if not summaries:
        raise ParseError("no summaries given")
    entries = [entry for summary in summaries for entry in summary.entries]
    means = _algorithm_means(entries)
    runs = Counter(entry.algorithm for entry in entries)
    text_lines = [f"{'algorithm':<14}{'mean_comp_ms':>16}{'mean_best':>16}{'runs':>8}"]
    csv_lines = ["algorithm,mean_computation_ms,mean_best_objective,runs"]
    for algorithm in sorted(means):
        comp, best = means[algorithm]["mean_computation_ms"], means[algorithm]["mean_best_objective"]
        text_lines.append(f"{algorithm:<14}{comp:>16.2f}{best:>16.6g}{runs[algorithm]:>8}")
        csv_lines.append(f"{algorithm},{comp!r},{best!r},{runs[algorithm]}")
    dsa_key = "dsa" if "dsa" in means else ("dsa-parallel" if "dsa-parallel" in means else None)
    bo_ms = means.get("bo", {}).get("mean_computation_ms", 0.0)
    if dsa_key and bo_ms > 0:
        ratio = means[dsa_key]["mean_computation_ms"] / bo_ms
        text_lines.append(f"computation-time ratio {dsa_key}/bo: {ratio:.4f}")
        csv_lines.append(f"ratio_{dsa_key}_over_bo,{ratio!r},,")
    return "\n".join(text_lines) + "\n", "\n".join(csv_lines) + "\n"
