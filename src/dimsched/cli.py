"""Command-line entry point.

Subcommands: list-objectives, run, plot, report.  Diagnostics go to
stderr, at the level the DIMSCHED_LOG env var names (error, warning,
info or debug, in any case); stdout carries only machine-readable
output.  Exit codes: 0 ok, 2 config error, 3 runtime
abort, 4 I/O error.  A reader that quits early, as ``head`` does, is not
an error: the command exits 0.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

from .errors import ConfigError, DimschedError, ParseError
from .harness import (
    emit_convergence_plot,
    emit_timing_report,
    load_campaign_config,
    read_summary,
    run_campaign,
)
from .objectives import benchmark_catalog

log = logging.getLogger("dimsched")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_IO = 4


def _setup_logging() -> bool:
    """Log to stderr at the level DIMSCHED_LOG names (error by default); False if it names none."""
    levels = {"error": logging.ERROR, "warning": logging.WARNING, "info": logging.INFO,
              "debug": logging.DEBUG}
    level = levels.get(os.environ.get("DIMSCHED_LOG", "error").lower())
    if level is None:
        return False
    logging.basicConfig(
        stream=sys.stderr,
        level=level,
        format="%(levelname)s %(name)s: %(message)s",
    )
    return True


def _cmd_list_objectives(_args) -> int:
    for name, spec in sorted(benchmark_catalog().items()):
        opt = "" if spec.known_optimum is None else f" optimum={spec.known_optimum:g}"
        print(f"{name} d={spec.dimension}{opt}")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = load_campaign_config(args.config)
    if args.out is not None:
        config = replace(config, output_dir=args.out)
    if args.seed is not None:
        config = replace(config, base_seed=args.seed)
    log.info("campaign: %s on %s, %d runs", config.algorithms, config.objective_name, config.runs)
    summary = run_campaign(config)
    print(os.path.join(config.output_dir, "summary.json"))
    log.info("best objectives: %s", [e.best_objective for e in summary.entries])
    return EXIT_OK


def _cmd_plot(args) -> int:
    emit_convergence_plot(args.traces, args.out, log_scale=args.log_scale)
    print(args.out)
    return EXIT_OK


def _cmd_report(args) -> int:
    summaries = [read_summary(path) for path in args.summaries]
    text, csv_text = emit_timing_report(summaries)
    sys.stderr.write(text)
    print(csv_text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dimsched")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list-objectives", help="print the objective catalog")
    p_list.set_defaults(handler=_cmd_list_objectives)

    p_run = sub.add_parser("run", help="run a comparison campaign")
    p_run.set_defaults(handler=_cmd_run)
    p_run.add_argument("--config", required=True, help="campaign config file")
    p_run.add_argument("--out", default=None, help="override output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override base seed")

    p_plot = sub.add_parser("plot", help="emit a convergence SVG from traces")
    p_plot.set_defaults(handler=_cmd_plot)
    p_plot.add_argument("--traces", nargs="+", required=True)
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("--log-scale", action="store_true")

    p_report = sub.add_parser("report", help="timing/quality report from summaries")
    p_report.set_defaults(handler=_cmd_report)
    p_report.add_argument("--summaries", nargs="+", required=True)
    return parser


def main(argv=None) -> int:
    if not _setup_logging():
        sys.stderr.write("config error: DIMSCHED_LOG must be one of error, warning, info, debug\n")
        return EXIT_CONFIG
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a pipe closed by its reader fails here, not at exit
        return code
    except BrokenPipeError:
        # Pointing stdout at devnull keeps the interpreter's last flush quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except (OSError, ParseError) as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO
    except DimschedError as exc:
        sys.stderr.write(f"runtime error: {exc}\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
