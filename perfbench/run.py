"""Seeded benchmark for dimsched.

    python3 perfbench/run.py --workload st10-dsa --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py                  # the workloads of BENCHMARK.json
    python3 perfbench/run.py --workload lv4-dsa   # a workload BENCHMARK.json leaves out

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced pass next to an
untraced pass over the same seeds.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the workloads and metrics.
"""

import time

T0 = time.perf_counter()  # start of a set-up measurement (--setup-probe)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# A spinning multi-threaded BLAS on a loaded 2-core host turned a 27 us
# triangular solve into 8 ms, so BLAS is pinned before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="workload name (default: every workload of BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=0, help="first seed of the seeded runs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; sets the number of seeded runs (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with per-layer metrics")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--worker-seeds", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so the worker processes are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if not (SRC / "dimsched" / "__init__.py").is_file():
        print(f"error: dimsched sources not found under {SRC}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = contract["run_seconds"]
    sys.path.insert(0, str(SRC))
    import bench  # needs src on the path

    names = [args.workload] if args.workload else [w["name"] for w in contract["workloads"]]
    unknown = [n for n in names if n not in bench.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; known: {', '.join(bench.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.worker_seeds is not None:
        bench.worker_main(args.workload, [int(s) for s in args.worker_seeds.split(",")],
                          bool(args.trace))
        return 0
    if args.setup_probe:
        bench.setup_probe(args.workload, args.seed, args.seconds, T0)
        return 0
    return bench.main(args, names, contract)


if __name__ == "__main__":
    sys.exit(main())
