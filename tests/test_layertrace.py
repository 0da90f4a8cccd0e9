"""perfbench's layer trace must find, time and put back what it wraps.

``perfbench/layertrace.py`` replaces dimsched functions by module and
attribute name, so renaming one of them, or calling a layer under another
name, breaks ``perfbench/run.py --trace 1`` without failing any other
test.  This file imports that module and traces two short runs.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from dimsched.direct import DirectConfig
from dimsched.objectives import benchmark_catalog
from dimsched.optimize import RunConfig, initial_design, run_bo, run_dsa

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("perfbench_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    traced = load_layertrace().TRACED
    assert traced
    missing = [
        f"{module.__name__}.{attr}"
        for _, module, attr, _ in traced
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_spans_record_calls_and_leave_records_unchanged():
    # A span that reads 0 on working code (a layer called under another
    # name) and a tracer that changes what it traces both fail here.
    spec = benchmark_catalog()["styblinski_tang-4"]
    config = RunConfig(
        n_init=6, max_iter=4, retrain_period=2, train_max_iter=20, retrain_max_iter=5,
        direct_config=DirectConfig(max_evals=40, max_iters=10),
    )

    def runs():
        out = []
        for run in (run_bo, run_dsa):
            initial = initial_design(spec.evaluator, spec.bounds, 6, np.random.default_rng(0))
            result = run(spec.evaluator, spec.bounds, config, initial=initial)
            out.append([(r.subset, r.x.tolist(), r.y, r.y_best, r.gp_size) for r in result.records])
        return out

    untraced = runs()
    tracer = load_layertrace().Tracer()
    tracer.install()
    try:
        traced = runs()
    finally:
        restored = tracer.restore()
    assert restored
    assert traced == untraced
    # Nothing in the loops calls the public LML or its gradient: training
    # runs the fit core itself (ROADMAP item 6).
    known_zero = {"gp.lml", "gp.lml_gradient"}
    names = [name for name, _, _, _ in load_layertrace().TRACED]
    assert known_zero <= set(names)
    for name in names:
        if name in known_zero:
            assert tracer.span(name).calls == 0, name
        else:
            assert tracer.span(name).calls > 0, name
