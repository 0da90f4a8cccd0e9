"""The attributes that perfbench's layer trace wraps by name must exist.

``perfbench/layertrace.py`` replaces dimsched functions by module and
attribute name, so renaming one of them breaks ``perfbench/run.py --trace 1``
without failing any other test.  This file only imports that module.
"""

import importlib.util
import sys
from pathlib import Path

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
