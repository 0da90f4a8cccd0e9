import os
import subprocess
import sys

import dimsched


def test_every_export_resolves():
    # A name left in __all__ after its definition is gone breaks
    # ``from dimsched import *``.
    assert [name for name in dimsched.__all__ if not hasattr(dimsched, name)] == []


def test_training_leaves_scipy_optimize_unimported():
    # Importing scipy.optimize takes 0.2 s, which every run would pay in its
    # setup; training has its own bounded ascent.  A fresh interpreter, so
    # that no other test's import counts.
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import dimsched\n"
        "from dimsched.gp import Dataset, train_hyperparams\n"
        "X = np.random.default_rng(0).uniform(-5.0, 5.0, size=(20, 2))\n"
        "train_hyperparams(Dataset(X, np.sin(X).sum(axis=1)), restarts=2, rng=0)\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(dimsched.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
