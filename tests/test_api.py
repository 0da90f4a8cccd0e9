import os
import subprocess
import sys

import dimsched


def test_every_export_resolves():
    # A name left in __all__ after its definition is gone breaks
    # ``from dimsched import *``.
    assert [name for name in dimsched.__all__ if not hasattr(dimsched, name)] == []


def test_training_leaves_scipy_optimize_unimported():
    # Importing scipy.optimize takes 0.2 s and scipy.linalg 0.15-0.2 s,
    # which every run would pay in its setup: training has its own bounded
    # ascent, and dimsched.linalg loads scipy's compiled LAPACK module
    # directly.  A fresh interpreter, so that no other test's import counts.
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import dimsched\n"
        "from dimsched.direct import Bounds\n"
        "from dimsched.gp import Dataset, gp_fit, gp_predict, train_hyperparams\n"
        "from dimsched.optimize import RunConfig, run_bo, run_dsa\n"
        "X = np.random.default_rng(0).uniform(-5.0, 5.0, size=(20, 2))\n"
        "data = Dataset(X, np.sin(X).sum(axis=1))\n"
        "gp_predict(gp_fit(data, train_hyperparams(data, restarts=2, rng=0)), X[:3])\n"
        "bounds = Bounds(np.full(4, -1.0), np.full(4, 1.0))\n"
        "config = RunConfig(n_init=4, max_iter=3)\n"
        "sphere = lambda x: float(x @ x)\n"
        "run_bo(sphere, bounds, config)\n"
        "run_dsa(sphere, bounds, config)\n"
        "print(sorted({'scipy.optimize', 'scipy.linalg'} & set(sys.modules)))\n"
    )
    src = os.path.dirname(os.path.dirname(dimsched.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
