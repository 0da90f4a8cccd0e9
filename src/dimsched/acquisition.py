"""Expected Improvement over a GP posterior, minimization convention."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .gp import GpModel, gp_predict
from .linalg import std_normal_cdf, std_normal_pdf

# Below this posterior std the closed form degenerates to its sigma -> 0 limit.
_SIGMA_EPS = 1e-12


def expected_improvement(model: GpModel, y_best: float, x):
    """Expected amount by which f falls below the incumbent value y_best.

    A float at a point, shape (d,); an array at the rows of an (m, d) matrix.
    """
    x = np.asarray(x, dtype=float)
    mu, var = gp_predict(model, x if x.ndim > 1 else x.reshape(1, -1))
    sigma = np.sqrt(var)
    gap = y_best - mu
    flat = sigma < _SIGMA_EPS
    any_flat = flat.any()
    z = gap / (np.where(flat, 1.0, sigma) if any_flat else sigma)
    ei = gap * std_normal_cdf(z) + sigma * std_normal_pdf(z)
    if any_flat:
        ei = np.where(flat, gap, ei)
    np.maximum(ei, 0.0, out=ei)
    return ei if x.ndim == 2 else float(ei[0])


def acquisition_objective(
    model: GpModel, y_best: float
) -> Callable[[np.ndarray], np.ndarray | float]:
    """Negated EI, ready for a minimizing inner solver such as DIRECT.

    Like ``expected_improvement`` it takes a point or an (m, d) matrix of
    points, and returns a float or an array of m values.
    """

    def neg_ei(x):
        return -expected_improvement(model, y_best, x)

    return neg_ei
