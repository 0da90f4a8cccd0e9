"""Expected Improvement over a GP posterior, minimization convention."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .gp import GpModel, gp_predict
from .linalg import std_normal_cdf, std_normal_pdf

# Below this posterior std the closed form degenerates to its sigma -> 0 limit.
_SIGMA_EPS = 1e-12
# The divisor of a flat point's gap; np.where takes a 0-d array faster than a float.
_ONE = np.array(1.0)


def expected_improvement(model: GpModel, y_best: float, X) -> np.ndarray:
    """Expected amount by which f falls below the incumbent value y_best.

    X is an (m, d) matrix of points; the result is an array of m values.
    Where the posterior std is below 1e-12, EI is its sigma -> 0 limit,
    max(y_best - mu, 0).
    """
    mu, var = gp_predict(model, X)
    # gp_predict's arrays are this call's own, so they are overwritten.
    sigma = np.sqrt(var, out=var)
    gap = np.subtract(y_best, mu, out=mu)
    flat = sigma < _SIGMA_EPS
    z = gap / np.where(flat, _ONE, sigma)
    ei = gap * std_normal_cdf(z)
    ei += sigma * std_normal_pdf(z)
    np.copyto(ei, gap, where=flat)
    np.maximum(ei, 0.0, out=ei)
    return ei


def acquisition_objective(model: GpModel, y_best: float) -> Callable[[np.ndarray], np.ndarray]:
    """Negated EI, ready for a minimizing inner solver such as DIRECT.

    Like ``expected_improvement`` it takes an (m, d) matrix of points and
    returns an array of m values.
    """

    def neg_ei(X):
        ei = expected_improvement(model, y_best, X)
        return np.negative(ei, out=ei)

    return neg_ei
