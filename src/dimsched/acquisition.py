"""Expected Improvement over a GP posterior, minimization convention.

EI is evaluated point by point on Python floats, taken from
``gp_predict``'s two arrays with ``tolist()``: DIRECT scores a handful of
points per call, and on a handful of values each numpy call costs more
than its arithmetic.  The square root, the gap, z, the two products and
their sum are single correctly rounded IEEE operations either way, so
they give the bits of the array form.  The normal density takes one
``np.exp`` over the list of z (``math.exp`` differs from it in the last
bit), and the distribution function is ``math.erfc`` on each z.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .gp import GpModel, gp_predict
from .linalg import std_normal_cdf_float, std_normal_pdf_floats

# Below this posterior std the closed form degenerates to its sigma -> 0 limit.
_SIGMA_EPS = 1e-12


def expected_improvement(model: GpModel, y_best: float, X) -> np.ndarray:
    """Expected amount by which f falls below the incumbent value y_best.

    X is an (m, d) matrix of points; the result is an array of m values.
    Where the posterior std is below 1e-12, EI is its sigma -> 0 limit,
    max(y_best - mu, 0).
    """
    mu, var = gp_predict(model, X)
    gaps, sigmas, zs = [], [], []
    for m, v in zip(mu.tolist(), var.tolist()):
        g = y_best - m
        s = math.sqrt(v)
        gaps.append(g)
        sigmas.append(s)
        zs.append(g if s < _SIGMA_EPS else g / s)
    ei = []
    for g, s, z, p in zip(gaps, sigmas, zs, std_normal_pdf_floats(zs)):
        e = g if s < _SIGMA_EPS else g * std_normal_cdf_float(z) + s * p
        # np.maximum(e, 0.0): -0.0 becomes +0.0, and nan is kept.
        ei.append(e if e > 0.0 or e != e else 0.0)
    return np.array(ei)


def acquisition_objective(model: GpModel, y_best: float) -> Callable[[np.ndarray], np.ndarray]:
    """Negated EI, ready for a minimizing inner solver such as DIRECT.

    Like ``expected_improvement`` it takes an (m, d) matrix of points and
    returns an array of m values.
    """

    def neg_ei(X):
        ei = expected_improvement(model, y_best, X)
        return np.negative(ei, out=ei)

    return neg_ei
