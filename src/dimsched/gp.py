"""ARD squared-exponential Gaussian process regression.

Targets are centred on their empirical mean before fitting; the shift
is re-added at prediction time.  Hyperparameters live on the log scale
and are fitted by best-of-restarts maximum likelihood inside a box: each
log-lengthscale within ln 100 of its coordinate's log range, the log
signal variance within +-300 and the log noise variance between the
noise floor, at most 300, and 300.  From each start, projected onto the
box, a projected BFGS ascent with an Armijo line search climbs the log
marginal likelihood until its projected gradient or its relative gain
per step is negligible.  The starts climb in lockstep, one row each of a
stack: a round fits every start's next point and differentiates the ones
that passed, and each start takes the steps it would take alone, bit for
bit.  A round costs each start's own calls (its factorization, solves,
inverse and log-determinant) plus one set of stacked numpy calls, the
same at every stack height: rows that move while others wait are written
in place, one row at a time, and a stack is gathered only when a start
stops.  The box is the cheapest form of a lengthscale
prior scaled to the search space (Hvarfner, Hellsten & Nardi, ICML 2024): it
keeps the ascent off the plateaus of near-zero lengthscales, where a GP
is white noise away from its data.

One kernel formula: k(X, X2) = sigma_f^2 * exp(w @ D), where D holds the
squared coordinate differences coordinate-major, (d, m*n), and w the
weights -0.5 * min(1/ell^2, max float).  The fit core, prediction and the
O(n^2) append all build the kernel so, as ``_correlation`` scaled by
sigma_f^2, and so agree bit for bit.  Values
below eps^2 * sigma_f^2 (exponents below 2 ln eps) are set to exactly 0:
they cannot move alpha, the LML or a prediction, and left in they become
subnormal numbers in the Cholesky factor, which x86 handles 10-100 times
slower than normal floats.

One fit core, ``_fit``, builds K + sigma_n^2 I for each row of a stack of
log-hyperparameter vectors, factorizes each and solves for alpha; it
returns the LMLs and keeps the noise-free K for the gradient.  The
stacked forms it and the gradient use give each row the bits of the 1-D
computation for that row alone: (k, 1, d) @ (d, N), (d, N) @ (k, N, 1),
(k, p, p) @ (k, p, 1), row dot products (``_rowdot``) and row-wise sums;
not plain 2-D products or einsum.  Each row is still
factorized (``cholesky_spd``), solved (``solve_tri``) and inverted
(``chol_inverse_lower``) by its own call.  ``gp_fit``, the public LML and
its gradient run it on a stack of one row, and training on the stack of
its starts: each trial point is fitted once, and a ``KernelHyperparams``
is built only for the value returned.  A dataset centres its targets once, for
every fit, training and O(n^2) append on it, and refuses, by name, targets
whose mean, centred values or mean square overflows; training takes its
target variance from the same pass.  A model reads its mean shift from
its data; the append solves for alpha as the fit core does.
Trial points may overflow or fail to factorize, so one
``np.errstate(all="ignore")`` spans a training's starts and ascents; the
fit core and the gradient enter none of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, DimschedError, NotPositiveDefinite, _as_int
from .linalg import (
    CholFactor,
    chol_append,
    chol_inverse_lower,
    cholesky_spd,
    solve_tri,
)

_LOG_2PI = math.log(2.0 * math.pi)

# Absolute floor on the noise variance; scaled by var(Y) when that is larger.
_NOISE_FLOOR = 1e-8


@dataclass(frozen=True)
class Dataset:
    """Paired observations: X is (n, d), Y is (n,)."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        Y = np.asarray(self.Y, dtype=float).ravel()
        if X.shape[0] != Y.shape[0]:
            raise DimensionMismatch(f"|X| = {X.shape[0]} but |Y| = {Y.shape[0]}")
        if not (np.isfinite(X).all() and np.isfinite(Y).all()):
            raise DimensionMismatch("dataset contains non-finite entries")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @cached_property
    def columns(self) -> np.ndarray:
        """X's coordinate columns, (d, n): a C-contiguous, read-only copy of X.T.

        Every cross-covariance against this dataset is built from it.
        """
        Xt = np.ascontiguousarray(self.X.T)
        Xt.flags.writeable = False
        return Xt

    @cached_property
    def sq_diffs(self) -> np.ndarray:
        """Squared coordinate differences of X with itself, (d, n*n).

        Column i*n + j is (x_i - x_j)**2.  Training evaluates many
        hyperparameters on one dataset, and every kernel it needs is
        sigma_f^2 * ``_correlation(weights, sq_diffs)`` for some weights.
        """
        return _sq_diffs(self.columns, self.columns)

    @cached_property
    def _centred(self) -> tuple[float, np.ndarray, float]:
        """The targets' mean, the targets centred on it, and the mean of their squares.

        Raises DimschedError, naming the targets' range, if any of them overflows.
        """
        n = self.Y.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            # The sums np.mean and np.var take, without their Python overhead.
            mean = float(np.add.reduce(self.Y)) / n
            yc = self.Y - mean
            var = float(np.add.reduce(yc * yc)) / n
        if not math.isfinite(var):
            cause = (
                "their mean" if not math.isfinite(mean)
                else "the centred targets" if not np.isfinite(yc).all()
                else "the mean of their squares"
            )
            raise DimschedError(
                f"targets from {self.Y.min():g} to {self.Y.max():g} cannot be centred: "
                f"{cause} overflows"
            )
        return mean, yc, var

    def append(self, x, y: float) -> "Dataset":
        x = np.asarray(x, dtype=float).ravel()
        if x.shape[0] != self.d:
            raise DimensionMismatch(f"point has dim {x.shape[0]}, dataset has {self.d}")
        return Dataset(np.vstack([self.X, x]), np.append(self.Y, float(y)))


@dataclass(frozen=True)
class KernelHyperparams:
    log_lengthscales: np.ndarray
    log_signal_variance: float
    log_noise_variance: float

    def __post_init__(self):
        # A read-only copy, so the values cached from it cannot go stale.
        ls = np.array(self.log_lengthscales, dtype=float).ravel()
        ls.flags.writeable = False
        object.__setattr__(self, "log_lengthscales", ls)

    @property
    def d(self) -> int:
        return self.log_lengthscales.shape[0]

    @cached_property
    def lengthscales(self) -> np.ndarray:
        ls = np.exp(self.log_lengthscales)
        ls.flags.writeable = False
        return ls

    @cached_property
    def _weights(self) -> np.ndarray:
        """``_kernel_weights`` of the log-lengthscales, for every k(x, x') from them."""
        return _kernel_weights(self.log_lengthscales)

    @cached_property
    def signal_variance(self) -> float:
        return math.exp(self.log_signal_variance)

    @cached_property
    def noise_variance(self) -> float:
        return math.exp(self.log_noise_variance)

    def to_vector(self) -> np.ndarray:
        return np.concatenate(
            [self.log_lengthscales, [self.log_signal_variance, self.log_noise_variance]]
        )

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "KernelHyperparams":
        v = np.asarray(v, dtype=float)
        return cls(v[:-2].copy(), float(v[-2]), float(v[-1]))


@dataclass(frozen=True)
class GpModel:
    data: Dataset
    hyper: KernelHyperparams
    factor: CholFactor
    alpha: np.ndarray

    @property
    def mean_shift(self) -> float:
        """The targets' mean, re-added to every predicted mean."""
        return self.data._centred[0]

    @property
    def d(self) -> int:
        return self.data.d

    @property
    def n(self) -> int:
        return self.data.n


_FLOAT_MAX = np.finfo(float).max
# Kernel exponents below 2 ln(eps) give 0 (see the module docstring).
_EXPONENT_FLOOR = 2.0 * math.log(np.finfo(float).eps)


def _sq_diffs(Xt: np.ndarray, X2t: np.ndarray) -> np.ndarray:
    """Squared coordinate differences, (d, m*n), of coordinate-major Xt (d, m) and X2t (d, n).

    Column i*n + j is (x_i - x2_j)**2, so a product with weights (d,) gives
    the m*n kernel exponents with the rows of k(X, X2) one after another.
    """
    diff = Xt[:, :, None] - X2t[:, None, :]
    diff *= diff
    return diff.reshape(Xt.shape[0], -1)


def _kernel_weights(log_lengthscales: np.ndarray) -> np.ndarray:
    """The weights -0.5/ell^2 of the squared differences.

    1/ell^2 is capped at the largest float, so a zero difference times an
    overflowed 1/ell^2 is 0, never nan.
    """
    weights = np.exp(-2.0 * log_lengthscales)
    np.minimum(weights, _FLOAT_MAX, out=weights)
    weights *= -0.5
    return weights


def _correlation(weights: np.ndarray, sq_diffs: np.ndarray) -> np.ndarray:
    """exp(weights @ sq_diffs), 0 below eps^2: the kernel before sigma_f^2.

    Flat (m*n,) from weights (d,); (k, 1, m*n) from a stack of weights (k, 1, d).
    """
    K = weights @ sq_diffs
    kept = K >= _EXPONENT_FLOOR
    # exp runs on normal numbers only; a -inf exponent or a masked copy costs more.
    np.maximum(K, _EXPONENT_FLOOR, out=K)
    np.exp(K, out=K)
    K *= kept
    return K


def _cross_cov(Xt: np.ndarray, X2t: np.ndarray, hyper: KernelHyperparams) -> np.ndarray:
    """k(X, X2), (m, n), from coordinate-major Xt (d, m) and X2t (d, n)."""
    K = _correlation(hyper._weights, _sq_diffs(Xt, X2t))
    K *= hyper.signal_variance
    return K.reshape(Xt.shape[1], X2t.shape[1])


def kernel_matrix(X, X2, hyper: KernelHyperparams) -> np.ndarray:
    """Cross-covariance matrix k(X, X2), built as the fit core builds K."""
    Xt = np.ascontiguousarray(np.asarray(X, dtype=float).T)
    X2t = np.ascontiguousarray(np.asarray(X2, dtype=float).T)
    if not Xt.shape[0] == X2t.shape[0] == hyper.d:
        raise DimensionMismatch(
            f"points of dims {Xt.shape[0]}, {X2t.shape[0]} for a {hyper.d}-d kernel"
        )
    return _cross_cov(Xt, X2t, hyper)


def gp_fit(data: Dataset, hyper: KernelHyperparams) -> GpModel:
    fit = _fit_hyper(data, hyper)
    return GpModel(data=data, hyper=hyper, factor=fit.factors[0], alpha=fit.alpha[0])


def gp_predict(model: GpModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and (clamped nonnegative) variances at the rows of X.

    X is an (m, d) matrix of points; both results are arrays of length m.
    """
    X = np.asarray_chkfinite(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.d:
        raise DimensionMismatch(f"test points of shape {X.shape} for a {model.d}-d model")
    k_star = _cross_cov(np.ascontiguousarray(X.T), model.data.columns, model.hyper)
    mean = model.mean_shift + k_star @ model.alpha
    v = solve_tri(model.factor.L, k_star.T, lower=True)
    var = model.hyper.signal_variance - np.add.reduce(v * v, axis=0)
    np.maximum(var, 0.0, out=var)
    return mean, var


class _Fit(NamedTuple):
    """Fits at the k rows of a stack of log-hyperparameter vectors, thetas (k, d+2)."""

    lml: list[float]  # per row; nan where the factorization failed
    factors: list  # per row, its CholFactor or the DimschedError that factorizing raised
    alpha: np.ndarray  # (k, n); unset where the factorization failed
    K: np.ndarray  # (k, n, n), noise-free k(X, X)
    weights: np.ndarray  # (k, d), -0.5 / ell^2
    noise_variance: list[float]  # per row, sigma_n^2


def _stacked_rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


# The dot product of each row of a with the same row of b, (k, p) each.
# np.vecdot (numpy 2.0), the stacked (1, p) @ (p, 1) products and the 1-D
# a[j] @ b[j] all run numpy's one dot kernel (BLAS's ddot where it can), so
# they give the same bits; a row-wise sum of a * b does not.  np.vecdot has
# the least overhead.
_rowdot = getattr(np, "vecdot", _stacked_rowdot)


def _fit(data: Dataset, yc: np.ndarray, thetas: np.ndarray) -> _Fit:
    """The one fit core: K + sigma_n^2 I at each row of thetas, its factor, alpha and LML.

    theta is [log ell_1..d, log sigma_f^2, log sigma_n^2] and yc the
    centred targets, checked finite.  exp(w @ D) is built from
    ``data.sq_diffs`` for the whole stack, in forms that give each row the
    bits of a fit of that row alone; each row is then scaled by its own
    sigma_f^2, factorized and solved on its own, and its LML summed as a
    Python float.  sigma_f^2 and sigma_n^2 stay Python floats, so a row's
    scaling and diagonal cost one call each at any stack height, where a
    stacked form would first build an array of them.  A row whose
    factorization raises keeps the error in place of its factor.
    """
    k, n = thetas.shape[0], data.n
    weights = _kernel_weights(thetas[:, :-2])
    # Each row is scaled by its own sigma_f^2 below.
    K = _correlation(weights[:, None, :], data.sq_diffs).reshape(k, n, n)
    # K's diagonal is sigma_f^2 exactly, as exp(0) = 1.  So sigma_n^2 is
    # added to it in place for each factorization, and the diagonal is set
    # back after it: no copy of K.
    K_diagonals = K.reshape(k, n * n)[:, :: n + 1]  # a view: K is C-ordered
    lml = []
    factors = []
    noise_variance = []
    alpha = np.empty((k, n))
    constant = n * _LOG_2PI
    # sigma_f^2 and sigma_n^2 per row, by math.exp: np.exp differs in the last bit.
    for j, (sf, sn) in enumerate(thetas[:, -2:].tolist()):
        signal, noise = math.exp(sf), math.exp(sn)
        noise_variance.append(noise)
        K_j = K[j]
        K_j *= signal
        K_diagonal = K_diagonals[j]
        K_diagonal += noise
        try:
            factor = cholesky_spd(K_j)
        except (NotPositiveDefinite, DimensionMismatch) as exc:
            lml.append(math.nan)
            factors.append(exc)
        else:
            factors.append(factor)
            alpha[j] = alpha_j = _solve_alpha(factor, yc)
            log_det = 2.0 * float(np.add.reduce(np.log(factor.L.diagonal())))
            lml.append(-0.5 * (float(yc @ alpha_j) + log_det + constant))
        K_diagonal[...] = signal
    return _Fit(lml, factors, alpha, K, weights, noise_variance)


def _solve_alpha(factor: CholFactor, yc: np.ndarray) -> np.ndarray:
    """alpha = (K + sigma_n^2 I)^-1 yc, by forward then backward substitution."""
    return solve_tri(factor.L.T, solve_tri(factor.L, yc, lower=True), lower=False)


def _fit_hyper(data: Dataset, hyper: KernelHyperparams) -> _Fit:
    """The fit at hyper to the centred targets, a stack of one row; raises if it fails."""
    if data.n < 1:
        raise DimensionMismatch("need at least one observation")
    if hyper.d != data.d:
        raise DimensionMismatch(f"hyper dim {hyper.d} != data dim {data.d}")
    fit = _fit(data, data._centred[1], hyper.to_vector()[None])
    if not isinstance(fit.factors[0], CholFactor):
        raise fit.factors[0]
    return fit


def log_marginal_likelihood(data: Dataset, hyper: KernelHyperparams) -> float:
    return _fit_hyper(data, hyper).lml[0]


def _lml_gradient(data: Dataset, fit: _Fit, rows: list[int]) -> np.ndarray:
    """LML gradients w.r.t. [log ell_1..d, log sigma_f^2, log sigma_n^2], one per row of rows.

    rows are ascending rows of ``fit`` whose factorization succeeded.  Uses
    the trace identity 0.5 * tr((alpha alpha^T - K^-1) dK/dtheta)
    (Rasmussen & Williams 2006, eq. 5.9), with K^-1 from each row's factor.
    With W = (alpha alpha^T - K^-1) o K, every lengthscale component comes
    from one product with ``data.sq_diffs``, times 0.5/ell^2 = -weights;
    the two variance components are Python floats from W's row sums and
    traces.  A row whose K^-1 cannot be formed is nan.
    """
    n, d = data.n, data.d
    m = len(rows)
    every = m == len(fit.factors)
    alpha, weights = fit.alpha, fit.weights
    if not every:
        alpha, weights = alpha.take(rows, axis=0), weights.take(rows, axis=0)
    W = alpha[:, :, None] * alpha[:, None, :]
    for i, j in enumerate(rows):
        try:
            K_inv = chol_inverse_lower(fit.factors[j])
        except NotPositiveDefinite:
            W[i] = np.nan
            continue
        # alpha alpha^T - K^-1 without forming the symmetric K^-1: subtract
        # the lower triangle, then its transpose with the diagonal zeroed.
        W_i = W[i]
        W_i -= K_inv
        upper = K_inv.T  # C-ordered: LAPACK's K_inv is Fortran-ordered
        upper.reshape(n * n)[:: n + 1] = 0.0
        W_i -= upper
    W_flat = W.reshape(m, n * n)
    traces = np.add.reduce(W_flat[:, :: n + 1], axis=1).tolist()
    if every:
        W *= fit.K
    else:  # no copy of the rows of K
        for i, j in enumerate(rows):
            W[i] *= fit.K[j]
    sums = np.add.reduce(W_flat, axis=1).tolist()

    grad = np.empty((m, d + 2))
    lengthscale = (data.sq_diffs @ W_flat[:, :, None])[:, :, 0]
    np.negative(lengthscale, out=lengthscale)
    np.multiply(lengthscale, weights, out=grad[:, :d])
    for i, j in enumerate(rows):  # the variances' components as Python floats
        grad[i, d] = 0.5 * sums[i]
        grad[i, d + 1] = 0.5 * fit.noise_variance[j] * traces[i]
    return grad


def lml_gradient(data: Dataset, hyper: KernelHyperparams) -> np.ndarray:
    return _lml_gradient(data, _fit_hyper(data, hyper), [0])[0]


# Log sigma_f^2 and log sigma_n^2 are trained below this bound, and log
# sigma_f^2 above its negative, so exp() can neither overflow nor underflow.
_LOG_CLIP = 300.0
# Each log-lengthscale is trained within this distance of its coordinate's log range.
_LOG_LENGTHSCALE_SPAN = math.log(100.0)
# The ascent stops at a projected gradient below _GRAD_TOL, or at an LML gain
# per step of at most _REL_GAIN_TOL relative to the LML (L-BFGS-B's default
# factr * eps).
_GRAD_TOL = 1e-5
_REL_GAIN_TOL = 2.2e-9


def _ascend(
    data: Dataset, yc: np.ndarray, thetas: np.ndarray,
    lo: np.ndarray, hi: np.ndarray, max_iter: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Projected BFGS ascents on the LML inside the box [lo, hi], one from each row of thetas.

    A coordinate at a bound whose gradient points out of the box is held;
    the others move along H g, with H the dense BFGS estimate of the
    inverse Hessian of -LML (Nocedal & Wright, ch. 6; bounds as in
    L-BFGS-B, Byrd, Lu, Nocedal & Zhu 1995).  H starts as the identity,
    with the step scaled to at most 1 in every coordinate, and is scaled by
    s^T y / y^T y at its first update.  An update whose curvature s^T y is
    not positive is skipped.  Along a direction, an Armijo search
    backtracks from the full step, projected on the box, to the first
    trial point whose LML gain is at least 1e-4 times the gain the
    projected gradient pg predicts for it.  A trial point that cannot be
    fitted cuts the step tenfold; any other cuts it to the peak of the
    parabola through the LML, the predicted slope and the trial, kept
    within [0.1 t, 0.5 t] (Nocedal & Wright, sec. 3.5).  The search gives
    up once the predicted gain is no larger than the relative gain at
    which the ascent stops anyway.  H is reset when H pg is not an ascent
    direction or its search gives up, and the ascent stops when the
    search along pg gives up.

    The starts climb in lockstep, one row each of every stack.  A round
    fits the next point of every row as one stack, then differentiates
    the rows whose point passed as one stack; a row leaves when its ascent
    stops.  Each row takes the steps it would take alone, bit for bit:
    per-row scalars are Python floats, as in a single ascent, and the
    stacked forms give each row the bits of its own 1-D computation.  A
    round's numpy calls act on whole stacks, whatever their height; rows
    that moved while others did not are written in place, one row at a
    time, so no stack is copied for them.  Each trial point is fitted
    once, and the accepted trial's fit gives the next gradient.  Returns
    each start's LML, -inf where its first fit fails, and its last
    accepted point.
    """
    k, p = thetas.shape
    f_end = np.full(k, -np.inf)
    theta_end = thetas.copy()

    # Row i of every stack and list is the ascent from start[i].  The
    # stacks are this function's own, so rows are written in place.
    start = list(range(k))
    theta = cand = thetas.copy()  # the last accepted point, and the point to fit next
    step, s, g, pg, direction = (np.zeros((k, p)) for _ in range(5))
    held = np.zeros((k, p), dtype=bool)
    H = np.zeros((k, p, p))
    f = [-math.inf] * k  # the LML at theta
    pg_max = [0.0] * k  # the largest |pg|, nan or inf if a free component is
    predicted = [0.0] * k  # the LML gain pg predicts for cand - theta
    t = [1.0] * k  # the Armijo step length
    has_H = [False] * k  # else H is the identity, unscaled
    gradients = [0] * k
    first = True

    def along_pg(rows):
        """Each row's pg scaled to at most 1 in every coordinate, held coordinates zeroed."""
        for i in rows:
            scaled = direction[i]
            np.divide(pg[i], max(pg_max[i], 1.0), out=scaled)
            scaled[held[i]] = 0.0

    while True:
        m = len(start)
        fit = _fit(data, yc, cand)
        passed = []  # rows whose point is accepted
        climb = []  # of these, the rows that take a gradient
        searching = []  # rows that backtrack along their direction
        stop = []
        for i, value in enumerate(fit.lml):
            if not math.isfinite(value):
                if first:
                    stop.append(i)  # f stays -inf
                else:  # no parabola to fit: cut the step tenfold
                    t[i] *= 0.1
                    searching.append(i)
                continue
            if not first:
                gain = value - f[i]
                if not gain >= 1e-4 * predicted[i]:
                    # The peak of the parabola through f, the predicted slope
                    # and the trial, within [0.1 t, 0.5 t].
                    t[i] *= min(max(0.5 * predicted[i] / (predicted[i] - gain), 0.1), 0.5)
                    searching.append(i)
                    continue
            f_last, f[i] = f[i], value
            passed.append(i)
            if not first and gain <= _REL_GAIN_TOL * max(abs(value), abs(f_last), 1.0):
                stop.append(i)
            elif gradients[i] == max_iter:
                stop.append(i)
            else:
                gradients[i] += 1
                climb.append(i)
        if passed and not first:
            if len(passed) == m:
                theta, s = cand, step
            else:
                for i in passed:
                    theta[i] = cand[i]
                    s[i] = step[i]

        new = []  # rows that start a new search
        if climb:
            g_next = _lml_gradient(data, fit, climb)
            if len(climb) < m:  # the other rows keep g, so their y is 0 and H stays
                g_climb, g_next = g_next, g.copy()
                for i, j in enumerate(climb):
                    g_next[j] = g_climb[i]
            if not first:
                # BFGS update of H by the step just taken, where s^T y > 0
                # (never on a y of 0, nor on one that is not finite).
                y = g - g_next
                sy = _rowdot(s, y).tolist()
                update = [i for i in climb if sy[i] > 0.0]
                if update:
                    for i in update:
                        if not has_H[i]:
                            H[i] = np.diag(np.full(p, sy[i] / float(y[i] @ y[i])))
                            has_H[i] = True
                    # (I - rho s y^T) H (I - rho y s^T) + rho s s^T, as H + v s^T + s v^T.
                    Hy = (H @ y[:, :, None])[:, :, 0]  # as H[j] @ y[j], by gemv
                    coefficients = []  # [rho, 0.5 rho^2 (s^T y + y^T H y)] per row
                    for a, b in zip(sy, _rowdot(y, Hy).tolist()):
                        rho = 1.0 / a if a > 0.0 else 0.0
                        coefficients.append((rho, 0.5 * rho * rho * (a + b)))
                    c = np.array(coefficients)
                    v = s * c[:, 1:]
                    v -= c[:, :1] * Hy
                    W = v[:, :, None] * s[:, None, :]
                    if len(update) == m:
                        H += W
                        H += W.transpose(0, 2, 1)
                    else:
                        for i in update:
                            H_i = H[i]
                            H_i += W[i]
                            H_i += W[i].T
            # Rows without a new gradient keep theta and g, so these stay too.
            # theta lies in the box, so it is at a bound exactly when equal to it.
            g = g_next
            held = theta == np.where(g > 0.0, hi, lo)
            pg = g.copy()
            pg[held] = 0.0
            pg_max = np.maximum.reduce(np.abs(pg), axis=1).tolist()
            for i in climb:
                if _GRAD_TOL <= pg_max[i] < math.inf:  # false for nan
                    new.append(i)
                    t[i] = 1.0
                else:
                    stop.append(i)

        # A new search goes along H pg, or along pg scaled to at most 1 per
        # coordinate without an H; it is tried where that is an ascent
        # direction and its trial point predicts a gain worth a fit.  A
        # search that gives up resets H and goes along pg; one along pg that
        # gives up stops the ascent.
        if new:
            aimed = [i for i in new if has_H[i]]
            if aimed:
                H_pg = (H @ pg[:, :, None])[:, :, 0]
                H_pg[held] = 0.0
                if len(aimed) == m:
                    direction = H_pg
                else:
                    for i in aimed:
                        direction[i] = H_pg[i]
            if len(aimed) < len(new):
                along_pg([i for i in new if not has_H[i]])
            slopes = _rowdot(direction, pg).tolist()  # not finite unless the direction is
        full_steps = not searching
        while True:  # a second pass only for rows whose H was reset
            moved = direction if full_steps else np.array(t)[:, None] * direction
            cand = np.minimum(np.maximum(theta + moved, lo), hi)
            step = cand - theta
            predicted = _rowdot(pg, step).tolist()
            reset = []
            for i in new:
                if not (
                    0.0 < slopes[i] < math.inf
                    and predicted[i] > _REL_GAIN_TOL * max(abs(f[i]), 1.0)
                ):
                    (reset if has_H[i] else stop).append(i)
            # A backtracking row's direction is one of ascent.
            for i in searching:
                if not predicted[i] > _REL_GAIN_TOL * max(abs(f[i]), 1.0):
                    (reset if has_H[i] else stop).append(i)
            if not reset:
                break
            for i in reset:
                has_H[i] = False
                t[i] = 1.0
            along_pg(reset)
            slopes = _rowdot(direction, pg).tolist()
            new, searching = reset, []

        if stop:
            for i in stop:
                f_end[start[i]] = f[i]
                theta_end[start[i]] = theta[i]
            if len(stop) == m:
                return f_end, theta_end
            keep = [i for i in range(m) if i not in stop]
            start, f, pg_max, predicted, t, has_H, gradients = (
                [values[i] for i in keep]
                for values in (start, f, pg_max, predicted, t, has_H, gradients)
            )
            theta, cand, step, s, g, pg, held, direction, H = (
                a.take(keep, axis=0) for a in (theta, cand, step, s, g, pg, held, direction, H)
            )
        first = False


def _random_starts(rng: np.random.Generator, ranges: np.ndarray, var_y: float,
                   count: int) -> np.ndarray:
    """count start thetas, one a row: random log-lengthscales, sigma_f^2 = var_y
    and sigma_n^2 = var_y / 100.

    The lengthscales come from one draw, which gives the bits, and leaves the
    generator in the state, of one draw per row.
    """
    d = ranges.shape[0]
    starts = np.empty((count, d + 2))
    starts[:, :d] = rng.uniform(np.log(0.1 * ranges), np.log(2.0 * ranges), size=(count, d))
    starts[:, d] = math.log(var_y)
    starts[:, d + 1] = math.log(1e-2 * var_y)
    return starts


def _coordinate_ranges(data: Dataset, bounds_ranges=None) -> np.ndarray:
    """Per-coordinate ranges, bounds_ranges or the data's; a range of 0 counts as 1."""
    if bounds_ranges is None:
        ranges = data.X.max(axis=0) - data.X.min(axis=0)
    else:
        ranges = np.asarray(bounds_ranges, dtype=float).ravel()
        if ranges.shape[0] != data.d:
            raise DimensionMismatch(f"{ranges.shape[0]} bounds ranges for {data.d}-d data")
        if not np.isfinite(ranges).all():
            raise ValueError(f"bounds ranges must be finite, got {ranges}")
        negative = np.flatnonzero(ranges < 0.0)
        if negative.size:
            j = int(negative[0])
            raise ValueError(f"bounds range of coordinate {j} is negative: {ranges[j]:g}")
    return np.where(ranges > 0, ranges, 1.0)


def _count(name: str, value) -> int:
    """value as a nonnegative int; else ValueError, naming name."""
    value = _as_int(name, value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def train_hyperparams(
    data: Dataset,
    restarts: int = 3,
    rng: np.random.Generator | int | None = None,
    bounds_ranges=None,
    max_iter: int = 200,
    warm_start: KernelHyperparams | None = None,
) -> KernelHyperparams:
    """Best-of-restarts maximum-likelihood hyperparameters inside a box.

    The box holds each log ell_j within ln 100 of log r_j, where r_j is
    the coordinate's range: bounds_ranges if given, else the data's.  It
    holds log sigma_f^2 within +-300, and log sigma_n^2 between the noise
    floor, log max(1e-8, 1e-8 var(Y)) but at most 300, and 300.  Every
    start is projected onto the box: the warm start if given, then
    ``restarts`` random ones.  From every start at once, projected BFGS
    ascents (``_ascend``) climb in lockstep, each for at most max_iter
    gradients.  An ascent stops earlier at a projected gradient below
    1e-5, at an LML gain per step of at most 2.2e-9 relative to the LML,
    or when no step along its direction or the gradient's passes the
    Armijo test.  An ascent ends at a point whose LML is at least its
    start's, so the best start is kept if every ascent stalls; of equal
    ones, the first.

    rng is what ``np.random.default_rng`` takes: None, a seed, or a
    Generator, which is used as it is.  restarts and max_iter must be
    integers >= 0, and bounds ranges finite and >= 0; a ValueError names
    the argument, or the coordinate of a negative range.
    """
    restarts, max_iter = _count("restarts", restarts), _count("max_iter", max_iter)
    if data.n < 2:
        raise DimensionMismatch("training needs at least two observations")
    if warm_start is not None and warm_start.d != data.d:
        raise DimensionMismatch(f"warm start dim {warm_start.d} != data dim {data.d}")
    if restarts < 1 and warm_start is None:
        raise ValueError(f"training needs a warm start or a restart, got restarts={restarts}")
    rng = np.random.default_rng(rng)
    _, yc, var_y = data._centred
    var_y = max(var_y, _NOISE_FLOOR)
    ranges = _coordinate_ranges(data, bounds_ranges)

    log_r = np.log(ranges)
    # Capped, so the box is not empty when var(Y) exceeds about 1.9e138.
    noise_floor = min(math.log(max(_NOISE_FLOOR, _NOISE_FLOOR * var_y)), _LOG_CLIP)
    lo = np.concatenate([log_r - _LOG_LENGTHSCALE_SPAN, [-_LOG_CLIP, noise_floor]])
    hi = np.concatenate([log_r + _LOG_LENGTHSCALE_SPAN, [_LOG_CLIP, _LOG_CLIP]])

    starts = _random_starts(rng, ranges, var_y, restarts)
    if warm_start is not None:
        starts = np.vstack([warm_start.to_vector(), starts])
    starts = np.minimum(np.maximum(starts, lo), hi)

    # The fit core and the ascent reject what overflows (module docstring).
    with np.errstate(all="ignore"):
        f, theta = _ascend(data, yc, starts, lo, hi, max_iter=max_iter)
    # The first best start; the first start if every one fails.
    return KernelHyperparams.from_vector(theta[int(np.argmax(f))])


def gp_augment(
    model: GpModel,
    x,
    y: float,
    retrain: bool,
    rng: np.random.Generator | None = None,
    retrain_max_iter: int = 50,
) -> GpModel:
    """Add one observation to the model.

    With retrain=False the hyperparameters are kept and the Cholesky factor
    grows by one row, in O(n^2).  Only when the new pivot is not positive
    is the model refitted, through gp_fit's jitter ladder.  With
    retrain=True the hyperparameters are re-optimized, warm-started from
    the current values plus one random restart, and the model is refitted.
    """
    retrain_max_iter = _count("retrain_max_iter", retrain_max_iter)
    data = model.data.append(x, y)
    hyper = model.hyper
    if retrain:
        hyper = train_hyperparams(
            data,
            restarts=1,
            rng=rng,
            warm_start=model.hyper,
            max_iter=retrain_max_iter,
        )
        return gp_fit(data, hyper)
    k_new = _cross_cov(data.columns[:, -1:], model.data.columns, hyper)[0]
    try:
        factor = chol_append(
            model.factor, k_new, hyper.signal_variance + hyper.noise_variance
        )
    except NotPositiveDefinite:
        return gp_fit(data, hyper)
    alpha = _solve_alpha(factor, data._centred[1])
    return GpModel(data=data, hyper=hyper, factor=factor, alpha=alpha)
