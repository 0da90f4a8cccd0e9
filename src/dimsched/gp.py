"""ARD squared-exponential Gaussian process regression.

Targets are centred on their empirical mean before fitting; the shift
is re-added at prediction time.  Hyperparameters live on the log scale
and are fitted by best-of-restarts maximum likelihood inside a box: each
log-lengthscale within ln 100 of its coordinate's log range, the log
signal variance within +-300 and the log noise variance between the
noise floor and 300.  From each start, projected onto the box, a
projected BFGS ascent with an Armijo line search climbs the log marginal
likelihood until its projected gradient or its relative gain per step
is negligible.  The box is the cheapest form of a lengthscale prior
scaled to the search space (Hvarfner, Hellsten & Nardi, ICML 2024): it
keeps the ascent off the plateaus of near-zero lengthscales, where a GP
is white noise away from its data.

One kernel formula: k(X, X2) = sigma_f^2 * exp(w @ D), where D holds the
squared coordinate differences coordinate-major, (d, m*n), and w the
weights -0.5 * min(1/ell^2, max float).  The fit core, prediction and the
O(n^2) append all build the kernel so, and so agree bit for bit.  Values
below eps^2 * sigma_f^2 (exponents below 2 ln eps) are set to exactly 0:
they cannot move alpha, the LML or a prediction, and left in they become
subnormal numbers in the Cholesky factor, which x86 handles 10-100 times
slower than normal floats.

One fit core, ``_fit``, builds K + sigma_n^2 I from a log-hyperparameter
vector theta, factorizes it and solves for alpha; it returns the LML and
keeps the noise-free K for the gradient.  ``gp_fit``, the public LML and
its gradient wrap it, and training calls it directly on theta vectors:
each trial point is fitted once, and a ``KernelHyperparams`` is built
only for the value returned.  A dataset centres its targets once, for
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

from .errors import DimensionMismatch, DimschedError, NotPositiveDefinite
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
        ``_kernel(weights, sq_diffs, sigma_f^2)`` for some weights.
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
    return -0.5 * np.minimum(np.exp(-2.0 * log_lengthscales), _FLOAT_MAX)


def _kernel(weights: np.ndarray, sq_diffs: np.ndarray, signal_variance: float) -> np.ndarray:
    """sigma_f^2 * exp(weights @ sq_diffs), flat (m*n,), 0 below eps^2 * sigma_f^2."""
    K = weights @ sq_diffs
    kept = K >= _EXPONENT_FLOOR
    # exp runs on normal numbers only; a -inf exponent or a masked copy costs more.
    np.maximum(K, _EXPONENT_FLOOR, out=K)
    np.exp(K, out=K)
    K *= kept
    K *= signal_variance
    return K


def _cross_cov(Xt: np.ndarray, X2t: np.ndarray, hyper: KernelHyperparams) -> np.ndarray:
    """k(X, X2), (m, n), from coordinate-major Xt (d, m) and X2t (d, n)."""
    K = _kernel(hyper._weights, _sq_diffs(Xt, X2t), hyper.signal_variance)
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
    return GpModel(data=data, hyper=hyper, factor=fit.factor, alpha=fit.alpha)


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
    """A fit at one log-hyperparameter vector theta."""

    lml: float
    factor: CholFactor
    alpha: np.ndarray
    K: np.ndarray  # noise-free k(X, X)
    weights: np.ndarray  # -0.5 / ell^2
    noise_variance: float  # sigma_n^2


def _fit(data: Dataset, yc: np.ndarray, theta: np.ndarray) -> _Fit:
    """The one fit core: K + sigma_n^2 I at theta, its factor, alpha and the LML.

    theta is [log ell_1..d, log sigma_f^2, log sigma_n^2] and yc the
    centred targets, checked finite.  K is built from ``data.sq_diffs``.
    """
    n = data.n
    weights = _kernel_weights(theta[:-2])
    noise_variance = math.exp(theta[-1])
    K = _kernel(weights, data.sq_diffs, math.exp(theta[-2])).reshape(n, n)
    K_noisy = K.copy()
    K_noisy.reshape(-1)[:: n + 1] += noise_variance  # a view: K is C-ordered
    factor = cholesky_spd(K_noisy)
    alpha = _solve_alpha(factor, yc)
    log_det = 2.0 * float(np.log(factor.L.diagonal()).sum())
    lml = -0.5 * (float(yc @ alpha) + log_det + n * _LOG_2PI)
    return _Fit(lml, factor, alpha, K, weights, noise_variance)


def _solve_alpha(factor: CholFactor, yc: np.ndarray) -> np.ndarray:
    """alpha = (K + sigma_n^2 I)^-1 yc, by forward then backward substitution."""
    return solve_tri(factor.L.T, solve_tri(factor.L, yc, lower=True), lower=False)


def _fit_hyper(data: Dataset, hyper: KernelHyperparams) -> _Fit:
    """The fit at hyper to the centred targets."""
    if data.n < 1:
        raise DimensionMismatch("need at least one observation")
    if hyper.d != data.d:
        raise DimensionMismatch(f"hyper dim {hyper.d} != data dim {data.d}")
    return _fit(data, data._centred[1], hyper.to_vector())


def log_marginal_likelihood(data: Dataset, hyper: KernelHyperparams) -> float:
    return _fit_hyper(data, hyper).lml


def _lml_gradient(data: Dataset, fit: _Fit) -> np.ndarray:
    """Gradient of the LML w.r.t. [log ell_1..d, log sigma_f^2, log sigma_n^2].

    Uses the trace identity 0.5 * tr((alpha alpha^T - K^-1) dK/dtheta)
    (Rasmussen & Williams 2006, eq. 5.9), with K^-1 from the fit's factor.
    With W = (alpha alpha^T - K^-1) o K, every lengthscale component comes
    from one product with ``data.sq_diffs``, times 0.5/ell^2 = -weights.
    """
    n, d = data.n, data.d
    K_inv = chol_inverse_lower(fit.factor)
    # W = alpha alpha^T - K^-1 without forming the symmetric K^-1: subtract
    # the lower triangle, then its transpose with the diagonal zeroed.
    W = np.outer(fit.alpha, fit.alpha)
    W -= K_inv
    K_inv.flat[:: n + 1] = 0.0
    W -= K_inv.T
    trace_m = float(np.trace(W))
    W *= fit.K

    grad = np.empty(d + 2)
    grad[:d] = -(data.sq_diffs @ W.ravel()) * fit.weights
    grad[d] = 0.5 * float(W.sum())
    grad[d + 1] = 0.5 * fit.noise_variance * trace_m
    return grad


def lml_gradient(data: Dataset, hyper: KernelHyperparams) -> np.ndarray:
    return _lml_gradient(data, _fit_hyper(data, hyper))


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


def _safe_fit(data: Dataset, yc: np.ndarray, theta: np.ndarray) -> _Fit | None:
    """The fit at theta, or None if it fails or its LML is not finite."""
    try:
        fit = _fit(data, yc, theta)
    except (NotPositiveDefinite, DimensionMismatch):
        return None
    return fit if math.isfinite(fit.lml) else None


def _armijo(
    data: Dataset, yc: np.ndarray, theta: np.ndarray, f: float,
    pg: np.ndarray, p: np.ndarray, lo: np.ndarray, hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, _Fit] | None:
    """Backtracking from the full step along p, projected on the box [lo, hi].

    pg is the projected gradient at theta, whose LML is f.  Returns the
    first trial point, with its step and fit, whose LML gain is at least
    1e-4 times the gain pg predicts for it, or None once that prediction
    is no larger than the relative gain at which the ascent stops anyway.
    """
    t = 1.0
    while True:
        cand = np.minimum(np.maximum(theta + t * p, lo), hi)
        s = cand - theta
        predicted = float(pg @ s)
        if not predicted > _REL_GAIN_TOL * max(abs(f), 1.0):
            return None
        trial = _safe_fit(data, yc, cand)
        if trial is None:  # no parabola to fit: cut the step tenfold
            t *= 0.1
            continue
        gain = trial.lml - f
        if gain >= 1e-4 * predicted:
            return cand, s, trial
        # The peak of the parabola through f, the predicted slope and the
        # trial, kept within [0.1 t, 0.5 t] (Nocedal & Wright, sec. 3.5).
        t *= min(max(0.5 * predicted / (predicted - gain), 0.1), 0.5)


def _ascend(
    data: Dataset, yc: np.ndarray, theta: np.ndarray, fit: _Fit,
    lo: np.ndarray, hi: np.ndarray, max_iter: int,
) -> tuple[float, np.ndarray]:
    """Projected BFGS ascent on the LML inside the box [lo, hi], from theta and its fit.

    A coordinate at a bound whose gradient points out of the box is held;
    the others move along H g, with H the dense BFGS estimate of the
    inverse Hessian of -LML (Nocedal & Wright, ch. 6; bounds as in
    L-BFGS-B, Byrd, Lu, Nocedal & Zhu 1995).  H starts as the identity,
    with the step scaled to at most 1 in every coordinate, and is scaled by
    s^T y / y^T y at its first update.  An update whose curvature s^T y is
    not positive is skipped, and H is reset when H g is not an ascent
    direction or no step along it passes.  Each trial point is fitted
    once, and the accepted trial's fit gives the next gradient.  Returns
    the last accepted point and its LML.
    """
    f = fit.lml
    H = None  # the identity, unscaled
    s = None
    for _ in range(max_iter):
        try:
            g_next = _lml_gradient(data, fit)
        except NotPositiveDefinite:
            break
        if s is not None:
            y = g - g_next
            sy = float(s @ y)
            if sy > 0.0:
                if H is None:
                    H = np.diag(np.full(len(s), sy / float(y @ y)))
                # (I - rho s y^T) H (I - rho y s^T) + rho s s^T, as H + v s^T + s v^T.
                Hy = H @ y
                rho = 1.0 / sy
                v = s * (0.5 * rho * rho * (sy + float(y @ Hy)))
                v -= rho * Hy
                W = v[:, None] * s
                H += W
                H += W.T
        g = g_next
        held = np.where(g > 0.0, theta >= hi, theta <= lo)
        pg = g.copy()
        pg[held] = 0.0
        pg_max = float(np.maximum.reduce(np.abs(pg)))  # nan or inf if a free component is
        if not (math.isfinite(pg_max) and pg_max >= _GRAD_TOL):
            break
        # Along H pg, or pg scaled to at most 1 per coordinate without an H;
        # if no step along H pg passes, H is reset and the latter is tried.
        while True:
            p = pg / max(1.0, pg_max) if H is None else H @ pg
            p[held] = 0.0
            slope = float(p @ pg)  # not finite unless p is
            found = _armijo(data, yc, theta, f, pg, p, lo, hi) if 0.0 < slope < math.inf else None
            if found is not None or H is None:
                break
            H = None
        if found is None:
            break
        theta, s, fit = found
        f_last, f = f, fit.lml
        if f - f_last <= _REL_GAIN_TOL * max(abs(f), abs(f_last), 1.0):
            break
    return f, theta


def _random_start(rng: np.random.Generator, ranges: np.ndarray, var_y: float) -> np.ndarray:
    """A start theta: random log-lengthscales, sigma_f^2 = var_y, sigma_n^2 = var_y / 100."""
    log_ls = rng.uniform(np.log(0.1 * ranges), np.log(2.0 * ranges))
    return np.concatenate([log_ls, [math.log(var_y), math.log(1e-2 * var_y)]])


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
    return np.where(ranges > 0, ranges, 1.0)


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
    floor, log max(1e-8, 1e-8 var(Y)), and 300.  Every start is projected
    onto the box: the warm start if given, then ``restarts`` random ones.
    From each, a projected BFGS ascent (``_ascend``) runs for at most
    max_iter gradients.  It stops earlier at a projected gradient below
    1e-5, at an LML gain per step of at most 2.2e-9 relative to the LML,
    or when no step along its direction or the gradient's passes the
    Armijo test.  An ascent ends at a point whose LML is at least its
    start's, so the best start is kept if every ascent stalls.

    rng is what ``np.random.default_rng`` takes: None, a seed, or a
    Generator, which is used as it is.
    """
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
    noise_floor = math.log(max(_NOISE_FLOOR, _NOISE_FLOOR * var_y))
    lo = np.concatenate([log_r - _LOG_LENGTHSCALE_SPAN, [-_LOG_CLIP, noise_floor]])
    hi = np.concatenate([log_r + _LOG_LENGTHSCALE_SPAN, [_LOG_CLIP, _LOG_CLIP]])

    starts: list[np.ndarray] = []
    if warm_start is not None:
        starts.append(warm_start.to_vector())
    starts.extend(_random_start(rng, ranges, var_y) for _ in range(restarts))
    starts = [np.minimum(np.maximum(theta, lo), hi) for theta in starts]

    best_f = -np.inf
    best = starts[0]
    # _safe_fit and the ascent reject what overflows (module docstring).
    with np.errstate(all="ignore"):
        for theta in starts:
            fit = _safe_fit(data, yc, theta)
            if fit is None:
                continue
            f_end, theta_end = _ascend(data, yc, theta, fit, lo, hi, max_iter=max_iter)
            if f_end > best_f:
                best_f, best = f_end, theta_end
    return KernelHyperparams.from_vector(best)


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
