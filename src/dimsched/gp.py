"""ARD squared-exponential Gaussian process regression.

Targets are centered on their empirical mean before fitting; the shift
is re-added at prediction time.  Hyperparameters live on the log scale
and are fitted by best-of-restarts gradient ascent on the log marginal
likelihood with an Armijo line search that starts from the step it
accepted last.

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
the targets are centred once per dataset, each trial point is fitted
once, and a ``KernelHyperparams`` is built only for the value returned.
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
from scipy.linalg import lapack

from .errors import DimensionMismatch, NotPositiveDefinite
from .linalg import CholFactor, chol_append, cholesky_spd, solve_chol, solve_tri

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
    mean_shift: float

    @property
    def d(self) -> int:
        return self.data.d

    @property
    def n(self) -> int:
        return self.data.n


def se_kernel(x, x2, hyper: KernelHyperparams) -> float:
    """Squared-exponential covariance between two points."""
    x = np.asarray(x, dtype=float).ravel()
    x2 = np.asarray(x2, dtype=float).ravel()
    if x.shape[0] != x2.shape[0] or x.shape[0] != hyper.d:
        raise DimensionMismatch(
            f"dims {x.shape[0]}, {x2.shape[0]} vs hyper dim {hyper.d}"
        )
    diff = (x - x2) / hyper.lengthscales
    return hyper.signal_variance * math.exp(-0.5 * float(diff @ diff))


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
    return _cross_cov(Xt, X2t, hyper)


def gp_fit(data: Dataset, hyper: KernelHyperparams) -> GpModel:
    fit, mean_shift = _fit_hyper(data, hyper)
    return GpModel(
        data=data, hyper=hyper, factor=fit.factor, alpha=fit.alpha, mean_shift=mean_shift
    )


def gp_predict(model: GpModel, x_star):
    """Posterior mean and (clamped nonnegative) variance.

    At a point, shape (d,), both are floats; at the rows of an (m, d)
    matrix they are arrays of length m.
    """
    x_star = np.asarray_chkfinite(x_star, dtype=float)
    point = x_star.ndim < 2
    X = x_star.reshape(1, -1) if point else x_star
    if X.ndim != 2 or X.shape[1] != model.d:
        raise DimensionMismatch(f"test points of shape {x_star.shape} for a {model.d}-d model")
    k_star = _cross_cov(np.ascontiguousarray(X.T), model.data.columns, model.hyper)
    mean = model.mean_shift + k_star @ model.alpha
    v = solve_tri(model.factor.L, k_star.T, lower=True)
    var = model.hyper.signal_variance - np.add.reduce(v * v, axis=0)
    np.maximum(var, 0.0, out=var)
    if point:
        return float(mean[0]), float(var[0])
    return mean, var


class _Fit(NamedTuple):
    """A fit at one log-hyperparameter vector theta."""

    lml: float
    factor: CholFactor
    alpha: np.ndarray
    K: np.ndarray  # noise-free k(X, X)
    weights: np.ndarray  # -0.5 / ell^2


def _fit(data: Dataset, yc: np.ndarray, theta: np.ndarray) -> _Fit:
    """The one fit core: K + sigma_n^2 I at theta, its factor, alpha and the LML.

    theta is [log ell_1..d, log sigma_f^2, log sigma_n^2] and yc the
    centred targets, checked finite.  K is built from ``data.sq_diffs``.
    """
    n = data.n
    weights = _kernel_weights(theta[:-2])
    K = _kernel(weights, data.sq_diffs, math.exp(theta[-2])).reshape(n, n)
    K_noisy = K.copy()
    K_noisy.reshape(-1)[:: n + 1] += math.exp(theta[-1])  # a view: K is C-ordered
    factor = cholesky_spd(K_noisy)
    alpha = solve_tri(factor.L.T, solve_tri(factor.L, yc, lower=True), lower=False)
    log_det = 2.0 * float(np.log(factor.L.diagonal()).sum())
    lml = -0.5 * (float(yc @ alpha) + log_det + n * _LOG_2PI)
    return _Fit(lml, factor, alpha, K, weights)


def _fit_hyper(data: Dataset, hyper: KernelHyperparams) -> tuple[_Fit, float]:
    """The fit at hyper to the targets centred on their mean, and that mean."""
    if data.n < 1:
        raise DimensionMismatch("need at least one observation")
    if hyper.d != data.d:
        raise DimensionMismatch(f"hyper dim {hyper.d} != data dim {data.d}")
    mean_shift = float(np.mean(data.Y))
    yc = np.asarray_chkfinite(data.Y - mean_shift)
    return _fit(data, yc, hyper.to_vector()), mean_shift


def log_marginal_likelihood(data: Dataset, hyper: KernelHyperparams) -> float:
    return _fit_hyper(data, hyper)[0].lml


def _lml_gradient(data: Dataset, fit: _Fit, noise_variance: float) -> np.ndarray:
    """Gradient of the LML w.r.t. [log ell_1..d, log sigma_f^2, log sigma_n^2].

    Uses the trace identity 0.5 * tr((alpha alpha^T - K^-1) dK/dtheta)
    (Rasmussen & Williams 2006, eq. 5.9), with K^-1 from the fit's factor.
    With W = (alpha alpha^T - K^-1) o K, every lengthscale component comes
    from one product with ``data.sq_diffs``, times 0.5/ell^2 = -weights.
    """
    n, d = data.n, data.d
    # potri fills the lower triangle of K^-1 and keeps L's zero upper one.
    K_inv, info = lapack.dpotri(fit.factor.L, lower=1)
    if info != 0:
        raise NotPositiveDefinite(f"inverse from the Cholesky factor failed (info={info})")
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
    grad[d + 1] = 0.5 * noise_variance * trace_m
    return grad


def lml_gradient(data: Dataset, hyper: KernelHyperparams) -> np.ndarray:
    return _lml_gradient(data, _fit_hyper(data, hyper)[0], hyper.noise_variance)


# Log-hyperparameters are clipped here during optimization so exp() can
# neither overflow nor underflow to zero lengthscales.
_LOG_CLIP = 300.0
# The Armijo search tries the steps 2**-k for k < _MAX_HALVINGS.
_MAX_HALVINGS = 40


def _safe_fit(data: Dataset, yc: np.ndarray, theta: np.ndarray) -> _Fit | None:
    """The fit at theta, or None if it fails or its LML is not finite."""
    try:
        fit = _fit(data, yc, theta)
    except (NotPositiveDefinite, DimensionMismatch):
        return None
    return fit if math.isfinite(fit.lml) else None


def _bracket_step(passes, k0: int) -> int | None:
    """Exponent k of the Armijo step 2**-k, searched from the last one, k0.

    From k0 the step doubles while it passes, up to 1, or halves while it
    fails.  If halving runs out, the larger steps skipped are tried from 1
    down.  When the passing k form an interval this returns its smallest
    k, the step that backtracking from 1 accepts, and it returns None
    exactly when no k < _MAX_HALVINGS passes.
    """
    if passes(k0):
        while k0 > 0 and passes(k0 - 1):
            k0 -= 1
        return k0
    for k in (*range(k0 + 1, _MAX_HALVINGS), *range(k0)):
        if passes(k):
            return k
    return None


def _ascend(
    data: Dataset, yc: np.ndarray, theta: np.ndarray, fit: _Fit, max_iter: int, grad_tol=1e-5
) -> tuple[float, np.ndarray]:
    """Gradient ascent with an Armijo line search from theta and its fit.

    Each trial point is fitted once, and the accepted trial's fit gives the
    next gradient.  Returns the last accepted point and its LML.
    """
    f = fit.lml
    k = 0
    for _ in range(max_iter):
        try:
            g = _lml_gradient(data, fit, math.exp(theta[-1]))
        except NotPositiveDefinite:
            break
        g_max = float(np.abs(g).max())  # nan or inf if any component is
        if not (math.isfinite(g_max) and g_max >= grad_tol):
            break
        g_sq = float(g @ g)
        trials = {}

        def passes(j: int) -> bool:
            step = 0.5**j
            cand = np.minimum(np.maximum(theta + step * g, -_LOG_CLIP), _LOG_CLIP)
            trial = _safe_fit(data, yc, cand)
            trials[j] = cand, trial
            return trial is not None and trial.lml >= f + 1e-4 * step * g_sq

        k = _bracket_step(passes, k)
        if k is None:
            break
        theta, fit = trials[k]
        f = fit.lml
    return f, theta


def _random_start(rng: np.random.Generator, ranges: np.ndarray, var_y: float) -> np.ndarray:
    """A start theta: random log-lengthscales, sigma_f^2 = var_y, sigma_n^2 = var_y / 100."""
    log_ls = rng.uniform(np.log(0.1 * ranges), np.log(2.0 * ranges))
    return np.concatenate([log_ls, [math.log(var_y), math.log(1e-2 * var_y)]])


def _coordinate_ranges(data: Dataset, bounds_ranges=None) -> np.ndarray:
    if bounds_ranges is not None:
        ranges = np.asarray(bounds_ranges, dtype=float).ravel()
    else:
        ranges = data.X.max(axis=0) - data.X.min(axis=0)
    return np.where(ranges > 0, ranges, 1.0)


def train_hyperparams(
    data: Dataset,
    restarts: int = 3,
    rng: np.random.Generator | int | None = None,
    bounds_ranges=None,
    max_iter: int = 200,
    warm_start: KernelHyperparams | None = None,
) -> KernelHyperparams:
    """Best-of-restarts maximum-likelihood hyperparameters.

    rng is what ``np.random.default_rng`` takes: None, a seed, or a
    Generator, which is used as it is.  An ascent ends at a point whose
    LML is at least its start's and returns the start if it accepts no
    step, so the best start is kept if every ascent stalls.  When
    bounds_ranges is omitted, per-coordinate data ranges seed the
    lengthscale initialization.
    """
    if data.n < 2:
        raise DimensionMismatch("training needs at least two observations")
    rng = np.random.default_rng(rng)
    var_y = float(np.var(data.Y))
    var_y = max(var_y, _NOISE_FLOOR)
    ranges = _coordinate_ranges(data, bounds_ranges)

    if warm_start is not None and warm_start.d != data.d:
        raise DimensionMismatch(f"warm start dim {warm_start.d} != data dim {data.d}")
    yc = np.asarray_chkfinite(data.Y - float(np.mean(data.Y)))

    starts: list[np.ndarray] = []
    if warm_start is not None:
        starts.append(warm_start.to_vector())
    starts.extend(_random_start(rng, ranges, var_y) for _ in range(restarts))

    best_f = -np.inf
    best = starts[0]
    # _safe_fit and the ascent reject what overflows (module docstring).
    with np.errstate(all="ignore"):
        for theta in starts:
            fit = _safe_fit(data, yc, theta)
            if fit is None:
                continue
            f_end, theta_end = _ascend(data, yc, theta, fit, max_iter=max_iter)
            if f_end > best_f:
                best_f, best = f_end, theta_end

    floor = math.log(max(_NOISE_FLOOR, _NOISE_FLOOR * var_y))
    return KernelHyperparams(best[:-2].copy(), float(best[-2]), max(float(best[-1]), floor))


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
    mean_shift = float(np.mean(data.Y))
    alpha = solve_chol(factor, data.Y - mean_shift)
    return GpModel(data=data, hyper=hyper, factor=factor, alpha=alpha, mean_shift=mean_shift)
