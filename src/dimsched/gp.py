"""ARD squared-exponential Gaussian process regression.

Targets are centered on their empirical mean before fitting; the shift
is re-added at prediction time.  Hyperparameters live on the log scale
and are fitted by best-of-restarts gradient ascent on the log marginal
likelihood with an Armijo line search that starts from the step it
accepted last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

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
    def sq_diffs(self) -> np.ndarray:
        """Squared coordinate differences, (n*n, d): row i*n + j is (x_i - x_j)**2.

        Training evaluates many hyperparameters on one dataset, and every
        kernel it needs is exp(sq_diffs @ w) for some weights w.  The array
        is in Fortran order, which halves the time of those products.
        """
        Xt = np.ascontiguousarray(self.X.T)
        diff = Xt[:, :, None] - Xt[:, None, :]
        diff *= diff
        return diff.reshape(self.d, -1).T

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
        ls = np.asarray(self.log_lengthscales, dtype=float).ravel()
        object.__setattr__(self, "log_lengthscales", ls)

    @property
    def d(self) -> int:
        return self.log_lengthscales.shape[0]

    @property
    def lengthscales(self) -> np.ndarray:
        return np.exp(self.log_lengthscales)

    @property
    def signal_variance(self) -> float:
        return math.exp(self.log_signal_variance)

    @property
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


def kernel_matrix(X, X2, hyper: KernelHyperparams) -> np.ndarray:
    """Cross-covariance matrix k(X, X2), from direct coordinate differences."""
    X = np.asarray(X, dtype=float)
    diff = np.asarray(X2, dtype=float) - X[:, None, :]
    diff /= hyper.lengthscales
    diff *= diff
    K = np.exp(-0.5 * np.add.reduce(diff, axis=2))
    K *= hyper.signal_variance
    return K


def gp_fit(data: Dataset, hyper: KernelHyperparams) -> GpModel:
    if data.n < 1:
        raise DimensionMismatch("need at least one observation")
    if hyper.d != data.d:
        raise DimensionMismatch(f"hyper dim {hyper.d} != data dim {data.d}")
    K, _ = _training_kernel(data, hyper)
    K.flat[:: data.n + 1] += hyper.noise_variance
    factor = cholesky_spd(K)
    mean_shift = float(np.mean(data.Y))
    alpha = solve_chol(factor, data.Y - mean_shift)
    return GpModel(data=data, hyper=hyper, factor=factor, alpha=alpha, mean_shift=mean_shift)


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
    k_star = kernel_matrix(X, model.data.X, model.hyper)
    mean = model.mean_shift + k_star @ model.alpha
    v = solve_tri(model.factor.L, k_star.T, lower=True)
    var = model.hyper.signal_variance - np.add.reduce(v * v, axis=0)
    np.maximum(var, 0.0, out=var)
    if point:
        return float(mean[0]), float(var[0])
    return mean, var


_FLOAT_MAX = np.finfo(float).max


def _training_kernel(data: Dataset, hyper: KernelHyperparams):
    """Noise-free k(X, X) from ``data.sq_diffs``, and the weights 1/ell^2.

    The weights are capped at the largest float, so a zero difference times
    an overflowed 1/ell^2 is 0, never nan.
    """
    inv_ell2 = np.minimum(np.exp(-2.0 * hyper.log_lengthscales), _FLOAT_MAX)
    K = data.sq_diffs @ (-0.5 * inv_ell2)
    np.exp(K, out=K)
    K *= hyper.signal_variance
    return K.reshape(data.n, data.n), inv_ell2


def log_marginal_likelihood(data: Dataset, hyper: KernelHyperparams) -> float:
    K, _ = _training_kernel(data, hyper)
    K.flat[:: data.n + 1] += hyper.noise_variance
    factor = cholesky_spd(K)
    yc = data.Y - np.mean(data.Y)
    alpha = solve_chol(factor, yc)
    log_det = 2.0 * float(np.sum(np.log(np.diag(factor.L))))
    return -0.5 * (float(yc @ alpha) + log_det + data.n * _LOG_2PI)


def lml_gradient(data: Dataset, hyper: KernelHyperparams) -> np.ndarray:
    """Gradient of the LML w.r.t. [log ell_1..d, log sigma_f^2, log sigma_n^2].

    Uses the trace identity 0.5 * tr((alpha alpha^T - K^-1) dK/dtheta)
    (Rasmussen & Williams 2006, eq. 5.9).  With W = (alpha alpha^T - K^-1) o K,
    every lengthscale component comes from one product with ``data.sq_diffs``.
    """
    n = data.n
    K_sig, inv_ell2 = _training_kernel(data, hyper)
    K_noisy = K_sig.copy()
    K_noisy.flat[:: n + 1] += hyper.noise_variance
    factor = cholesky_spd(K_noisy)
    yc = data.Y - np.mean(data.Y)
    alpha = solve_chol(factor, yc)
    # potri fills the lower triangle of K^-1 and keeps L's zero upper one.
    K_inv, info = lapack.dpotri(factor.L, lower=1)
    if info != 0:
        raise NotPositiveDefinite(f"inverse from the Cholesky factor failed (info={info})")
    K_inv += K_inv.T
    K_inv.flat[:: n + 1] *= 0.5
    W = np.outer(alpha, alpha)
    W -= K_inv
    trace_m = float(np.trace(W))
    W *= K_sig

    grad = np.empty(data.d + 2)
    grad[: data.d] = 0.5 * (W.ravel() @ data.sq_diffs) * inv_ell2
    grad[data.d] = 0.5 * float(W.sum())
    grad[data.d + 1] = 0.5 * hyper.noise_variance * trace_m
    return grad


# Log-hyperparameters are clipped here during optimization so exp() can
# neither overflow nor underflow to zero lengthscales.
_LOG_CLIP = 300.0
# The Armijo search tries the steps 2**-k for k < _MAX_HALVINGS.
_MAX_HALVINGS = 40


def _safe_lml(data: Dataset, hyper: KernelHyperparams) -> float:
    try:
        with np.errstate(all="ignore"):
            val = log_marginal_likelihood(data, hyper)
    except (NotPositiveDefinite, DimensionMismatch, FloatingPointError):
        return -np.inf
    return val if np.isfinite(val) else -np.inf


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
    data: Dataset,
    start: KernelHyperparams,
    f: float,
    max_iter: int,
    grad_tol: float = 1e-5,
) -> tuple[float, KernelHyperparams]:
    """Gradient ascent with an Armijo line search from one start point.

    f is the LML at start, as ``_safe_lml`` returns it.
    """
    if not np.isfinite(f):
        return f, start
    theta = start.to_vector()
    k = 0
    for _ in range(max_iter):
        hyper = KernelHyperparams.from_vector(theta)
        try:
            g = lml_gradient(data, hyper)
        except NotPositiveDefinite:
            break
        if not np.isfinite(g).all():
            break
        if np.max(np.abs(g)) < grad_tol:
            break
        g_sq = float(g @ g)
        trials = {}

        def passes(j: int) -> bool:
            step = 0.5**j
            cand = np.clip(theta + step * g, -_LOG_CLIP, _LOG_CLIP)
            f_cand = _safe_lml(data, KernelHyperparams.from_vector(cand))
            trials[j] = cand, f_cand
            return f_cand >= f + 1e-4 * step * g_sq

        k = _bracket_step(passes, k)
        if k is None:
            break
        theta, f = trials[k]
    return f, KernelHyperparams.from_vector(theta)


def _random_start(
    rng: np.random.Generator, ranges: np.ndarray, var_y: float
) -> KernelHyperparams:
    log_ls = rng.uniform(np.log(0.1 * ranges), np.log(2.0 * ranges))
    return KernelHyperparams(
        log_lengthscales=log_ls,
        log_signal_variance=math.log(var_y),
        log_noise_variance=math.log(1e-2 * var_y),
    )


def _coordinate_ranges(data: Dataset, bounds_ranges=None) -> np.ndarray:
    if bounds_ranges is not None:
        ranges = np.asarray(bounds_ranges, dtype=float).ravel()
    else:
        ranges = data.X.max(axis=0) - data.X.min(axis=0)
    return np.where(ranges > 0, ranges, 1.0)


def train_hyperparams(
    data: Dataset,
    restarts: int = 3,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
    bounds_ranges=None,
    max_iter: int = 200,
    warm_start: KernelHyperparams | None = None,
) -> KernelHyperparams:
    """Best-of-restarts maximum-likelihood hyperparameters.

    Falls back to the best start point if every ascent stalls.  When
    bounds_ranges is omitted, per-coordinate data ranges seed the
    lengthscale initialization.
    """
    if data.n < 2:
        raise DimensionMismatch("training needs at least two observations")
    if rng is None:
        rng = np.random.default_rng(seed)
    var_y = float(np.var(data.Y))
    var_y = max(var_y, _NOISE_FLOOR)
    ranges = _coordinate_ranges(data, bounds_ranges)

    starts: list[KernelHyperparams] = []
    if warm_start is not None:
        starts.append(warm_start)
    starts.extend(_random_start(rng, ranges, var_y) for _ in range(restarts))

    best_f = -np.inf
    best_hyper = starts[0]
    for start in starts:
        f_start = _safe_lml(data, start)
        if f_start > best_f:
            best_f, best_hyper = f_start, start
        f_end, hyper_end = _ascend(data, start, f_start, max_iter=max_iter)
        if f_end > best_f:
            best_f, best_hyper = f_end, hyper_end

    floor = math.log(max(_NOISE_FLOOR, _NOISE_FLOOR * var_y))
    if best_hyper.log_noise_variance < floor:
        best_hyper = replace(best_hyper, log_noise_variance=floor)
    return best_hyper


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
    k_new = kernel_matrix(data.X[-1:], model.data.X, hyper)[0]
    try:
        factor = chol_append(
            model.factor, k_new, hyper.signal_variance + hyper.noise_variance
        )
    except NotPositiveDefinite:
        return gp_fit(data, hyper)
    mean_shift = float(np.mean(data.Y))
    alpha = solve_chol(factor, data.Y - mean_shift)
    return GpModel(data=data, hyper=hyper, factor=factor, alpha=alpha, mean_shift=mean_shift)
