"""Moment and distribution estimation from paired channel samples.

Covers the two estimation rounds of the key-generation protocol: moment
estimates with Gaussian-approximation confidence intervals, residual
extraction, empirical CDFs, the Kolmogorov distribution and its quantile,
the listener's estimated law (a Gaussian mixture on the residuals, whose
kernel has zero width unless smoothing applies), the composed estimation
error bound used to pad the security exponent, and the sign-bit marginal
that both the decoder prior and the code-rate ceiling read off the
residual CDF.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import ndtr, ndtri

from .gaussmodel import listener_geometry

__all__ = [
    "EstimateBundle",
    "EmpiricalCdf",
    "GaussianMixture",
    "estimate_moments",
    "residuals",
    "kolmogorov_cdf",
    "kolmogorov_quantile",
    "two_sided_z",
    "estimate_eve_cdf",
    "ks_distance",
    "ks_error_bound",
    "gaussian_sup_distance",
    "NORMAL_NODES",
    "NORMAL_WEIGHTS",
    "bit_zero_probabilities",
]

# Gaussian-approximation intervals are documented as trustworthy from this
# sample count upward; below it we warn but still compute.
MIN_RECOMMENDED_SAMPLES = 10_000

# 96-node Gauss-Hermite rule for expectations over a standard normal
NORMAL_NODES, NORMAL_WEIGHTS = np.polynomial.hermite.hermgauss(96)
NORMAL_NODES = NORMAL_NODES * math.sqrt(2.0)
NORMAL_WEIGHTS = NORMAL_WEIGHTS / math.sqrt(math.pi)
NORMAL_NODES.flags.writeable = NORMAL_WEIGHTS.flags.writeable = False  # shared, never copied


@dataclass(frozen=True)
class EmpiricalCdf:
    """Right-continuous step CDF of a sorted sample.

    The points are converted once, at construction, to a read-only float64
    array (`_sorted`) that every evaluation searches.
    """

    points: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.points) == 0:
            raise ValueError("empirical CDF needs at least one point")
        arr = np.array(self.points, dtype=np.float64)
        if np.any(np.diff(arr) < 0):
            raise ValueError("points must be sorted ascending")
        arr.flags.writeable = False
        object.__setattr__(self, "_sorted", arr)

    def __call__(self, x):
        return np.searchsorted(self._sorted, x, side="right") / self._sorted.size

    def eval_left(self, x):
        """Left limit F(x-0); differs from F(x) exactly at jump points."""
        return np.searchsorted(self._sorted, x, side="left") / self._sorted.size


@dataclass(frozen=True)
class EstimateBundle:
    """Estimates from one or two estimation rounds.

    The residual list is empty until the second round has been folded in.
    epsilon is the per-interval confidence parameter: each reported interval
    misses with probability about epsilon.
    """

    e_hat: float  # mean of Bob's observation
    v_hat: float  # unbiased variance of Bob's observation
    c_hat: float  # covariance estimate between symbol and observation
    v_ab_hat: float  # second moment of the centered sample products
    w_hat: float  # unbiased variance of squared deviations
    l: int
    epsilon: float
    residuals: tuple[float, ...] = field(default=(), repr=False)

    @property
    def complete(self) -> bool:
        return len(self.residuals) > 0

    def underline_c(self) -> float:
        """Covariance magnitude |c_hat| shrunk by its confidence radius (conservative).

        Only |c_hat| carries the correlation: a negative gain flips Bob's
        bits against Alice's symbol, which reconciliation absorbs through
        the sign of c_hat. Negative when |c_hat| is inside the radius.
        """
        return abs(self.c_hat) - math.sqrt(self.v_ab_hat) * two_sided_z(self.epsilon) / math.sqrt(self.l)

    def confidence_intervals(self) -> dict[str, tuple[float, float]]:
        z = two_sided_z(self.epsilon)
        rl = math.sqrt(self.l)
        out = {}
        for name, center, var_est in (
            ("mean", self.e_hat, self.v_hat),
            ("variance", self.v_hat, self.w_hat),
            ("covariance", self.c_hat, self.v_ab_hat),
        ):
            half = math.sqrt(var_est) * z / rl
            out[name] = (center - half, center + half)
        return out


@dataclass(frozen=True)
class GaussianMixture:
    """Equal-weight Gaussian kernels of common stdev on the given points.

    A zero stdev is a point mass at each point: the raw empirical law.
    """

    points: tuple[float, ...]
    stdev: float

    def __post_init__(self) -> None:
        if len(self.points) == 0:
            raise ValueError("need at least one point")
        if not (self.stdev >= 0):
            raise ValueError("stdev must be nonnegative")


def _sample_pairs(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("samples must be an (l, 2) array of (a, b) pairs")
    if not np.isfinite(arr).all():
        raise ValueError("samples must be finite")
    return arr


def estimate_moments(samples, epsilon: float) -> EstimateBundle:
    """First estimation round: moments of (symbol, observation) pairs.

    The product-moment estimate deliberately keeps the mean square rather
    than the centered variance: its expectation then matches the closed
    form used by the reference numbers for Gaussian channels.
    """
    arr = _sample_pairs(samples)
    l = arr.shape[0]
    if l < 2:
        raise ValueError("need at least 2 samples")
    if not (0 < epsilon < 0.5):
        raise ValueError("epsilon must lie in (0, 1/2)")
    if l < MIN_RECOMMENDED_SAMPLES:
        warnings.warn(
            f"Gaussian-approximation intervals assume l >= {MIN_RECOMMENDED_SAMPLES}; got {l}",
            stacklevel=2,
        )
    a = arr[:, 0]
    b = arr[:, 1]
    e_hat = float(b.mean())
    dev = b - e_hat
    v_hat = float(np.sum(dev * dev) / (l - 1))
    c_hat = float(np.mean(a * dev))
    prod = (a - a.mean()) * dev
    v_ab_hat = float(np.sum(prod * prod) / (l - 1))
    sq = dev * dev
    w_hat = float(np.sum((sq - sq.mean()) ** 2) / (l - 1))
    return EstimateBundle(
        e_hat=e_hat, v_hat=v_hat, c_hat=c_hat, v_ab_hat=v_ab_hat,
        w_hat=w_hat, l=l, epsilon=epsilon,
    )


def residuals(samples2, bundle: EstimateBundle) -> EstimateBundle:
    """Second estimation round: fold residuals into the bundle, sorted."""
    arr = np.asarray(samples2, dtype=float)
    if arr.size == 0:
        raise ValueError("second estimation round is empty")
    arr = _sample_pairs(arr)
    res = arr[:, 1] - bundle.c_hat * arr[:, 0] - bundle.e_hat
    res = np.sort(res)
    return replace(bundle, residuals=tuple(res.tolist()))


def kolmogorov_cdf(x: float) -> float:
    """CDF of the scaled sup-distance statistic's limit distribution.

    Alternating exponential series for large arguments, theta-function form
    for small ones; both truncated when terms drop below 1e-12.
    """
    if not (x > 0):
        raise ValueError("x must be positive")
    if x >= 0.75:
        total = 0.0
        for k in range(1, 200):
            term = math.exp(-2.0 * k * k * x * x)
            total += -term if k % 2 == 0 else term
            if term < 1e-12:
                break
        return 1.0 - 2.0 * total
    total = 0.0
    for k in range(1, 200):
        term = math.exp(-((2 * k - 1) ** 2) * math.pi**2 / (8.0 * x * x))
        total += term
        if term < 1e-12:
            break
    return math.sqrt(2.0 * math.pi) / x * total


def kolmogorov_quantile(p: float) -> float:
    """Inverse of kolmogorov_cdf by monotone bisection to 1e-9."""
    if not (0 < p < 1):
        raise ValueError("p must lie in (0, 1)")
    lo, hi = 1e-6, 10.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if kolmogorov_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def two_sided_z(epsilon: float) -> float:
    """Interval multiplier covering all but total tail mass epsilon.

    This is the convention behind the reference confidence numbers: an
    interval [x +- sigma * z] that misses with probability epsilon splits
    the mass over both tails.
    """
    if not (0 < epsilon < 1):
        raise ValueError("epsilon must lie in (0, 1)")
    return float(ndtri(1.0 - epsilon / 2.0))


def estimate_eve_cdf(bundle: EstimateBundle, params) -> GaussianMixture:
    """Eve's conditioning law: the residual sample, smoothed or not.

    When the covariance signal projected onto Eve's side strictly exceeds
    Bob's detector variance, the residuals are smoothed by a Gaussian
    kernel of the excess stdev. At or below that threshold the kernel has
    zero width: the raw residual law, used together with the stronger
    reduction of Eve's knowledge.
    """
    if not bundle.complete:
        raise ValueError("bundle has no residuals; run the second estimation round")
    excess, _ = listener_geometry(params, bundle.c_hat**2)
    return GaussianMixture(bundle.residuals, math.sqrt(excess) if excess > 0 else 0.0)


def ks_distance(cdf, ecdf: EmpiricalCdf) -> float:
    """Sup distance between an evaluable CDF and a step CDF.

    The sup is attained at a jump of the step CDF: compare values there and
    left limits there, each side against its own limit. Exact whenever cdf
    is continuous or jumps only where ecdf does.
    """
    pts = ecdf._sorted
    l = pts.size
    hi = np.searchsorted(pts, pts, side="right") / l
    lo = np.searchsorted(pts, pts, side="left") / l
    f = np.asarray(cdf(pts), dtype=float)
    if hasattr(cdf, "eval_left"):
        f_left = np.asarray(cdf.eval_left(pts), dtype=float)
    else:
        f_left = f
    gaps = np.concatenate([np.abs(f - hi), np.abs(f_left - lo)])
    return float(gaps.max())


def ks_error_bound(bundle: EstimateBundle) -> float:
    """Composed bound on the CDF estimation error, confidence about 1-2eps
    at the bundle's epsilon.

    First term: confidence radius of the covariance estimate propagated
    through the steepest slope of a Gaussian CDF. Second term: sup-distance
    quantile of the residual empirical CDF over its sample count, which is
    the moment count l for a bundle without residuals (a bundle of
    closed-form expectations). Accuracy is documented for sample counts of
    10^4 and above.
    """
    if bundle.c_hat == 0:
        raise ValueError("no correlation signal: covariance estimate is zero")
    l_res = len(bundle.residuals) if bundle.complete else bundle.l
    first = (
        math.sqrt(bundle.v_ab_hat)
        * two_sided_z(bundle.epsilon)
        / (math.sqrt(2.0 * math.pi * math.e) * abs(bundle.c_hat) * math.sqrt(bundle.l))
    )
    second = kolmogorov_quantile(1.0 - bundle.epsilon) / math.sqrt(l_res)
    return first + second


def bit_zero_probabilities(c_hat: float, residual_cdf) -> tuple[np.ndarray, float]:
    """Pr[Bob's bit is 0 | Alice's symbol] at NORMAL_NODES, and its mean.

    Bob's bit is 0 iff his observation is at least its estimated mean,
    that is iff the residual is at least -c_hat * a. The probability is
    therefore 1 - F(-c_hat * a - 0), with the left limit at an atom of F.
    """
    p_zero = 1.0 - np.asarray(residual_cdf.eval_left(-c_hat * NORMAL_NODES), dtype=float)
    return p_zero, float(np.dot(NORMAL_WEIGHTS, p_zero))


def gaussian_sup_distance(a: float) -> float:
    """sup over x of |Phi(x) - Phi(x/a)| in closed form.

    The two densities cross where the quadratic exponents balance; the sup
    is the normal mass between the crossing point and its scaled copy. Near
    a = 1 the closed form cancels catastrophically, so the first-order
    limit takes over.
    """
    if a <= 0:
        raise ValueError("scale must be positive")
    if abs(a - 1.0) < 1e-7:
        return abs(a - 1.0) / math.sqrt(2.0 * math.pi * math.e)
    u = math.sqrt(-2.0 * math.log(a) / (1.0 - a * a))
    return float(abs(ndtr(u) - ndtr(a * u)))
