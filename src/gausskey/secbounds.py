"""Finite-block security bounds for sign-bit key distillation.

Everything here reduces to two integral functionals of a distribution P and
a conditional variance v: the entropy of the sign bit of a Gaussian centered
at a P-distributed point, and its Gallager-type exponent function. On top of
those sit the padded (estimation-aware) exponent, the convex exponent
minimizations giving leaked-information bounds, the sacrifice-length solver,
and the closed-form key-rate curve for the symmetric reference geometry.

All bounds are handled as log2 quantities throughout; nothing exponentiates
n-scaled exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, xlogy

from .estimation import (
    NORMAL_NODES,
    NORMAL_WEIGHTS,
    EmpiricalCdf,
    EstimateBundle,
    GaussianMixture,
    bit_zero_probabilities,
    ks_error_bound,
)
from .gaussmodel import listener_geometry

__all__ = [
    "AnalyticGaussian",
    "SecurityCertificate",
    "VARIATIONAL_DISTANCE",
    "MODIFIED_MUTUAL_INFO",
    "sign_entropy",
    "sign_exponent",
    "build_certified_exponent",
    "reference_exponent_evaluator",
    "minimize_convex",
    "minimize_exponent",
    "sacrifice_length",
    "key_rate_symmetric",
    "mutual_info_ab",
]

VARIATIONAL_DISTANCE = "variational-distance"
MODIFIED_MUTUAL_INFO = "modified-mutual-info"

_BLOCK = 1 << 16  # grid build block: 2^16 quadrature points, 512 KiB of float64

# An exponent whose law has more than _GRID quadrature points evaluates on
# the _GRID + 1 edges below, in u = min(p, 1 - p). They are uniform in
# sqrt(2u), so dense near u = 0, where the exponent's integrand bends most.
# Each is exactly j^2 / 2^29, which the grid build's integer bins rely on.
_GRID = 1 << 14
_EDGES = 0.5 * (np.arange(_GRID + 1) / _GRID) ** 2
_EDGES.flags.writeable = False  # every gridded evaluator shares it as its _p

# A smoothed mixture's kernel integrates on the nodes of the 96-node normal
# rule whose weight is at least 2^-64/96: the 58 central ones. The 38 dropped
# weights sum to _KERNEL_TAIL, about 2.2e-22 (at most 2^-64). Every integrand
# taken against a law here (an l_q norm of (p, 1-p), a binary entropy) lies
# in [0, 1], so the kept-node sum plus _KERNEL_TAIL bounds the 96-node sum
# from above. The exponent's base is at least 1/2, where 2^-64 is 2^-11 of
# one ulp.
_KERNEL_KEPT = NORMAL_WEIGHTS >= 2.0**-64 / NORMAL_WEIGHTS.size
_KERNEL_NODES = NORMAL_NODES[_KERNEL_KEPT]
_KERNEL_WEIGHTS = NORMAL_WEIGHTS[_KERNEL_KEPT]
_KERNEL_TAIL = float(NORMAL_WEIGHTS[~_KERNEL_KEPT].sum())


@dataclass(frozen=True)
class AnalyticGaussian:
    variance: float

    def __post_init__(self) -> None:
        if not (self.variance > 0):
            raise ValueError("variance must be positive")


@dataclass(frozen=True)
class SecurityCertificate:
    criterion: str
    s_star: float
    log2_bound: float
    n: int
    m1: int
    padding: float = 0.0  # estimation-error term added inside the exponent
    shrunk_param: float = float("nan")  # conservative variance or covariance used
    confidence: float | None = None


def _kernel(stdev: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Node offsets and weights of a mixture's kernel at stdev, and the
    weight they drop: the kept nodes and _KERNEL_TAIL, or, at stdev 0, one
    node of weight 1 (a point mass)."""
    if stdev > 0:
        return stdev * _KERNEL_NODES, _KERNEL_WEIGHTS, _KERNEL_TAIL
    return np.zeros(1), np.ones(1), 0.0


def _size_and_tail(dist) -> tuple[int, float]:
    """The number of quadrature points _law_blocks gives dist, and the
    weight they drop."""
    if isinstance(dist, AnalyticGaussian):
        return NORMAL_NODES.size, 0.0
    offsets, _, tail = _kernel(dist.stdev)
    return len(dist.points) * offsets.size, tail


def _law_blocks(dist):
    """dist's quadrature points and weights, in consecutive slices of
    _BLOCK points; the whole law is never built.

    The analytic law is one block, the 96 scaled normal nodes. A mixture's
    point i is row i // k, node i % k of pts[:, None] + the kernel's k node
    offsets, so a slice is the rows it touches, raveled and trimmed; its
    weights are one tile of the node weights, sliced at the slice's first
    node.
    """
    if isinstance(dist, AnalyticGaussian):
        yield NORMAL_NODES * math.sqrt(dist.variance), NORMAL_WEIGHTS
        return
    pts = np.asarray(dist.points, dtype=float)
    offsets, weights, _ = _kernel(dist.stdev)
    k = offsets.size
    # rows enough for a block that starts k - 1 nodes into its first row
    ws = np.tile(weights / pts.size, min(pts.size, _BLOCK // k + 2))
    size = pts.size * k
    for start in range(0, size, _BLOCK):
        count = min(_BLOCK, size - start)
        row, off = divmod(start, k)
        rows = pts[row:-(-(start + count) // k), None]
        yield (rows + offsets).ravel()[off:off + count], ws[off:off + count]


def _edge_bins(y: np.ndarray) -> np.ndarray:
    """The bin j of each y = u * 2^29 in [0, 2^28]: j^2 <= y < (j+1)^2, and
    the last bin holds its upper edge, u = 1/2.

    A correctly rounded sqrt never lands below floor(sqrt(y)), an integer
    and so representable, and at most one above it: one ulp below k^2 it can
    round up to k. The one downward step is therefore the only fix, and a
    step up (u > e_(j+1)) can never fire.
    """
    j = np.sqrt(y).astype(np.int32)
    np.minimum(j, _GRID - 1, out=j)
    j -= j * j > y
    return j


def _edge_weights(dist, v: float) -> np.ndarray:
    """Weights on _EDGES whose mean of any convex function of u bounds the
    mean of it over dist's quadrature points from above.

    Each point's u = min(p, 1 - p) lies in a bin [e_j, e_(j+1)]; its weight
    goes lambda to e_j and 1 - lambda to e_(j+1), lambda = (e_(j+1) - u) /
    (e_(j+1) - e_j), so the edges keep its mean u and sit on the chord above
    it (the Edmundson-Madansky bound). e_j is exactly j^2 / 2^29, so on the
    exact scale y = u * 2^29 the bin is integer arithmetic and lambda =
    ((j+1)^2 - y) / (2j + 1) has the same bits as on the u scale. The law
    streams in blocks of _BLOCK points, and each edge's sum adds them in
    the law's order.
    """
    edge_ws = np.zeros(_GRID + 1)
    scale = math.sqrt(v)
    for xs, ws in _law_blocks(dist):
        y = np.abs(xs)
        y /= -scale  # the bits of -|x| / scale
        ndtr(y, out=y)
        y *= 2.0**29
        j = _edge_bins(y)
        jf = j.astype(float)  # (j+1)^2 and 2j + 1 are exact in float64
        w_lo = np.square(jf + 1.0)
        w_lo -= y
        w_lo /= 2.0 * jf + 1.0
        w_lo *= ws
        edge_ws[:-1] += np.bincount(j, w_lo, _GRID)
        np.subtract(ws, w_lo, out=w_lo)
        edge_ws[1:] += np.bincount(j, w_lo, _GRID)
    return edge_ws


def _binary_entropy(p: np.ndarray) -> np.ndarray:
    return -(xlogy(p, p) + xlogy(1.0 - p, 1.0 - p)) / math.log(2.0)


def sign_entropy(dist, v: float) -> float:
    """Entropy (bits) of the sign of a N(x, v) draw with x distributed as dist.

    A mixture's dropped kernel weight counts at the entropy's maximum, 1.
    """
    if not (v > 0):
        raise ValueError("conditional variance must be positive")
    total = 0.0
    for xs, ws in _law_blocks(dist):
        p = ndtr(xs / math.sqrt(v))
        total += float(np.einsum("i,i->", ws, _binary_entropy(p)))
    return total + _size_and_tail(dist)[1]


def sign_exponent(dist, v: float, t: float) -> float:
    """Exponent functional of the sign channel; nonpositive, zero at t = 0."""
    if not (0.0 <= t < 1.0):
        raise ValueError("t must lie in [0, 1)")
    return ExponentWithPadding(dist, v, 0.0).raw(t)


class ExponentWithPadding:
    """Padded exponent evaluator with its t-independent work precomputed.

    The exponent at t is log2 of the weighted mean of the l_q norm of
    (p, 1-p), q = 1/(1-t), in the stable form hi * (1 + r^q)^(1/q) with
    hi = max(p, 1-p) and r = min/max <= 1. Neither hi nor log r depends on
    t, so both are stored once. log r is -inf where min = 0, which makes
    r^q = exp(q log r) exactly 0 there: the q -> inf limit, and no special
    case. The final weighted sum is an einsum, not a BLAS dot, so its bits
    do not depend on the BLAS thread count. A mixture's dropped kernel
    weight is added to the mean at the norm's maximum, 1. Calls are
    memoized by t.

    A law of at most _GRID quadrature points is evaluated exactly. A larger
    one (a smoothed mixture) is moved once onto the _GRID + 1 edges, with
    the chord weights of _edge_weights: the norm is convex in
    u = min(p, 1-p), so the edge mean bounds the exact one from above at
    every t, and each call costs O(_GRID) whatever the law's size. The edge
    weights are rounded sums of the N points' split weights: they may lose
    up to N * 2^-53 of mass, the first-order bound on recursive summation
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., sec.
    4.2). Every integrand is at most 1, so that allowance joins the tail.
    """

    def __init__(self, dist, v: float, padding: float):
        if not (v > 0):
            raise ValueError("conditional variance must be positive")
        if padding < 0:
            raise ValueError("padding must be nonnegative")
        size, tail = _size_and_tail(dist)
        if size > _GRID:
            p, ws = _EDGES, _edge_weights(dist, v)
            tail += size * 2.0**-53
        else:
            (xs, ws), = _law_blocks(dist)  # at most _GRID < _BLOCK points
            p = ndtr(xs / math.sqrt(v))
        self._p = p
        self._ws = ws
        self._tail = tail
        self._hi = np.maximum(p, 1.0 - p)
        log_ratio = np.minimum(p, 1.0 - p)
        log_ratio /= self._hi
        with np.errstate(divide="ignore"):
            np.log(log_ratio, out=log_ratio)
        self._log_ratio = log_ratio
        self.v = float(v)
        self.padding = float(padding)
        self._cache: dict[float, float] = {}

    def _mean_norm(self, t: float) -> float:
        """Weighted mean of the l_q norm of (p, 1-p) at q = 1/(1-t)."""
        q = 1.0 / (1.0 - t)
        with np.errstate(under="ignore"):
            vals = np.exp(np.log1p(np.exp(self._log_ratio * q)) / q) * self._hi
        return float(np.einsum("i,i->", self._ws, vals)) + self._tail

    def raw(self, t: float) -> float:
        """Exponent without the padding term."""
        if t == 0.0:
            return 0.0
        return math.log2(self._mean_norm(t))

    def __call__(self, t: float) -> float:
        if not (0.0 <= t < 1.0):
            raise ValueError("t must lie in [0, 1)")
        got = self._cache.get(t)
        if got is not None:
            return got
        if t == 0.0:
            val = 0.0
        else:
            base = self._mean_norm(t)
            val = math.log2(base + 2.0 * (1.0 - 2.0**-t) * self.padding)
        self._cache[t] = val
        return val


def _padded_exponent(bundle: EstimateBundle, law, smoothed: bool, params) -> ExponentWithPadding:
    """Padded exponent of Eve's law, conservative against estimation error.

    The covariance magnitude is shrunk by its confidence radius before it
    enters the conditional variance (smaller variance never understates the
    exponent), and the CDF estimation error bound is added inside the
    exponential; both at the bundle's epsilon. A smoothed law conditions on
    Eve's condensed view.
    """
    uc = bundle.underline_c()
    if uc <= 0:
        raise ValueError("insufficient correlation for certification")
    pad = ks_error_bound(bundle)
    v = listener_geometry(params, uc * uc)[1] if smoothed else uc * uc
    return ExponentWithPadding(law, v, pad)


def build_certified_exponent(
    bundle: EstimateBundle, eve: GaussianMixture, params
) -> ExponentWithPadding:
    """Padded exponent of Eve's estimated law eve (estimate_eve_cdf) from
    live estimates, at the bundle's epsilon."""
    if not bundle.complete:
        raise ValueError("bundle has no residuals")
    return _padded_exponent(bundle, eve, eve.stdev > 0, params)


def reference_exponent_evaluator(
    params, injected_variance: float, l: int, epsilon: float
) -> ExponentWithPadding:
    """The certified build on the closed-form expectations of its estimates.

    Reproduces the reference bound curves without simulation. The bundle
    holds no residual sample, so the CDF error term counts l; the residual
    law is its Gaussian limit, widened by the smoothing variance when there
    is one. Only the gain's magnitude is certified, so either sign works.
    """
    c = params.bob_gain
    v_b = c * c + injected_variance + params.bob_noise**2
    expected = EstimateBundle(
        e_hat=params.bob_offset, v_hat=v_b, c_hat=c, v_ab_hat=2.0 * c * c + v_b,
        w_hat=2.0 * v_b * v_b, l=l, epsilon=epsilon,
    )
    excess, _ = listener_geometry(params, c * c)
    law = AnalyticGaussian(injected_variance + params.bob_noise**2 + max(excess, 0.0))
    return _padded_exponent(expected, law, excess > 0, params)


def _brent_bounded(f, lo: float, hi: float, xatol: float) -> tuple[float, float]:
    """Bounded Brent minimization: golden section plus parabolic steps.

    The fminbound algorithm (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 5). Every evaluation lies strictly inside
    (lo, hi); returns the best point seen and its value.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    x = w = v = a + golden * (b - a)  # best, second best, previous w
    fx = fw = fv = f(x)
    d = e = 0.0  # last step and the step before it
    while True:
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(x) + xatol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            return x, fx
        use_golden = True
        if abs(e) > tol1:  # try a parabola through x, w, v
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                use_golden = False
                d = p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = tol1 if xm >= x else -tol1
        if use_golden:
            e = (a - x) if x >= xm else (b - x)
            d = golden * e
        u = x + math.copysign(max(abs(d), tol1), d or 1.0)  # step at least tol1
        fu = f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def minimize_convex(f, lo: float, hi: float) -> tuple[float, float]:
    """Scalar convex minimization on [lo, hi] by bounded Brent to 1e-6.

    Brent evaluates only the open interval, so both endpoints are compared
    explicitly: the distance minimum sits at t = 0 whenever the sacrifice is
    too small. A non-finite value raises, since NaN comparisons would
    silently steer the search.
    """
    if not (hi > lo):
        raise ValueError("empty interval")

    def checked(t: float) -> float:
        val = f(t)
        if not math.isfinite(val):
            raise ValueError("non-finite objective value")
        return val

    inner = _brent_bounded(checked, lo, hi, 1e-6)
    return min(inner, (lo, checked(lo)), (hi, checked(hi)), key=lambda p: p[1])


def minimize_exponent(phi_fn, n: int, m1: int, criterion: str) -> SecurityCertificate:
    """Minimize the leaked-information exponent over its order parameter.

    variational-distance: min over [0, 1/2] of t(n - m1) + n phi(t), bound
    log2(3) plus the minimum. modified-mutual-info: the same affine family
    minus log2(s), searched over (0, 1) clipped away from the endpoints
    where 1/s blows up. Both go through minimize_convex, which raises on a
    non-finite phi. Any t gives a valid bound, so the search's accuracy
    moves only tightness. The certificate's padding, shrunk parameter and
    confidence keep their defaults; protocol.certify sets them.
    """
    if not (0 <= m1 <= n):
        raise ValueError("need 0 <= m1 <= n")
    if criterion == VARIATIONAL_DISTANCE:
        obj = lambda t: t * (n - m1) + n * phi_fn(t)
        s_star, val = minimize_convex(obj, 0.0, 0.5)
        bound = math.log2(3.0) + val
    elif criterion == MODIFIED_MUTUAL_INFO:
        obj = lambda s: s * (n - m1) + n * phi_fn(s) - math.log2(s)
        s_star, bound = minimize_convex(obj, 1e-4, 1.0 - 1e-4)
    else:
        raise ValueError(f"unknown criterion: {criterion!r}")
    return SecurityCertificate(criterion=criterion, s_star=s_star, log2_bound=bound, n=n, m1=m1)


def _bound_at(phi_fn, n: int, m1: int) -> float:
    return minimize_exponent(phi_fn, n, m1, VARIATIONAL_DISTANCE).log2_bound


def sacrifice_length(phi: ExponentWithPadding, n: int, target_log2: float) -> int:
    """Minimal sacrifice count whose distance bound meets the target.

    bound(m1) <= T holds iff t (n - m1) + n phi(t) <= T - log2 3 for some t,
    so the minimal m1 is ceil(n - max_t (T - log2 3 - n phi(t)) / t), one
    quasiconcave maximization. A bounded Brent search over t in [1e-9, 1/2]
    to 1e-6 in t seeds m1 from it. A two-point guard then checks
    bound(m1) <= T < bound(m1 - 1) on the full minimization of phi (the same
    Brent search, through minimize_exponent) and steps m1 by one while
    either check fails, so m1 does not depend on the seed's accuracy. The
    guard's bound(m1) is the distance certificate at m1, so the memoized phi
    serves that certificate without new evaluations.
    """
    target_prime = target_log2 - math.log2(3.0)
    _, neg_margin = _brent_bounded(
        lambda t: (n * phi(t) - target_prime) / t, 1e-9, 0.5, 1e-6
    )
    m1 = max(0, min(n, math.ceil(n + neg_margin)))
    while True:
        if _bound_at(phi, n, m1) > target_log2:
            m1 += 1
            if m1 > n:
                raise ValueError("target unachievable even when sacrificing every bit")
        elif m1 > 0 and _bound_at(phi, n, m1 - 1) <= target_log2:
            m1 -= 1
        else:
            return m1


def key_rate_symmetric(x: float) -> tuple[float, float, float]:
    """Key rate at the symmetric reference geometry.

    x is the injected-to-detector variance ratio. Bob's gain is sqrt(2)
    detector units and Eve matches it; both mutual informations then close
    over a single standard Gaussian integral each.
    """
    if x < 0:
        raise ValueError("variance ratio must be nonnegative")
    std = AnalyticGaussian(1.0)
    mi_ab = 1.0 - sign_entropy(std, (1.0 + x) / 2.0)
    mi_eb = 1.0 - sign_entropy(std, 5.0 / (4.0 + 3.0 * x))
    return mi_ab - mi_eb, mi_ab, mi_eb


def mutual_info_ab(bundle: EstimateBundle, residual_cdf: EmpiricalCdf) -> float:
    """Capacity of the sign-bit channel from Bob back to Alice's symbol.

    Computed directly from the estimated residual CDF: condition on the
    symbol, read off the sign-flip probability, and integrate the binary
    entropies against the standard Gaussian symbol distribution. Used as
    the ceiling for the error-correcting code rate.
    """
    if bundle.c_hat == 0:
        raise ValueError("no correlation signal: covariance estimate is zero")
    if bundle.v_hat <= bundle.c_hat**2:
        raise ValueError("degenerate estimates: observed variance within explained part")
    p_zero, marginal = bit_zero_probabilities(bundle.c_hat, residual_cdf)
    cond = float(np.dot(NORMAL_WEIGHTS, _binary_entropy(p_zero)))
    info = float(_binary_entropy(np.array(marginal))) - cond
    return min(1.0, max(0.0, info))
