import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import norm

import gausskey
from gausskey.estimation import (
    NORMAL_NODES,
    NORMAL_WEIGHTS,
    EmpiricalCdf,
    EstimateBundle,
    GaussianMixture,
    estimate_eve_cdf,
    kolmogorov_quantile,
    ks_error_bound,
    two_sided_z,
)
from gausskey.gaussmodel import ChannelParams
from gausskey.secbounds import (
    _BLOCK,
    _EDGES,
    _GRID,
    _KERNEL_KEPT,
    _KERNEL_NODES,
    _KERNEL_TAIL,
    _KERNEL_WEIGHTS,
    MODIFIED_MUTUAL_INFO,
    VARIATIONAL_DISTANCE,
    AnalyticGaussian,
    ExponentWithPadding,
    _binary_entropy,
    _brent_bounded,
    _edge_bins,
    _law_blocks,
    build_certified_exponent,
    key_rate_symmetric,
    minimize_convex,
    minimize_exponent,
    mutual_info_ab,
    reference_exponent_evaluator,
    sacrifice_length,
    sign_entropy,
    sign_exponent,
)

EPS = 5e-5


def reference_bundle(residual_points, l=500_000):
    return EstimateBundle(
        e_hat=0.0, v_hat=3.2, c_hat=math.sqrt(2.0), v_ab_hat=7.2,
        w_hat=20.0, l=l, epsilon=EPS, residuals=tuple(residual_points),
    )


def _whole_law(law):
    # reference quadrature of a mixture, built whole: each point's kernel
    # nodes in turn and equal weights per point, plus the dropped weight; a
    # zero-width kernel is the point itself
    pts = np.asarray(law.points, dtype=float)
    if law.stdev == 0:
        return pts, np.full(pts.size, 1.0 / pts.size), 0.0
    xs = (pts[:, None] + law.stdev * _KERNEL_NODES[None, :]).ravel()
    return xs, np.tile(_KERNEL_WEIGHTS / pts.size, pts.size), _KERNEL_TAIL


# ------------------------------------------------------- entropy functional

def test_sign_entropy_symmetric_point_is_one_bit():
    # a location at the origin makes the sign a fair coin whatever the noise
    for v in (0.1, 1.0, 25.0):
        assert sign_entropy(GaussianMixture((0.0,), 0.0), v) == pytest.approx(1.0)


def test_sign_entropy_far_location_is_deterministic():
    assert sign_entropy(GaussianMixture((40.0,), 0.0), 1.0) < 1e-12


def test_sign_entropy_gaussian_matches_direct_quadrature():
    w, v = 1.3, 0.7

    def integrand(x):
        p = norm.cdf(x / math.sqrt(v))
        if p <= 0.0 or p >= 1.0:
            return 0.0
        h = -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))
        return norm.pdf(x, scale=math.sqrt(w)) * h

    want, err = quad(integrand, -np.inf, np.inf, epsabs=1e-12)
    got = sign_entropy(AnalyticGaussian(w), v)
    assert got == pytest.approx(want, abs=max(1e-10, 10 * err))


def test_sign_entropy_increases_with_noise():
    d = AnalyticGaussian(1.0)
    vals = [sign_entropy(d, v) for v in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert vals == sorted(vals)
    assert vals[-1] < 1.0


def test_mixture_probe_averages_components():
    # equal-weight mixture entropy is the mean over shifted Gaussian kernels;
    # a shift is not a variance change, so compare per-point integrals
    mix = GaussianMixture(points=(-1.0, 2.0), stdev=0.5)

    def one(mu):
        def integrand(x):
            p = norm.cdf(x / 1.0)
            if p <= 0.0 or p >= 1.0:
                return 0.0
            h = -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))
            return norm.pdf(x, loc=mu, scale=0.5) * h
        val, _ = quad(integrand, mu - 8, mu + 8, epsabs=1e-12)
        return val

    want = 0.5 * (one(-1.0) + one(2.0))
    assert sign_entropy(mix, 1.0) == pytest.approx(want, abs=1e-9)


def test_distribution_validation():
    with pytest.raises(ValueError):
        AnalyticGaussian(0.0)
    with pytest.raises(ValueError):
        GaussianMixture((), 0.0)
    assert GaussianMixture(points=(1.0,), stdev=0.0).stdev == 0.0  # point masses
    for stdev in (-0.5, -1e-300, math.nan):
        with pytest.raises(ValueError):
            GaussianMixture(points=(1.0,), stdev=stdev)
    with pytest.raises(ValueError):
        sign_entropy(GaussianMixture((1.0,), 0.0), 0.0)


# ------------------------------------------------------ exponent functional

def test_sign_exponent_zero_at_origin_and_negative_inside():
    for dist in (AnalyticGaussian(1.0), GaussianMixture((0.3, -1.2), 0.0),
                 GaussianMixture((0.0, 1.0), 0.4)):
        assert sign_exponent(dist, 1.5, 0.0) == 0.0
        for t in (0.1, 0.3, 0.49):
            assert sign_exponent(dist, 1.5, t) < 0.0


def test_sign_exponent_domain():
    d = AnalyticGaussian(1.0)
    with pytest.raises(ValueError):
        sign_exponent(d, 1.0, 1.0)
    with pytest.raises(ValueError):
        sign_exponent(d, 1.0, -0.05)
    with pytest.raises(ValueError):
        sign_exponent(d, 0.0, 0.2)


def test_sign_exponent_convex_in_order_parameter():
    d = AnalyticGaussian(1.2)
    ts = np.linspace(0.0, 0.8, 41)
    vals = np.array([sign_exponent(d, 5.0 / 3.0, t) for t in ts])
    second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
    assert (second >= -1e-10).all()


def test_sign_exponent_slope_at_zero_is_minus_entropy():
    # second-order one-sided difference; phi(0) = 0 exactly
    for w, v in ((1.0, 1.0), (1.2, 5.0 / 3.0), (0.5, 3.0)):
        d = AnalyticGaussian(w)
        h = 1e-5
        slope = (4 * sign_exponent(d, v, h) - sign_exponent(d, v, 2 * h)) / (2 * h)
        assert -slope == pytest.approx(sign_entropy(d, v), abs=1e-7)


def test_sign_exponent_bounded_below_by_coin_channel():
    # a fair coin output gives the extreme value -t; nothing is lower
    d = AnalyticGaussian(1.0)
    for t in (0.1, 0.3, 0.49):
        assert sign_exponent(d, 1e6, t) == pytest.approx(-t, abs=1e-3)
        assert sign_exponent(d, 2.0, t) >= -t


def test_sign_exponent_nonincreasing_in_conditional_variance():
    d = AnalyticGaussian(1.0)
    t = 0.3
    vals = [sign_exponent(d, v, t) for v in (0.25, 0.5, 1.0, 2.0, 4.0, 16.0)]
    diffs = np.diff(vals)
    assert (diffs <= 1e-12).all()


def test_two_route_exponent_identity():
    # the integrand is the reverse-channel form of a binary-input Gallager
    # integral; recompute the forward form by adaptive quadrature and check
    # phi(t) + E0(-t) + t = 0 for symmetric input distributions
    def forward_route(w, v, t):
        q = 1.0 / (1.0 - t)
        sv = math.sqrt(v)

        def integrand(x):
            px = norm.pdf(x, scale=math.sqrt(w))
            flip = norm.cdf(x / sv)
            half0 = 0.5 * (2.0 * px * flip) ** q
            half1 = 0.5 * (2.0 * px * (1.0 - flip)) ** q
            return (half0 + half1) ** (1.0 - t)

        val, _ = quad(integrand, -np.inf, np.inf,
                      epsabs=1e-13, epsrel=1e-13, limit=400)
        return -math.log2(val)

    for w, v, t in ((1.0, 1.0, 0.1), (1.2, 5.0 / 3.0, 0.25),
                    (0.5, 2.0, 0.4), (2.0, 0.3, 0.05)):
        phi = sign_exponent(AnalyticGaussian(w), v, t)
        e0 = forward_route(w, v, t)
        assert phi + e0 + t == pytest.approx(0.0, abs=1e-6)


def test_exponent_perturbation_bound():
    # swapping the location distribution moves 2^phi by at most
    # 2 (1 - 2^-t) times the sup distance between the location CDFs
    rng = np.random.default_rng(7)
    for _ in range(100):
        k = int(rng.integers(2, 40))
        base = np.sort(rng.normal(size=k))
        pts_p = tuple(base.tolist())
        pts_q = tuple(np.sort(base + rng.normal(scale=0.3, size=k)).tolist())
        v = float(rng.uniform(0.3, 3.0))
        t = float(rng.uniform(0.02, 0.49))
        grid = np.union1d(pts_p, pts_q)
        gaps = []
        for side in ("right", "left"):
            fp = np.searchsorted(pts_p, grid, side=side) / k
            fq = np.searchsorted(pts_q, grid, side=side) / k
            gaps.append(np.abs(fp - fq).max())
        d = max(gaps)
        lhs = abs(2.0 ** sign_exponent(GaussianMixture(pts_p, 0.0), v, t)
                  - 2.0 ** sign_exponent(GaussianMixture(pts_q, 0.0), v, t))
        assert lhs <= 2.0 * (1.0 - 2.0 ** -t) * d + 1e-12


# ----------------------------------------------------------- padded evaluator

def test_padding_zero_matches_raw():
    ev = ExponentWithPadding(AnalyticGaussian(1.0), 1.5, 0.0)
    for t in (0.0, 0.1, 0.45):
        assert ev(t) == ev.raw(t)
        assert ev(t) == sign_exponent(AnalyticGaussian(1.0), 1.5, t)


def test_padding_lifts_the_exponent():
    ev = ExponentWithPadding(AnalyticGaussian(1.0), 1.5, 0.01)
    assert ev(0.0) == 0.0
    for t in (0.1, 0.3, 0.49):
        assert ev(t) > ev.raw(t)
        # lift is exactly log2(2^raw + 2 (1 - 2^-t) pad)
        want = math.log2(2.0 ** ev.raw(t) + 2.0 * (1.0 - 2.0 ** -t) * 0.01)
        assert ev(t) == pytest.approx(want, rel=1e-12)


def test_padded_evaluator_validation_and_memo():
    with pytest.raises(ValueError):
        ExponentWithPadding(AnalyticGaussian(1.0), -1.0, 0.0)
    with pytest.raises(ValueError):
        ExponentWithPadding(AnalyticGaussian(1.0), 1.0, -1e-9)
    ev = ExponentWithPadding(AnalyticGaussian(1.0), 1.0, 0.0)
    with pytest.raises(ValueError):
        ev(1.0)
    assert ev(0.37) is not None
    assert 0.37 in ev._cache


def _two_pass_lq_mean(p, ws, q):
    # the unblocked formula the evaluator's kernel must reproduce bit for bit
    hi = np.maximum(p, 1.0 - p)
    lo = np.minimum(p, 1.0 - p)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        ratio_q = np.exp(q * np.log(np.where(lo > 0, lo / hi, 1.0)))
    ratio_q = np.where(lo > 0, ratio_q, 0.0)
    vals = hi * np.exp(np.log1p(ratio_q) / q)
    return float(np.einsum("i,i->", ws, vals))


def _kernel_oracle_case(name):
    rng = np.random.default_rng(11)
    stdev = 0.5
    bulk = rng.normal(0.0, 3.0, 2300 - 43)
    # kernels centred far enough out that ndtr returns exactly 0 or 1, a
    # sweep through the range where min(p, 1-p) is subnormal, and a point
    # whose kernel puts one quadrature node exactly on 0 (p = 1/2)
    far = np.array([-90.0, -60.0, 60.0, 90.0])
    tails = np.concatenate([np.linspace(-58.0, -28.0, 19), np.linspace(28.0, 58.0, 18)])
    centre = np.array([-(stdev * NORMAL_NODES[40])])
    pts = np.concatenate([bulk, far, tails, centre, [0.0]])
    return {
        "mixture": (GaussianMixture(points=tuple(pts.tolist()), stdev=stdev), 1.0),
        "points": (GaussianMixture(tuple(pts.tolist()), 0.0), 2.0),
        "analytic": (AnalyticGaussian(1.3), 0.7),
    }[name]


@pytest.mark.parametrize("name", ["mixture", "points", "analytic"])
def test_block_kernel_matches_two_pass_formula_bitwise(name):
    dist, v = _kernel_oracle_case(name)
    pad = 0.003
    ev = ExponentWithPadding(dist, v, pad)
    if name == "mixture":
        # the law's 2300 * 58 points span several build blocks and end in a
        # partial one; they land on the grid's edges
        size = _whole_law(dist)[0].size
        assert size == 2300 * 58
        assert size > 2 * _BLOCK and size % _BLOCK != 0
        assert ev._p is _EDGES
        # the far kernels' nodes have u exactly 0 and the centred node
        # u exactly 1/2: each puts all its weight on one end edge
        assert ev._ws[0] >= 4 * math.fsum(_KERNEL_WEIGHTS) / 2300 * (1.0 - 1e-12)
        assert ev._ws[_GRID] >= NORMAL_WEIGHTS[40] / 2300
        # the grid law's tail adds the summation allowance, 2^-53 per point
        assert ev._tail == _KERNEL_TAIL + size * 2.0**-53
    else:
        assert ev._tail == 0.0
    for t in (1e-9, 0.01, 0.25, 0.5, 0.9, 0.9999):
        base = _two_pass_lq_mean(ev._p, ev._ws, 1.0 / (1.0 - t)) + ev._tail
        assert ev.raw(t) == math.log2(base)
        assert ev(t) == math.log2(base + 2.0 * (1.0 - 2.0**-t) * pad)
    # a last-bit change inside the kernel (say x * (1/q) for x / q) reaches
    # the returned value only at a few t, so sweep densely as well
    for t in np.linspace(0.001, 0.999, 300).tolist():
        assert ev.raw(t) == math.log2(_two_pass_lq_mean(ev._p, ev._ws, 1.0 / (1.0 - t)) + ev._tail)


_THREAD_PROBE = """
import numpy as np
from gausskey.estimation import GaussianMixture
from gausskey.secbounds import ExponentWithPadding, sign_entropy
pts = np.random.default_rng(3).normal(0.0, 1.2, 2300)
dist = GaussianMixture(points=tuple(pts.tolist()), stdev=0.4)
ev = ExponentWithPadding(dist, 1.5, 0.0)
assert ev._p.size == (1 << 14) + 1  # on the grid
print(repr([ev.raw(t) for t in (1e-6, 0.01, 0.1, 0.3, 0.5)]), repr(sign_entropy(dist, 1.5)))
"""


def _run_python(code, **env):
    src = str(Path(gausskey.__file__).resolve().parents[1])
    full_env = dict(os.environ, **env)
    full_env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=full_env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_exponent_bits_do_not_depend_on_blas_threads():
    # a BLAS dot splits long reductions across threads and its last bits
    # then follow the thread count; the kernel's sum must not
    outs = [
        _run_python(_THREAD_PROBE, OPENBLAS_NUM_THREADS=k, OMP_NUM_THREADS=k)
        for k in ("1", "2")
    ]
    assert outs[0] == outs[1]


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize and scipy.stats each cost a sizeable share of the
    # package's import time, paid by every process start and every keygen
    # worker; hashing uses numpy.fft, so scipy.fft stays out as well
    out = _run_python("import sys, gausskey.cli; print(sorted(m for m in sys.modules "
                      "if m.split('.')[:2] in (['scipy', 'optimize'], ['scipy', 'stats'], "
                      "['scipy', 'fft'])))")
    assert out.strip() == "[]"


# --------------------------------------------------------- certified builder

def test_build_certified_exponent_smoothed_branch_variance():
    params = ChannelParams(bob_gain=math.sqrt(2.0), bob_noise=1.0,
                           bob_offset=0.0, eve_gain=math.sqrt(2.0),
                           eve_noise=1.0)
    rng = np.random.default_rng(5)
    res = tuple(np.sort(rng.normal(scale=math.sqrt(1.2), size=4000)).tolist())
    bundle = reference_bundle(res)
    eve = estimate_eve_cdf(bundle, params)
    assert eve.stdev > 0
    ev = build_certified_exponent(bundle, eve, params)
    uc = bundle.underline_c()
    # projected eve fraction is 1/3 at this geometry; detector noise re-enters
    assert ev.v == pytest.approx(uc * uc / 3.0 + 1.0, rel=1e-12)
    g2, s2 = params.eve_gain**2, params.eve_noise**2
    assert ev.v == uc * uc * s2 / (g2 + s2) + params.bob_noise**2
    assert ev.padding > 0


def test_build_certified_exponent_raw_branch_variance():
    params = ChannelParams(bob_gain=2.0, bob_noise=0.5, bob_offset=0.0,
                           eve_gain=0.3, eve_noise=2.0)
    rng = np.random.default_rng(6)
    res = tuple(np.sort(rng.normal(scale=0.6, size=4000)).tolist())
    bundle = EstimateBundle(e_hat=0.0, v_hat=4.35, c_hat=2.0, v_ab_hat=12.3,
                            w_hat=30.0, l=200_000, epsilon=EPS, residuals=res)
    eve = estimate_eve_cdf(bundle, params)
    assert eve.stdev == 0.0
    ev = build_certified_exponent(bundle, eve, params)
    uc = bundle.underline_c()
    assert ev.v == uc * uc


def test_build_certified_exponent_rejects_weak_correlation():
    params = ChannelParams(bob_gain=math.sqrt(2.0), bob_noise=1.0,
                           bob_offset=0.0, eve_gain=math.sqrt(2.0),
                           eve_noise=1.0)
    bundle = reference_bundle((-0.1, 0.0, 0.1), l=20)  # huge confidence radius
    eve = estimate_eve_cdf(bundle, params)
    with pytest.raises(ValueError, match="insufficient correlation"):
        build_certified_exponent(bundle, eve, params)


@pytest.mark.parametrize("geometry, injected, smoothed", [
    ("reference_params", 0.2, True), ("weak_eve_params", 0.1, False),
])
@pytest.mark.parametrize("l", [10_000, 500_000])
def test_reference_evaluator_matches_closed_forms(geometry, injected, smoothed, l, request):
    # the expectation-bundle build against the closed forms written out:
    # shrunk covariance, both padding terms, and the smoothing branch
    params = request.getfixturevalue(geometry)
    c, bn2 = params.bob_gain, params.bob_noise**2
    g2, s2 = params.eve_gain**2, params.eve_noise**2
    v_ab = 2.0 * c * c + (c * c + injected + bn2)
    z = two_sided_z(EPS)
    uc = c - math.sqrt(v_ab) * z / math.sqrt(l)
    pad = (
        math.sqrt(v_ab) * z / (math.sqrt(2.0 * math.pi * math.e) * abs(c) * math.sqrt(l))
        + kolmogorov_quantile(1.0 - EPS) / math.sqrt(l)
    )
    excess = c * c * g2 / (g2 + s2) - bn2
    assert (excess > 0) == smoothed
    if excess > 0:
        v, law_var = uc * uc * s2 / (g2 + s2) + bn2, injected + bn2 + excess
    else:
        v, law_var = uc * uc, injected + bn2
    p = ndtr(NORMAL_NODES * math.sqrt(law_var) / math.sqrt(v))
    for gain in (c, -c):  # only the gain's magnitude is certified
        ev = reference_exponent_evaluator(
            dataclasses.replace(params, bob_gain=gain), injected, l=l, epsilon=EPS
        )
        assert ev.v == v and ev.padding == pad
        assert ev._p.tobytes() == p.tobytes()
    with pytest.raises(ValueError, match="insufficient correlation"):
        reference_exponent_evaluator(
            dataclasses.replace(params, bob_gain=0.0), injected, l=l, epsilon=EPS
        )


def test_reference_evaluator_tracks_certified_build():
    # with estimates pinned at their expectations the live build on a large
    # Gaussian residual sample must land close to the analytic evaluator
    params = ChannelParams(bob_gain=math.sqrt(2.0), bob_noise=1.0,
                           bob_offset=0.0, eve_gain=math.sqrt(2.0),
                           eve_noise=1.0)
    ref = reference_exponent_evaluator(params, 0.2, l=500_000, epsilon=EPS)
    rng = np.random.default_rng(11)
    res = tuple(np.sort(rng.normal(scale=math.sqrt(1.2), size=50_000)).tolist())
    bundle = reference_bundle(res)
    live = build_certified_exponent(bundle, estimate_eve_cdf(bundle, params), params)
    assert live.v == pytest.approx(ref.v, rel=1e-12)
    for t in (0.05, 0.2, 0.4):
        assert live.raw(t) == pytest.approx(ref.raw(t), abs=2e-3)
    # padded values differ only through the smaller residual sample: the CDF
    # error term scales with the residual count, not the moment count
    assert live.padding == ks_error_bound(bundle)
    assert live.padding > ref.padding


# ------------------------------------------------------------- minimization

def test_minimize_convex_interior_and_endpoint():
    x, fx = minimize_convex(lambda t: (t - 0.3) ** 2, 0.0, 1.0)
    assert x == pytest.approx(0.3, abs=1e-5)
    assert fx == pytest.approx(0.0, abs=1e-9)
    x, _ = minimize_convex(lambda t: t, 0.0, 1.0)
    assert x == 0.0
    x, _ = minimize_convex(lambda t: -t, 0.0, 1.0)
    assert x == 1.0
    with pytest.raises(ValueError):
        minimize_convex(lambda t: t, 1.0, 1.0)


@pytest.mark.parametrize("f, lo, hi, x_min", [
    (lambda x: (x - 0.3) ** 2, 0.0, 1.0, 0.3),
    (lambda x: math.exp(x) - 2.0 * x, 0.0, 1.0, math.log(2.0)),
    (lambda x: abs(x - 0.123456789), -2.0, 3.0, 0.123456789),
    (lambda x: x, 1e-9, 0.5, 1e-9),  # minimum on the lower edge
    (lambda x: x * x - 3.0 * x, 0.0, 1.0, 1.0),  # minimum on the upper edge
], ids=["parabola", "exp", "kink", "lower-edge", "upper-edge"])
def test_brent_bounded_converges_inside_the_interval(f, lo, hi, x_min):
    seen = []

    def g(x):
        seen.append(x)
        return f(x)

    x, fx = _brent_bounded(g, lo, hi, 1e-6)
    assert abs(x - x_min) <= 1e-6
    assert fx == f(x) == min(f(s) for s in seen)
    assert all(lo < s < hi for s in seen)


@pytest.mark.parametrize("l, n, target, m1", [
    (10_000, 16_384, -40.0, 6605),
    (10_000, 65_536, -40.0, 24923),
    (500_000, 1_000_000, -867.0, 302_942),
    (10_000, 1_000_000, -160.0, 369_210),
])
def test_sacrifice_length_evaluation_count(l, n, target, m1):
    params = ChannelParams(bob_gain=math.sqrt(2.0), bob_noise=1.0,
                           bob_offset=0.0, eve_gain=math.sqrt(2.0),
                           eve_noise=1.0)
    ev = reference_exponent_evaluator(params, 0.2, l=l, epsilon=EPS)
    assert sacrifice_length(ev, n, target) == m1
    # distinct exponent evaluations of the seed search and the guard
    evals = len(ev._cache.keys() - {0.0})
    assert evals <= 40
    # the guard already ran the distance minimization at m1: all memo hits
    minimize_exponent(ev, n, m1, VARIATIONAL_DISTANCE)
    assert len(ev._cache.keys() - {0.0}) == evals
    minimize_exponent(ev, n, m1, MODIFIED_MUTUAL_INFO)
    assert len(ev._cache.keys() - {0.0}) - evals <= 16


def test_minimize_exponent_flat_closed_forms():
    # phi == 0 collapses both criteria to closed forms
    n = 1000
    cert = minimize_exponent(lambda t: 0.0, n, 0, VARIATIONAL_DISTANCE)
    assert cert.s_star == pytest.approx(0.0, abs=1e-5)
    assert cert.log2_bound == pytest.approx(math.log2(3.0), abs=1e-9)

    cert = minimize_exponent(lambda t: 0.0, n, 0, MODIFIED_MUTUAL_INFO)
    assert cert.s_star == pytest.approx(1.0 / (n * math.log(2.0)), rel=1e-2)
    assert cert.log2_bound == pytest.approx(
        math.log2(math.e * n * math.log(2.0)), abs=1e-6)


def test_minimize_exponent_validation():
    with pytest.raises(ValueError):
        minimize_exponent(lambda t: 0.0, 10, 11, VARIATIONAL_DISTANCE)
    with pytest.raises(ValueError, match="unknown criterion"):
        minimize_exponent(lambda t: 0.0, 10, 0, "total-variation")
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="non-finite"):
            minimize_exponent(lambda t: bad, 10, 0, VARIATIONAL_DISTANCE)


def _grid_oracle_case(name):
    params = ChannelParams(bob_gain=math.sqrt(2.0), bob_noise=1.0,
                           bob_offset=0.0, eve_gain=math.sqrt(2.0),
                           eve_noise=1.0)
    if name == "mixture":
        pts = np.random.default_rng(5).normal(0.0, 1.1, 300)
        dist = GaussianMixture(points=tuple(pts.tolist()), stdev=0.6)
        return ExponentWithPadding(dist, 1.4, 0.01), 4096, 2048  # interior minima
    m1 = int(name.split("-")[1])
    return reference_exponent_evaluator(params, 0.2, l=10_000, epsilon=EPS), 16_384, m1


@pytest.mark.parametrize("criterion", [VARIATIONAL_DISTANCE, MODIFIED_MUTUAL_INFO])
@pytest.mark.parametrize("name", ["reference-1000", "reference-6605",
                                  "reference-9000", "mixture"])
def test_minimize_exponent_beats_a_grid(criterion, name):
    ev, n, m1 = _grid_oracle_case(name)
    cert = minimize_exponent(ev, n, m1, criterion)
    if criterion == VARIATIONAL_DISTANCE:
        lo, hi = 0.0, 0.5
        grid = [math.log2(3.0) + t * (n - m1) + n * ev(t)
                for t in np.linspace(lo, hi, 2001).tolist()]
    else:
        lo, hi = 1e-4, 1.0 - 1e-4
        grid = [s * (n - m1) + n * ev(s) - math.log2(s)
                for s in np.linspace(lo, hi, 2001).tolist()]
    assert cert.log2_bound <= min(grid) + 1e-9
    assert lo <= cert.s_star <= hi


def test_minimize_exponent_certificate_fields():
    ev = ExponentWithPadding(AnalyticGaussian(1.2), 5.0 / 3.0, 1e-3)
    cert = minimize_exponent(ev, 4096, 1024, VARIATIONAL_DISTANCE)
    assert cert.criterion == VARIATIONAL_DISTANCE
    assert cert.n == 4096 and cert.m1 == 1024
    assert 0.0 <= cert.s_star <= 0.5
    # protocol.certify, not the minimization, decorates a certificate
    assert cert.padding == 0.0
    assert math.isnan(cert.shrunk_param)
    assert cert.confidence is None


def test_bound_improves_with_sacrifice():
    ev = ExponentWithPadding(AnalyticGaussian(1.2), 5.0 / 3.0, 0.0)
    n = 10_000
    # below sacrifice fraction 1 - H the minimum sits at t = 0 and the
    # bound is pinned at its trivial log2(3) value
    h = sign_entropy(AnalyticGaussian(1.2), 5.0 / 3.0)
    flat = minimize_exponent(ev, n, 1000, VARIATIONAL_DISTANCE).log2_bound
    assert 1000 < (1.0 - h) * n
    assert flat == pytest.approx(math.log2(3.0), abs=1e-9)
    bounds = [minimize_exponent(ev, n, m1, VARIATIONAL_DISTANCE).log2_bound
              for m1 in (3000, 4500, 6000, 7500)]
    assert bounds[0] < math.log2(3.0)
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_mutual_info_criterion_bound_exceeds_distance_cost():
    # the mutual-info variant pays an extra -log2(s) over the affine family
    ev = ExponentWithPadding(AnalyticGaussian(1.2), 5.0 / 3.0, 1e-4)
    n, m1 = 50_000, 20_000
    d = minimize_exponent(ev, n, m1, VARIATIONAL_DISTANCE)
    i = minimize_exponent(ev, n, m1, MODIFIED_MUTUAL_INFO)
    assert i.log2_bound > d.log2_bound - math.log2(3.0)
    assert 0.0 < i.s_star < 1.0


def test_sacrifice_length_defining_property():
    ev = ExponentWithPadding(AnalyticGaussian(1.2), 5.0 / 3.0, 1e-4)
    n, target = 20_000, -40.0
    m1 = sacrifice_length(ev, n, target)
    assert 0 < m1 < n
    at = minimize_exponent(ev, n, m1, VARIATIONAL_DISTANCE).log2_bound
    below = minimize_exponent(ev, n, m1 - 1, VARIATIONAL_DISTANCE).log2_bound
    assert at <= target < below


def test_sacrifice_length_edges():
    ev = ExponentWithPadding(AnalyticGaussian(1.2), 5.0 / 3.0, 0.0)
    assert sacrifice_length(ev, 1000, 10.0) == 0  # trivial target
    with pytest.raises(ValueError, match="unachievable"):
        # bound at m1 = n is still log2(3) + n * min phi < 0 but far above
        sacrifice_length(ev, 100, -1000.0)


def _sacrifice_length_full_seed(phi_fn, n, target_log2):
    # reference: the search written out, on any memoized phi
    target_prime = target_log2 - math.log2(3.0)
    _, neg = _brent_bounded(lambda t: -(target_prime - n * phi_fn(t)) / t, 1e-9, 0.5, 1e-6)
    m1 = max(0, min(n, math.ceil(n + neg)))
    while True:
        if minimize_exponent(phi_fn, n, m1, VARIATIONAL_DISTANCE).log2_bound > target_log2:
            m1 += 1
            if m1 > n:
                raise ValueError("target unachievable even when sacrificing every bit")
        elif m1 > 0 and minimize_exponent(phi_fn, n, m1 - 1, VARIATIONAL_DISTANCE).log2_bound <= target_log2:
            m1 -= 1
        else:
            return m1


class _FullNodeExponent:
    # reference: a mixture's padded exponent on all 96 nodes of every kernel,
    # with no tail term, by the two-pass formula; memoized like the evaluator
    def __init__(self, law, v, padding):
        pts = np.asarray(law.points, dtype=float)
        xs = (pts[:, None] + law.stdev * NORMAL_NODES[None, :]).ravel()
        self._p = ndtr(xs / math.sqrt(v))
        self._ws = np.tile(NORMAL_WEIGHTS / pts.size, pts.size)
        self.padding = padding
        self._cache = {}

    def __call__(self, t):
        if t not in self._cache:
            base = _two_pass_lq_mean(self._p, self._ws, 1.0 / (1.0 - t))
            self._cache[t] = 0.0 if t == 0.0 else math.log2(
                base + 2.0 * (1.0 - 2.0**-t) * self.padding)
        return self._cache[t]


def test_kernel_nodes_are_the_central_block_with_a_bounded_tail():
    kept = np.flatnonzero(_KERNEL_KEPT)
    assert kept.size == _KERNEL_NODES.size == _KERNEL_WEIGHTS.size == 58
    assert np.array_equal(kept, np.arange(kept[0], kept[0] + 58))
    assert np.array_equal(_KERNEL_KEPT, _KERNEL_KEPT[::-1])
    assert kept[0] + kept[-1] == NORMAL_NODES.size - 1
    assert 40 in kept  # the node test_block_kernel_matches_two_pass_formula_bitwise centres
    assert _KERNEL_TAIL == math.fsum(NORMAL_WEIGHTS[~_KERNEL_KEPT])
    assert 0.0 < _KERNEL_TAIL <= 2.0**-64
    assert np.all(_KERNEL_WEIGHTS >= 2.0**-64 / 96)
    assert np.all(NORMAL_WEIGHTS[~_KERNEL_KEPT] < 2.0**-64 / 96)


def test_mixture_entropy_counts_the_dropped_weight_at_one_bit():
    # every kept node of a far kernel gives p exactly 1, so only the tail is left
    assert sign_entropy(GaussianMixture(points=(40.0,), stdev=0.5), 1.0) == _KERNEL_TAIL
    assert sign_entropy(GaussianMixture((40.0,), 0.0), 1.0) == 0.0


def test_exponent_base_adds_the_dropped_weight():
    # the tail is 2^-11 of an ulp of the base, so no value shows it: swap in
    # a visible one to check that the base carries it
    ev = ExponentWithPadding(GaussianMixture(points=(-0.4, 0.3, 1.1), stdev=0.5), 1.2, 0.0)
    assert ev._tail == _KERNEL_TAIL
    ev._tail = 0.125
    assert ev._mean_norm(0.25) == _two_pass_lq_mean(ev._p, ev._ws, 1.0 / (1.0 - 0.25)) + 0.125


@st.composite
def _multi_block_mixtures(draw):
    # more than _BLOCK kept-node points, so the grid build runs over several blocks
    size = draw(st.integers(min_value=_BLOCK // 58 + 1, max_value=3 * _BLOCK // 58))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    pts = np.random.default_rng(seed).normal(0.0, draw(st.floats(min_value=0.2, max_value=5.0)), size)
    law = GaussianMixture(points=tuple(pts.tolist()), stdev=draw(st.floats(min_value=0.05, max_value=2.0)))
    v = draw(st.floats(min_value=0.1, max_value=4.0))
    padding = draw(st.floats(min_value=0.0, max_value=0.05))
    ts = draw(st.lists(st.floats(min_value=1e-9, max_value=0.9999), min_size=1, max_size=4))
    return law, v, padding, ts + [0.9999]


@settings(max_examples=25, deadline=None)
@given(case=_multi_block_mixtures())
def test_kept_node_exponent_matches_full_node_oracle(case):
    # the dropped nodes move 2^phi by at most the tail, 2^-11 of an ulp, and
    # the grid only raises it: below the oracle by no more than summation
    # rounding
    law, v, padding, ts = case
    ev, oracle = ExponentWithPadding(law, v, padding), _FullNodeExponent(law, v, padding)
    assert _whole_law(law)[0].size > _BLOCK
    for t in ts:
        assert 2.0 ** ev(t) >= 2.0 ** oracle(t) * (1.0 - 1e-13)


def _exact_and_jensen(law, v, ts):
    # at each t: the exact kept-node mean, and the Jensen value that puts each
    # bin's mass at the bin's weighted-mean u, from per-bin fsums; bins come
    # from searchsorted, not from the build's rule
    xs, ws, tail = _whole_law(law)
    u = ndtr(-np.abs(xs) / math.sqrt(v))
    j = np.minimum(np.searchsorted(_EDGES, u, side="right") - 1, _GRID - 1)
    order = np.argsort(j, kind="stable")
    cuts = np.flatnonzero(np.diff(j[order])) + 1
    mass, centre = [], []
    for w_b, u_b in zip(np.split(ws[order], cuts), np.split(u[order], cuts)):
        mass.append(math.fsum(w_b))
        centre.append(math.fsum(w_b * u_b) / mass[-1])
    mass, centre = np.array(mass), np.array(centre)
    return [(_two_pass_lq_mean(u, ws, 1.0 / (1.0 - t)) + tail,
             _two_pass_lq_mean(centre, mass, 1.0 / (1.0 - t)) + tail) for t in ts]


@settings(max_examples=25, deadline=None)
@given(case=_multi_block_mixtures())
def test_grid_exponent_is_a_tight_upper_bound(case):
    law, v, _padding, ts = case
    ev = ExponentWithPadding(law, v, 0.0)
    assert ev._p is _EDGES
    assert math.fsum(ev._ws) == pytest.approx(1.0 - _KERNEL_TAIL, abs=1e-12)
    for t, (exact, jensen) in zip(ts, _exact_and_jensen(law, v, ts)):
        grid = 2.0 ** ev.raw(t)
        assert grid >= exact * (1.0 - 1e-13)
        assert jensen <= exact * (1.0 + 1e-13)
        assert math.log2(grid) - math.log2(exact) <= 1e-7


def _gathered_edge_weights(xs, ws, v):
    # reference build on the whole law at once: bins from the sqrt rule,
    # fixed up against gathered _EDGES values in both directions, and lambda
    # from gathered edges; the streamed build must keep its bits
    edge_ws = np.zeros(_GRID + 1)
    scale = math.sqrt(v)
    for start in range(0, xs.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        u = ndtr(-np.abs(xs[block]) / scale)
        j = np.minimum((np.sqrt(2.0 * u) * _GRID).astype(np.intp), _GRID - 1)
        j -= u < _EDGES[j]
        j += u > _EDGES[j + 1]
        lo, hi = _EDGES[j], _EDGES[j + 1]
        w = ws[block]
        w_lo = w * ((hi - u) / (hi - lo))
        edge_ws += np.bincount(j, w_lo, _GRID + 1)
        edge_ws += np.bincount(j + 1, w - w_lo, _GRID + 1)
    return edge_ws


def _assert_matches_gathered_build(law, v):
    ev = ExponentWithPadding(law, v, 0.0)
    xs, ws, tail = _whole_law(law)
    streamed_xs, streamed_ws = (np.concatenate(parts) for parts in zip(*_law_blocks(law)))
    assert np.array_equal(streamed_xs, xs)  # -0.0 streams as +0.0
    assert streamed_ws.tobytes() == ws.tobytes()
    assert ev._p is _EDGES
    assert ev._ws.tobytes() == _gathered_edge_weights(xs, ws, v).tobytes()
    assert ev._tail == tail + xs.size * 2.0**-53


def test_streamed_build_matches_gathered_oracle_bitwise():
    # u exactly 0 and 1/2 and a subnormal sweep, over several blocks and a
    # partial last one; then a point-mass law one point above the grid size
    _assert_matches_gathered_build(*_kernel_oracle_case("mixture"))
    pts = np.random.default_rng(5).normal(0.0, 2.0, _GRID + 1)
    _assert_matches_gathered_build(GaussianMixture(tuple(pts.tolist()), 0.0), 1.3)


@settings(max_examples=25, deadline=None)
@given(case=_multi_block_mixtures())
def test_streamed_build_matches_gathered_oracle_on_multi_block_laws(case):
    law, v, _padding, _ts = case
    _assert_matches_gathered_build(law, v)


def test_edge_bins_are_exact_integer_arithmetic():
    j = np.arange(_GRID + 1)
    assert np.array_equal(_EDGES * 2.0**29, (j * j).astype(float))
    k = np.arange(1, _GRID + 1)
    below = np.nextafter((k * k).astype(float), 0.0)
    # one ulp below k^2 the rounded sqrt is k itself at thousands of edges:
    # the bin rule's downward step is what puts those points in bin k - 1
    assert np.count_nonzero(np.sqrt(below) == k) == 6781
    y = np.concatenate([[0.0], (j * j).astype(float), below, [2.0**28]])
    expected = np.minimum(np.searchsorted(_EDGES, y / 2.0**29, side="right") - 1, _GRID - 1)
    got = _edge_bins(y)
    assert got.dtype == np.int32
    assert np.array_equal(got, expected)


def test_grid_build_streams_the_law():
    # reference-workload shape: 10^4 smoothed residuals are 580k kernel
    # points, 4.6 MB of float64 each for points and weights; the streamed
    # build holds a few blocks of 2^16 at once
    pts = np.sort(np.random.default_rng(17).normal(0.0, 1.1, 10_000))
    law = GaussianMixture(points=tuple(pts.tolist()), stdev=0.58)
    tracemalloc.start()
    try:
        ev = ExponentWithPadding(law, 1.57, 0.042)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ev._p is _EDGES
    assert peak < 6 * 2**20


def test_grid_allows_for_the_mass_its_sums_round_away():
    # a two-block law whose edge weights sum 1.29e-13 short of
    # 1 - _KERNEL_TAIL: without the N * 2^-53 allowance in the tail the grid
    # reads below the exact mean at t = 1e-9, by -2.06e-13 in log2
    pts = np.random.default_rng(0).normal(0.0, 3.0, 1211)
    law = GaussianMixture(points=tuple(pts.tolist()), stdev=2.0)
    ev = ExponentWithPadding(law, 0.25, 0.0)
    lost = (1.0 - _KERNEL_TAIL) - math.fsum(ev._ws)
    assert 1e-13 < lost <= 1211 * 58 * 2.0**-53
    [(exact, _)] = _exact_and_jensen(law, 0.25, [1e-9])
    grid = 2.0 ** ev.raw(1e-9)
    assert grid >= exact * (1.0 - 1e-13)
    assert math.log2(grid) - math.log2(exact) <= 1e-7


def test_only_laws_above_the_grid_size_move_onto_it():
    pts = tuple(np.linspace(-3.0, 3.0, _GRID + 1).tolist())
    exact = ExponentWithPadding(GaussianMixture(pts[:_GRID], 0.0), 1.5, 0.0)
    assert exact._p.tobytes() == ndtr(np.asarray(pts[:_GRID]) / math.sqrt(1.5)).tobytes()
    gridded = ExponentWithPadding(GaussianMixture(pts, 0.0), 1.5, 0.0)
    assert gridded._p is _EDGES and gridded._tail == (_GRID + 1) * 2.0**-53
    assert math.fsum(gridded._ws) == pytest.approx(1.0, abs=1e-12)
    # the chord split keeps the mean of u
    u = ndtr(-np.abs(np.asarray(pts)) / math.sqrt(1.5))
    assert math.fsum(gridded._ws * _EDGES) == pytest.approx(math.fsum(u) / u.size, rel=1e-12)
    ts = (0.01, 0.3, 0.9)
    for t, (exact_mean, _) in zip(ts, _exact_and_jensen(GaussianMixture(pts, 0.0), 1.5, ts)):
        assert 2.0 ** gridded.raw(t) >= exact_mean * (1.0 - 1e-13)


@pytest.mark.parametrize("size", [1, 10_000, _GRID, _GRID + 1, _BLOCK + 3])
def test_zero_width_mixture_is_the_point_mass_law_bitwise(size):
    # both evaluation paths, and a grid build over two blocks, against the
    # point-mass quadrature (the points, weights 1/size, tail 0); -0.0 and
    # +0.0 give the same p, since ndtr(-0.0) == ndtr(0.0) == 0.5
    pts = np.random.default_rng(size).normal(0.0, 1.7, size)
    pts[:2] = [-0.0, 0.0][:size]
    law = GaussianMixture(tuple(pts.tolist()), 0.0)
    xs, ws, tail = _whole_law(law)
    v, pad = 1.3, 0.02
    ev = ExponentWithPadding(law, v, pad)
    if size <= _GRID:
        assert ev._p.tobytes() == ndtr(xs / math.sqrt(v)).tobytes()
        assert ev._ws.tobytes() == ws.tobytes()
        assert ev._tail == tail
    else:
        assert ev._p is _EDGES
        assert ev._ws.tobytes() == _gathered_edge_weights(xs, ws, v).tobytes()
        assert ev._tail == tail + size * 2.0**-53
    if size <= _BLOCK:  # one block: the same sum as over the whole law
        h = _binary_entropy(ndtr(xs / math.sqrt(v)))
        assert sign_entropy(law, v) == float(np.einsum("i,i->", ws, h)) + tail


@st.composite
def _reference_mixtures(draw):
    # reference-workload shape: sorted smoothed residuals of spread about 1.1
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    size = draw(st.integers(min_value=1_000, max_value=10_000))
    pts = np.sort(np.random.default_rng(seed).normal(0.0, draw(st.floats(min_value=1.0, max_value=1.2)), size))
    law = GaussianMixture(points=tuple(pts.tolist()), stdev=draw(st.floats(min_value=0.5, max_value=0.65)))
    v = draw(st.floats(min_value=1.4, max_value=1.7))
    padding = draw(st.floats(min_value=0.02, max_value=0.06))
    n = draw(st.sampled_from([4_096, 16_384, 65_536]))
    target = draw(st.sampled_from([-20.0, -40.0, -80.0]))
    return law, v, padding, n, target


@settings(max_examples=12, deadline=None)
@given(case=_reference_mixtures())
def test_kept_node_sacrifice_matches_full_node_oracle(case):
    law, v, padding, n, target = case
    expected = _outcome(_sacrifice_length_full_seed, _FullNodeExponent(law, v, padding), n, target)
    assert _outcome(sacrifice_length, ExponentWithPadding(law, v, padding), n, target) == expected


def _outcome(search, phi, n, target):
    try:
        return search(phi, n, target)
    except ValueError as exc:
        return str(exc)


def test_sacrifice_evaluates_only_the_grid_law(monkeypatch):
    # reference-workload shape: 10^4 smoothed residuals, 580k kept-node points
    pts = np.sort(np.random.default_rng(17).normal(0.0, 1.1, 10_000))
    law = GaussianMixture(points=tuple(pts.tolist()), stdev=0.58)
    ev = ExponentWithPadding(law, 1.57, 0.042)
    sizes = []
    mean_norm = ExponentWithPadding._mean_norm

    def counted(self, t):
        sizes.append(self._p.size)
        return mean_norm(self, t)

    def no_second_law(*args, **kwargs):
        raise AssertionError("the search built another evaluator")

    monkeypatch.setattr(ExponentWithPadding, "_mean_norm", counted)
    monkeypatch.setattr(ExponentWithPadding, "__init__", no_second_law)
    sacrifice_length(ev, 16_384, -40.0)
    assert sizes == [_GRID + 1] * len(ev._cache.keys() - {0.0})
    assert 0 < len(sizes) <= 31


@pytest.mark.parametrize("l, n, target, expected", [
    (500_000, 1_000_000, -867.0, 302_942),  # frozen; about thirty percent of the block
    # frozen at l = 1e4: the values the bracketed binary search returned
    (10_000, 16_384, -20.0, 6395),
    (10_000, 16_384, -40.0, 6605),
    (10_000, 16_384, -80.0, 6911),
    (10_000, 16_384, -160.0, 7357),
    (10_000, 65_536, -20.0, 24512),
    (10_000, 65_536, -40.0, 24923),
    (10_000, 65_536, -80.0, 25518),
    (10_000, 65_536, -160.0, 26374),
    (10_000, 1_000_000, -20.0, 362121),
    (10_000, 1_000_000, -40.0, 363700),
    (10_000, 1_000_000, -80.0, 365969),
    (10_000, 1_000_000, -160.0, 369210),
])
def test_sacrifice_length_reference_scale(l, n, target, expected):
    # analytic evaluator at the symmetric geometry
    params = ChannelParams(bob_gain=math.sqrt(2.0), bob_noise=1.0,
                           bob_offset=0.0, eve_gain=math.sqrt(2.0),
                           eve_noise=1.0)
    ev = reference_exponent_evaluator(params, 0.2, l=l, epsilon=EPS)
    assert sacrifice_length(ev, n, target) == expected


# ----------------------------------------------------------------- key rate

def test_key_rate_symmetric_frozen_values():
    rate, mi_ab, mi_eb = key_rate_symmetric(0.2)
    assert mi_ab == pytest.approx(0.37226722, abs=1e-7)
    assert mi_eb == pytest.approx(0.26437517, abs=1e-7)
    assert rate == pytest.approx(0.10789204, abs=1e-7)


def test_key_rate_crosses_zero_at_two_thirds():
    # (1 + x)/2 = 5/(4 + 3x) exactly at x = 2/3
    rate, mi_ab, mi_eb = key_rate_symmetric(2.0 / 3.0)
    assert rate == pytest.approx(0.0, abs=1e-12)
    assert mi_ab == pytest.approx(mi_eb, abs=1e-12)
    assert key_rate_symmetric(0.8)[0] < 0.0


def test_key_rate_monotone_decreasing():
    xs = np.linspace(0.0, 1.5, 16)
    rates = [key_rate_symmetric(x)[0] for x in xs]
    assert all(r2 < r1 for r1, r2 in zip(rates, rates[1:]))
    with pytest.raises(ValueError):
        key_rate_symmetric(-0.1)


# -------------------------------------------------------------- mutual info

def test_mutual_info_ab_noiseless_is_one_bit():
    bundle = EstimateBundle(e_hat=0.0, v_hat=4.0, c_hat=1.5, v_ab_hat=1.0,
                            w_hat=1.0, l=100, epsilon=0.01,
                            residuals=(0.0,) * 100)
    cdf = EmpiricalCdf(points=bundle.residuals)
    assert mutual_info_ab(bundle, cdf) == pytest.approx(1.0, abs=1e-12)


def test_mutual_info_ab_matches_closed_form_at_reference():
    rng = np.random.default_rng(99)
    res = tuple(np.sort(rng.normal(scale=math.sqrt(1.2), size=100_000)).tolist())
    bundle = reference_bundle(res)
    mi = mutual_info_ab(bundle, EmpiricalCdf(points=bundle.residuals))
    assert mi == pytest.approx(key_rate_symmetric(0.2)[1], abs=5e-3)


def test_mutual_info_ab_guards():
    bundle = reference_bundle((0.0,) * 10)
    cdf = EmpiricalCdf(points=bundle.residuals)
    with pytest.raises(ValueError, match="no correlation"):
        mutual_info_ab(
            EstimateBundle(e_hat=0.0, v_hat=1.0, c_hat=0.0, v_ab_hat=1.0,
                           w_hat=1.0, l=10, epsilon=0.01,
                           residuals=(0.0,) * 10), cdf)
    with pytest.raises(ValueError, match="degenerate"):
        mutual_info_ab(
            EstimateBundle(e_hat=0.0, v_hat=2.0, c_hat=1.5, v_ab_hat=1.0,
                           w_hat=1.0, l=10, epsilon=0.01,
                           residuals=(0.0,) * 10), cdf)
