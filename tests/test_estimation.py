import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from gausskey.estimation import (
    EmpiricalCdf,
    EstimateBundle,
    estimate_eve_cdf,
    estimate_moments,
    gaussian_sup_distance,
    kolmogorov_cdf,
    kolmogorov_quantile,
    ks_distance,
    ks_error_bound,
    residuals,
    two_sided_z,
)
from gausskey.gaussmodel import ChannelParams, NoiseSpec, sample_rounds

EPS = 5e-5


def make_bundle(**kw):
    base = dict(
        e_hat=0.0, v_hat=3.2, c_hat=math.sqrt(2.0), v_ab_hat=7.2,
        w_hat=20.0, l=500_000, epsilon=EPS,
    )
    base.update(kw)
    return EstimateBundle(**base)


# ---------------------------------------------------------------- quantiles

def test_kolmogorov_cdf_reference_values():
    # direct 50-term series summation, frozen
    assert kolmogorov_cdf(1.0) == pytest.approx(0.7300003283, abs=1e-4)
    assert kolmogorov_cdf(0.1) < 1e-30  # theta form handles the left tail
    assert kolmogorov_cdf(2.5) == pytest.approx(1.0, abs=1e-4)


def test_kolmogorov_quantile_reference_value():
    q = kolmogorov_quantile(1.0 - EPS)
    assert q == pytest.approx(2.30, abs=0.005)
    assert q == pytest.approx(2.3018074130, abs=1e-6)  # frozen bisection oracle
    assert kolmogorov_cdf(q) == pytest.approx(1.0 - EPS, abs=1e-8)


def test_kolmogorov_domain():
    with pytest.raises(ValueError):
        kolmogorov_cdf(0.0)
    with pytest.raises(ValueError):
        kolmogorov_quantile(1.0)


# ------------------------------------------------------------------ moments

def test_estimate_moments_constant_data_is_exact():
    samples = np.column_stack([np.arange(6.0), np.full(6, 2.5)])
    with pytest.warns(UserWarning):
        bundle = estimate_moments(samples, 0.01)
    assert bundle.e_hat == 2.5
    assert bundle.v_hat == 0.0
    assert bundle.c_hat == 0.0
    assert bundle.v_ab_hat == 0.0


def test_estimate_moments_matches_closed_forms(reference_params):
    rng = np.random.default_rng(77)
    a, b, _, _ = sample_rounds(reference_params, NoiseSpec.gaussian(0.2), rng, 200_000)
    bundle = estimate_moments(np.column_stack([a, b]), EPS)
    assert bundle.e_hat == pytest.approx(0.0, abs=0.02)
    assert bundle.v_hat == pytest.approx(3.2, abs=0.05)
    assert bundle.c_hat == pytest.approx(math.sqrt(2.0), abs=0.02)
    # product second moment: 2 c^2 + v_B for a Gaussian channel
    assert bundle.v_ab_hat == pytest.approx(2.0 * 2.0 + 3.2, abs=0.15)


def test_estimator_consistency_over_seeded_runs(reference_params):
    # |c_hat - gain| within its own reported radius, run after run
    hits = 0
    runs = 50
    for seed in range(runs):
        rng = np.random.default_rng(1000 + seed)
        a, b, _, _ = sample_rounds(reference_params, NoiseSpec.gaussian(0.2), rng, 100_000)
        bundle = estimate_moments(np.column_stack([a, b]), EPS)
        radius = math.sqrt(bundle.v_ab_hat) * two_sided_z(EPS) / math.sqrt(bundle.l)
        if abs(bundle.c_hat - reference_params.bob_gain) <= radius:
            hits += 1
    assert hits >= math.ceil((1.0 - 2.0 * EPS) * runs)


def test_estimate_moments_validation():
    with pytest.raises(ValueError):
        estimate_moments(np.zeros((1, 2)), 0.01)
    with pytest.raises(ValueError):
        estimate_moments(np.zeros((10, 3)), 0.01)
    with pytest.raises(ValueError):
        estimate_moments(np.zeros((10, 2)), 0.5)  # epsilon outside (0, 1/2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_estimate_moments_rejects_non_finite_samples(bad):
    samples = np.random.default_rng(2).standard_normal((10_000, 2))
    samples[137, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        estimate_moments(samples, EPS)


def test_small_sample_warning():
    rng = np.random.default_rng(1)
    samples = rng.standard_normal((500, 2))
    with pytest.warns(UserWarning, match="10000"):
        estimate_moments(samples, 0.01)


def test_residuals_are_sorted_and_centered(reference_params):
    rng = np.random.default_rng(5)
    a, b, _, _ = sample_rounds(reference_params, NoiseSpec.gaussian(0.2), rng, 40_000)
    bundle = estimate_moments(np.column_stack([a[:20_000], b[:20_000]]), EPS)
    full = residuals(np.column_stack([a[20_000:], b[20_000:]]), bundle)
    res = np.asarray(full.residuals)
    assert np.all(np.diff(res) >= 0)
    # residual variance is v_Y + b_B^2 up to estimation error; the mean
    # inherits the first half's offset error (SE about 0.013 here)
    assert res.mean() == pytest.approx(0.0, abs=0.05)
    assert res.var() == pytest.approx(1.2, abs=0.05)
    assert not bundle.complete and full.complete


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_residuals_rejects_non_finite_samples(bad):
    rng = np.random.default_rng(3)
    bundle = estimate_moments(rng.standard_normal((10_000, 2)), EPS)
    second = rng.standard_normal((10_000, 2))
    second[9_999, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        residuals(second, bundle)


# --------------------------------------------------------------------- CDFs

def test_empirical_cdf_step_semantics():
    f = EmpiricalCdf(points=(0.0, 0.0, 1.0, 2.0))
    assert f(-0.5) == 0.0
    assert f(0.0) == 0.5  # right-continuous: both atoms at 0 counted
    assert f.eval_left(0.0) == 0.0
    assert f(1.0) == 0.75 and f.eval_left(1.0) == 0.5
    assert f(5.0) == 1.0


def test_empirical_cdf_searches_one_read_only_array():
    f = EmpiricalCdf(points=(0, 0, 1, 2))  # integer points evaluate as floats
    assert f._sorted.dtype == np.float64 and not f._sorted.flags.writeable
    assert f.points == (0, 0, 1, 2)
    assert repr(f) == "EmpiricalCdf(points=(0, 0, 1, 2))"
    assert f == EmpiricalCdf(points=(0, 0, 1, 2)) and hash(f) == hash(EmpiricalCdf(points=(0, 0, 1, 2)))
    assert np.array_equal(f(np.array([0.0, 0.5, 2.0])), [0.5, 0.5, 1.0])
    assert np.array_equal(f.eval_left(np.array([0.0, 1.0, 3.0])), [0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        f._sorted[0] = 5.0


def test_branch_selection():
    params = ChannelParams(
        bob_gain=math.sqrt(2.0), bob_noise=1.0, bob_offset=0.0,
        eve_gain=math.sqrt(2.0), eve_noise=1.0,
    )
    bundle = make_bundle(c_hat=math.sqrt(2.0), residuals=(0.0, 1.0))
    eve = estimate_eve_cdf(bundle, params)
    assert eve.points is bundle.residuals  # the law holds the bundle's own sample
    # c^2 * 2/3 = 4/3 beats detector variance 1: smoothing applies
    assert eve.stdev > 0
    assert eve.stdev == pytest.approx(math.sqrt(1.0 / 3.0))

    deaf = ChannelParams(
        bob_gain=math.sqrt(2.0), bob_noise=10.0, bob_offset=0.0,
        eve_gain=math.sqrt(2.0), eve_noise=1.0,
    )
    assert estimate_eve_cdf(bundle, deaf).stdev == 0.0

    # at the branch boundary (projected variance = detector variance = 2,
    # up to one ulp) smoothing must NOT apply: only a strict excess smooths
    edge = ChannelParams(
        bob_gain=2.0, bob_noise=math.sqrt(2.0), bob_offset=0.0, eve_gain=1.0, eve_noise=1.0
    )
    at_boundary = make_bundle(c_hat=2.0, residuals=(0.0, 1.0))
    eve_edge = estimate_eve_cdf(at_boundary, edge)
    assert eve_edge.stdev == 0.0

    with pytest.raises(ValueError):
        estimate_eve_cdf(make_bundle(), edge)  # no residuals yet


# ------------------------------------------------------------- sup distance

def test_ks_distance_examples():
    assert ks_distance(ndtr, EmpiricalCdf(points=(0.0,))) == pytest.approx(0.5)
    two = EmpiricalCdf(points=(-1.0, 1.0))
    assert ks_distance(ndtr, two) == pytest.approx(0.5 - ndtr(-1.0))
    # a step CDF against itself
    assert ks_distance(two, two) == 0.0


def test_ks_coverage_at_recommended_sample_size():
    # frequency of D <= quantile/sqrt(l) must reach 1 - eps - 0.005;
    # eps = 0.05 keeps the check statistically meaningful
    eps = 0.05
    l = 10_000
    bound = kolmogorov_quantile(1.0 - eps) / math.sqrt(l)
    rng = np.random.default_rng(2024)
    hits = 0
    trials = 2000
    for _ in range(trials):
        pts = np.sort(rng.standard_normal(l))
        d = ks_distance(ndtr, EmpiricalCdf(points=tuple(pts)))
        if d <= bound:
            hits += 1
    assert hits / trials >= 1.0 - eps - 0.005


def test_convolution_is_a_sup_contraction():
    # smoothing two step CDFs cannot increase their sup distance
    rng = np.random.default_rng(8)
    grid = np.linspace(-8.0, 8.0, 4001)

    def mixture_cdf(f, stdev):  # step CDF convolved with N(0, stdev^2)
        return ndtr((grid[:, None] - np.asarray(f.points)) / stdev).mean(axis=1)

    for _ in range(20):
        f2 = EmpiricalCdf(points=tuple(np.sort(rng.standard_normal(40))))
        f3 = EmpiricalCdf(points=tuple(np.sort(rng.standard_normal(60) * 1.5)))
        raw = max(
            float(np.max(np.abs(np.asarray(f2(p)) - np.asarray(f3(p)))))
            for p in (np.asarray(f2.points), np.asarray(f3.points))
        )
        for p in (np.asarray(f2.points), np.asarray(f3.points)):
            raw = max(raw, float(np.max(np.abs(f2.eval_left(p) - f3.eval_left(p)))))
        stdev = float(rng.uniform(0.1, 2.0))
        smoothed = float(np.max(np.abs(mixture_cdf(f2, stdev) - mixture_cdf(f3, stdev))))
        assert smoothed <= raw + 1e-9


def test_ks_error_bound_formula():
    bundle = make_bundle()
    got = ks_error_bound(bundle)
    want = (
        math.sqrt(7.2) * two_sided_z(EPS)
        / (math.sqrt(2 * math.pi * math.e) * math.sqrt(2.0) * math.sqrt(500_000))
    ) + kolmogorov_quantile(1.0 - EPS) / math.sqrt(500_000)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(5.88846685e-3, abs=1e-8)  # frozen plug-in oracle
    # doubling l shrinks both terms by sqrt(2)
    assert ks_error_bound(make_bundle(l=1_000_000)) == pytest.approx(
        want / math.sqrt(2.0), rel=1e-9
    )
    with pytest.raises(ValueError):
        ks_error_bound(make_bundle(c_hat=0.0))


def test_ks_error_bound_uses_residual_count_when_present():
    with_res = make_bundle(residuals=tuple(np.linspace(-1, 1, 2000)))
    got = ks_error_bound(with_res)
    first = (
        math.sqrt(7.2) * two_sided_z(EPS)
        / (math.sqrt(2 * math.pi * math.e) * math.sqrt(2.0) * math.sqrt(500_000))
    )
    second = kolmogorov_quantile(1.0 - EPS) / math.sqrt(2000)
    assert got == pytest.approx(first + second, rel=1e-12)


def test_gaussian_sup_distance():
    assert gaussian_sup_distance(1.0) == 0.0
    assert gaussian_sup_distance(1.01) == pytest.approx(0.002420, abs=2e-5)
    assert gaussian_sup_distance(1.01) == pytest.approx(0.01 / math.sqrt(2 * math.pi * math.e), rel=0.01)
    # brute-force grid oracle at a = 0.5
    xs = np.arange(-10.0, 10.0, 1e-4)
    brute = float(np.max(np.abs(ndtr(xs) - ndtr(xs / 0.5))))
    assert gaussian_sup_distance(0.5) == pytest.approx(brute, abs=1e-6)
    assert gaussian_sup_distance(0.5) == pytest.approx(0.16133728, abs=1e-7)
    # symmetric in a <-> 1/a: sup |Phi(x) - Phi(x/a)| under x -> x/a
    assert gaussian_sup_distance(2.0) == pytest.approx(gaussian_sup_distance(0.5), rel=1e-9)
    with pytest.raises(ValueError):
        gaussian_sup_distance(-1.0)


def test_confidence_intervals_and_underline(reference_params):
    # the interval multiplier behind the reference confidence numbers
    assert two_sided_z(EPS) == pytest.approx(4.06, abs=0.01)
    assert two_sided_z(EPS) == pytest.approx(4.0556269811, abs=1e-8)
    assert two_sided_z(EPS) == ndtri(1.0 - EPS / 2.0)
    with pytest.raises(ValueError):
        two_sided_z(1.0)
    bundle = make_bundle()
    ivals = bundle.confidence_intervals()
    assert set(ivals) == {"mean", "variance", "covariance"}
    lo, hi = ivals["covariance"]
    assert lo < bundle.c_hat < hi
    assert bundle.underline_c() == pytest.approx(lo)
    # underline shrinks toward zero as epsilon shrinks
    assert (make_bundle(epsilon=1e-9).underline_c()
            < make_bundle(epsilon=1e-3).underline_c() < bundle.c_hat)


def test_underline_c_shrinks_the_covariance_magnitude():
    # a negative gain carries the same correlation as a positive one
    for eps in (EPS, 1e-3, 1e-9):
        assert (make_bundle(c_hat=-math.sqrt(2.0), epsilon=eps).underline_c()
                == make_bundle(epsilon=eps).underline_c())
    # inside the confidence radius nothing is certified, whatever the sign
    assert make_bundle(c_hat=1e-3).underline_c() < 0
    assert make_bundle(c_hat=-1e-3).underline_c() == make_bundle(c_hat=1e-3).underline_c()
