"""Acceptance checks, one test per criterion.

Each test prints a single verdict line with the measured values and the
pinned tolerance, then asserts.

Criterion 3 fails: the fixed-sacrifice bound pins -867 +- 3%, and these
formulas give -679.67 with the minimizing order parameter inside its box.
No docstring derives -867 and no single documented variant of the padding
reproduces it (see the test's comment), so the assertion is left to fail
until a fault in the program is shown, rather than being weakened to match.

Criterion 6 checks seeded end-to-end runs in three parts. The success
half runs at the weak-eve geometry, where the method yields keys at this
block length. The reference half keeps the reference geometry, where
backward reconciliation publishes a syndrome larger than the listener's
uncertainty n H(B|E), so the key budget is negative before any finite-size
term; it asserts that premise and that every run stops at the key budget.
Keys are not asked for there because no sound implementation of the
method can give them: at n=2^14 and l=10^4 the required sacrifice implies
a code rate above I(A;B). The fault-injection half checks the
verification tag.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import norm

from gausskey.estimation import (
    EmpiricalCdf,
    gaussian_sup_distance,
    kolmogorov_quantile,
    ks_distance,
    two_sided_z,
)
from gausskey.estimation import GaussianMixture
from gausskey.gaussmodel import NoiseSpec, condense_eve_view, sample_rounds
from gausskey.hashing import BitString, ToeplitzSeed, collision_probability, verification_tag
from gausskey.protocol import (
    STATUS_ABORTED,
    STATUS_SUCCESS,
    ProtocolConfig,
    run_protocol,
)
from gausskey.secbounds import (
    VARIATIONAL_DISTANCE,
    AnalyticGaussian,
    key_rate_symmetric,
    minimize_exponent,
    reference_exponent_evaluator,
    sign_entropy,
    sign_exponent,
)

EPS = 5e-5


def verdict(capsys, name, ok, detail, elapsed):
    with capsys.disabled():
        line = "PASS" if ok else "FAIL"
        print(f"\nacceptance {name}: {line} {detail} [{elapsed:.2f}s]")


def test_01_key_rate_point(capsys):
    start = time.perf_counter()
    rate, mi_ab, mi_eb = key_rate_symmetric(0.2)
    elapsed = time.perf_counter() - start
    ok = (abs(rate - 0.108) <= 1e-3 and abs(mi_ab - 0.372) <= 1e-3
          and abs(mi_eb - 0.264) <= 1e-3 and elapsed < 1.0)
    verdict(capsys, "1 key-rate point", ok,
            f"rate={rate:.6f} (0.108+-0.001) mi_ab={mi_ab:.6f} (0.372+-0.001) "
            f"mi_eb={mi_eb:.6f} (0.264+-0.001)", elapsed)
    assert rate == pytest.approx(0.108, abs=1e-3)
    assert mi_ab == pytest.approx(0.372, abs=1e-3)
    assert mi_eb == pytest.approx(0.264, abs=1e-3)
    assert elapsed < 1.0


def test_02_rate_zero_boundary(capsys):
    start = time.perf_counter()
    rate = key_rate_symmetric(2.0 / 3.0)[0]
    elapsed = time.perf_counter() - start
    ok = abs(rate) <= 1e-3 and elapsed < 1.0
    verdict(capsys, "2 rate-zero boundary", ok,
            f"|rate(2/3)|={abs(rate):.2e} (<=0.001)", elapsed)
    assert abs(rate) <= 1e-3
    assert elapsed < 1.0


def test_03_leaked_bound_reproduction(capsys, reference_params):
    # million-round block, three hundred thousand sacrificed, analytic
    # estimate substitution; the reference minimum is -867 at s near 0.07
    start = time.perf_counter()
    phi = reference_exponent_evaluator(reference_params, 0.2, l=500_000,
                                       epsilon=EPS)
    cert = minimize_exponent(phi, 1_000_000, 300_000, VARIATIONAL_DISTANCE)
    elapsed = time.perf_counter() - start
    unpadded = minimize_exponent(phi.raw, 1_000_000, 300_000,
                                 VARIATIONAL_DISTANCE).log2_bound
    pad_cdf = kolmogorov_quantile(1.0 - EPS) / math.sqrt(500_000)
    pad_cov = phi.padding - pad_cdf
    value_ok = abs(cert.log2_bound - (-867.0)) <= 0.03 * 867.0
    s_ok = abs(cert.s_star - 0.07) <= 0.02
    verdict(capsys, "3 leaked-bound reproduction", value_ok and s_ok,
            f"bound={cert.log2_bound:.2f} (-867+-3%) "
            f"s*={cert.s_star:.4f} (0.07+-0.02) unpadded={unpadded:.2f} "
            f"padding={phi.padding:.5f} (cov={pad_cov:.5f} "
            f"cdf={pad_cdf:.5f})", elapsed)
    assert elapsed < 30.0
    assert abs(cert.s_star - 0.07) <= 0.02
    # fails, cause not settled. Measured: the unpadded minimum is -1574;
    # the padding is 0.00589, a covariance term of 0.00263 plus a CDF term
    # of 0.00326. A total padding of 0.00443 (75% of it) would give -867
    # at s*=0.0675, but no single documented variant does: not dropping
    # the factor 2, either term alone, the one-sided z, 2l or l/2 for l,
    # the unshrunk v, nor the centred product variance 5.2.
    assert abs(cert.log2_bound - (-867.0)) <= 0.03 * 867.0


def test_04_quantile_constants(capsys):
    start = time.perf_counter()
    z = two_sided_z(EPS)
    q = kolmogorov_quantile(1.0 - EPS)
    elapsed = time.perf_counter() - start
    ok = abs(z - 4.06) <= 0.01 and abs(q - 2.30) <= 0.005 and elapsed < 1.0
    verdict(capsys, "4 quantile constants", ok,
            f"z={z:.4f} (4.06+-0.01) ks_q={q:.4f} (2.30+-0.005)", elapsed)
    assert z == pytest.approx(4.06, abs=0.01)
    assert q == pytest.approx(2.30, abs=0.005)
    assert elapsed < 1.0


def test_05_property_suite(capsys, reference_params):
    start = time.perf_counter()
    results = []

    # exponent convexity on a grid
    d = AnalyticGaussian(1.2)
    vals = np.array([sign_exponent(d, 5.0 / 3.0, t)
                     for t in np.linspace(0.0, 0.9, 46)])
    convex_ok = bool((np.diff(vals, 2) >= -1e-10).all())
    results.append(("convex", convex_ok, ""))

    # slope at the origin equals the negated entropy
    worst_slope = 0.0
    for w, v in ((1.0, 1.0), (1.2, 5.0 / 3.0), (0.5, 3.0)):
        g = AnalyticGaussian(w)
        h = 1e-5
        slope = (4 * sign_exponent(g, v, h) - sign_exponent(g, v, 2 * h)) / (2 * h)
        worst_slope = max(worst_slope, abs(-slope - sign_entropy(g, v)))
    results.append(("slope", worst_slope <= 1e-4, f"err={worst_slope:.1e}"))

    # two-route exponent identity against adaptive quadrature
    def forward(w, v, t):
        qq = 1.0 / (1.0 - t)

        def f(x):
            px = norm.pdf(x, scale=math.sqrt(w))
            flip = ndtr(x / math.sqrt(v))
            return (0.5 * (2 * px * flip) ** qq
                    + 0.5 * (2 * px * (1 - flip)) ** qq) ** (1.0 - t)

        val, _ = quad(f, -np.inf, np.inf, epsabs=1e-13, epsrel=1e-13, limit=400)
        return -math.log2(val)

    worst_id = 0.0
    for w, v, t in ((1.0, 1.0, 0.1), (1.2, 5.0 / 3.0, 0.25), (0.5, 2.0, 0.4)):
        resid = abs(sign_exponent(AnalyticGaussian(w), v, t) + forward(w, v, t) + t)
        worst_id = max(worst_id, resid)
    results.append(("two-route", worst_id <= 1e-6, f"err={worst_id:.1e}"))

    # condensed-view conditional moments by Monte Carlo, three sigma
    rng = np.random.default_rng(2024)
    count = 2_000_000
    a, b, e, y = sample_rounds(reference_params, NoiseSpec.gaussian(0.2),
                               rng, count)
    reduced = condense_eve_view(reference_params, e, y)
    resid = b - reduced.cond_mean
    want_var = reduced.cond_variance
    z_mean = abs(resid.mean()) / (math.sqrt(want_var / count))
    z_var = abs(resid.var() - want_var) / (want_var * math.sqrt(2.0 / count))
    moments_ok = z_mean <= 3.0 and z_var <= 3.0
    results.append(("moments", moments_ok, f"z=({z_mean:.2f},{z_var:.2f})"))

    # closed-form sup distance between same-mean Gaussians vs a dense grid
    worst_sup = 0.0
    xs = np.linspace(-8.0, 8.0, 2_000_001)
    for aa in (0.5, 1.3):
        brute = float(np.abs(ndtr(xs) - ndtr(xs / aa)).max())
        worst_sup = max(worst_sup, abs(gaussian_sup_distance(aa) - brute))
    results.append(("sup-dist", worst_sup <= 1e-6, f"err={worst_sup:.1e}"))

    # perturbation of the location distribution moves 2^phi by at most
    # 2 (1 - 2^-t) times the CDF sup distance
    rng = np.random.default_rng(7)
    violations = 0
    for _ in range(100):
        k = int(rng.integers(2, 40))
        base = np.sort(rng.normal(size=k))
        pts_p = tuple(base.tolist())
        pts_q = tuple(np.sort(base + rng.normal(scale=0.3, size=k)).tolist())
        v = float(rng.uniform(0.3, 3.0))
        t = float(rng.uniform(0.02, 0.49))
        grid = np.union1d(pts_p, pts_q)
        dist = max(
            np.abs(np.searchsorted(pts_p, grid, side=s) / k
                   - np.searchsorted(pts_q, grid, side=s) / k).max()
            for s in ("left", "right"))
        lhs = abs(2.0 ** sign_exponent(GaussianMixture(pts_p, 0.0), v, t)
                  - 2.0 ** sign_exponent(GaussianMixture(pts_q, 0.0), v, t))
        violations += lhs > 2.0 * (1.0 - 2.0 ** -t) * dist + 1e-12
    results.append(("perturb", violations == 0, f"viol={violations}"))

    # pairwise collision bound, exhaustive over all matrices and pairs
    worst_ratio = 0.0
    for n1 in range(2, 9):
        for n2 in range(1, n1 + 1):
            worst_ratio = max(worst_ratio,
                              collision_probability(n1, n2) * 2.0 ** n2)
    results.append(("universal", worst_ratio <= 1.0, f"ratio={worst_ratio:.3f}"))

    # KS statistic coverage at the quantile threshold
    rng = np.random.default_rng(99)
    eps, l, trials = 0.05, 10_000, 2000
    threshold = kolmogorov_quantile(1.0 - eps) / math.sqrt(l)
    hits = 0
    for _ in range(trials):
        sample = np.sort(rng.standard_normal(l))
        ecdf = EmpiricalCdf(points=tuple(sample.tolist()))
        hits += ks_distance(ndtr, ecdf) <= threshold
    coverage = hits / trials
    results.append(("ks-cov", coverage >= 1.0 - eps - 0.005,
                    f"cov={coverage:.4f}"))

    elapsed = time.perf_counter() - start
    ok = all(r[1] for r in results) and elapsed < 600.0
    detail = " ".join(
        f"{name}={'ok' if good else 'BAD'}{(' ' + note) if note else ''}"
        for name, good, note in results)
    verdict(capsys, "5 property suite", ok, detail, elapsed)
    for name, good, note in results:
        assert good, f"{name} {note}"
    assert elapsed < 600.0


def test_06_end_to_end(capsys, reference_params, weak_eve_params,
                       weak_eve_noise, big_code):
    # 2^14 distillation rounds, rate-1/4 code, 64 tag bits, 2^-40 distance
    # target, one hundred seeded runs at each geometry
    start = time.perf_counter()
    n = 2**14
    config = ProtocolConfig(n=n, l=10_000, epsilon=EPS,
                            security_target_log2=-40.0, m2=64,
                            code_path="unused-preloaded")

    # success half: the weak-eve geometry, where the method yields keys
    successes = 0
    for seed in range(100):
        out = run_protocol(weak_eve_params, weak_eve_noise, config,
                           np.random.default_rng(seed), code=big_code)
        if out.status == STATUS_SUCCESS and out.bob_key == out.alice_key:
            successes += 1

    # reference half: the published syndrome leaks n - dim bits, more than
    # the listener's uncertainty n H(B|E), so the key budget is negative
    # before any finite-size term and every run must stop at it
    leak = n - (n // big_code.n_code) * big_code.dim
    uncertainty = n * (1.0 - key_rate_symmetric(0.2)[2])
    noise = NoiseSpec.gaussian(0.2)
    ref_keys = 0
    budget_aborts = 0
    reasons = {}
    for seed in range(100):
        out = run_protocol(reference_params, noise, config,
                           np.random.default_rng(seed), code=big_code)
        ref_keys += out.key_length > 0
        budget_aborts += (out.status == STATUS_ABORTED
                          and out.key_length == 0
                          and out.abort_reason.startswith("no key left"))
        key = (out.abort_reason or out.status).split(":")[0]
        reasons[key] = reasons.get(key, 0) + 1
    dominant = max(reasons.items(), key=lambda kv: kv[1])

    # verification stage against injected faults: any tag match on unequal
    # keys would be an undetected mismatch; the budget is 1000 * 2^-64
    rng = np.random.default_rng(4242)
    undetected = 0
    for _ in range(1000):
        key_a = BitString.random(rng, 200)
        error = np.zeros(200, dtype=np.uint8)
        error[rng.choice(200, size=int(rng.integers(1, 8)), replace=False)] = 1
        key_b = key_a ^ BitString.from_bits(error)
        seed = ToeplitzSeed.random(rng, 200, 64)
        undetected += (verification_tag(key_a, seed)
                       == verification_tag(key_b, seed))

    elapsed = time.perf_counter() - start
    ok = (successes >= 95 and leak > uncertainty and ref_keys == 0
          and budget_aborts == 100 and undetected == 0 and elapsed < 900.0)
    verdict(capsys, "6 end-to-end", ok,
            f"weak-eve successes={successes}/100 (need >=95) "
            f"reference keys={ref_keys}/100 (need 0; "
            f"{dominant[1]} runs stop at '{dominant[0]}', "
            f"leak {leak} > n H(B|E) {uncertainty:.0f}) "
            f"undetected_faults={undetected}/1000 (budget 5.4e-17)", elapsed)
    assert successes >= 95
    assert leak > uncertainty
    assert ref_keys == 0
    assert budget_aborts == 100
    assert undetected == 0
    assert elapsed < 900.0
