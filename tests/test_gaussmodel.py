import math

import numpy as np
import pytest

from gausskey.gaussmodel import (
    ChannelParams,
    NoiseSpec,
    advantage_condition,
    condense_eve_view,
    sample_rounds,
    squared_correlations,
)


class StubRng:
    """Replays fixed values for standard_normal; enough for sample_rounds."""

    def __init__(self, values):
        self.values = list(values)

    def standard_normal(self, size):
        out = np.array([self.values.pop(0) for _ in range(size)], dtype=float)
        return out


def test_sample_round_is_the_documented_affine_combination():
    params = ChannelParams(
        bob_gain=1.5, bob_noise=0.5, bob_offset=0.25, eve_gain=0.8, eve_noise=2.0
    )
    # draw order: symbol, Bob detector, Eve detector, injected
    rng = StubRng([1.0, -2.0, 0.5, 3.0])
    noise = NoiseSpec.gaussian(4.0)
    a, b, e, y = sample_rounds(params, noise, rng, 1)
    assert a[0] == 1.0
    assert y[0] == 3.0 * 2.0  # stdev scales the unit draw
    assert b[0] == pytest.approx(1.5 * 1.0 + 6.0 + 0.5 * (-2.0) + 0.25)
    assert e[0] == pytest.approx(0.8 * 1.0 + 2.0 * 0.5)


def test_bob_variance_at_reference_point(reference_params):
    rng = np.random.default_rng(5)
    _, b, _, _ = sample_rounds(reference_params, NoiseSpec.gaussian(0.2), rng, 400_000)
    # 2 + 0.2 + 1 = 3.2 detector units
    assert np.var(b) == pytest.approx(3.2, abs=0.02)


def test_condensed_eve_view_matches_conditional_moments(reference_params):
    """Bin Bob's samples on the condensed scalar; check mean and variance.

    The claim: given the scalar, Bob's observation is Gaussian with mean
    scalar + offset and a fixed variance independent of the scalar.
    """
    params = reference_params
    rng = np.random.default_rng(42)
    count = 2_000_000
    a, b, e, y = sample_rounds(params, NoiseSpec.gaussian(0.2), rng, count)
    reduced_value = (
        params.bob_gain * params.eve_gain / (params.eve_gain**2 + params.eve_noise**2)
    ) * e + y
    cond = condense_eve_view(params, 0.0, 0.0)
    # 2 * 1/3 + 1 = 5/3 at the reference point
    assert cond.cond_variance == pytest.approx(5.0 / 3.0, abs=1e-9)

    # the residual against the conditional mean is variance 5/3 in every
    # bin of the conditioning scalar, with mean zero
    residual = b - reduced_value
    edges = np.quantile(reduced_value, np.linspace(0.02, 0.98, 25))
    idx = np.digitize(reduced_value, edges)
    for k in range(1, 24):
        sel = idx == k
        n_k = int(sel.sum())
        if n_k < 20_000:
            continue
        se_mean = math.sqrt(cond.cond_variance / n_k)
        se_var = cond.cond_variance * math.sqrt(2.0 / n_k)
        assert residual[sel].mean() == pytest.approx(0.0, abs=5 * se_mean)
        assert residual[sel].var() == pytest.approx(cond.cond_variance, abs=5 * se_var)


def test_condensed_view_carries_all_of_eves_correlation(reference_params):
    # rho^2 of the condensed scalar equals rho^2 of the best linear
    # combination of (e, y), draw by draw
    params = reference_params
    rng = np.random.default_rng(9)
    a, b, e, y = sample_rounds(params, NoiseSpec.gaussian(0.2), rng, 500_000)
    _, rho_cond, _ = squared_correlations(params, 0.2)
    value = (
        params.bob_gain * params.eve_gain / (params.eve_gain**2 + params.eve_noise**2)
    ) * e + y
    emp = np.corrcoef(value, b)[0, 1] ** 2
    assert emp == pytest.approx(rho_cond, abs=0.005)
    # any other linear combination does no better
    best = 0.0
    for w in np.linspace(-2, 2, 9):
        best = max(best, np.corrcoef(e + w * y, b)[0, 1] ** 2)
    assert best <= rho_cond + 0.005


def test_squared_correlations_reference_values(reference_params):
    rho_a, rho_cond, rho_inf = squared_correlations(reference_params, 0.2)
    assert rho_a == pytest.approx(2.0 / 3.2)
    assert rho_cond == pytest.approx((4.0 / 3.0 + 0.2) / 3.2)
    assert rho_inf == pytest.approx((0.2 + 1.0) / 3.2)
    assert all(0.0 <= r <= 1.0 for r in (rho_a, rho_cond, rho_inf))


def test_advantage_condition_threshold():
    # exact-float gains so the strict inequality lands exactly on 2
    params = ChannelParams(
        bob_gain=2.0, bob_noise=1.0, bob_offset=0.0, eve_gain=1.0, eve_noise=1.0
    )
    # threshold: a_B^2 / v_Y > a_E^2/b_E^2 + 1 = 2, i.e. v_Y < 2
    assert advantage_condition(params, 1.9)
    assert not advantage_condition(params, 2.0)  # equality is not an advantage
    assert not advantage_condition(params, 2.5)
    assert advantage_condition(params, 0.0)  # infinite ratio convention


def test_advantage_matches_correlation_ordering(reference_params):
    # the threshold form is algebraically the statement rho_a > rho_cond
    for v_y in (0.05, 0.3, 0.8, 0.999, 1.0, 1.2, 3.0):
        rho_a, rho_cond, _ = squared_correlations(reference_params, v_y)
        assert advantage_condition(reference_params, v_y) == (rho_a > rho_cond)


def test_noise_spec_variants():
    mix = NoiseSpec.mixture([(0.5, -1.0, 0.5), (0.5, 1.0, 0.5)])
    assert mix.variance == pytest.approx(1.0 + 0.25)
    emp = NoiseSpec.empirical([1.0, 2.0, 3.0, 6.0])
    assert abs(np.mean(emp.values)) < 1e-12  # centered at construction
    rng = np.random.default_rng(3)
    draws = mix.draw(rng, 200_000)
    assert np.var(draws) == pytest.approx(mix.variance, rel=0.02)
    with pytest.raises(ValueError):
        NoiseSpec.mixture([(0.6, 0.0, 1.0), (0.5, 0.0, 1.0)])  # weights exceed 1
    with pytest.raises(ValueError):
        NoiseSpec.mixture([(1.0, 0.5, 1.0)])  # nonzero mean
    with pytest.raises(ValueError):
        NoiseSpec.gaussian(-1.0)


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(bob_gain=1.0, bob_noise=0.0, bob_offset=0.0, eve_gain=1.0, eve_noise=1.0)
    with pytest.raises(ValueError):
        ChannelParams(bob_gain=1.0, bob_noise=1.0, bob_offset=0.0, eve_gain=0.0, eve_noise=1.0)
    with pytest.raises(ValueError):
        ChannelParams(bob_gain=1.0, bob_noise=1.0, bob_offset=0.0, eve_gain=1.0, eve_noise=-2.0)
