"""Wiretap channel model with injected noise known to the eavesdropper.

Per round Alice transmits a standard Gaussian symbol. Bob receives an
attenuated copy plus injected noise plus detector noise; Eve receives her
own attenuated copy plus detector noise and additionally knows the injected
noise value. This module simulates rounds and provides the analytic
reductions that collapse Eve's knowledge into a single scalar, plus the
correlation formulas deciding whether the legitimate channel has an
advantage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ChannelParams",
    "NoiseSpec",
    "EveReduced",
    "sample_rounds",
    "condense_eve_view",
    "listener_geometry",
    "squared_correlations",
    "beats_listener",
    "advantage_condition",
]


@dataclass(frozen=True)
class ChannelParams:
    """Constants of one quasi-static channel realization.

    bob_gain may carry any sign (a global sign flip is absorbed by the
    symmetric symbol distribution). eve_gain is the upper bound over the
    attenuations Eve can realize; simulations may use any true value at or
    below it.
    """

    bob_gain: float
    bob_noise: float  # detector noise stdev, > 0
    bob_offset: float
    eve_gain: float  # > 0, upper bound
    eve_noise: float  # detector noise stdev, > 0

    def __post_init__(self) -> None:
        if not (self.bob_noise > 0):
            raise ValueError("bob_noise must be positive")
        if not (self.eve_noise > 0):
            raise ValueError("eve_noise must be positive")
        if not (self.eve_gain > 0):
            raise ValueError("eve_gain must be positive")


@dataclass(frozen=True)
class NoiseSpec:
    """Distribution of the injected noise; mean is always zero.

    kind is one of "gaussian", "mixture", "empirical". The variance
    property is the exact second moment of the declared distribution, not
    a sample re-estimate: this object is the simulation ground truth.
    """

    kind: str
    gaussian_variance: float = 0.0
    components: tuple[tuple[float, float, float], ...] = ()  # (weight, mean, stdev)
    values: tuple[float, ...] = field(default=(), repr=False)

    @staticmethod
    def gaussian(variance: float) -> "NoiseSpec":
        if variance < 0 or not math.isfinite(variance):
            raise ValueError("variance must be finite and nonnegative")
        return NoiseSpec(kind="gaussian", gaussian_variance=float(variance))

    @staticmethod
    def mixture(components) -> "NoiseSpec":
        comps = tuple((float(w), float(m), float(s)) for w, m, s in components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        wsum = sum(w for w, _, _ in comps)
        if abs(wsum - 1.0) > 1e-9:
            raise ValueError("mixture weights must sum to 1")
        mean = sum(w * m for w, m, _ in comps)
        if abs(mean) > 1e-9:
            raise ValueError("mixture must have overall mean 0")
        if any(w < 0 or s < 0 for w, _, s in comps):
            raise ValueError("weights and stdevs must be nonnegative")
        return NoiseSpec(kind="mixture", components=comps)

    @staticmethod
    def empirical(values) -> "NoiseSpec":
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            raise ValueError("empirical noise needs at least one value")
        if not np.all(np.isfinite(arr)):
            raise ValueError("empirical values must be finite")
        arr = arr - arr.mean()  # centered at construction: mean must be 0
        return NoiseSpec(kind="empirical", values=tuple(arr.tolist()))

    @property
    def variance(self) -> float:
        if self.kind == "gaussian":
            return self.gaussian_variance
        if self.kind == "mixture":
            return sum(w * (m * m + s * s) for w, m, s in self.components)
        return float(np.mean(np.square(self.values)))

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.standard_normal(size) * math.sqrt(self.gaussian_variance)
        if self.kind == "mixture":
            weights = np.array([w for w, _, _ in self.components])
            means = np.array([m for _, m, _ in self.components])
            stdevs = np.array([s for _, _, s in self.components])
            idx = rng.choice(len(self.components), size=size, p=weights)
            return means[idx] + stdevs[idx] * rng.standard_normal(size)
        return rng.choice(np.asarray(self.values), size=size, replace=True)


@dataclass(frozen=True)
class EveReduced:
    """Eve's pair (observation, injected noise) condensed to one scalar.

    Conditioned on value, Bob's observation is Gaussian with mean cond_mean
    and variance cond_variance.
    """

    value: float
    cond_variance: float
    cond_mean: float


def sample_rounds(
    params: ChannelParams, noise: NoiseSpec, rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw count independent rounds; returns (alice, bob, eve, injected).

    Draw order is fixed (symbols, Bob detector, Eve detector, injected) so
    seeded runs are bit-reproducible.
    """
    a = rng.standard_normal(count)
    x1 = rng.standard_normal(count)
    x2 = rng.standard_normal(count)
    y = noise.draw(rng, count)
    b = params.bob_gain * a + y + params.bob_noise * x1 + params.bob_offset
    e = params.eve_gain * a + params.eve_noise * x2
    return a, b, e, y


def condense_eve_view(params: ChannelParams, eve: float, injected: float) -> EveReduced:
    """Collapse Eve's (observation, injected) pair into one scalar.

    The scalar is a sufficient statistic: given it, Bob's observation is
    Gaussian with the returned mean and variance regardless of the rest of
    Eve's view.
    """
    value = (
        params.bob_gain * params.eve_gain / (params.eve_gain**2 + params.eve_noise**2)
    ) * eve + injected
    _, cond_var = listener_geometry(params, params.bob_gain**2)
    return EveReduced(
        value=value, cond_variance=cond_var, cond_mean=value + params.bob_offset
    )


def listener_geometry(params: ChannelParams, c_sq: float) -> tuple[float, float]:
    """Split Bob's signal power c_sq between Eve's condensed view and the rest.

    Returns (excess, cond_variance): the part of c_sq projected onto Eve's
    view, c_sq g^2 / (g^2 + s^2), less Bob's detector variance; and Bob's
    variance given that view, c_sq s^2 / (g^2 + s^2) plus his detector
    variance. A positive excess is the smoothing variance of Eve's CDF.
    """
    g2 = params.eve_gain**2
    s2 = params.eve_noise**2
    excess = c_sq * g2 / (g2 + s2) - params.bob_noise**2
    cond_variance = c_sq * s2 / (g2 + s2) + params.bob_noise**2
    return excess, cond_variance


def squared_correlations(
    params: ChannelParams, injected_variance: float
) -> tuple[float, float, float]:
    """Squared correlations with Bob's observation.

    Returns (alice_sq, eve_condensed_sq, eve_informed_sq): Alice's symbol,
    Eve's condensed scalar, and the stronger variant where Eve is granted
    everything except the attenuated symbol. All lie in [0, 1].
    """
    if injected_variance < 0:
        raise ValueError("injected_variance must be nonnegative")
    ab2 = params.bob_gain**2
    v_b = ab2 + injected_variance + params.bob_noise**2
    if v_b <= 0:
        raise ValueError("degenerate channel: Bob's variance is zero")
    rho_a = ab2 / v_b
    _, cond_var = listener_geometry(params, ab2)
    rho_cond = (v_b - cond_var) / v_b
    rho_inf = (injected_variance + params.bob_noise**2) / v_b
    return rho_a, rho_cond, rho_inf


def beats_listener(params: ChannelParams, signal_sq: float, noise_variance: float) -> bool:
    """The advantage inequality: signal_sq / noise_variance > g^2/s^2 + 1.

    Bob's signal power over the injected-noise variance must beat the
    listener's gain-to-noise ratio plus one. noise_variance must be
    positive; each caller settles its own zero case.
    """
    return signal_sq / noise_variance > params.eve_gain**2 / params.eve_noise**2 + 1


def advantage_condition(params: ChannelParams, injected_variance: float) -> bool:
    """True iff Alice-Bob correlation beats Eve's condensed view.

    Zero injected variance counts as an advantage whenever Bob's gain is
    nonzero (the ratio is taken as infinite).
    """
    if injected_variance < 0:
        raise ValueError("injected_variance must be nonnegative")
    ab2 = params.bob_gain**2
    if injected_variance == 0:
        return ab2 != 0
    return beats_listener(params, ab2, injected_variance)

