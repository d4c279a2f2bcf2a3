"""End-to-end key generation: sampling, estimation, reconciliation, hashing.

One run consumes n + 2l channel rounds, which `run_protocol` samples and
`distill` turns into a key. A public sampling seed splits them into two
disjoint estimation halves and the distillation block; moment and residual
estimates gate the run, size the sacrifice, and parameterize both the decoder
and the security certificates. Everything Bob publishes lands in the
Transcript, which is sufficient for Alice to replay her side bit for bit.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .estimation import (
    EmpiricalCdf,
    EstimateBundle,
    estimate_eve_cdf,
    estimate_moments,
    residuals,
)
from .gaussmodel import ChannelParams, NoiseSpec, beats_listener, sample_rounds
from .hashing import BitString, ToeplitzSeed, auth_failure_prob, toeplitz_hash, verification_tag
from .reconciliation import LinearCode, SoftChannel, alice_decode, load_alist, reconcile
from .secbounds import (
    MODIFIED_MUTUAL_INFO,
    VARIATIONAL_DISTANCE,
    ExponentWithPadding,
    SecurityCertificate,
    build_certified_exponent,
    minimize_exponent,
    mutual_info_ab,
    sacrifice_length,
)

__all__ = [
    "ProtocolConfig",
    "Transcript",
    "ProtocolOutcome",
    "STATUS_SUCCESS",
    "STATUS_VERIFICATION_FAILED",
    "STATUS_ABORTED",
    "post_selection_gate",
    "certify",
    "distill",
    "run_protocol",
    "replay_alice",
]

STATUS_SUCCESS = "success"
STATUS_VERIFICATION_FAILED = "verification-failed"
STATUS_ABORTED = "aborted"

_SEED_BOUND = 2**63
_HEX_DIGITS = frozenset(string.hexdigits)
_PARSE = {  # a Transcript field's JSON value, by its annotation
    "int": int,
    "float": float,
    "str": str,
    "tuple[float, ...]": lambda xs: tuple(float(x) for x in xs),
    "tuple[str, ...]": lambda xs: tuple(str(x) for x in xs),
}


@dataclass(frozen=True)
class ProtocolConfig:
    """Static run parameters; channel parameters live in ChannelParams."""

    n: int  # distillation rounds, a multiple of the code length
    l: int  # rounds per estimation half
    epsilon: float  # per-estimate confidence parameter
    security_target_log2: float  # distance-bound target, log2
    m2: int  # verification tag bits, removed from the key
    code_path: str
    m1_override: int | None = None  # fixed sacrifice, skips the search
    k_auth: int = 0  # authentication key bits per message, 0 = pre-shared trust

    def __post_init__(self) -> None:
        if self.n < 1 or self.l < 2:
            raise ValueError("need n >= 1 and l >= 2")
        if not (0 < self.epsilon < 0.5):
            raise ValueError("epsilon must lie in (0, 1/2)")
        if self.m2 < 0:
            raise ValueError("tag length must be nonnegative")
        if self.m1_override is not None and self.m1_override < 0:
            raise ValueError("sacrifice override must be nonnegative")
        if self.k_auth < 0:
            raise ValueError("authentication key length must be nonnegative")


@dataclass(frozen=True)
class Transcript:
    """Everything that crossed the public channel, in order.

    The estimation-round values are public by construction, so the sorted
    residual list rides along; it is what Alice needs to rebuild the decoder
    and the certificates without Bob's raw samples.
    """

    sampling_seed: int
    e_hat: float
    v_hat: float
    c_hat: float
    v_ab_hat: float
    residuals: tuple[float, ...] = field(repr=False)
    coset_hex: tuple[str, ...] = field(repr=False)
    m1: int
    m2: int
    pa_seed: int
    verify_seed: int
    bob_tag_hex: str
    alice_tag_hex: str

    @property
    def message_count(self) -> int:
        # seeds, two estimate batches, tag exchange, one coset word per block
        return 6 + len(self.coset_hex)

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["residuals"], out["coset_hex"] = list(self.residuals), list(self.coset_hex)
        return out

    @staticmethod
    def from_json_dict(data: dict) -> "Transcript":
        """Parse a transcript, rejecting values no run publishes."""
        transcript = Transcript(
            **{f.name: _PARSE[f.type](data[f.name]) for f in fields(Transcript)}
        )
        res = np.asarray(transcript.residuals)
        if res.size == 0 or not np.isfinite(res).all() or np.any(res[1:] < res[:-1]):
            raise ValueError("transcript residuals must be finite and sorted")
        if transcript.m1 < 0 or transcript.m2 < 0:
            raise ValueError("transcript m1 and m2 must be nonnegative")
        words = transcript.coset_hex + (transcript.bob_tag_hex, transcript.alice_tag_hex)
        if not all(set(w) <= _HEX_DIGITS for w in words):
            raise ValueError("transcript coset words and tags must be hex strings")
        tag_digits = (transcript.m2 + 3) // 4
        if {len(transcript.bob_tag_hex), len(transcript.alice_tag_hex)} != {tag_digits}:
            raise ValueError(f"transcript tags must have (m2 + 3) // 4 = {tag_digits} hex digits")
        if len({len(w) for w in transcript.coset_hex}) > 1:
            raise ValueError("transcript coset words must all have one length")
        return transcript


@dataclass(frozen=True)
class ProtocolOutcome:
    status: str
    abort_reason: str | None = None
    bob_key: BitString | None = None
    alice_key: BitString | None = None
    certificates: tuple[SecurityCertificate, ...] = ()
    transcript: Transcript | None = None
    mutual_info_estimate: float | None = None
    converged_blocks: int = 0
    total_blocks: int = 0

    @property
    def key_length(self) -> int:
        return 0 if self.bob_key is None else self.bob_key.length


def post_selection_gate(bundle: EstimateBundle, params: ChannelParams) -> bool:
    """Keep the run only if the certified correlation clears the geometry.

    The injected-noise variance is inferred by subtracting the explained
    part and the detector variance from the observed variance, floored at
    zero; a zero floor degenerates the test to requiring any covariance
    signal at all.
    """
    v_y_hat = max(bundle.v_hat - bundle.c_hat**2 - params.bob_noise**2, 0.0)
    if v_y_hat == 0.0:
        return bundle.c_hat != 0.0
    uc = max(bundle.underline_c(), 0.0)  # no certified signal when |c_hat| <= radius
    return beats_listener(params, uc * uc, v_y_hat)


def certify(
    phi: ExponentWithPadding,
    bundle: EstimateBundle,
    config: ProtocolConfig,
    m1: int,
    message_count: int = 0,
) -> tuple[SecurityCertificate, SecurityCertificate]:
    """Both leakage certificates at the chosen sacrifice length.

    Each carries phi's padding, the shrunk covariance and the confidence,
    all at the bundle's epsilon. The reported confidence composes the two
    estimation-interval failures; with authentication enabled the
    per-message forgery bound joins in.
    """
    confidence = 1.0 - 2.0 * bundle.epsilon
    if config.k_auth > 0 and message_count > 0:
        confidence -= auth_failure_prob(message_count, config.k_auth)
    extra = dict(padding=phi.padding, shrunk_param=bundle.underline_c(),
                 confidence=max(confidence, 0.0))
    dist = replace(minimize_exponent(phi, config.n, m1, VARIATIONAL_DISTANCE), **extra)
    info = replace(minimize_exponent(phi, config.n, m1, MODIFIED_MUTUAL_INFO), **extra)
    return dist, info


def _abort(reason: str, **extra) -> ProtocolOutcome:
    return ProtocolOutcome(status=STATUS_ABORTED, abort_reason=reason, **extra)


def _concat_bits(blocks) -> BitString:
    return BitString.from_bits(np.concatenate([b.to_bits() for b in blocks]))


def _split(sampling_seed: int, total: int, l: int):
    """The public split of the rounds: two estimation halves, then distillation."""
    perm = np.random.default_rng(sampling_seed).permutation(total)
    return perm[:l], perm[l : 2 * l], perm[2 * l :]


def _alice_side(
    code: LinearCode, symbols: np.ndarray, shifts, chan: SoftChannel, pa: ToeplitzSeed
) -> tuple[list[BitString], BitString]:
    """Alice's blocks, each decoded against its coset word, and their hash.

    The run and the replay both take Alice's side through here.
    """
    blocks = [
        alice_decode(code, block, shift, chan)
        for block, shift in zip(symbols.reshape(len(shifts), code.n_code), shifts)
    ]
    return blocks, toeplitz_hash(pa, _concat_bits(blocks))


def run_protocol(
    params: ChannelParams,
    noise: NoiseSpec,
    config: ProtocolConfig,
    rng: np.random.Generator,
    code: LinearCode | None = None,
) -> ProtocolOutcome:
    """One full protocol run against a simulated channel: sample, then distill.

    A preloaded code skips the alist parse when many runs share one.
    """
    if code is None:
        code = load_alist(config.code_path)
    sampling_seed = int(rng.integers(_SEED_BOUND))
    alice, bob, _eve, _injected = sample_rounds(params, noise, rng, config.n + 2 * config.l)
    return distill(alice, bob, params, config, sampling_seed, rng, code)


def distill(
    alice: np.ndarray,
    bob: np.ndarray,
    params: ChannelParams,
    config: ProtocolConfig,
    sampling_seed: int,
    rng: np.random.Generator,
    code: LinearCode,
) -> ProtocolOutcome:
    """The protocol on given rounds: both parties' n + 2l symbols.

    `sampling_seed` drives the public split of the rounds, and `rng` draws
    the privacy-amplification seed and then the verification seed. Rounds
    of the wrong length or with a non-finite value raise ValueError.
    """
    total = config.n + 2 * config.l
    alice = np.asarray(alice, dtype=float)
    bob = np.asarray(bob, dtype=float)
    for party, rounds in (("Alice", alice), ("Bob", bob)):
        if rounds.shape != (total,) or not np.isfinite(rounds).all():
            raise ValueError(f"{party}'s rounds must be n + 2l = {total} finite values")
    if config.n % code.n_code != 0:
        return _abort("config n is not a multiple of the code length")
    num_blocks = config.n // code.n_code
    dim_total = num_blocks * code.dim

    est1, est2, block = _split(sampling_seed, total, config.l)
    bundle = estimate_moments(
        np.column_stack([alice[est1], bob[est1]]), config.epsilon
    )
    bundle = residuals(np.column_stack([alice[est2], bob[est2]]), bundle)

    if not post_selection_gate(bundle, params):
        return _abort("post-selection gate rejected the estimated geometry")
    try:
        residual_cdf = EmpiricalCdf(points=bundle.residuals)
        mi_estimate = mutual_info_ab(bundle, residual_cdf)
    except ValueError as exc:
        return _abort(f"degenerate estimates: {exc}")
    if code.rate > mi_estimate:
        return _abort(
            f"code rate {code.rate:.4f} above estimated channel information "
            f"{mi_estimate:.4f}",
            mutual_info_estimate=mi_estimate,
        )

    eve = estimate_eve_cdf(bundle, params)
    try:
        phi = build_certified_exponent(bundle, eve, params)
    except ValueError as exc:
        return _abort(str(exc), mutual_info_estimate=mi_estimate)

    if config.m1_override is not None:
        m1 = config.m1_override
        if m1 > config.n:
            return _abort("sacrifice override exceeds the distillation length")
    else:
        try:
            m1 = sacrifice_length(phi, config.n, config.security_target_log2)
        except ValueError as exc:
            return _abort(str(exc), mutual_info_estimate=mi_estimate)
    if dim_total - m1 - config.m2 <= 0:
        relation = "equals" if m1 + config.m2 == dim_total else "exceeds"
        return _abort(
            f"no key left: sacrifice {m1} plus tag {config.m2} "
            f"{relation} code dimension {dim_total}",
            mutual_info_estimate=mi_estimate,
        )

    bob_bits = (bob[block] < bundle.e_hat).astype(np.uint8)  # B >= e_hat -> 0
    bob_blocks, shifts = zip(*(
        reconcile(code, BitString.from_bits(bits))
        for bits in bob_bits.reshape(num_blocks, code.n_code)
    ))

    n2 = dim_total - m1
    pa_seed = int(rng.integers(_SEED_BOUND))
    pa = ToeplitzSeed.random(np.random.default_rng(pa_seed), config.n, n2)
    bob_key = toeplitz_hash(pa, _concat_bits(bob_blocks))
    chan = SoftChannel.from_cdf(bundle.c_hat, residual_cdf)
    alice_blocks, alice_key = _alice_side(code, alice[block], shifts, chan, pa)
    converged = sum(a == b for a, b in zip(alice_blocks, bob_blocks))

    verify_seed = int(rng.integers(_SEED_BOUND))
    if config.m2 > 0:
        vseed = ToeplitzSeed.random(np.random.default_rng(verify_seed), n2, config.m2)
        bob_tag = verification_tag(bob_key, vseed)
        alice_tag = verification_tag(alice_key, vseed)
    else:
        bob_tag = alice_tag = BitString.zeros(0)  # verification disabled

    transcript = Transcript(
        sampling_seed=sampling_seed,
        e_hat=bundle.e_hat,
        v_hat=bundle.v_hat,
        c_hat=bundle.c_hat,
        v_ab_hat=bundle.v_ab_hat,
        residuals=bundle.residuals,
        coset_hex=tuple(shift.to_hex() for shift in shifts),
        m1=m1,
        m2=config.m2,
        pa_seed=pa_seed,
        verify_seed=verify_seed,
        bob_tag_hex=bob_tag.to_hex(),
        alice_tag_hex=alice_tag.to_hex(),
    )
    certificates = certify(phi, bundle, config, m1, transcript.message_count)

    if bob_tag != alice_tag:
        return ProtocolOutcome(
            status=STATUS_VERIFICATION_FAILED,
            certificates=certificates,
            transcript=transcript,
            mutual_info_estimate=mi_estimate,
            converged_blocks=converged,
            total_blocks=num_blocks,
        )

    keep = n2 - config.m2  # tag bits are burned
    bob_final = BitString.from_bits(bob_key.to_bits()[:keep])
    alice_final = BitString.from_bits(alice_key.to_bits()[:keep])
    return ProtocolOutcome(
        status=STATUS_SUCCESS,
        bob_key=bob_final,
        alice_key=alice_final,
        certificates=certificates,
        transcript=transcript,
        mutual_info_estimate=mi_estimate,
        converged_blocks=converged,
        total_blocks=num_blocks,
    )


def replay_alice(
    alice_symbols: np.ndarray, transcript: Transcript, code: LinearCode
) -> BitString:
    """Alice's side recomputed from her raw symbols plus the transcript.

    Returns the final key after tag removal; byte-identical to the run's
    alice_key whenever the same transcript and symbols go in.
    """
    symbols = np.asarray(alice_symbols, dtype=float)
    l = len(transcript.residuals)
    total = symbols.size
    n = total - 2 * l
    if n <= 0 or n % code.n_code != 0:
        raise ValueError("symbol record does not match the transcript")
    if not np.isfinite(symbols).all():
        raise ValueError("symbol record holds a non-finite value")
    num_blocks = n // code.n_code
    if len(transcript.coset_hex) != num_blocks:
        raise ValueError(
            f"transcript carries {len(transcript.coset_hex)} coset words "
            f"for {num_blocks} blocks"
        )
    if transcript.m1 + transcript.m2 >= num_blocks * code.dim:
        raise ValueError("transcript sacrifice plus tag leaves no key in the code dimension")

    _, _, block = _split(transcript.sampling_seed, total, l)
    shifts = [BitString.from_hex(word, code.n_code) for word in transcript.coset_hex]
    chan = SoftChannel.from_cdf(transcript.c_hat, EmpiricalCdf(points=transcript.residuals))
    n2 = num_blocks * code.dim - transcript.m1
    pa = ToeplitzSeed.random(np.random.default_rng(transcript.pa_seed), n, n2)
    _, key = _alice_side(code, symbols[block], shifts, chan, pa)
    return BitString.from_bits(key.to_bits()[: n2 - transcript.m2])
