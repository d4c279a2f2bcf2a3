import dataclasses
import json
import math
from contextlib import nullcontext
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausskey import protocol
from gausskey.estimation import EstimateBundle, two_sided_z
from gausskey.gaussmodel import ChannelParams, NoiseSpec, sample_rounds
from gausskey.hashing import BitString
from gausskey.protocol import (
    STATUS_ABORTED,
    STATUS_SUCCESS,
    STATUS_VERIFICATION_FAILED,
    ProtocolConfig,
    Transcript,
    distill,
    post_selection_gate,
    replay_alice,
    run_protocol,
)
from gausskey.reconciliation import alice_decode, gallager_code
from gausskey.secbounds import MODIFIED_MUTUAL_INFO, VARIATIONAL_DISTANCE

TARGET = -40.0


def demo_config(**kw):
    base = dict(n=4096, l=10_000, epsilon=5e-5, security_target_log2=TARGET,
                m2=64, code_path="unused-preloaded")
    base.update(kw)
    return ProtocolConfig(**base)


def run_demo(weak_eve_params, weak_eve_noise, small_code, seed, flips=0, **kw):
    """One run at the demo geometry; flips > 0 flips the first `flips` bits
    of each of Alice's reconciled blocks, to exercise verification."""
    with flipped_alice_blocks(flips):
        return run_protocol(
            weak_eve_params, weak_eve_noise, demo_config(**kw),
            np.random.default_rng(seed), code=small_code,
        )


def flipped_alice_blocks(flips):
    """Flip the first `flips` bits of each block Alice decodes, if any."""

    def decode_then_flip(*args):
        bits = alice_decode(*args).to_bits()
        bits[:flips] ^= 1
        return BitString.from_bits(bits)

    return patch.object(protocol, "alice_decode", decode_then_flip) if flips else nullcontext()


# ---------------------------------------------------------------- happy path

def test_run_succeeds_at_demo_geometry(weak_eve_params, weak_eve_noise, small_code):
    out = run_demo(weak_eve_params, weak_eve_noise, small_code, 101)
    assert out.status == STATUS_SUCCESS
    assert out.bob_key == out.alice_key
    assert out.key_length > 0
    dim_total = (4096 // small_code.n_code) * small_code.dim
    assert out.key_length == dim_total - out.transcript.m1 - 64
    assert out.converged_blocks == out.total_blocks == 8
    assert out.mutual_info_estimate > small_code.rate


def test_certificates_meet_target(weak_eve_params, weak_eve_noise, small_code,
                                  monkeypatch):
    built = []
    build = protocol.build_certified_exponent

    def recording_build(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(protocol, "build_certified_exponent", recording_build)
    out = run_demo(weak_eve_params, weak_eve_noise, small_code, 101)
    [phi] = built
    dist, info = out.certificates
    assert dist.criterion == VARIATIONAL_DISTANCE
    assert info.criterion == MODIFIED_MUTUAL_INFO
    assert dist.log2_bound <= TARGET
    assert 0.0 < dist.s_star <= 0.5
    assert 0.0 < info.s_star < 1.0
    assert info.log2_bound < 0.0
    assert dist.m1 == out.transcript.m1
    assert dist.padding > 0.0
    # certify decorates both certificates with the run's own padding
    assert dist.padding == info.padding == phi.padding
    assert dist.shrunk_param == info.shrunk_param > 0.0
    # both interval failures compose into the reported confidence
    assert dist.confidence == pytest.approx(1.0 - 2.0 * 5e-5)


def test_transcript_is_coherent(weak_eve_params, weak_eve_noise, small_code):
    out = run_demo(weak_eve_params, weak_eve_noise, small_code, 101)
    t = out.transcript
    assert len(t.coset_hex) == 8
    assert t.message_count == 6 + 8
    assert t.m2 == 64
    assert len(t.residuals) == 10_000
    assert t.bob_tag_hex == t.alice_tag_hex
    assert len(t.bob_tag_hex) == 64 // 4


def test_runs_are_deterministic_given_seed(weak_eve_params, weak_eve_noise, small_code):
    a = run_demo(weak_eve_params, weak_eve_noise, small_code, 55)
    b = run_demo(weak_eve_params, weak_eve_noise, small_code, 55)
    assert a.status == b.status == STATUS_SUCCESS
    assert a.bob_key == b.bob_key
    assert a.transcript == b.transcript


@pytest.fixture(scope="module")
def cli_batch_inputs():
    # the cli-batch bench workload's code and run seeds at workload seed 0
    rng = np.random.default_rng([3, 0])
    code = gallager_code(512, 3, 4, np.random.default_rng(int(rng.integers(2**63))))
    return code, int(rng.integers(1, 2**40))


@pytest.mark.parametrize("run", [1118, 1237])
def test_cli_batch_runs_where_a_decoder_can_miss_bobs_codeword(
    weak_eve_params, weak_eve_noise, cli_batch_inputs, run
):
    # seeds 260375906700 and 260375906819: on block 1 and block 4 of these
    # runs a layered-schedule BP reaches a zero syndrome on a codeword other
    # than Bob's and the run fails verification; the flooding decoder must
    # return Bob's codeword on every block
    code, seed_base = cli_batch_inputs
    out = run_protocol(weak_eve_params, weak_eve_noise, demo_config(),
                       np.random.default_rng(seed_base + run), code=code)
    assert out.status == STATUS_SUCCESS
    assert out.bob_key == out.alice_key
    assert out.converged_blocks == out.total_blocks == 8


@pytest.fixture(scope="module")
def weak_eve_inputs():
    # the weak-eve-65536 bench workload's code and run seeds at workload seed 0
    rng = np.random.default_rng([1, 0])
    code = gallager_code(4096, 4, 8, np.random.default_rng(int(rng.integers(2**63))))
    return code, int(rng.integers(1, 2**40))


def test_weak_eve_run_with_an_undecodable_block_fails_verification(
    weak_eve_params, weak_eve_noise, weak_eve_inputs
):
    # seed 1045045886274 (run 385): BP does not converge on one of the 16
    # blocks, at 60 iterations or at 500; the tag comparison must catch the
    # frame error and withhold both keys
    code, seed_base = weak_eve_inputs
    out = run_protocol(weak_eve_params, weak_eve_noise, demo_config(n=65536),
                       np.random.default_rng(seed_base + 385), code=code)
    assert out.status == STATUS_VERIFICATION_FAILED
    assert out.bob_key is None
    assert out.converged_blocks == 15 and out.total_blocks == 16


def demo_alice_symbols(params, noise, seed):
    # reproduce the run's sampling: one seed draw precedes the channel use
    rng = np.random.default_rng(seed)
    rng.integers(2**63)
    alice, _bob, _eve, _inj = sample_rounds(params, noise, rng, 4096 + 2 * 10_000)
    return alice


def test_replay_from_transcript_is_bit_exact(weak_eve_params, weak_eve_noise,
                                             small_code):
    out = run_demo(weak_eve_params, weak_eve_noise, small_code, 101)
    alice = demo_alice_symbols(weak_eve_params, weak_eve_noise, 101)
    replayed = replay_alice(alice, out.transcript, small_code)
    assert replayed == out.alice_key


def test_replay_rejects_non_finite_symbols(weak_eve_params, weak_eve_noise,
                                           small_code):
    # the README Library example's run: NaN symbols would decode as LLR
    # +-40 and hash to a key without complaint
    out = run_demo(weak_eve_params, weak_eve_noise, small_code, 7)
    assert out.status == STATUS_SUCCESS
    with pytest.raises(ValueError, match="non-finite"):
        replay_alice(np.full(4096 + 2 * 10_000, np.nan), out.transcript, small_code)
    alice = demo_alice_symbols(weak_eve_params, weak_eve_noise, 7)
    alice[-1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        replay_alice(alice, out.transcript, small_code)


def test_replay_rejects_wrong_record_length(weak_eve_params, weak_eve_noise,
                                            small_code):
    out = run_demo(weak_eve_params, weak_eve_noise, small_code, 101)
    with pytest.raises(ValueError, match="does not match"):
        replay_alice(np.zeros(100), out.transcript, small_code)


def test_replay_rejects_inconsistent_transcripts(weak_eve_params, weak_eve_noise,
                                                 small_code):
    out = run_demo(weak_eve_params, weak_eve_noise, small_code, 101)
    t = out.transcript
    alice = demo_alice_symbols(weak_eve_params, weak_eve_noise, 101)
    blocks = 4096 // small_code.n_code
    assert len(t.coset_hex) == blocks
    for words in (t.coset_hex[:-1], t.coset_hex + t.coset_hex[:1], ()):
        bad = dataclasses.replace(t, coset_hex=words)
        with pytest.raises(ValueError, match="coset words"):
            replay_alice(alice, bad, small_code)
    budget = blocks * small_code.dim
    # spending exactly the whole code dimension leaves no key: rejected too
    for m1, m2 in ((budget - t.m2, t.m2), (budget - t.m2 + 1, t.m2),
                   (budget, 0), (0, budget + 1)):
        bad = dataclasses.replace(t, m1=m1, m2=m2)
        with pytest.raises(ValueError, match="leaves no key"):
            replay_alice(alice, bad, small_code)


# ------------------------------------------------------- the protocol proper

def distill_sampled(params, noise, code, seed, config):
    """run_protocol's steps by hand: the seed draw, the rounds, then distill."""
    rng = np.random.default_rng(seed)
    sampling_seed = int(rng.integers(2**63))
    alice, bob, _eve, _inj = sample_rounds(params, noise, rng, config.n + 2 * config.l)
    return distill(alice, bob, params, config, sampling_seed, rng, code)


@pytest.mark.parametrize("case,status", [("weak-eve", STATUS_SUCCESS),
                                         ("flipped", STATUS_VERIFICATION_FAILED),
                                         ("reference", STATUS_ABORTED)])
def test_distill_on_sampled_rounds_is_the_run(weak_eve_params, weak_eve_noise,
                                              reference_params, small_code, case, status):
    params, noise = weak_eve_params, weak_eve_noise
    if case == "reference":
        params, noise = reference_params, NoiseSpec.gaussian(0.2)
    config = demo_config()
    with flipped_alice_blocks(40 if case == "flipped" else 0):
        run = run_protocol(params, noise, config, np.random.default_rng(101), code=small_code)
        given = distill_sampled(params, noise, small_code, 101, config)
    assert run.status == status
    if case == "reference":
        assert run.abort_reason.startswith("no key left")
    assert given == run


def test_run_and_replay_take_one_alice_path(weak_eve_params, weak_eve_noise,
                                            small_code, monkeypatch):
    calls = []

    def recording(code, symbols, shift, chan):
        calls.append((np.array(symbols).tobytes(), shift))
        return alice_decode(code, symbols, shift, chan)

    monkeypatch.setattr(protocol, "alice_decode", recording)
    out = run_demo(weak_eve_params, weak_eve_noise, small_code, 101)
    run_calls = calls[:]
    calls.clear()
    alice = demo_alice_symbols(weak_eve_params, weak_eve_noise, 101)
    assert replay_alice(alice, out.transcript, small_code) == out.alice_key
    assert len(run_calls) == len(calls) == out.total_blocks == 8
    assert run_calls == calls
    assert [shift.to_hex() for _, shift in calls] == list(out.transcript.coset_hex)


@pytest.mark.parametrize("party", [0, 1])
@pytest.mark.parametrize("bad", ["nan", "inf", "short"])
def test_distill_rejects_bad_rounds(weak_eve_params, small_code, party, bad):
    # a NaN in Bob's distillation block would otherwise become bit 0, and
    # one in Alice's an LLR of +-40
    config = demo_config()
    rounds = [np.ones(4096 + 2 * 10_000), np.ones(4096 + 2 * 10_000)]
    if bad == "short":
        rounds[party] = rounds[party][:-1]
    else:
        rounds[party][-1] = float(bad)
    name = ("Alice", "Bob")[party]
    with pytest.raises(ValueError, match=rf"{name}'s rounds must be n \+ 2l = 24096 finite"):
        distill(*rounds, weak_eve_params, config, 0, np.random.default_rng(0), small_code)


# -------------------------------------------------------------------- aborts

def test_abort_when_listener_geometry_too_strong(weak_eve_noise, small_code):
    strong = ChannelParams(bob_gain=2.0, bob_noise=0.5, bob_offset=0.0,
                           eve_gain=5.0, eve_noise=0.5)
    out = run_protocol(strong, weak_eve_noise, demo_config(),
                       np.random.default_rng(7), code=small_code)
    assert out.status == STATUS_ABORTED
    assert "post-selection gate" in out.abort_reason
    assert out.key_length == 0
    assert out.certificates == ()


def test_abort_when_code_rate_exceeds_channel_information(small_code):
    deaf = ChannelParams(bob_gain=0.5, bob_noise=2.0, bob_offset=0.0,
                         eve_gain=0.1, eve_noise=2.0)
    out = run_protocol(deaf, NoiseSpec.gaussian(0.01), demo_config(),
                       np.random.default_rng(8), code=small_code)
    assert out.status == STATUS_ABORTED
    assert "above estimated channel information" in out.abort_reason
    assert out.mutual_info_estimate < small_code.rate


def test_abort_when_target_unachievable(weak_eve_params, weak_eve_noise, small_code):
    out = run_demo(weak_eve_params, weak_eve_noise, small_code, 9,
                   security_target_log2=-1e9)
    assert out.status == STATUS_ABORTED
    assert "unachievable" in out.abort_reason


def test_abort_when_no_key_left(weak_eve_params, weak_eve_noise, small_code):
    # a budget overspent by one bit, and budgets spent exactly with and
    # without a tag: a zero-bit key aborts as well
    dim_total = (4096 // small_code.n_code) * small_code.dim
    for m1, m2, relation in ((dim_total - 64 + 1, 64, "exceeds"),
                             (dim_total - 64, 64, "equals"),
                             (dim_total, 0, "equals")):
        out = run_demo(weak_eve_params, weak_eve_noise, small_code, 10,
                       m1_override=m1, m2=m2)
        assert out.status == STATUS_ABORTED
        assert out.abort_reason == (
            f"no key left: sacrifice {m1} plus tag {m2} "
            f"{relation} code dimension {dim_total}"
        )


def test_abort_on_block_mismatch(weak_eve_params, weak_eve_noise, small_code):
    out = run_demo(weak_eve_params, weak_eve_noise, small_code, 11, n=4100)
    assert out.status == STATUS_ABORTED
    assert "multiple of the code length" in out.abort_reason


def test_abort_when_override_exceeds_block(weak_eve_params, weak_eve_noise,
                                           small_code):
    out = run_demo(weak_eve_params, weak_eve_noise, small_code, 12,
                   m1_override=4097)
    assert out.status == STATUS_ABORTED
    assert "exceeds the distillation length" in out.abort_reason


# -------------------------------------------------------------- verification

def test_injected_faults_are_caught(weak_eve_params, weak_eve_noise, small_code):
    out = run_demo(weak_eve_params, weak_eve_noise, small_code, 101, flips=40)
    assert out.status == STATUS_VERIFICATION_FAILED
    assert out.bob_key is None and out.alice_key is None
    assert len(out.certificates) == 2  # leakage bounds survive the failure
    assert out.transcript.bob_tag_hex != out.transcript.alice_tag_hex


def test_zero_tag_length_disables_verification(weak_eve_params, weak_eve_noise,
                                               small_code):
    clean = run_demo(weak_eve_params, weak_eve_noise, small_code, 103, m2=0)
    assert clean.status == STATUS_SUCCESS
    assert clean.bob_key == clean.alice_key
    assert clean.transcript.bob_tag_hex == ""
    # with no tags a corrupted run still reports success; keys disagree
    bad = run_demo(weak_eve_params, weak_eve_noise, small_code, 103, m2=0, flips=3)
    assert bad.status == STATUS_SUCCESS
    assert bad.bob_key != bad.alice_key


def test_sacrifice_override_and_bound_monotonicity(weak_eve_params,
                                                   weak_eve_noise, small_code):
    bounds = []
    for m1 in (600, 750, 900):
        out = run_demo(weak_eve_params, weak_eve_noise, small_code, 110,
                       m1_override=m1)
        assert out.status == STATUS_SUCCESS
        assert out.transcript.m1 == m1
        bounds.append(out.certificates[0].log2_bound)
    assert bounds[0] > bounds[1] > bounds[2]


def test_auth_budget_lowers_confidence(weak_eve_params, weak_eve_noise, small_code):
    out = run_demo(weak_eve_params, weak_eve_noise, small_code, 101, k_auth=80)
    assert out.status == STATUS_SUCCESS
    expected = 1.0 - 2.0 * 5e-5 - 14 * 2.0 ** (1 - 80)
    assert out.certificates[0].confidence == pytest.approx(expected)


# ---------------------------------------------------------------- components

def test_sampling_split_is_a_partition(weak_eve_params, weak_eve_noise, small_code):
    out = run_demo(weak_eve_params, weak_eve_noise, small_code, 101)
    total = 4096 + 2 * 10_000
    perm = np.random.default_rng(out.transcript.sampling_seed).permutation(total)
    est1, est2, distill = perm[:10_000], perm[10_000:20_000], perm[20_000:]
    assert len(distill) == 4096
    combined = np.concatenate([est1, est2, distill])
    assert np.array_equal(np.sort(combined), np.arange(total))


def test_post_selection_gate_decisions():
    params = ChannelParams(bob_gain=2.0, bob_noise=0.5, bob_offset=0.0,
                           eve_gain=1.0, eve_noise=1.0)

    def bundle(v_hat, c_hat):
        return EstimateBundle(e_hat=0.0, v_hat=v_hat, c_hat=c_hat,
                              v_ab_hat=9.0, w_hat=10.0, l=10**6, epsilon=5e-5)

    # inferred injected variance 0.25, certified gain near 2: 16 > 2 keeps
    assert post_selection_gate(bundle(4.5, 2.0), params)
    # injected variance 3: ratio barely above one fails the threshold 2
    assert not post_selection_gate(bundle(7.25, 2.0), params)
    # explained-plus-detector exceeds observed: degenerate test on the sign
    assert post_selection_gate(bundle(2.0, 2.0), params)
    assert not post_selection_gate(bundle(2.0, 0.0), params)


def test_post_selection_gate_rejects_covariance_inside_its_radius():
    params = ChannelParams(bob_gain=2.0, bob_noise=0.5, bob_offset=0.0,
                           eve_gain=1.0, eve_noise=1.0)
    l, v_ab = 100, 9.0
    radius = math.sqrt(v_ab) * two_sided_z(5e-5) / math.sqrt(l)

    def bundle(c_hat):
        # inferred injected variance 0.01, so any squared certified gain
        # above 0.02 would clear the threshold 2
        v_hat = c_hat**2 + 0.25 + 0.01
        return EstimateBundle(e_hat=0.0, v_hat=v_hat, c_hat=c_hat,
                              v_ab_hat=v_ab, w_hat=10.0, l=l, epsilon=5e-5)

    for c_hat in (0.5, -0.5, radius, -radius, 0.01):
        assert abs(c_hat) <= radius
        assert not post_selection_gate(bundle(c_hat), params)
    for c_hat in (radius + 0.5, -(radius + 0.5)):
        assert post_selection_gate(bundle(c_hat), params)


@pytest.fixture(scope="module")
def rate_half_code():
    return gallager_code(4096, 4, 8, np.random.default_rng(0))


@pytest.mark.parametrize("seed", range(5))
def test_negative_bob_gain_yields_a_key(weak_eve_noise, rate_half_code, seed):
    # ChannelParams allows either sign of bob_gain; the flip only inverts
    # Bob's bits against Alice's symbol
    params = ChannelParams(bob_gain=-2.0, bob_noise=0.5, bob_offset=0.0,
                           eve_gain=0.3, eve_noise=2.0)
    out = run_protocol(params, weak_eve_noise, demo_config(n=16384),
                       np.random.default_rng(seed), code=rate_half_code)
    assert out.status == STATUS_SUCCESS, out.abort_reason
    assert out.key_length > 0
    assert out.alice_key == out.bob_key
    dist = next(c for c in out.certificates if c.criterion == VARIATIONAL_DISTANCE)
    assert dist.log2_bound <= TARGET
    assert dist.shrunk_param > 0


def test_transcript_json_round_trip(weak_eve_params, weak_eve_noise, small_code):
    t = run_demo(weak_eve_params, weak_eve_noise, small_code, 101).transcript
    back = Transcript.from_json_dict(json.loads(json.dumps(t.to_json_dict())))
    assert back == t


_SMALL_TRANSCRIPT = Transcript(
    sampling_seed=1, e_hat=0.0, v_hat=4.5, c_hat=2.0, v_ab_hat=9.0,
    residuals=(-0.5, 0.0, 0.25), coset_hex=("0f", "a3"), m1=3, m2=2,
    pa_seed=5, verify_seed=6, bob_tag_hex="c", alice_tag_hex="c",
)


@pytest.mark.parametrize("field,value", [
    ("residuals", [0.1, float("nan"), 0.3]),
    ("residuals", [0.1, 0.2, float("inf")]),
    ("residuals", [0.2, 0.1, 0.3]),
    ("residuals", []),
    ("m1", -1),
    ("m2", -1),
    ("coset_hex", ["00ff", "0g1f"]),
    ("coset_hex", ["00 f"]),
    ("bob_tag_hex", "xyz"),
    ("bob_tag_hex", "c0"),
    ("alice_tag_hex", ""),
    ("m2", 5),
    ("coset_hex", ["0f", "a3f"]),
])
def test_transcript_json_rejects_malformed_fields(field, value):
    data = _SMALL_TRANSCRIPT.to_json_dict()
    assert Transcript.from_json_dict(data) == _SMALL_TRANSCRIPT
    data[field] = value
    with pytest.raises(ValueError, match="transcript"):
        Transcript.from_json_dict(data)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_seed = st.integers(min_value=0, max_value=2**63 - 1)


def _hex_digits(size):
    return st.text(alphabet="0123456789abcdef", min_size=size, max_size=size)


@settings(max_examples=200, deadline=None)
@given(
    seeds=st.tuples(_seed, _seed, _seed),
    moments=st.tuples(_finite, _finite, _finite, _finite),
    residuals=st.lists(_finite, min_size=1, max_size=50).map(sorted),
    coset_hex=st.integers(min_value=0, max_value=40).flatmap(
        lambda size: st.lists(_hex_digits(size), max_size=8)),
    m1=st.integers(min_value=0, max_value=2**20),
    tags=st.integers(min_value=0, max_value=2**10).flatmap(
        lambda m2: st.tuples(st.just(m2), _hex_digits((m2 + 3) // 4),
                             _hex_digits((m2 + 3) // 4))),
)
def test_transcript_json_round_trip_property(seeds, moments, residuals,
                                             coset_hex, m1, tags):
    # valid transcripts only: tags carry (m2 + 3) // 4 digits and every
    # coset word has one common length
    m2 = tags[0]
    t = Transcript(
        sampling_seed=seeds[0], e_hat=moments[0], v_hat=moments[1],
        c_hat=moments[2], v_ab_hat=moments[3], residuals=tuple(residuals),
        coset_hex=tuple(coset_hex), m1=m1, m2=m2, pa_seed=seeds[1],
        verify_seed=seeds[2], bob_tag_hex=tags[1], alice_tag_hex=tags[2],
    )
    text = json.dumps(t.to_json_dict())
    back = Transcript.from_json_dict(json.loads(text))
    assert back == t
    assert json.dumps(back.to_json_dict()) == text


def test_config_validation():
    with pytest.raises(ValueError):
        demo_config(n=0)
    with pytest.raises(ValueError):
        demo_config(l=1)
    with pytest.raises(ValueError):
        demo_config(epsilon=0.5)
    with pytest.raises(ValueError):
        demo_config(m2=-1)
    with pytest.raises(ValueError):
        demo_config(m1_override=-1)
    with pytest.raises(ValueError):
        demo_config(k_auth=-1)


def test_outcome_key_length(weak_eve_params, weak_eve_noise, small_code):
    ok = run_demo(weak_eve_params, weak_eve_noise, small_code, 101)
    assert ok.key_length == len(ok.bob_key)
    bad = run_demo(weak_eve_params, weak_eve_noise, small_code, 11, n=4100)
    assert bad.key_length == 0
