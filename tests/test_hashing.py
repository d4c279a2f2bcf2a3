import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gausskey.hashing import (
    BitString,
    ToeplitzSeed,
    auth_failure_prob,
    collision_probability,
    toeplitz_hash,
    verification_tag,
)


def dense_hash(seed: ToeplitzSeed, x_bits: np.ndarray) -> np.ndarray:
    # independent reference: build the matrix row by row from the reversed
    # seed and multiply mod 2
    rev = seed.bits.to_bits()[::-1]
    n1, n2 = seed.input_len, seed.output_len
    rows = np.stack([rev[n2 - 1 - i: n2 - 1 - i + n1] for i in range(n2)])
    return rows.dot(np.asarray(x_bits)) % 2


def word_loop_hash(seed: ToeplitzSeed, x: BitString) -> BitString:
    # independent reference at protocol sizes: each row is a word-aligned
    # window of one of 64 preshifted copies of the reversed seed, and the
    # product is AND + popcount parity per window
    n1, n2 = seed.input_len, seed.output_len
    rev = seed.bits.to_bits()[::-1]
    xw = x.words
    out = np.zeros(n2, dtype=np.uint8)
    for shift in range(min(64, n2)):
        offsets = np.arange(shift, n2, 64)
        shifted = BitString.from_bits(rev[shift:]).words
        word_starts = (offsets - shift) // 64
        need = int(word_starts.max()) + xw.size
        if shifted.size < need:
            shifted = np.concatenate([shifted, np.zeros(need - shifted.size, dtype="<u8")])
        windows = np.lib.stride_tricks.sliding_window_view(shifted, xw.size)[word_starts]
        ones = np.bitwise_count(windows & xw[None, :]).sum(axis=1, dtype=np.int64)
        out[n2 - 1 - offsets] = (ones & 1).astype(np.uint8)
    return BitString.from_bits(out)


# ------------------------------------------------------------------ bitstring

def test_bitstring_word_packing_is_little_endian():
    bits = np.zeros(70, dtype=np.uint8)
    bits[0] = 1
    bits[64] = 1
    b = BitString.from_bits(bits)
    assert b.words[0] == 1
    assert b.words[1] == 1
    assert len(b) == 70
    assert np.array_equal(b.to_bits(), bits)


def test_bitstring_validation():
    with pytest.raises(ValueError):
        BitString.from_bits([0, 1, 2])
    with pytest.raises(ValueError):
        BitString.from_bits([[0, 1], [1, 0]])


def test_bitstring_xor_eq_and_hash():
    x = BitString.from_bits([1, 0, 1, 1, 0])
    y = BitString.from_bits([0, 1, 1, 0, 0])
    assert np.array_equal((x ^ y).to_bits(), [1, 1, 0, 1, 0])
    assert x ^ y == BitString.from_bits([1, 1, 0, 1, 0])
    assert x != y
    assert x != BitString.from_bits([1, 0, 1, 1])  # same words, other length
    assert hash(x) == hash(BitString.from_bits([1, 0, 1, 1, 0]))
    with pytest.raises(ValueError):
        x ^ BitString.zeros(4)


def test_bitstring_zeros():
    z = BitString.zeros(100)
    assert len(z) == 100
    assert not z.to_bits().any()
    assert len(BitString.zeros(0)) == 0


def test_hex_serialization_is_msb_first():
    assert BitString.from_bits([1, 0, 0, 0]).to_hex() == "8"
    assert BitString.from_bits([1, 1, 1, 1, 0, 0, 0, 0]).to_hex() == "f0"
    assert BitString.from_bits([0, 0, 0, 1]).to_hex() == "1"
    # 5 bits: the second digit carries one data bit and three padding zeros
    assert BitString.from_bits([1, 0, 1, 1, 0]).to_hex() == "b0"


def test_hex_round_trip_random_lengths():
    rng = np.random.default_rng(12)
    for length in (1, 4, 5, 63, 64, 65, 1000):
        b = BitString.random(rng, length)
        assert BitString.from_hex(b.to_hex(), length) == b


def test_from_hex_length_check():
    with pytest.raises(ValueError):
        BitString.from_hex("ff", 4)  # 4 bits need exactly one digit


# ------------------------------------------------------------------- toeplitz

def test_two_by_one_matrix_exhaustive():
    # the single row reads the seed reversed
    for s0 in (0, 1):
        for s1 in (0, 1):
            seed = ToeplitzSeed(bits=BitString.from_bits([s0, s1]),
                                input_len=2, output_len=1)
            for x0 in (0, 1):
                for x1 in (0, 1):
                    got = toeplitz_hash(seed, BitString.from_bits([x0, x1]))
                    assert got.to_bits()[0] == (s1 * x0 ^ s0 * x1)


def test_matches_dense_reference_across_shapes():
    rng = np.random.default_rng(3)
    for n1, n2 in ((2, 1), (7, 3), (64, 64), (130, 65), (100, 1), (129, 128)):
        seed = ToeplitzSeed.random(rng, n1, n2)
        x = BitString.random(rng, n1)
        got = toeplitz_hash(seed, x)
        assert got.length == n2
        assert np.array_equal(got.to_bits(), dense_hash(seed, x.to_bits()))


_shapes = st.integers(min_value=1, max_value=600).flatmap(
    lambda n1: st.tuples(st.just(n1), st.integers(min_value=1, max_value=n1)))


@settings(max_examples=150, deadline=None)
@given(shape=_shapes, rng_seed=st.integers(min_value=0, max_value=2**32))
@example(shape=(300, 213), rng_seed=0)  # n1 + n2 - 1 = 512, a power of two
@example(shape=(300, 214), rng_seed=0)  # one above: the transform doubles
@example(shape=(1, 1), rng_seed=0)
def test_matches_dense_reference_property(shape, rng_seed):
    n1, n2 = shape
    rng = np.random.default_rng(rng_seed)
    seed = ToeplitzSeed.random(rng, n1, n2)
    x = BitString.random(rng, n1)
    got = toeplitz_hash(seed, x)
    assert got.length == n2
    assert np.array_equal(got.to_bits(), dense_hash(seed, x.to_bits()))


@pytest.mark.parametrize("n1,n2", [
    (65536, 23806),  # weak-eve privacy amplification
    (23806, 64),  # its verification tag
    (4096, 294),  # cli-batch
    (294, 64),
    (1_000_000, 4096),
])
def test_matches_word_loop_at_protocol_shapes(n1, n2):
    rng = np.random.default_rng(n1 + n2)
    seed = ToeplitzSeed.random(rng, n1, n2)
    x = BitString.random(rng, n1)
    assert toeplitz_hash(seed, x) == word_loop_hash(seed, x)


def test_seed_spectrum_is_computed_once_and_left_unchanged():
    # Bob's and Alice's words hash under one seed: the second hash reuses
    # the seed's spectrum, and neither hash writes into it
    rng = np.random.default_rng(12)
    seed = ToeplitzSeed.random(rng, 4096, 294)
    x, y = BitString.random(rng, 4096), BitString.random(rng, 4096)
    first = toeplitz_hash(seed, x)
    cached = seed._spectrum
    before = cached.copy()
    assert not cached.flags.writeable
    second = toeplitz_hash(seed, y)
    assert toeplitz_hash(seed, x) == first
    assert seed._spectrum is cached
    assert np.array_equal(cached, before)
    assert first == word_loop_hash(seed, x) and second == word_loop_hash(seed, y)


def test_inexact_transform_raises(monkeypatch):
    rng = np.random.default_rng(10)
    seed = ToeplitzSeed.random(rng, 300, 40)
    x = BitString.random(rng, 300)
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + 0.3)
    with pytest.raises(ArithmeticError, match="inexact"):
        toeplitz_hash(seed, x)


def test_linearity_exhaustive_small():
    rng = np.random.default_rng(4)
    seed = ToeplitzSeed.random(rng, 6, 3)
    inputs = [BitString.from_bits([(v >> i) & 1 for i in range(6)])
              for v in range(64)]
    hashes = [toeplitz_hash(seed, x) for x in inputs]
    for a in range(64):
        for b in range(64):
            assert hashes[a] ^ hashes[b] == toeplitz_hash(seed, inputs[a] ^ inputs[b])


def test_linearity_large_random():
    rng = np.random.default_rng(5)
    seed = ToeplitzSeed.random(rng, 5000, 257)
    x = BitString.random(rng, 5000)
    y = BitString.random(rng, 5000)
    assert toeplitz_hash(seed, x) ^ toeplitz_hash(seed, y) == toeplitz_hash(seed, x ^ y)


def test_input_length_checked():
    rng = np.random.default_rng(6)
    seed = ToeplitzSeed.random(rng, 10, 3)
    with pytest.raises(ValueError, match="10 bits"):
        toeplitz_hash(seed, BitString.zeros(9))


def test_seed_validation():
    bits9 = BitString.zeros(9)
    with pytest.raises(ValueError):
        ToeplitzSeed(bits=bits9, input_len=5, output_len=0)
    with pytest.raises(ValueError):
        ToeplitzSeed(bits=bits9, input_len=5, output_len=6)
    with pytest.raises(ValueError):
        ToeplitzSeed(bits=bits9, input_len=5, output_len=4)  # needs 8 bits


# ----------------------------------------------------------------- universality

def test_universal_family_exhaustive():
    # by linearity a pair collides iff the difference hashes to zero; sweep
    # every nonzero difference against every seed and compare the worst
    # fraction with the rank-based computation
    n1, n2 = 6, 3
    seed_bits = n1 + n2 - 1
    worst = 0.0
    for d in range(1, 1 << n1):
        x = BitString.from_bits([(d >> i) & 1 for i in range(n1)])
        hits = 0
        for s in range(1 << seed_bits):
            seed = ToeplitzSeed(
                bits=BitString.from_bits([(s >> i) & 1 for i in range(seed_bits)]),
                input_len=n1, output_len=n2)
            if not toeplitz_hash(seed, x).to_bits().any():
                hits += 1
        worst = max(worst, hits / (1 << seed_bits))
    assert worst <= 2.0 ** -n2
    assert worst == collision_probability(n1, n2)


def test_collision_probability_saturates_the_bound():
    # the family is exactly universal: the worst pair meets 2^-output_len
    assert collision_probability(12, 5) == 2.0 ** -5
    assert collision_probability(10, 10) == 2.0 ** -10
    assert collision_probability(12, 1) == 0.5


def test_collision_probability_validation():
    with pytest.raises(ValueError):
        collision_probability(13, 4)
    with pytest.raises(ValueError):
        collision_probability(4, 5)


def test_tag_collision_rate_at_security_level():
    # distinct keys, 8-bit tags: collision rate over seeds concentrates
    # around 2^-8
    rng = np.random.default_rng(7)
    key_a = BitString.random(rng, 100)
    key_b = key_a ^ BitString.from_bits(np.eye(100, dtype=np.uint8)[17])
    trials = 10_000
    collisions = 0
    for _ in range(trials):
        seed = ToeplitzSeed.random(rng, 100, 8)
        if verification_tag(key_a, seed) == verification_tag(key_b, seed):
            collisions += 1
    p = 2.0 ** -8
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(collisions / trials - p) <= 3 * sigma


# ------------------------------------------------------------------ tags, auth

def test_verification_tag_contract():
    rng = np.random.default_rng(8)
    key = BitString.random(rng, 64)
    # the tag is the seed's hash of the key, seed.output_len bits long
    seed = ToeplitzSeed.random(rng, 64, 8)
    assert verification_tag(key, seed) == toeplitz_hash(seed, key)
    assert len(verification_tag(key, seed)) == 8
    # no seed gives an empty tag or one longer than the key
    with pytest.raises(ValueError, match="output_len"):
        ToeplitzSeed.random(rng, 64, 0)
    with pytest.raises(ValueError, match="output_len"):
        ToeplitzSeed.random(rng, 64, 65)
    with pytest.raises(ValueError, match="input must have 63 bits"):
        verification_tag(key, ToeplitzSeed.random(rng, 63, 8))


def test_auth_failure_prob():
    assert auth_failure_prob(7, 10) == 7 * 2.0 ** -9
    assert auth_failure_prob(5, 1) == 1.0  # saturates
    with pytest.raises(ValueError):
        auth_failure_prob(3, 0)


# ------------------------------------------------------------------ throughput

def test_privacy_amplification_scale_timing():
    rng = np.random.default_rng(9)
    x = BitString.random(rng, 1_000_000)
    seed = ToeplitzSeed.random(rng, 1_000_000, 4096)
    start = time.perf_counter()
    out = toeplitz_hash(seed, x)
    elapsed = time.perf_counter() - start
    assert out.length == 4096
    assert elapsed < 5.0
