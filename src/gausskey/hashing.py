"""Binary universal hashing for privacy amplification and key verification.

Toeplitz matrices over GF(2) form a universal family: any fixed pair of
distinct inputs collides with probability at most 2^-output_length over the
seed. Bit strings are stored as packed 64-bit words (little-endian bit
order within a word); hex serialization is most-significant-bit first. Both
conventions are part of the wire format and must not change. The Toeplitz
product is computed as an exact integer convolution by one FFT product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "BitString",
    "ToeplitzSeed",
    "toeplitz_hash",
    "collision_probability",
    "verification_tag",
    "auth_failure_prob",
]


def _pack(bits: np.ndarray) -> np.ndarray:
    """uint8 bit array -> uint64 words, bit i at word i//64, position i%64."""
    raw = np.packbits(bits.astype(np.uint8), bitorder="little")
    pad = (-raw.size) % 8
    if pad:
        raw = np.concatenate([raw, np.zeros(pad, dtype=np.uint8)])
    return raw.view("<u8").copy()


def _unpack(words: np.ndarray, length: int) -> np.ndarray:
    return np.unpackbits(words.view(np.uint8), bitorder="little")[:length]


@dataclass(frozen=True, eq=False)
class BitString:
    words: np.ndarray
    length: int

    @staticmethod
    def from_bits(bits) -> "BitString":
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 1 or np.any(arr > 1):
            raise ValueError("bits must be a flat 0/1 array")
        return BitString(words=_pack(arr), length=arr.size)

    @staticmethod
    def zeros(length: int) -> "BitString":
        return BitString(words=np.zeros((length + 63) // 64, dtype="<u8"), length=length)

    @staticmethod
    def random(rng: np.random.Generator, length: int) -> "BitString":
        return BitString.from_bits(rng.integers(0, 2, size=length, dtype=np.uint8))

    def to_bits(self) -> np.ndarray:
        return _unpack(self.words, self.length)

    def __len__(self) -> int:
        return self.length

    def __xor__(self, other: "BitString") -> "BitString":
        if self.length != other.length:
            raise ValueError("length mismatch")
        return BitString(words=self.words ^ other.words, length=self.length)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self.length == other.length and bool(np.all(self.words == other.words))

    def __hash__(self):
        return hash((self.length, self.words.tobytes()))

    def to_hex(self) -> str:
        """Bit 0 becomes the most significant bit of the first hex digit."""
        bits = self.to_bits()
        pad = (-bits.size) % 8
        if pad:
            bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
        digits = np.packbits(bits, bitorder="big").tobytes().hex()
        return digits[: (self.length + 3) // 4]

    @staticmethod
    def from_hex(text: str, length: int) -> "BitString":
        if len(text) != (length + 3) // 4:
            raise ValueError("hex length does not match bit length")
        padded = text + "0" * ((-len(text)) % 2)
        bits = np.unpackbits(
            np.frombuffer(bytes.fromhex(padded), dtype=np.uint8), bitorder="big"
        )[:length]
        return BitString.from_bits(bits)


@dataclass(frozen=True)
class ToeplitzSeed:
    """Seed bits of a Toeplitz map from input_len bits to output_len bits."""

    bits: BitString
    input_len: int
    output_len: int

    def __post_init__(self) -> None:
        if not (1 <= self.output_len <= self.input_len):
            raise ValueError("need 1 <= output_len <= input_len")
        if self.bits.length != self.input_len + self.output_len - 1:
            raise ValueError("seed must have input_len + output_len - 1 bits")

    @staticmethod
    def random(rng: np.random.Generator, input_len: int, output_len: int) -> "ToeplitzSeed":
        return ToeplitzSeed(
            bits=BitString.random(rng, input_len + output_len - 1),
            input_len=input_len,
            output_len=output_len,
        )

    @property
    def _fft_size(self) -> int:
        """toeplitz_hash's transform length: a power of two >= the seed length."""
        return 1 << (self.input_len + self.output_len - 2).bit_length()

    @cached_property
    def _spectrum(self) -> np.ndarray:
        """rfft of the 0/1 seed, computed once per seed and read-only: a hash
        multiplies it into the input's spectrum."""
        spectrum = np.fft.rfft(self.bits.to_bits().astype(np.float64), self._fft_size)
        spectrum.flags.writeable = False
        return spectrum


def toeplitz_hash(seed: ToeplitzSeed, x: BitString) -> BitString:
    """Matrix-vector product over GF(2) with the Toeplitz matrix of the seed.

    Row i of the matrix reads the reversed seed starting at offset
    output_len - 1 - i, so output bit i is the parity of the integer
    convolution (s * x)[input_len - 1 + i] of the 0/1 seed s and input x.
    One float64 rfft/irfft product of a power-of-two length
    N >= input_len + output_len - 1 computes it: no wanted lag aliases.
    Linear: hash(x ^ y) = hash(x) ^ hash(y).

    Every wanted value is an integer count <= input_len. The float64 FFT
    convolution errs by at most order u * log2(N) * ||s||_2 * ||x||_2 with
    u = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., sec. 24.1): about 1e-9 at (10^6, 4096), against the 0.5 that
    rounding tolerates. A value 0.25 or more from an integer raises.
    """
    n1, n2 = seed.input_len, seed.output_len
    if x.length != n1:
        raise ValueError(f"input must have {n1} bits, got {x.length}")
    size = seed._fft_size
    spectrum = np.fft.rfft(x.to_bits().astype(np.float64), size)
    np.multiply(seed._spectrum, spectrum, out=spectrum)
    counts = np.fft.irfft(spectrum, size)[n1 - 1 : n1 - 1 + n2]
    rounded = np.rint(counts)
    if np.max(np.abs(counts - rounded)) >= 0.25:
        raise ArithmeticError("FFT convolution too inexact to round to counts")
    return BitString.from_bits((rounded.astype(np.int64) & 1).astype(np.uint8))


def _gf2_rank(rows: list[int]) -> int:
    basis: dict[int, int] = {}
    rank = 0
    for value in rows:
        while value:
            top = value.bit_length() - 1
            if top not in basis:
                basis[top] = value
                rank += 1
                break
            value ^= basis[top]
    return rank


def collision_probability(input_len: int, output_len: int) -> float:
    """Worst-case pair collision probability over all seeds, computed exactly.

    By linearity a pair (c, c') collides iff the map sends d = c ^ c' to
    zero, and the fraction of seeds doing so is 2^-rank of the d-windows as
    linear forms in the seed bits. Exhaustive over every nonzero d.
    """
    if not (1 <= output_len <= input_len):
        raise ValueError("need 1 <= output_len <= input_len")
    if input_len > 12:
        raise ValueError("exhaustive check limited to input_len <= 12")
    worst = 0.0
    for d in range(1, 1 << input_len):
        drev = int(f"{d:0{input_len}b}"[::-1], 2)  # window mask at offset 0
        rows = [drev << i for i in range(output_len)]
        worst = max(worst, 2.0 ** -_gf2_rank(rows))
    return worst


def verification_tag(key: BitString, seed: ToeplitzSeed) -> BitString:
    """Short universal-hash tag of seed.output_len bits for equality
    verification of two keys of seed.input_len bits."""
    return toeplitz_hash(seed, key)


def auth_failure_prob(message_count: int, auth_key_bits: int) -> float:
    """Failure probability budget of authenticating message_count messages."""
    if auth_key_bits < 1:
        raise ValueError("need at least one authentication key bit")
    return min(1.0, message_count * 2.0 ** (1 - auth_key_bits))
