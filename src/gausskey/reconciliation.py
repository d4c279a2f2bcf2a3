"""Reverse reconciliation over a binary linear code.

Bob discretizes his observations, publishes the coset representative of his
word's syndrome, and keeps the resulting codeword; Alice decodes the same
codeword from her correlated symbols with belief propagation. The code is a
pluggable parity-check matrix in the standard alist text format; a small
Gallager-style regular construction ships for tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .estimation import EmpiricalCdf, bit_zero_probabilities
from .hashing import BitString

if not hasattr(np, "bitwise_count"):  # new in numpy 2.0; the coset representative needs it
    raise ImportError(f"gausskey needs numpy >= 2.0 for np.bitwise_count, found {np.__version__}")

__all__ = [
    "LinearCode",
    "SoftChannel",
    "load_alist",
    "gallager_code",
    "bp_decode",
    "alice_decode",
    "reconcile",
]

LLR_CLAMP = 40.0  # near-deterministic symbols saturate here
BP_ITERATIONS = 60  # flooding iterations before bp_decode gives up
_BIT = [np.uint64(1) << np.uint64(b) for b in range(64)]  # one word mask per bit


class LinearCode:
    """Binary linear code given by parity checks, with fixed coset inverses.

    The checks are held as an edge list: `_edges_var` lists each row's
    columns in row order and `_check_starts` marks where each row begins.
    A syndrome is the parity of the word's bits over each row's stretch of
    that list, and belief propagation passes its messages along the same
    edges. Gaussian elimination on the packed rows, tracking the row
    transform, makes coset representatives a deterministic function of the
    syndrome (supported on the pivot columns, lowest columns first). It runs
    in two passes. The forward pass runs at load time: each pivot clears its
    column from the rows below it, which fixes `rank`, `dim` and the pivots.
    Back substitution runs on the first `representative` call: each pivot,
    last first, clears its column from the rows above it. It leaves the
    reduced row transform, which is unique, so it is the one Gauss-Jordan
    elimination would give, and frees the forward state. A run that aborts
    before reconciliation never pays for it.
    """

    def __init__(self, n_code: int, check_cols: list[list[int]]):
        if any((c < 0 or c >= n_code) for cols in check_cols for c in cols):
            raise ValueError("column index out of range")
        if not check_cols:
            raise ValueError("code has no parity checks")
        self.n_code = n_code
        self.num_checks = len(check_cols)
        self.check_cols = [sorted(set(cols)) for cols in check_cols]
        self._edges_check = np.concatenate(
            [np.full(len(cols), i) for i, cols in enumerate(self.check_cols)]
        ).astype(np.int64)
        self._edges_var = np.concatenate(self.check_cols).astype(np.int64)
        counts = np.bincount(self._edges_check, minlength=self.num_checks)
        if np.any(counts == 0):
            raise ValueError("empty parity check row")
        self._check_starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        self._elaborate()

    def _elaborate(self) -> None:
        # forward pass on one augmented array [rows | transform]: each pivot
        # clears its column from the rows below it only, and the pivot row is
        # zero left of its pivot column, so each XOR starts at the pivot's word
        r, w = self.num_checks, (self.n_code + 63) // 64
        work = np.zeros((r, w + (r + 63) // 64), dtype=np.uint64)
        var = self._edges_var
        bits = np.uint64(1) << (var & 63).astype(np.uint64)
        np.bitwise_or.at(work, (self._edges_check, var >> 6), bits)
        idx = np.arange(r)
        work[idx, w + (idx >> 6)] = np.uint64(1) << (idx & 63).astype(np.uint64)
        rank = 0
        pivots = []
        for col in range(self.n_code):
            wi = col >> 6
            hit = (work[rank:, wi] & _BIT[col & 63]).nonzero()[0]
            if hit.size == 0:
                continue
            piv = rank + int(hit[0])
            if piv != rank:
                work[[rank, piv]] = work[[piv, rank]]
            if hit.size > 1:
                work[rank + hit[1:], wi:] ^= work[rank, wi:]
            pivots.append(col)
            rank += 1
            if rank == r:
                break
        self.rank = rank
        self.dim = self.n_code - rank
        self._pivots = np.asarray(pivots, dtype=np.int64)
        self._forward = work

    @cached_property
    def _transform(self) -> np.ndarray:
        # back substitution, last pivot first: pivot row i clears its column
        # from the rows above it. Every row XORed in before step i is zero
        # left of its own pivot, which lies right of column p_i, so the rows
        # above still hold their forward bits at p_i: only the transform half
        # needs the XOR. The reduced transform is unique, so this is the one
        # Gauss-Jordan elimination would give.
        work = self._forward
        w = (self.n_code + 63) // 64
        for i in range(self.rank - 1, 0, -1):
            col = int(self._pivots[i])
            above = (work[:i, col >> 6] & _BIT[col & 63]).nonzero()[0]
            if above.size:
                work[above, w:] ^= work[i, w:]
        del self._forward
        return np.ascontiguousarray(work[:, w:])

    @property
    def rate(self) -> float:
        return self.dim / self.n_code

    def syndrome_of(self, x: BitString) -> BitString:
        if x.length != self.n_code:
            raise ValueError("length mismatch")
        parity = np.bitwise_xor.reduceat(x.to_bits()[self._edges_var], self._check_starts)
        return BitString.from_bits(parity)

    def representative(self, syn: BitString) -> BitString:
        if syn.length != self.num_checks:
            raise ValueError("syndrome length mismatch")
        ones = np.bitwise_count(self._transform & syn.words[None, :]).sum(
            axis=1, dtype=np.int64
        )
        reduced = (ones & 1).astype(np.uint8)
        if reduced[self.rank :].any():
            raise ValueError("syndrome outside the row space")
        bits = np.zeros(self.n_code, dtype=np.uint8)
        bits[self._pivots] = reduced[: self.rank]
        return BitString.from_bits(bits)

    def to_alist(self) -> str:
        n, r = self.n_code, self.num_checks
        col_lists: list[list[int]] = [[] for _ in range(n)]
        for i, cols in enumerate(self.check_cols):
            for c in cols:
                col_lists[c].append(i)
        cw = [len(c) for c in col_lists]
        rw = [len(c) for c in self.check_cols]
        mc, mr = max(cw), max(rw)
        lines = [f"{n} {r}", f"{mc} {mr}"]
        lines.append(" ".join(map(str, cw)))
        lines.append(" ".join(map(str, rw)))
        for rows_of_col in col_lists:
            entries = [str(i + 1) for i in rows_of_col] + ["0"] * (mc - len(rows_of_col))
            lines.append(" ".join(entries))
        for cols in self.check_cols:
            entries = [str(c + 1) for c in cols] + ["0"] * (mr - len(cols))
            lines.append(" ".join(entries))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_alist(text: str) -> "LinearCode":
        tokens = text.split()
        if len(tokens) < 4:
            raise ValueError("truncated alist header")
        pos = 0

        def take(count: int) -> list[int]:
            nonlocal pos
            if pos + count > len(tokens):
                raise ValueError("truncated alist body")
            out = [int(t) for t in tokens[pos : pos + count]]
            pos += count
            return out

        n, r = take(2)
        mc, mr = take(2)
        col_w = take(n)
        row_w = take(r)
        if any(w < 0 or w > mc for w in col_w) or any(w < 0 or w > mr for w in row_w):
            raise ValueError("alist weight out of range")
        check_cols: list[list[int]] = [[] for _ in range(r)]
        for col in range(n):
            entries = take(mc)
            live = [e for e in entries if e != 0]
            if len(live) != col_w[col]:
                raise ValueError(f"column {col} weight mismatch")
            for e in live:
                check_cols[e - 1].append(col)
        for row in range(r):
            entries = take(mr)
            live = sorted(e - 1 for e in entries if e != 0)
            if live != check_cols[row]:
                raise ValueError(f"row {row} disagrees with column lists")
        return LinearCode(n_code=n, check_cols=check_cols)


@lru_cache(maxsize=8)
def load_alist(path: str) -> LinearCode:
    with open(path, "r", encoding="ascii") as fh:
        return LinearCode.from_alist(fh.read())


def gallager_code(
    n_code: int, col_weight: int, row_weight: int, rng: np.random.Generator
) -> LinearCode:
    """Regular construction: one band of disjoint rows per column weight.

    Band zero partitions the columns in order; every further band applies an
    independent random column permutation to the same partition.
    """
    if n_code % row_weight != 0:
        raise ValueError("row_weight must divide n_code")
    band_rows = n_code // row_weight
    check_cols: list[list[int]] = []
    for band in range(col_weight):
        cols = np.arange(n_code) if band == 0 else rng.permutation(n_code)
        for j in range(band_rows):
            check_cols.append(sorted(cols[j * row_weight : (j + 1) * row_weight].tolist()))
    return LinearCode(n_code=n_code, check_cols=check_cols)


@dataclass(frozen=True)
class SoftChannel:
    """Likelihoods of Alice's symbol given Bob's published bit.

    Built from the estimated residual CDF; the prior log-ratio corrects for
    the (small, data-driven) asymmetry of the bit marginal.
    """

    c_hat: float
    residual_cdf: EmpiricalCdf
    prior_log_ratio: float  # ln Pr[bit 1] - ln Pr[bit 0]

    @staticmethod
    def from_cdf(c_hat: float, residual_cdf: EmpiricalCdf) -> "SoftChannel":
        """Channel from the covariance estimate and the residual CDF."""
        _, z0 = bit_zero_probabilities(c_hat, residual_cdf)
        z0 = min(max(z0, 1e-300), 1.0 - 1e-16)
        prior = math.log(1.0 - z0) - math.log(z0)
        return SoftChannel(c_hat=c_hat, residual_cdf=residual_cdf, prior_log_ratio=prior)

    def llr_array(self, symbols: np.ndarray, flips: np.ndarray) -> np.ndarray:
        signed = np.where(np.asarray(flips) != 0, -1.0, 1.0) * np.asarray(symbols, float)
        g1 = np.asarray(self.residual_cdf(-self.c_hat * signed), dtype=float)
        g0 = 1.0 - g1
        with np.errstate(divide="ignore"):
            llr = np.log(g0) - np.log(g1) + self.prior_log_ratio
        return np.clip(llr, -LLR_CLAMP, LLR_CLAMP)


def bp_decode(code: LinearCode, llrs) -> tuple[BitString, bool]:
    """Sum-product decoding for up to BP_ITERATIONS iterations; converged
    means every parity check passed.

    Non-convergence is not an error: downstream verification catches any
    residual mismatch. Infinite LLRs saturate at the clamp; NaN raises.
    """
    llrs = np.asarray(llrs, dtype=float)
    if llrs.size != code.n_code:
        raise ValueError("llr vector length mismatch")
    if np.isnan(llrs).any():
        raise ValueError("llr vector contains NaN")
    llrs = np.clip(llrs, -LLR_CLAMP, LLR_CLAMP)
    ce, ve, starts = code._edges_check, code._edges_var, code._check_starts
    msg_vc = llrs[ve]
    hard = (llrs < 0).astype(np.uint8)
    ok = not code.syndrome_of(BitString.from_bits(hard)).to_bits().any()
    if ok:
        return BitString.from_bits(hard), True
    tiny = 1e-12
    for _ in range(BP_ITERATIONS):
        t = np.tanh(0.5 * msg_vc)
        mag = np.clip(np.abs(t), tiny, 1.0 - 1e-12)
        neg = (t < 0).astype(np.int64)
        log_mag = np.log(mag)
        group_log = np.add.reduceat(log_mag, starts)
        group_neg = np.add.reduceat(neg, starts)
        ext_log = group_log[ce] - log_mag
        ext_sign = 1.0 - 2.0 * ((group_neg[ce] - neg) & 1)
        prod = np.clip(ext_sign * np.exp(ext_log), -(1.0 - 1e-12), 1.0 - 1e-12)
        msg_cv = 2.0 * np.arctanh(prod)
        totals = llrs + np.bincount(ve, weights=msg_cv, minlength=code.n_code)
        msg_vc = np.clip(totals[ve] - msg_cv, -LLR_CLAMP, LLR_CLAMP)
        hard = (totals < 0).astype(np.uint8)
        if not code.syndrome_of(BitString.from_bits(hard)).to_bits().any():
            return BitString.from_bits(hard), True
    return BitString.from_bits(hard), False


def alice_decode(
    code: LinearCode, alice_symbols: np.ndarray, shift: BitString, chan: SoftChannel
) -> BitString:
    """Alice's half of a reconciliation block.

    She decodes Bob's codeword from her symbols, with signs flipped where
    the published coset representative has ones.
    """
    if np.size(alice_symbols) != code.n_code or shift.length != code.n_code:
        raise ValueError("block length mismatch")
    alice_codeword, _converged = bp_decode(code, chan.llr_array(alice_symbols, shift.to_bits()))
    return alice_codeword


def reconcile(code: LinearCode, bob_bits: BitString) -> tuple[BitString, BitString]:
    """Bob's half of a reconciliation block: (codeword, coset representative).

    Bob moves his word into the code by subtracting the deterministic coset
    representative of its syndrome; the representative is the only public
    message. Alice's half is alice_decode.
    """
    if bob_bits.length != code.n_code:
        raise ValueError("block length mismatch")
    shift = code.representative(code.syndrome_of(bob_bits))
    return bob_bits ^ shift, shift
