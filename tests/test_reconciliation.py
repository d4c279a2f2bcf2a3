import math
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gausskey
from gausskey.estimation import (
    NORMAL_NODES,
    NORMAL_WEIGHTS,
    EmpiricalCdf,
    EstimateBundle,
    estimate_moments,
    residuals,
)
from gausskey.gaussmodel import NoiseSpec, sample_rounds
from gausskey.hashing import BitString
from gausskey.protocol import ProtocolConfig, run_protocol
from gausskey.reconciliation import (
    BP_ITERATIONS,
    LLR_CLAMP,
    LinearCode,
    SoftChannel,
    alice_decode,
    bp_decode,
    gallager_code,
    load_alist,
    reconcile,
)


@lru_cache(maxsize=None)
def _bench_shaped_codes():
    # the weak-eve, reference and cli-batch code shapes
    return (
        gallager_code(4096, 4, 8, np.random.default_rng(1)),
        gallager_code(4096, 3, 4, np.random.default_rng(2)),
        gallager_code(512, 3, 4, np.random.default_rng(3)),
    )


# ------------------------------------------------------------------ code core

def repetition_code():
    # three bits, two adjacent-equality checks, one-dimensional
    return LinearCode(3, [[0, 1], [1, 2]])


def test_repetition_code_structure():
    code = repetition_code()
    assert (code.rank, code.dim) == (2, 1)
    assert code.rate == pytest.approx(1.0 / 3.0)
    assert not code.syndrome_of(BitString.from_bits([1, 1, 1])).to_bits().any()
    assert np.array_equal(
        code.syndrome_of(BitString.from_bits([1, 0, 1])).to_bits(), [1, 1])


def test_repetition_code_representative_by_hand():
    # pivots are columns 0 and 1; reduced system maps (1,1) to word 010
    code = repetition_code()
    rep = code.representative(BitString.from_bits([1, 1]))
    assert np.array_equal(rep.to_bits(), [0, 1, 0])
    assert code.syndrome_of(rep) == BitString.from_bits([1, 1])


def test_code_validation():
    with pytest.raises(ValueError, match="out of range"):
        LinearCode(3, [[0, 3]])
    with pytest.raises(ValueError, match="empty parity check"):
        LinearCode(3, [[0, 1], []])
    with pytest.raises(ValueError, match="code has no parity checks"):
        LinearCode(3, [])
    with pytest.raises(ValueError, match="code has no parity checks"):
        LinearCode.from_alist("4 0\n0 0\n0 0 0 0\n")
    code = repetition_code()
    with pytest.raises(ValueError, match="length mismatch"):
        code.syndrome_of(BitString.zeros(4))
    with pytest.raises(ValueError, match="syndrome length"):
        code.representative(BitString.zeros(3))


def test_old_numpy_fails_at_import():
    # numpy before 2.0 has neither np.bitwise_count nor its name in
    # numpy.__all__, which scipy's star import reads
    code = ("import numpy; del numpy.bitwise_count; numpy.__all__.remove('bitwise_count'); "
            "import gausskey")
    env = dict(os.environ)
    src = str(Path(gausskey.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "ImportError: gausskey needs numpy >= 2.0" in done.stderr


def test_coset_identity_on_reachable_syndromes(small_code):
    # representative is a right inverse of the syndrome map on its image
    rng = np.random.default_rng(21)
    for _ in range(200):
        word = BitString.random(rng, small_code.n_code)
        syn = small_code.syndrome_of(word)
        rep = small_code.representative(syn)
        assert small_code.syndrome_of(rep) == syn


def test_representative_deterministic_and_pivot_supported(small_code):
    rng = np.random.default_rng(22)
    word = BitString.random(rng, small_code.n_code)
    syn = small_code.syndrome_of(word)
    rep1 = small_code.representative(syn)
    rep2 = small_code.representative(syn)
    assert rep1 == rep2
    support = np.nonzero(rep1.to_bits())[0]
    assert set(support).issubset(set(small_code._pivots.tolist()))


def test_unreachable_syndrome_rejected():
    # third check is the sum of the first two, so (1, 0, 0) has no preimage
    code = LinearCode(3, [[0, 1], [1, 2], [0, 2]])
    assert code.rank == 2
    with pytest.raises(ValueError, match="outside the row space"):
        code.representative(BitString.from_bits([1, 0, 0]))


def test_duplicate_columns_collapse():
    # repeated column indices within a row collapse to one at construction
    code = LinearCode(3, [[0, 1, 1, 0, 2]])
    assert code.check_cols == [[0, 1, 2]]


def _pack_rows(rows: list[list[int]], n: int) -> np.ndarray:
    # reference packer: set each row's bits one column at a time
    out = np.zeros((len(rows), (n + 63) // 64), dtype=np.uint64)
    for i, cols in enumerate(rows):
        for c in cols:
            out[i, c >> 6] |= np.uint64(1) << np.uint64(c & 63)
    return out


def _syndrome_dense(rows: np.ndarray, x: BitString) -> BitString:
    # reference syndrome: AND every packed row with the word, count the ones
    ones = np.bitwise_count(rows & x.words[None, :]).sum(axis=1, dtype=np.int64)
    return BitString.from_bits((ones & 1).astype(np.uint8))


@st.composite
def _codes_and_words(draw):
    n_code = draw(st.integers(min_value=1, max_value=200))
    checks = draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=n_code - 1), min_size=1, max_size=12),
        min_size=1, max_size=24))
    bits = draw(st.lists(st.integers(min_value=0, max_value=1),
                         min_size=n_code, max_size=n_code))
    return n_code, checks, bits


@settings(max_examples=200, deadline=None)
@given(case=_codes_and_words())
@example(case=(65, [[64, 0, 64], [1, 2, 3, 4, 5, 6, 7, 63], [64]], [1] * 65))
@example(case=(130, [[129, 3, 3, 3], [0, 64, 128], [5]], [0, 1] * 65))
@example(case=(64, [[63, 63], [0]], [1] * 64))
def test_syndrome_matches_dense_product_property(case):
    # the dense rows are packed from the raw lists, duplicates and all
    n_code, checks, bits = case
    code = LinearCode(n_code, checks)
    word = BitString.from_bits(bits)
    dense = _syndrome_dense(_pack_rows(checks, n_code), word)
    assert code.syndrome_of(word) == dense


def test_syndrome_matches_dense_product_on_bench_codes():
    rng = np.random.default_rng(51)
    for code in _bench_shaped_codes():
        rows = _pack_rows(code.check_cols, code.n_code)
        words = [BitString.zeros(code.n_code), BitString.from_bits(np.ones(code.n_code))]
        words += [BitString.random(rng, code.n_code) for _ in range(8)]
        for word in words:
            assert code.syndrome_of(word) == _syndrome_dense(rows, word)


# ---------------------------------------------------------------------- alist

def test_alist_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    code = gallager_code(64, 3, 4, rng)
    text = code.to_alist()
    back = LinearCode.from_alist(text)
    assert back.check_cols == code.check_cols
    assert (back.rank, back.dim) == (code.rank, code.dim)
    path = tmp_path / "code.alist"
    path.write_text(text)
    loaded = load_alist(str(path))
    assert loaded.check_cols == code.check_cols
    assert load_alist(str(path)) is loaded  # cached by path


def test_alist_malformed_inputs():
    good = gallager_code(8, 2, 4, np.random.default_rng(1)).to_alist()
    with pytest.raises(ValueError, match="truncated alist header"):
        LinearCode.from_alist("8 4\n")
    with pytest.raises(ValueError, match="truncated alist body"):
        LinearCode.from_alist(" ".join(good.split()[:12]))
    tokens = good.split()
    tokens[4] = "9"  # first column weight now exceeds its entry count
    with pytest.raises(ValueError, match="weight out of range|weight mismatch"):
        LinearCode.from_alist(" ".join(tokens))
    tokens = good.split()
    tokens[-1] = "1" if tokens[-1] != "1" else "2"  # corrupt a row list entry
    with pytest.raises(ValueError, match="disagrees"):
        LinearCode.from_alist(" ".join(tokens))


def test_gallager_construction():
    rng = np.random.default_rng(2)
    code = gallager_code(32, 3, 4, rng)
    assert code.num_checks == 24
    assert all(len(cols) == 4 for cols in code.check_cols)
    # every band touches every column exactly once
    cover = np.zeros(32, dtype=int)
    for cols in code.check_cols:
        cover[cols] += 1
    assert (cover == 3).all()
    assert code.check_cols[0] == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="divide"):
        gallager_code(30, 3, 4, rng)


def _elaborate_column_loop(rows: np.ndarray, n_code: int):
    # reference elimination: rows and transform as separate arrays, every
    # selected row XORed across its full width, rows selected by a mask
    r = rows.shape[0]
    work = rows.copy()
    transform = np.zeros((r, (r + 63) // 64), dtype=np.uint64)
    idx = np.arange(r)
    transform[idx, idx >> 6] = np.uint64(1) << (idx & 63).astype(np.uint64)
    rank = 0
    pivots = []
    one = np.uint64(1)
    for col in range(n_code):
        wi, bi = col >> 6, np.uint64(col & 63)
        hit = np.nonzero((work[rank:, wi] >> bi) & one)[0]
        if hit.size == 0:
            continue
        piv = rank + int(hit[0])
        if piv != rank:
            work[[rank, piv]] = work[[piv, rank]]
            transform[[rank, piv]] = transform[[piv, rank]]
        sel = ((work[:, wi] >> bi) & one).astype(bool)
        sel[rank] = False
        if sel.any():
            work[sel] ^= work[rank]
            transform[sel] ^= transform[rank]
        pivots.append(col)
        rank += 1
        if rank == r:
            break
    return np.asarray(pivots, dtype=np.int64), transform


def _random_checks(rng, n_code, num_checks, weight):
    return [sorted(rng.choice(n_code, size=weight, replace=False).tolist())
            for _ in range(num_checks)]


def test_elimination_bytes_match_column_loop(small_code):
    # coset representatives are wire format, so the pivots and the row
    # transform must not move by one byte
    rng = np.random.default_rng(41)
    repeated = _random_checks(rng, 200, 150, 5)
    repeated.append(repeated[17])  # a dependent row
    repeated = [[c for c in cols if c != 130] or [0] for cols in repeated]  # zero column
    full_rank = [[i, i + 1] for i in range(100)]  # rank == rows: the early break
    codes = [
        *_bench_shaped_codes(),
        small_code,
        LinearCode(200, repeated),
        LinearCode(130, full_rank),
    ]
    for code in codes:
        pivots, transform = _elaborate_column_loop(
            _pack_rows(code.check_cols, code.n_code), code.n_code)
        assert code._pivots.dtype == pivots.dtype and code._pivots.tobytes() == pivots.tobytes()
        assert code._transform.dtype == transform.dtype
        assert code._transform.shape == transform.shape
        assert code._transform.flags.c_contiguous
        assert code._transform.tobytes() == transform.tobytes()
    assert codes[4].rank < codes[4].num_checks
    assert not any(130 in cols for cols in codes[4].check_cols)
    assert codes[5].rank == codes[5].num_checks == 100


@st.composite
def _elimination_cases(draw):
    # more rows than columns, repeated rows, columns no row touches and full
    # rank all come up; the seed draws the words whose syndromes are probed
    n_code = draw(st.integers(min_value=1, max_value=300))
    rows = draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=n_code - 1), min_size=1, max_size=8),
        min_size=1, max_size=min(n_code + 8, 96)))
    repeats = draw(st.lists(st.integers(min_value=0, max_value=len(rows) - 1), max_size=4))
    rows += [rows[i] for i in repeats]
    return n_code, rows, draw(st.integers(min_value=0, max_value=2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(case=_elimination_cases())
@example(case=(300, [[i, i + 1] for i in range(299)], 0))  # rank == rows: the early break
@example(case=(5, [[0], [1], [2], [3], [4], [0, 1], [2, 3], [4]], 1))  # rank == columns
@example(case=(130, [[0, 129], [5], [0, 129]], 2))  # zero columns, a repeated row
def test_elimination_matches_column_loop_property(case):
    n_code, rows, seed = case
    code = LinearCode(n_code, rows)
    pivots, transform = _elaborate_column_loop(_pack_rows(code.check_cols, n_code), n_code)
    assert (code.rank, code.dim) == (pivots.size, n_code - pivots.size)
    assert code._pivots.dtype == pivots.dtype and code._pivots.tobytes() == pivots.tobytes()
    assert code._transform.dtype == transform.dtype
    assert code._transform.shape == transform.shape
    assert code._transform.tobytes() == transform.tobytes()
    rng = np.random.default_rng(seed)
    for _ in range(4):
        syn = code.syndrome_of(BitString.random(rng, n_code))
        rep = code.representative(syn)
        assert code.syndrome_of(rep) == syn
        assert set(np.flatnonzero(rep.to_bits()).tolist()) <= set(pivots.tolist())


def test_back_substitution_waits_for_the_first_representative(tmp_path, reference_params):
    path = tmp_path / "reference.alist"
    path.write_text(_bench_shaped_codes()[1].to_alist())
    code = load_alist(str(path))
    assert "_transform" not in code.__dict__
    # the reference geometry stops at the key budget, before reconciliation
    config = ProtocolConfig(n=2**14, l=10_000, epsilon=5e-5, security_target_log2=-40.0,
                            m2=64, code_path=str(path))
    out = run_protocol(reference_params, NoiseSpec.gaussian(0.2), config,
                       np.random.default_rng(0), code=code)
    assert out.abort_reason.startswith("no key left")
    assert "_transform" not in code.__dict__
    syn = code.syndrome_of(BitString.random(np.random.default_rng(5), code.n_code))
    rep = code.representative(syn)
    transform = code.__dict__["_transform"]
    assert "_forward" not in code.__dict__
    assert code.representative(syn) == rep
    assert code._transform is transform


# --------------------------------------------------------------- soft channel

def test_channel_llr_hand_values():
    # three equally weighted residual points; at symbol 0.3 the flip
    # likelihood is the single point below -0.6
    cdf = EmpiricalCdf(points=(-1.0, 0.0, 0.5))
    chan = SoftChannel(c_hat=2.0, residual_cdf=cdf, prior_log_ratio=0.0)
    llr = chan.llr_array(np.array([0.3, 0.3]), np.array([0, 1]))
    assert llr[0] == pytest.approx(math.log(2.0))
    assert llr[1] == -40.0  # all mass below 0.6
    shifted = SoftChannel(c_hat=2.0, residual_cdf=cdf, prior_log_ratio=0.7)
    assert shifted.llr_array(np.array([0.3]), np.array([0]))[0] == pytest.approx(
        math.log(2.0) + 0.7)


def test_llr_array_clipping_and_sign_symmetry():
    cdf = EmpiricalCdf(points=(-0.2, 0.1, 0.4))
    chan = SoftChannel(c_hat=1.0, residual_cdf=cdf, prior_log_ratio=0.0)
    out = chan.llr_array(np.array([100.0, -100.0, 0.3]), np.zeros(3))
    assert out[0] == 40.0 and out[1] == -40.0
    assert np.abs(out).max() <= 40.0
    # flipping the published bit mirrors the symbol
    a = np.array([0.3, -0.7])
    assert np.allclose(chan.llr_array(a, np.ones(2)),
                       chan.llr_array(-a, np.zeros(2)))


def test_from_bundle_prior_vanishes_for_symmetric_residuals():
    res = (-1.7, -0.9, -0.3, 0.3, 0.9, 1.7)
    bundle = EstimateBundle(e_hat=0.0, v_hat=2.0, c_hat=1.0, v_ab_hat=4.0,
                            w_hat=5.0, l=6, epsilon=0.01, residuals=res)
    chan = SoftChannel.from_cdf(bundle.c_hat, EmpiricalCdf(points=bundle.residuals))
    assert chan.prior_log_ratio == pytest.approx(0.0, abs=1e-12)
    assert chan.c_hat == 1.0
    empty = EstimateBundle(e_hat=0.0, v_hat=2.0, c_hat=1.0, v_ab_hat=4.0,
                           w_hat=5.0, l=6, epsilon=0.01)
    with pytest.raises(ValueError, match="needs at least one point"):
        SoftChannel.from_cdf(empty.c_hat, EmpiricalCdf(points=empty.residuals))


def test_from_bundle_prior_uses_left_limit_at_a_residual():
    # Bob's bit is 0 iff the residual is >= -c_hat * a, so a residual sitting
    # exactly on a node's threshold counts toward bit 0
    k = int(np.argmax(NORMAL_WEIGHTS))
    c_hat = 1.0
    res = tuple(sorted((-c_hat * NORMAL_NODES[k], -1.7, -0.9, 0.9, 1.7, 2.5)))
    bundle = EstimateBundle(e_hat=0.0, v_hat=2.0, c_hat=c_hat, v_ab_hat=4.0,
                            w_hat=5.0, l=6, epsilon=0.01, residuals=res)
    cdf = EmpiricalCdf(points=res)
    z0 = float(np.dot(NORMAL_WEIGHTS, 1.0 - cdf.eval_left(-c_hat * NORMAL_NODES)))
    chan = SoftChannel.from_cdf(bundle.c_hat, EmpiricalCdf(points=bundle.residuals))
    assert chan.prior_log_ratio == pytest.approx(math.log(1.0 - z0) - math.log(z0),
                                                 abs=1e-12)
    # a run hands its one residual CDF to the channel: the same channel
    shared = SoftChannel.from_cdf(c_hat, cdf)
    assert shared == chan and shared.residual_cdf is cdf


# ------------------------------------------------------------------- decoding

def test_bp_decode_noiseless_converges_immediately(small_code):
    rng = np.random.default_rng(42)
    word = BitString.random(rng, small_code.n_code)
    rep = small_code.representative(small_code.syndrome_of(word))
    codeword = word ^ rep
    llrs = np.where(codeword.to_bits() == 1, -40.0, 40.0)
    decoded, converged = bp_decode(small_code, llrs)
    assert converged
    assert decoded == codeword


def test_bp_decode_reports_nonconvergence():
    # a single check fed two contradicting saturated beliefs has no fix
    code = LinearCode(2, [[0, 1]])
    word, converged = bp_decode(code, np.array([40.0, -40.0]))
    assert not converged
    assert code.syndrome_of(word).to_bits().any()


def test_bp_decode_corrects_sparse_errors(small_code):
    rng = np.random.default_rng(43)
    word = BitString.random(rng, small_code.n_code)
    codeword = word ^ small_code.representative(small_code.syndrome_of(word))
    llrs = np.where(codeword.to_bits() == 1, -8.0, 8.0)
    flip = rng.choice(small_code.n_code, size=10, replace=False)
    llrs[flip] *= -1.0
    decoded, converged = bp_decode(small_code, llrs)
    assert converged
    assert decoded == codeword


def test_bp_decode_validates_length(small_code):
    with pytest.raises(ValueError, match="length mismatch"):
        bp_decode(small_code, np.zeros(small_code.n_code + 1))


def test_bp_decode_rejects_nan_and_clamps_inf():
    code = gallager_code(8, 2, 4, np.random.default_rng(5))
    llrs = np.array([np.nan, -1.0, 2.0, 3.0, -4.0, 5.0, 6.0, 7.0])
    with pytest.raises(ValueError, match="NaN"):
        bp_decode(code, llrs)
    infinite = np.array([np.inf, -np.inf, 2.0, 3.0, -4.0, 5.0, -np.inf, 7.0])
    clamped = np.clip(infinite, -LLR_CLAMP, LLR_CLAMP)
    assert bp_decode(code, infinite) == bp_decode(code, clamped)


def _bp_decode_dense(code: LinearCode, llrs):
    # reference decoder: the same sum-product updates, with every stop test
    # taken from the dense packed-row syndrome; also returns the test count
    rows = _pack_rows(code.check_cols, code.n_code)
    tests = []

    def satisfied(hard):
        tests.append(hard)
        return not _syndrome_dense(rows, BitString.from_bits(hard)).to_bits().any()

    llrs = np.clip(np.asarray(llrs, dtype=float), -LLR_CLAMP, LLR_CLAMP)
    ce, ve, starts = code._edges_check, code._edges_var, code._check_starts
    msg_vc = llrs[ve]
    hard = (llrs < 0).astype(np.uint8)
    if satisfied(hard):
        return BitString.from_bits(hard), True, len(tests)
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
        if satisfied(hard):
            return BitString.from_bits(hard), True, len(tests)
    return BitString.from_bits(hard), False, len(tests)


def test_bp_decode_matches_dense_reference_on_weak_eve_blocks(
    weak_eve_params, weak_eve_noise, monkeypatch
):
    # Alice's LLRs as a run builds them at the weak-eve geometry, decoded on
    # the weak-eve bench code shape; BP's iteration count is read off its
    # syndrome_of calls, so those must match the reference's stop tests
    code = _bench_shaped_codes()[0]
    rng = np.random.default_rng(61)
    l, blocks = 10_000, 4
    alice, bob, _, _ = sample_rounds(
        weak_eve_params, weak_eve_noise, rng, 2 * l + blocks * code.n_code)
    bundle = estimate_moments(np.column_stack([alice[:l], bob[:l]]), 5e-5)
    bundle = residuals(np.column_stack([alice[l:2 * l], bob[l:2 * l]]), bundle)
    chan = SoftChannel.from_cdf(bundle.c_hat, EmpiricalCdf(points=bundle.residuals))
    bob_bits = (bob[2 * l:] < bundle.e_hat).astype(np.uint8)
    cases = []
    for k in range(blocks):
        sl = slice(k * code.n_code, (k + 1) * code.n_code)
        shift = code.representative(code.syndrome_of(BitString.from_bits(bob_bits[sl])))
        cases.append(chan.llr_array(alice[2 * l:][sl], shift.to_bits()))
    # an input whose hard decision is already a codeword
    codeword = BitString.from_bits(bob_bits[: code.n_code]) ^ code.representative(
        code.syndrome_of(BitString.from_bits(bob_bits[: code.n_code])))
    cases.append(np.where(codeword.to_bits() == 1, -3.0, 3.0))
    # a block too noisy to decode
    noisy = cases[0].copy()
    noisy[rng.choice(code.n_code, size=code.n_code // 4, replace=False)] *= -1.0
    cases.append(noisy)
    calls = []
    syndrome_of = LinearCode.syndrome_of
    monkeypatch.setattr(
        LinearCode, "syndrome_of", lambda self, x: calls.append(x) or syndrome_of(self, x))
    flags = []
    for llrs in cases:
        calls.clear()
        got, converged = bp_decode(code, llrs)
        want, want_converged, want_tests = _bp_decode_dense(code, llrs)
        assert got.words.tobytes() == want.words.tobytes()
        assert converged == want_converged
        assert len(calls) == want_tests
        flags.append(converged)
    assert flags[-2] and not flags[-1]
    assert sum(flags[:blocks]) >= blocks - 1


# -------------------------------------------------------------- reconciliation

def test_reconcile_noiseless_round_trip(small_code):
    rng = np.random.default_rng(44)
    bob = BitString.random(rng, small_code.n_code)
    # symbol sign encodes the bit exactly; point residual makes it certain
    symbols = np.where(bob.to_bits() == 1, -1.0, 1.0)
    chan = SoftChannel(c_hat=1.0, residual_cdf=EmpiricalCdf(points=(0.0,)),
                       prior_log_ratio=0.0)
    bob_cw, shift = reconcile(small_code, bob)
    alice_cw = alice_decode(small_code, symbols, shift, chan)
    assert bob_cw == alice_cw
    assert not small_code.syndrome_of(bob_cw).to_bits().any()
    assert shift == small_code.representative(small_code.syndrome_of(bob))
    assert bob_cw == bob ^ shift


def test_reconcile_matches_at_operating_point(small_code):
    # correlated Gaussian data at the low-noise demo geometry: every block
    # must close; the shift is the only quantity a wiretapper sees
    rng = np.random.default_rng(77)
    gain, rstd = 2.0, math.sqrt(0.35)
    res = np.sort(rng.normal(scale=rstd, size=4000))
    bundle = EstimateBundle(
        e_hat=0.0, v_hat=gain * gain + 0.35, c_hat=gain,
        v_ab_hat=3 * gain * gain + 0.35, w_hat=10.0, l=4000,
        epsilon=5e-5, residuals=tuple(res.tolist()))
    chan = SoftChannel.from_cdf(bundle.c_hat, EmpiricalCdf(points=bundle.residuals))
    matched = 0
    for _ in range(8):
        a = rng.normal(size=small_code.n_code)
        b = gain * a + rng.normal(scale=rstd, size=small_code.n_code)
        bits = BitString.from_bits((b < 0.0).astype(np.uint8))
        bob_cw, shift = reconcile(small_code, bits)
        alice_cw = alice_decode(small_code, a, shift, chan)
        assert not small_code.syndrome_of(bob_cw).to_bits().any()
        matched += bob_cw == alice_cw
    assert matched >= 7


def test_reconcile_validates_lengths(small_code):
    chan = SoftChannel(c_hat=1.0, residual_cdf=EmpiricalCdf(points=(0.0,)),
                       prior_log_ratio=0.0)
    with pytest.raises(ValueError, match="block length"):
        reconcile(small_code, BitString.zeros(small_code.n_code - 1))
    _, shift = reconcile(small_code, BitString.zeros(small_code.n_code))
    with pytest.raises(ValueError, match="block length"):
        alice_decode(small_code, np.zeros(small_code.n_code - 1), shift, chan)
