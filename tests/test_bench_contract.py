"""The benchmark's hooks into the program, checked without running the benchmark.

bench/ patches module attributes and class methods by name and reads a few
attributes of the program's objects. A rename there shows up here as a test
failure instead of as a failed benchmark run.
"""

from pathlib import Path

import numpy as np
import pytest

from gausskey import NoiseSpec
from gausskey.protocol import STATUS_SUCCESS, ProtocolConfig, run_protocol
from gausskey.secbounds import _GRID

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))


def small_config():
    return ProtocolConfig(n=4096, l=10_000, epsilon=5e-5, security_target_log2=-40.0,
                          m2=64, code_path="unused-preloaded")


def test_every_traced_target_resolves(bench):
    import spans

    for owner, attr, name, _note in spans.program_targets():
        assert attr in owner.__dict__, f"{name}: {owner.__name__} has no {attr}"
        assert callable(owner.__dict__[attr]), name


def test_sacrifice_probe_records_m1(bench, weak_eve_params, weak_eve_noise, small_code):
    import inproc

    probe = inproc.SacrificeProbe()
    with probe.installed():
        out = run_protocol(weak_eve_params, weak_eve_noise, small_config(),
                           np.random.default_rng(101), code=small_code)
    assert out.status == STATUS_SUCCESS
    assert probe.m1 == out.transcript.m1
    assert probe.first[3] == probe.m1
    assert inproc.minimality(probe.first) is None


def test_traced_run_records_every_layer(bench, weak_eve_params, weak_eve_noise, small_code):
    import spans

    tracer = spans.Tracer()
    with tracer.installed(spans.program_targets()):
        out = run_protocol(weak_eve_params, weak_eve_noise, small_config(),
                           np.random.default_rng(101), code=small_code)
    assert out.status == STATUS_SUCCESS
    names = {s.name for s in tracer.spans}
    for name in ("secbounds.build_certified_exponent", "secbounds.sacrifice_length",
                 "secbounds.phi", "reconciliation.bp_decode", "hashing.toeplitz_hash"):
        assert name in names
    _timings, counts = spans.layer_metrics(tracer.spans, {0})
    assert counts["secbounds.quad_points"] == 10_000  # 10^4 residual point masses
    assert counts["secbounds.phi_evals"] > 0


def test_traced_smoothed_run_counts_the_grid_law(bench, reference_params, small_code):
    import spans

    tracer = spans.Tracer()
    with tracer.installed(spans.program_targets()):
        run_protocol(reference_params, NoiseSpec.gaussian(0.2), small_config(),
                     np.random.default_rng(101), code=small_code)
    names = {s.name for s in tracer.spans}
    assert {"secbounds.build_certified_exponent", "secbounds.sacrifice_length"} <= names
    _timings, counts = spans.layer_metrics(tracer.spans, {0})
    # 10^4 smoothed residuals are 580 000 kernel points; every evaluation
    # runs on the grid's edges instead
    assert counts["secbounds.quad_points"] == _GRID + 1
    assert 0 < counts["secbounds.phi_evals"] <= 31
    assert counts["secbounds.quad_points_total"] == (_GRID + 1) * counts["secbounds.phi_evals"]


def test_traced_reconcile_is_bobs_half_per_block(bench, weak_eve_params, weak_eve_noise, small_code):
    # reconciliation.syndrome.s reads the syndrome_of spans directly under
    # reconcile, so each block's reconcile span must hold Bob's syndrome
    import spans

    tracer = spans.Tracer()
    with tracer.installed(spans.program_targets()):
        out = run_protocol(weak_eve_params, weak_eve_noise, small_config(),
                           np.random.default_rng(101), code=small_code)
    assert out.status == STATUS_SUCCESS
    kids = spans.children(tracer.spans)
    blocks = [i for i, s in enumerate(tracer.spans) if s.name == "reconciliation.reconcile"]
    assert len(blocks) == out.total_blocks == 8
    for i in blocks:
        assert [tracer.spans[k].name for k in kids[i]].count("reconciliation.syndrome_of") == 1
    timings, _counts = spans.layer_metrics(tracer.spans, {0})
    assert timings["reconciliation.syndrome.s"] > 0.0
