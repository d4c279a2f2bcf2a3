"""In-process workloads: protocol runs with the code preloaded, one process."""

from __future__ import annotations

import resource
from time import perf_counter
from typing import NamedTuple

import numpy as np

from gausskey import protocol
from gausskey.protocol import STATUS_SUCCESS, replay_alice, run_protocol
from gausskey.reconciliation import load_alist
from gausskey.secbounds import VARIATIONAL_DISTANCE, minimize_exponent

from common import RunRecord
from spans import CLI_METRICS, Tracer, layer_metrics, layer_shares, program_targets, swapped
from workloads import run_failures


class Signature(NamedTuple):
    """Everything a run outputs that traced and repeated runs must reproduce."""

    status: str | None
    abort_reason: str | None
    m1: int | None
    bob_key: str | None
    alice_key: str | None
    certificates: tuple
    converged_blocks: int
    total_blocks: int
    mutual_info: float | None


class SacrificeProbe:
    """Records what sacrifice_length returns, the only hook in untraced runs.

    A run that aborts carries no transcript, so its m1 and whether the
    sacrifice was sized at all are read here. The first run's evaluator is
    kept for the minimality check.
    """

    def __init__(self) -> None:
        self.m1: int | None = None
        self.first: tuple | None = None

    def installed(self):
        original = protocol.__dict__["sacrifice_length"]

        def probed(phi, n, target_log2):
            m1 = original(phi, n, target_log2)
            self.m1 = m1
            if self.first is None:
                self.first = (phi, n, target_log2, m1)
            return m1

        return swapped([(protocol, "sacrifice_length", probed)])


def signature(out, m1) -> Signature:
    if out is None:
        return Signature(None, None, m1, None, None, (), 0, 0, None)
    return Signature(
        out.status, out.abort_reason, m1,
        out.bob_key.to_hex() if out.bob_key is not None else None,
        out.alice_key.to_hex() if out.alice_key is not None else None,
        tuple((c.criterion, c.s_star, c.log2_bound) for c in out.certificates),
        out.converged_blocks, out.total_blocks, out.mutual_info_estimate,
    )


def run_one(wl, code, config, seed: int, probe: SacrificeProbe, run=run_protocol):
    """One timed protocol run; (record, signature, outcome)."""
    probe.m1 = None
    start = perf_counter()
    try:
        out = run(wl.params, wl.noise, config, np.random.default_rng(seed), code=code)
    except Exception as exc:  # a raising run is counted as failed, not fatal
        wall = perf_counter() - start
        rec = RunRecord(seed, wall, None, probe.m1, 0, None, [f"raised {exc!r}"])
        return rec, signature(None, probe.m1), None
    wall = perf_counter() - start
    sig = signature(out, probe.m1)
    bounds = {crit: bound for crit, _, bound in sig.certificates}
    keys_equal = out.bob_key is not None and out.bob_key == out.alice_key
    failures = run_failures(wl, out.status, keys_equal, bounds, probe.m1 is not None)
    rec = RunRecord(seed, wall, out.status, probe.m1, out.key_length, sig.alice_key, failures)
    return rec, sig, out


def minimality(first) -> str | None:
    """bound(m1) <= target < bound(m1 - 1) on the run's own evaluator."""
    if first is None:
        return "no run sized the sacrifice"
    phi, n, target, m1 = first
    at = minimize_exponent(phi, n, m1, VARIATIONAL_DISTANCE).log2_bound
    if not at <= target:
        return f"sacrifice {m1} misses the target: bound {at} > {target}"
    if m1 > 0:
        below = minimize_exponent(phi, n, m1 - 1, VARIATIONAL_DISTANCE).log2_bound
        if not below > target:
            return f"sacrifice {m1} is not minimal: bound({m1 - 1}) = {below} <= {target}"
    return None


def replay_check(wl, code, config, seed: int, expected: Signature) -> str | None:
    """Rerun one seed, capturing Alice's symbols, and replay her side."""
    captured = {}
    original = protocol.__dict__["sample_rounds"]

    def capture(*args, **kwargs):
        rounds = original(*args, **kwargs)
        captured["alice"] = rounds[0]
        return rounds

    probe = SacrificeProbe()
    with probe.installed(), swapped([(protocol, "sample_rounds", capture)]):
        _, sig, out = run_one(wl, code, config, seed, probe)
    if sig != expected:
        return f"seed {seed} does not repeat: {sig} != {expected}"
    if out is None or out.status != STATUS_SUCCESS:
        return None
    key = replay_alice(captured["alice"], out.transcript, code)
    return None if key == out.alice_key else f"replay_alice differs from the run on seed {seed}"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Measured:
    """What a workload module hands back to run.py."""

    def __init__(self) -> None:
        self.records: list[RunRecord] = []
        self.metrics: dict[str, float] = {}
        self.check_failures: list[str] = []
        self.info: dict = {}
        self.digest_rows: list[tuple] = []
        self.tracer: Tracer | None = None


def measure(wl, inputs, seconds: float, trace: bool) -> Measured:
    res = Measured()
    config = wl.config(inputs.code_path)
    load_start = perf_counter()
    code = load_alist(inputs.code_path)
    load_s = perf_counter() - load_start
    probe = SacrificeProbe()
    first_success: tuple[int, Signature] | None = None
    # one untimed run first: the allocator and the caches reach their steady state
    run_one(wl, code, config, inputs.seed_base - 1, SacrificeProbe())
    deadline = perf_counter() + seconds
    with probe.installed():
        if not trace:
            i = 0
            while i < wl.min_runs or perf_counter() < deadline:
                rec, sig, _ = run_one(wl, code, config, inputs.seed_base + i, probe)
                res.records.append(rec)
                if first_success is None and rec.status == STATUS_SUCCESS:
                    first_success = (rec.seed, sig)
                i += 1
            res.metrics.update(end_to_end(res.records))
            res.metrics["peak_rss_mb"] = peak_rss_mb()
            res.digest_rows = [digest_row(r) for r in res.records[: wl.min_runs]]
        else:
            first_success = traced_pairs(wl, code, config, inputs, deadline, probe, res)
            res.metrics["reconciliation.load_alist.s"] = load_s
    problem = minimality(probe.first)
    if problem:
        res.check_failures.append(f"minimal sacrifice: {problem}")
    if first_success is not None:
        problem = replay_check(wl, code, config, *first_success)
        if problem:
            res.check_failures.append(f"replay: {problem}")
    elif wl.expect_key:
        res.check_failures.append("replay: no successful run to replay")
    return res


def digest_row(rec: RunRecord) -> tuple:
    return rec.seed, rec.status, rec.m1, rec.key_hex


def end_to_end(records: list[RunRecord]) -> dict[str, float]:
    walls = sorted(r.wall for r in records)
    sized = [r.m1 for r in records if r.m1 is not None]
    out = {
        "run_s.p50": float(np.median(walls)),
        "key_bits_per_s": sum(r.key_bits for r in records) / sum(walls),
        "key_bits_per_run": float(np.mean([r.key_bits for r in records])),
        "sacrifice_bits": float(np.mean(sized)) if sized else 0.0,
        "key_success_rate": sum(r.status == STATUS_SUCCESS for r in records) / len(records),
    }
    if len(walls) >= 100:  # at least ten samples beyond the 90th percentile
        out["run_s.p90"] = float(np.percentile(walls, 90))
    return out


def traced_pairs(wl, code, config, inputs, deadline, probe, res: Measured):
    """Untraced and traced runs of the same seeds, in alternating order."""
    tracer = Tracer()
    targets = program_targets()
    traced_run = tracer.wrap("protocol.run_protocol", run_protocol)
    walls = {False: 0.0, True: 0.0}
    converged = total = 0
    first_success = None
    i = 0
    while i < wl.min_runs or perf_counter() < deadline:
        seed = inputs.seed_base + i
        sigs = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.run = i
                with tracer.installed(targets):
                    rec, sigs[traced], _ = run_one(wl, code, config, seed, probe, traced_run)
            else:
                rec, sigs[traced], _ = run_one(wl, code, config, seed, probe)
            res.records.append(rec)
            walls[traced] += rec.wall
            if not traced and i < wl.min_runs:
                res.digest_rows.append(digest_row(rec))
        if sigs[True] != sigs[False]:
            res.check_failures.append(f"traced run of seed {seed} differs from untraced")
        if i < wl.min_runs:
            converged += sigs[True].converged_blocks
            total += sigs[True].total_blocks
        if first_success is None and sigs[False].status == STATUS_SUCCESS:
            first_success = (seed, sigs[False])
        i += 1

    count_runs = set(range(wl.min_runs))
    timings, counts = layer_metrics(tracer.spans, count_runs)
    # counts must repeat exactly: trace the first seed again
    again = Tracer()
    with again.installed(targets):
        run_one(wl, code, config, inputs.seed_base, probe, again.wrap("protocol.run_protocol", run_protocol))
    if layer_metrics(again.spans, {0})[1] != layer_metrics(tracer.spans, {0})[1]:
        res.check_failures.append("work counts differ between two traced runs of one seed")

    res.metrics.update(timings)
    res.metrics.update(counts)
    res.metrics.update(dict.fromkeys(CLI_METRICS, 0.0))
    res.info["layer_shares"] = layer_shares(tracer.spans)
    res.metrics["reconciliation.blocks_converged_ratio"] = converged / total if total else 0.0
    res.metrics["trace_overhead"] = walls[True] / walls[False] - 1.0
    roots = sum(s.duration for s in tracer.spans if s.parent < 0)
    res.info["self_time_coverage"] = roots / walls[False] - 1.0
    res.info["traced_runs"] = i
    res.tracer = tracer
    return first_success
