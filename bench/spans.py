"""In-memory span tracer that wraps the program's layer boundaries from outside.

The program is not edited: a traced pass swaps module attributes and class
methods for timing wrappers and restores them afterwards. Each call records
one span (name, start, end, parent span, run id, note); the list stays in
memory until the benchmark writes it out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    run: int
    note: object = None  # per-call detail a metric needs (sizes, keys)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []

    def begin(self, name: str) -> Span:
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, note=None):
        """fn with a span around every call; note(args, kwargs, result) fills Span.note."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return traced

    def installed(self, targets):
        """Swap each (owner, attribute, span name, note) for its traced form."""
        return swapped(
            (owner, attr, self.wrap(name, owner.__dict__[attr], note))
            for owner, attr, name, note in targets
        )

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.run, _jsonable(s.note)]) + "\n")


@contextlib.contextmanager
def swapped(replacements):
    """Set each (owner, attribute, value) for the duration; restore on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _jsonable(note):
    return note if note is None or isinstance(note, (int, float, str)) else repr(note)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part its direct children cover."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def children(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def program_targets():
    """The calls the protocol makes into each layer, as Tracer.installed targets.

    These are the names gausskey.protocol imports (patched where protocol
    looks them up), the secbounds and reconciliation globals that the
    sacrifice search and reconcile call, and the per-block and per-evaluation
    methods.
    """
    from gausskey import protocol, reconciliation, secbounds
    from gausskey.reconciliation import LinearCode, SoftChannel
    from gausskey.secbounds import ExponentWithPadding

    def rounds(args, kwargs, result):
        return int(args[3] if len(args) > 3 else kwargs["count"])

    def matrix_bits(args, kwargs, result):
        seed = args[0]
        return seed.input_len * seed.output_len

    def quad_points(args, kwargs, result):
        return int(result._p.size)  # the evaluator's sign-probability vector

    def phi_key(args, kwargs, result):
        return (id(args[0]), float(args[1]))

    return [
        (protocol, "sample_rounds", "gaussmodel.sample_rounds", rounds),
        (protocol, "estimate_moments", "estimation.estimate_moments", None),
        (protocol, "residuals", "estimation.residuals", None),
        (protocol, "post_selection_gate", "protocol.post_selection_gate", None),
        (protocol, "mutual_info_ab", "secbounds.mutual_info_ab", None),
        (protocol, "estimate_eve_cdf", "estimation.estimate_eve_cdf", None),
        (protocol, "build_certified_exponent", "secbounds.build_certified_exponent", quad_points),
        (protocol, "sacrifice_length", "secbounds.sacrifice_length", None),
        (protocol, "certify", "protocol.certify", None),
        (protocol, "reconcile", "reconciliation.reconcile", None),
        (protocol, "toeplitz_hash", "hashing.toeplitz_hash", matrix_bits),
        (protocol, "verification_tag", "hashing.verification_tag", None),
        (protocol, "minimize_exponent", "secbounds.minimize_exponent", None),
        (secbounds, "minimize_exponent", "secbounds.minimize_exponent", None),
        (reconciliation, "bp_decode", "reconciliation.bp_decode", None),
        (LinearCode, "syndrome_of", "reconciliation.syndrome_of", None),
        (LinearCode, "representative", "reconciliation.representative", None),
        (SoftChannel, "llr_array", "reconciliation.llr_array", None),
        (ExponentWithPadding, "__call__", "secbounds.phi", phi_key),
    ]


# recorded by traced_cli.py in the keygen parent; the cli layer runs only there
CLI_METRICS = ("cli.process_start_s", "cli.load_scenario.s", "cli.load_alist.s", "cli.pool_s", "cli.write_s")

LAYERS = ("gaussmodel", "estimation", "protocol", "secbounds", "reconciliation", "hashing", "cli")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans: list[Span], count_runs: set[int]) -> tuple[dict, dict]:
    """Per-layer timings over every traced run, and counts over count_runs.

    Timings named `.s` are span durations and `.self_s` self times, per run
    (median over runs) unless the metric is per call or per block. The
    counts are means per run or per block over count_runs only, so that
    they depend on the seeds and the code and not on how many runs fit into
    the measuring time. Returns (timings, counts).
    """
    selfs = self_times(spans)
    kids = children(spans)
    runs = sorted({s.run for s in spans})
    by_run: dict[int, dict[str, list[int]]] = {r: {} for r in runs}
    for i, s in enumerate(spans):
        by_run[s.run].setdefault(s.name, []).append(i)

    def per_run(name: str, self_time: bool = False) -> float:
        return _median(
            sum((selfs[i] if self_time else spans[i].duration for i in idx.get(name, ())), 0.0)
            for idx in by_run.values()
        )

    def _all(name: str):
        return [i for idx in by_run.values() for i in idx.get(name, ())]

    def per_call(name: str, select=lambda i: True) -> float:
        return _median(spans[i].duration for i in _all(name) if select(i))

    def under(i: int, parent: str) -> bool:
        return spans[i].parent >= 0 and spans[spans[i].parent].name == parent

    # a distinct evaluation is the first call of an evaluator at a given t
    seen: set = set()
    first_eval: set[int] = set()
    for i in _all("secbounds.phi"):
        key = (spans[i].run, spans[i].note)
        if key not in seen:
            seen.add(key)
            first_eval.add(i)

    timings = {
        "gaussmodel.sample_rounds.s": per_run("gaussmodel.sample_rounds"),
        "estimation.estimate_moments.s": per_run("estimation.estimate_moments"),
        "estimation.residuals.s": per_run("estimation.residuals"),
        "estimation.estimate_eve_cdf.s": per_run("estimation.estimate_eve_cdf"),
        "protocol.post_selection_gate.s": per_run("protocol.post_selection_gate"),
        "secbounds.mutual_info_ab.s": per_run("secbounds.mutual_info_ab"),
        "protocol.certify.s": per_run("protocol.certify"),
        "protocol.run_protocol.self_s": per_run("protocol.run_protocol", self_time=True),
        "secbounds.build_certified_exponent.s": per_run("secbounds.build_certified_exponent"),
        "secbounds.sacrifice_length.s": per_run("secbounds.sacrifice_length"),
        "secbounds.sacrifice_length.self_s": per_run("secbounds.sacrifice_length", self_time=True),
        "secbounds.minimize_exponent.s": per_call("secbounds.minimize_exponent"),
        "secbounds.phi_eval.s": per_call("secbounds.phi", lambda i: i in first_eval),
        "reconciliation.syndrome.s": per_call(
            "reconciliation.syndrome_of", lambda i: under(i, "reconciliation.reconcile")
        ),
        "reconciliation.representative.s": per_call("reconciliation.representative"),
        "reconciliation.llr.s": per_call("reconciliation.llr_array"),
        "reconciliation.bp_decode.s": per_call("reconciliation.bp_decode"),
        "hashing.toeplitz_hash.s": per_call("hashing.toeplitz_hash"),
        "hashing.verification_tag.s": per_call("hashing.verification_tag"),
    }

    counted = {r: by_run[r] for r in runs if r in count_runs}

    def count_per_run(fn) -> float:
        return _mean(fn(idx) for idx in counted.values())

    bp_iters = [
        sum(1 for k in kids[i] if spans[k].name == "reconciliation.syndrome_of") - 1
        for idx in counted.values()
        for i in idx.get("reconciliation.bp_decode", ())
    ]
    evals_per_run = [sum(1 for i in idx.get("secbounds.phi", ()) if i in first_eval) for idx in counted.values()]
    quad = [spans[i].note for idx in counted.values() for i in idx.get("secbounds.build_certified_exponent", ())]
    quad_total = [
        sum(spans[i].note for i in idx.get("secbounds.build_certified_exponent", ())) * evals
        for idx, evals in zip(counted.values(), evals_per_run)
    ]
    phi_calls = count_per_run(lambda idx: len(idx.get("secbounds.phi", ())))
    counts = {
        "gaussmodel.rounds": count_per_run(
            lambda idx: sum(spans[i].note for i in idx.get("gaussmodel.sample_rounds", ()))
        ),
        "secbounds.minimizations": count_per_run(lambda idx: len(idx.get("secbounds.minimize_exponent", ()))),
        "secbounds.phi_evals": _mean(evals_per_run),
        "secbounds.phi_calls": phi_calls,
        "secbounds.phi_memo_hit_ratio": 1.0 - _mean(evals_per_run) / phi_calls if phi_calls else 0.0,
        "secbounds.quad_points": _median(quad),
        "secbounds.quad_points_total": _mean(quad_total),
        "reconciliation.bp_iterations": _mean(bp_iters),
        # the first hash of a run is privacy amplification; Alice's reuses its seed
        "hashing.pa_matrix_bits": count_per_run(
            lambda idx: sum(spans[i].note for i in idx.get("hashing.toeplitz_hash", ())[:1])
        ),
    }
    return timings, counts


def layer_shares(spans: list[Span]) -> dict[str, float]:
    """Each layer's self time as a share of the traced root spans' time."""
    selfs = self_times(spans)
    total = sum(s.duration for s in spans if s.parent < 0)
    shares = {layer: 0.0 for layer in LAYERS}
    for s, self_s in zip(spans, selfs):
        shares[s.layer] += self_s
    return {k: (v / total if total else 0.0) for k, v in shares.items()}
