"""cli-batch: `gausskey keygen` processes, timed whole from outside.

Each batch is one fresh interpreter running the console-script entry point
on a scenario written for it. The traced form runs the same command through
traced_cli.py, which records the parent-side steps; the worker-side layers
are traced in-process on the batch's first seeds.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from time import perf_counter

import numpy as np

from gausskey.protocol import STATUS_SUCCESS

import inproc
from common import BENCH, RunRecord, run_child
from spans import Span
from workloads import run_failures, write_scenario

ENTRY = "import sys; from gausskey.cli import main; sys.exit(main())"
BATCH_TIMEOUT_S = 120.0
MIN_BATCHES = 2


def keygen_args(wl, scenario: Path, out: Path) -> list[str]:
    return ["keygen", "--scenario", str(scenario), "--runs", str(wl.cli_runs),
            "--workers", str(wl.cli_workers), "--out", str(out)]


class Batch:
    def __init__(self, wl, inputs, workdir: Path, index: int, tag: str) -> None:
        self.first_seed = inputs.seed_base + index * wl.cli_runs
        self.dir = workdir / f"batch{index}-{tag}"
        self.dir.mkdir()
        self.scenario = self.dir / "scenario.json"
        write_scenario(wl, inputs, self.first_seed, self.scenario)
        self.out = self.dir / "out"
        self.launched = 0.0  # wall clock at launch, for cli.process_start_s
        self.wall = 0.0
        self.rc = 0
        self.rss_kb = 0

    def run(self, wl, traced: bool) -> None:
        args = keygen_args(wl, self.scenario, self.out)
        if traced:
            args = [str(BENCH / "traced_cli.py"), str(self.dir / "spans.json"), *args]
            self.launched = time.time()
        else:
            args = ["-c", ENTRY, *args]
        self.wall, self.rc, self.rss_kb = run_child(args, BATCH_TIMEOUT_S, self.dir / "log.txt")

    def outputs(self) -> tuple[list, dict]:
        """runs.jsonl records and the key files, as written by the CLI."""
        path = self.out / "runs.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()] if path.exists() else []
        keys = {}
        key_dir = self.out / "keys"
        if key_dir.exists():
            for f in sorted(key_dir.iterdir()):
                keys[f.name] = f.read_text().strip()
        return records, keys

    def check(self, wl) -> tuple[list[RunRecord], list[str]]:
        """Per-run records with their failures, and batch-level check failures."""
        records, keys = self.outputs()
        problems = [] if self.rc == 0 else [f"keygen exited with {self.rc}, see {self.dir / 'log.txt'}"]
        if len(records) != wl.cli_runs:
            problems.append(f"runs.jsonl holds {len(records)} of {wl.cli_runs} runs")
        per_run_wall = self.wall / wl.cli_runs
        out = []
        for i in range(wl.cli_runs):
            rec = records[i] if i < len(records) else None
            seed = self.first_seed + i
            if rec is None or rec.get("run") != i or rec.get("seed") != seed:
                out.append(RunRecord(seed, per_run_wall, None, None, 0, None, ["no record"]))
                continue
            alice = keys.get(f"run_{i}_alice.hex")
            bob = keys.get(f"run_{i}_bob.hex")
            ok_keys = alice is not None and alice == bob
            bounds = {c["criterion"]: c["log2_bound"] for c in rec["certificates"]}
            failures = run_failures(wl, rec["status"], ok_keys, bounds, rec["m1"] is not None)
            out.append(RunRecord(seed, per_run_wall, rec["status"], rec["m1"],
                                 rec["key_len"], alice, failures))
        return out, problems


def measure(wl, inputs, seconds: float, trace: bool, workdir: Path) -> inproc.Measured:
    res = inproc.Measured()
    batches: list[Batch] = []
    deadline = perf_counter() + seconds
    while len(batches) < MIN_BATCHES or perf_counter() < deadline:
        index = len(batches)
        batch = Batch(wl, inputs, workdir, index, "untraced")
        if trace:
            twin = Batch(wl, inputs, workdir, index, "traced")
            for b, traced in ((batch, False), (twin, True)) if index % 2 == 0 else ((twin, True), (batch, False)):
                b.run(wl, traced)
            if twin.outputs() != batch.outputs():
                res.check_failures.append(f"traced keygen batch {index} output differs from untraced")
            batches.append((batch, twin))
        else:
            batch.run(wl, False)
            batches.append(batch)

    plain = [b[0] for b in batches] if trace else batches
    for b in plain + ([b[1] for b in batches] if trace else []):
        recs, problems = b.check(wl)
        res.records.extend(recs)
        res.check_failures.extend(problems)
    cli_records = res.records[: wl.cli_runs * len(plain)]
    res.digest_rows = [inproc.digest_row(r) for r in cli_records[: wl.min_runs]]

    # the library runs the first seeds again in-process: same outputs, the
    # minimality and replay checks, and (traced) the worker-side layers
    lib = inproc.measure(wl, inputs, 0.0, trace)
    res.records.extend(lib.records)
    res.check_failures.extend(lib.check_failures)
    if lib.digest_rows != res.digest_rows:
        res.check_failures.append("keygen outputs differ from the library's runs of the same seeds")

    if not trace:
        walls = [b.wall for b in plain]
        sized = [r.m1 for r in cli_records if r.m1 is not None]
        res.metrics.update({
            "batch_s": float(np.median(walls)),
            "run_s.p50": float(np.median(walls)) / wl.cli_runs,
            "key_bits_per_s": sum(r.key_bits for r in cli_records) / sum(walls),
            "key_bits_per_run": sum(r.key_bits for r in cli_records) / len(cli_records),
            "sacrifice_bits": float(np.mean(sized)) if sized else 0.0,
            "key_success_rate": sum(r.status == STATUS_SUCCESS for r in cli_records) / len(cli_records),
            "peak_rss_mb": max(b.rss_kb for b in plain) / 1024.0,
        })
    else:
        res.metrics.update(lib.metrics)
        res.info.update(lib.info)
        res.tracer = lib.tracer
        cli_metrics(batches, res)
    return res


def cli_metrics(pairs, res: inproc.Measured) -> None:
    """Parent-side spans of the traced keygen processes, median over batches."""
    rows = []
    for plain, traced in pairs:
        data = json.loads((traced.dir / "spans.json").read_text())
        spans = [Span(*s) for s in data["spans"]]
        by = {s.name: s for s in spans}  # each parent-side step runs once per process
        pool = by["cli.pool"]
        start = data["main_start"] - traced.launched
        row = {
            "cli.process_start_s": start,
            "cli.load_scenario.s": by["cli.load_scenario"].duration,
            "cli.load_alist.s": by["cli.load_alist"].duration,
            "cli.pool_s": pool.duration,
            "cli.write_s": by["cli.cmd_simulate"].end - pool.end,
        }
        row["trace_overhead"] = traced.wall / plain.wall - 1.0
        outside_pool = start + row["cli.load_scenario.s"] + row["cli.load_alist.s"] + row["cli.write_s"]
        rows.append((row, outside_pool / traced.wall))
    for key in rows[0][0]:
        res.metrics[key] = float(np.median([r[key] for r, _ in rows]))
    # the worker-side shares come from the in-process traced runs
    res.info["cli_parent_share_outside_pool"] = float(np.median([share for _, share in rows]))
    res.info["traced_batches"] = len(rows)
