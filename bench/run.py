"""Layered benchmark of gausskey: one command, three workloads.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

With --trace 0 a run times the workload untraced and prints the end-to-end
metrics; with --trace 1 it runs the same seeds untraced and traced, checks
that both give the same outputs, and prints the per-layer metrics. Every
metric is printed by name with its unit; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"} holding the metrics
BENCHMARK.json names for that mode. The exit code is 0 when every run and
every check passed, 1 when one failed, 2 on bad usage or a missing program.
See bench/README.md.
"""

from __future__ import annotations

import os
import sys

from common import BENCH, ROOT, SRC, THREAD_VARS, run_child

for _var in THREAD_VARS:  # before numpy loads a BLAS
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import tempfile
from pathlib import Path

WORKLOAD_NAMES = ("weak-eve-65536", "reference-16384", "cli-batch")
WORK = BENCH / "work"
RESULTS = BENCH / "results"
SETUP_TIMEOUT_S = 60.0
SETUP_REPEATS = 3

# end-to-end metrics printed besides the gated ones, where they apply
EXTRA_UNITS = {
    "run_s.p90": ("s", "lower"),
    "batch_s": ("s", "lower"),
    "key_bits_per_s": ("bit/s", "higher"),
    "key_bits_per_run": ("bit", "higher"),
    "key_success_rate": ("fraction", "higher"),
}
EXTRA_ABSENT = {
    "run_s.p90": "needs >= 100 protocol runs in one benchmark run",
    "batch_s": "only cli-batch runs the keygen process",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=("all", *WORKLOAD_NAMES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or (args.seconds is not None and not args.seconds > 0):
        p.error("need --seed >= 0 and --seconds > 0")
    return args


def machine_block(workers: int) -> dict:
    import numpy
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = got.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "gausskey").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "cpu_model": cpu_model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "compute_threads": max(workers, 1),
        "threads_within_nproc": max(workers, 1) <= nproc,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


def measure_setup(wl, inputs, workdir: Path) -> float:
    """Median wall time of a fresh interpreter importing the package and loading the code."""
    module = "gausskey.cli" if wl.cli_runs else "gausskey"
    code = f"import sys, {module}; from gausskey.reconciliation import load_alist; load_alist(sys.argv[1])"
    walls = []
    for _ in range(SETUP_REPEATS):
        wall, rc, _ = run_child(["-c", code, inputs.code_path], SETUP_TIMEOUT_S, workdir / "setup.log")
        if rc != 0:
            raise RuntimeError(f"set-up process exited with {rc}: {(workdir / 'setup.log').read_text()}")
        walls.append(wall)
    return statistics.median(walls)


def run_workload(args, spec: dict) -> int:
    import clibatch
    import inproc
    from workloads import WORKLOADS, digest, make_inputs

    wl = WORKLOADS[args.workload]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    WORK.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    metrics: dict[str, float] = {}
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{wl.name}-") as tmp:
        workdir = Path(tmp)
        inputs = make_inputs(wl, args.seed, workdir)
        if not args.trace:
            metrics["setup_s"] = measure_setup(wl, inputs, workdir)
        if wl.cli_runs:
            res = clibatch.measure(wl, inputs, seconds, bool(args.trace), workdir)
        else:
            res = inproc.measure(wl, inputs, seconds, bool(args.trace))
    metrics.update(res.metrics)

    gated = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: (m["unit"], m["better"]) for m in gated}
    if not args.trace:
        units.update({k: v for k, v in EXTRA_UNITS.items() if k in metrics})
    missing = [name for name in units if name not in metrics]
    if missing:
        raise RuntimeError(f"benchmark produced no value for {missing}")
    if args.trace:  # a measured time or count is never exactly 0
        absent = {k: "the step does not run on this workload" for k in units if metrics[k] == 0}
    else:
        absent = {k: why for k, why in EXTRA_ABSENT.items() if k not in metrics}

    failed_runs = [r for r in res.records if r.failures]
    correct = not failed_runs and not res.check_failures
    run_digest = digest(res.digest_rows)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": wl.name, "why": wl.why, "parameters": wl.describe(),
        "seed": args.seed, "seconds": seconds, "trace": args.trace,
        "machine": machine_block(wl.cli_workers),
        "attempted": len(res.records), "failed": len(failed_runs),
        "failed_examples": [(r.seed, r.failures) for r in failed_runs[:5]],
        "check_failures": res.check_failures,
        "metrics": {k: {"value": metrics[k], "unit": u, "better": b} for k, (u, b) in units.items()},
        "absent": absent,
        "seeded_output_sha256": run_digest,
        "digest_runs": len(res.digest_rows),
        "info": res.info,
        "runs": [(r.seed, r.wall, r.status, r.m1) for r in res.records],
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if res.tracer is not None:
        res.tracer.dump(RESULTS / f"{tag}-spans.jsonl")

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"runs attempted {len(res.records)}  failed {len(failed_runs)}")
    for name, (unit, better) in units.items():
        if name not in absent:
            print(f"  {name:40s} {metrics[name]:>16.6g} {unit:9s} ({better} is better)")
    for name, why in absent.items():
        print(f"  {name:40s} {'absent':>16s}  {why}")
    for key, value in flat(res.info).items():
        print(f"  {key:40s} {value:>16.6g}" if isinstance(value, float) else f"  {key:40s} {value!s:>16s}")
    print(f"  seeded-output sha256 over {len(res.digest_rows)} runs: {run_digest}")
    for seed, why in report["failed_examples"]:
        print(f"  FAILED run seed {seed}: {'; '.join(why)}")
    for problem in res.check_failures:
        print(f"  CHECK FAILED: {problem}")
    print(f"  report: {(RESULTS / f'{tag}.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(res.records),
        "failed": len(failed_runs),
        "metrics": {k: {"value": metrics[k], "unit": units[k][0]} for k in (m["name"] for m in gated)},
    }))
    return 0 if correct else 1


def flat(info: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in info.items():
        if isinstance(value, dict):
            out.update(flat(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def run_all(args) -> int:
    """Every workload in its own process; one combined JSON line at the end."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        got = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        lines = got.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(got.stderr)
        if got.returncode not in (0, 1) or not lines:
            print(f"workload {name}: exited with {got.returncode} and no result", file=sys.stderr)
            return 2
        worst = max(worst, got.returncode)
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            total["metrics"][f"{name}/{key}"] = value
    print(json.dumps(total))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "gausskey" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no gausskey package under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, json.loads(spec_path.read_text(encoding="utf-8")))


if __name__ == "__main__":
    sys.exit(main())
