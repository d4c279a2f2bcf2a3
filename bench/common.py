"""Paths, child processes and run records shared by the workload modules."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = ROOT / "bench"

# one compute thread per process: with the cli-batch pool that is nproc threads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(args: list[str], timeout: float, log_path: Path) -> tuple[float, int, int]:
    """Run python3 with args to completion; (wall seconds, exit code, peak RSS KiB).

    The peak RSS is wait4's, which covers the child and the children it
    waited for (the largest single process of the tree).
    """
    with open(log_path, "wb") as log:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=child_env(), cwd=ROOT,
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


@dataclass
class RunRecord:
    """One protocol run as the checks and metrics see it."""

    seed: int
    wall: float
    status: str | None  # None when the run raised
    m1: int | None  # the sized sacrifice, None when sizing never returned
    key_bits: int
    key_hex: str | None
    failures: list[str] = field(default_factory=list)
