"""The benchmark's named workloads, the inputs they generate and the run checks.

Every input the program receives is made here from the workload seed: the
parity-check codes (written as alist files), the scenario files and the run
seeds. The program is loaded from the checkout's src/ and never edited.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gausskey import ChannelParams, NoiseSpec, ProtocolConfig
from gausskey.protocol import STATUS_ABORTED, STATUS_SUCCESS, STATUS_VERIFICATION_FAILED
from gausskey.reconciliation import gallager_code
from gausskey.secbounds import MODIFIED_MUTUAL_INFO, VARIATIONAL_DISTANCE

L_EST = 10_000
EPSILON = 5e-5
TARGET_LOG2 = -40.0
TAG_BITS = 64

GEOMETRIES = {
    # weak-eve: strong legitimate channel, badly attenuated listener (tests/conftest.py)
    "weak-eve": (
        dict(bob_gain=2.0, bob_noise=0.5, bob_offset=0.0, eve_gain=0.3, eve_noise=2.0),
        0.1,
    ),
    # reference operating point of acceptance 6: both gains sqrt(2), unit detector noise
    "reference": (
        dict(bob_gain=math.sqrt(2.0), bob_noise=1.0, bob_offset=0.0,
             eve_gain=math.sqrt(2.0), eve_noise=1.0),
        0.2,
    ),
}


@dataclass(frozen=True)
class Workload:
    name: str
    stream: int  # keeps each workload's seeds apart from the others'
    why: str
    geometry: str
    n: int
    code: tuple[int, int, int]  # gallager_code(n_code, col_weight, row_weight)
    min_runs: int  # runs every invocation makes; counts and digest cover these
    expect_key: bool  # an abort counts as a failed run
    cli_runs: int = 0  # protocol runs per keygen process; 0 = in-process workload
    cli_workers: int = 0

    @property
    def params(self) -> ChannelParams:
        return ChannelParams(**GEOMETRIES[self.geometry][0])

    @property
    def noise(self) -> NoiseSpec:
        return NoiseSpec.gaussian(GEOMETRIES[self.geometry][1])

    def config(self, code_path: str) -> ProtocolConfig:
        return ProtocolConfig(
            n=self.n, l=L_EST, epsilon=EPSILON, security_target_log2=TARGET_LOG2,
            m2=TAG_BITS, code_path=code_path,
        )

    def describe(self) -> dict:
        chan, injected = GEOMETRIES[self.geometry]
        d = {
            "geometry": self.geometry, "channel": chan, "injected_variance": injected,
            "n": self.n, "l": L_EST, "epsilon": EPSILON, "target_log2": TARGET_LOG2,
            "m2": TAG_BITS, "code": "gallager_code(%d, %d, %d)" % self.code,
        }
        if self.cli_runs:
            d.update(runs_per_process=self.cli_runs, workers=self.cli_workers)
        return d


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="weak-eve-65536", stream=1, geometry="weak-eve", n=65536,
            code=(4096, 4, 8), min_runs=16, expect_key=True,
            why="success path with a rate-1/2 code matched to I(A;B)~0.70: "
                "reconciliation and Toeplitz hashing do most of the work",
        ),
        Workload(
            name="reference-16384", stream=2, geometry="reference", n=16384,
            code=(4096, 3, 4), min_runs=2, expect_key=False,
            why="acceptance-6 run: the smoothed-mixture exponent and the sacrifice "
                "search take >=99%; reconciliation and hashing never run",
        ),
        Workload(
            name="cli-batch", stream=3, geometry="weak-eve", n=4096,
            code=(512, 3, 4), min_runs=16, expect_key=True,
            cli_runs=48, cli_workers=2,
            why="gausskey keygen --workers 2 in a fresh process: the only workload "
                "that pays import, scenario and code load, the pool and output writes",
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    code_path: str
    seed_base: int  # run i uses generator seed seed_base + i


def make_inputs(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Write the workload's code from the seed; derive the run seeds from it."""
    rng = np.random.default_rng([workload.stream, seed])
    code_rng = np.random.default_rng(int(rng.integers(2**63)))
    seed_base = int(rng.integers(1, 2**40))
    code = gallager_code(*workload.code, code_rng)
    path = workdir / ("gallager_%d_%d_%d.alist" % workload.code)
    path.write_text(code.to_alist(), encoding="ascii")
    return Inputs(code_path=str(path), seed_base=seed_base)


def write_scenario(workload: Workload, inputs: Inputs, first_seed: int, path: Path) -> None:
    """cli-batch scenario in the README's shape; run i uses first_seed + i."""
    chan, injected = GEOMETRIES[workload.geometry]
    scenario = {
        "channel": {"a_B": chan["bob_gain"], "b_B": chan["bob_noise"], "e_B": chan["bob_offset"],
                    "a_E": chan["eve_gain"], "b_E": chan["eve_noise"]},
        "noise": {"variant": "gaussian", "variance": injected},
        "protocol": {"n": workload.n, "l": L_EST, "epsilon": EPSILON, "target": TARGET_LOG2,
                     "m2": TAG_BITS, "code_path": inputs.code_path},
        "seed": first_seed,
    }
    path.write_text(json.dumps(scenario), encoding="utf-8")


def certificate_failures(bounds: dict[str, float]) -> list[str]:
    """A success must carry both certificates within their targets."""
    out = []
    dist = bounds.get(VARIATIONAL_DISTANCE)
    info = bounds.get(MODIFIED_MUTUAL_INFO)
    if dist is None or not dist <= TARGET_LOG2:
        out.append(f"variational certificate {dist} above target {TARGET_LOG2}")
    if info is None or not info < 0.0:
        out.append(f"modified-MI certificate {info} not below 0")
    return out


def run_failures(workload: Workload, status: str | None, keys_equal: bool,
                 bounds: dict[str, float], sized: bool) -> list[str]:
    """Why one protocol run counts as failed; empty when it does not.

    status None means the run raised. On reference-16384 the key-budget
    abort after the sacrifice was sized is the documented outcome, not a
    failure; `sized` comes from the recorded return of sacrifice_length.
    """
    if status is None:
        return ["raised"]
    if status == STATUS_VERIFICATION_FAILED:
        return ["verification failed"]
    if status == STATUS_SUCCESS:
        out = [] if keys_equal else ["Alice and Bob keys differ"]
        return out + certificate_failures(bounds)
    if status == STATUS_ABORTED:
        if workload.expect_key:
            return ["aborted"]
        return [] if sized else ["aborted before the sacrifice was sized"]
    return [f"unknown status {status!r}"]


def digest(rows) -> str:
    """SHA-256 over (seed, status, m1, key hex) lines of the digest runs."""
    h = hashlib.sha256()
    for seed, status, m1, key_hex in rows:
        h.update(f"{seed} {status} {m1} {key_hex or '-'}\n".encode())
    return h.hexdigest()
