"""Command line front end.

Subcommands:
  simulate     run the protocol repeatedly against a scenario file
  keygen       simulate with key material written out
  rate-curve   asymptotic key rate of the symmetric reference geometry
  bound-curve  leakage-bound objective versus its order parameter
  estimate     channel estimates from a CSV of (a, b) samples

Exit codes: 0 on success, 1 when every simulated run failed to produce a
key, 2 on bad usage or a bad scenario file.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .estimation import (
    estimate_eve_cdf,
    estimate_moments,
    ks_error_bound,
    residuals,
)
from .gaussmodel import ChannelParams, NoiseSpec
from .protocol import (
    STATUS_SUCCESS,
    ProtocolConfig,
    ProtocolOutcome,
    run_protocol,
)
from .reconciliation import load_alist
from .secbounds import (
    MODIFIED_MUTUAL_INFO,
    VARIATIONAL_DISTANCE,
    key_rate_symmetric,
    minimize_exponent,
    reference_exponent_evaluator,
    sacrifice_length,
)

__all__ = ["main", "Scenario", "ScenarioError", "load_scenario"]


class ScenarioError(ValueError):
    """Malformed scenario file; reported on stderr with exit code 2."""


@dataclass(frozen=True)
class Scenario:
    params: ChannelParams
    noise: NoiseSpec
    config: ProtocolConfig
    seed: int


def _check_keys(obj: dict, where: str, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where} must be a JSON object")
    unknown = set(obj) - required - optional
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ScenarioError(f"{where}: missing keys {sorted(missing)}")


def _number(obj: dict, key: str, where: str) -> float:
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ScenarioError(f"{where}.{key} must be a number")
    return float(val)


def _integer(obj: dict, key: str, where: str) -> int:
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ScenarioError(f"{where}.{key} must be an integer")
    return val


def _parse_noise(obj: dict) -> NoiseSpec:
    _check_keys(obj, "noise", {"variant"}, {"variance", "components", "values"})
    variant = obj.get("variant")
    try:
        if variant == "gaussian":
            _check_keys(obj, "noise", {"variant", "variance"})
            return NoiseSpec.gaussian(_number(obj, "variance", "noise"))
        if variant == "mixture":
            _check_keys(obj, "noise", {"variant", "components"})
            comps = obj["components"]
            if not isinstance(comps, list) or not all(
                isinstance(c, list) and len(c) == 3 for c in comps
            ):
                raise ScenarioError(
                    "noise.components must be a list of [weight, mean, stdev]"
                )
            return NoiseSpec.mixture([(float(w), float(m), float(s)) for w, m, s in comps])
        if variant == "empirical":
            _check_keys(obj, "noise", {"variant", "values"})
            vals = obj["values"]
            if not isinstance(vals, list) or not vals:
                raise ScenarioError("noise.values must be a nonempty list")
            return NoiseSpec.empirical([float(v) for v in vals])
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"noise: {exc}") from exc
    raise ScenarioError("noise.variant must be gaussian, mixture or empirical")


def load_scenario(path: str) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc

    _check_keys(data, "scenario", {"channel", "noise", "protocol", "seed"})
    chan = data["channel"]
    _check_keys(chan, "channel", {"a_B", "b_B", "e_B", "a_E", "b_E"})
    try:
        params = ChannelParams(
            bob_gain=_number(chan, "a_B", "channel"),
            bob_noise=_number(chan, "b_B", "channel"),
            bob_offset=_number(chan, "e_B", "channel"),
            eve_gain=_number(chan, "a_E", "channel"),
            eve_noise=_number(chan, "b_E", "channel"),
        )
    except ValueError as exc:
        raise ScenarioError(f"channel: {exc}") from exc

    noise = _parse_noise(data["noise"])

    proto = data["protocol"]
    _check_keys(
        proto,
        "protocol",
        {"n", "l", "epsilon", "target", "m2", "code_path"},
        {"m1_override", "k_auth"},
    )
    code_path = proto["code_path"]
    if not isinstance(code_path, str):
        raise ScenarioError("protocol.code_path must be a string")
    try:
        config = ProtocolConfig(
            n=_integer(proto, "n", "protocol"),
            l=_integer(proto, "l", "protocol"),
            epsilon=_number(proto, "epsilon", "protocol"),
            security_target_log2=_number(proto, "target", "protocol"),
            m2=_integer(proto, "m2", "protocol"),
            code_path=code_path,
            m1_override=(
                _integer(proto, "m1_override", "protocol")
                if "m1_override" in proto
                else None
            ),
            k_auth=_integer(proto, "k_auth", "protocol") if "k_auth" in proto else 0,
        )
    except ValueError as exc:
        raise ScenarioError(f"protocol: {exc}") from exc

    seed = data["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ScenarioError("seed must be a nonnegative integer")
    return Scenario(params=params, noise=noise, config=config, seed=seed)


def _outcome_record(run_index: int, seed: int, outcome: ProtocolOutcome) -> dict:
    rec = {
        "run": run_index,
        "seed": seed,
        "status": outcome.status,
        "abort_reason": outcome.abort_reason,
        "key_len": outcome.key_length,
        "mi_ab_estimate": outcome.mutual_info_estimate,
        "converged_blocks": outcome.converged_blocks,
        "total_blocks": outcome.total_blocks,
        "m1": outcome.transcript.m1 if outcome.transcript else None,
        "certificates": [
            {
                "criterion": c.criterion,
                "s_star": c.s_star,
                "log2_bound": c.log2_bound,
                "m1": c.m1,
                "padding": c.padding,
                "shrunk_param": c.shrunk_param,
                "confidence": c.confidence,
            }
            for c in outcome.certificates
        ],
    }
    return rec


def _run_one(scenario: Scenario, run_index: int) -> tuple[dict, str | None, str | None]:
    seed = scenario.seed + run_index
    outcome = run_protocol(
        scenario.params,
        scenario.noise,
        scenario.config,
        np.random.default_rng(seed),
    )
    rec = _outcome_record(run_index, seed, outcome)
    alice_hex = outcome.alice_key.to_hex() if outcome.alice_key else None
    bob_hex = outcome.bob_key.to_hex() if outcome.bob_key else None
    return rec, alice_hex, bob_hex


def _summary_row(rec: dict) -> list:
    bounds = {c["criterion"]: c["log2_bound"] for c in rec["certificates"]}
    dist = bounds.get(VARIATIONAL_DISTANCE)
    info = bounds.get(MODIFIED_MUTUAL_INFO)
    return [
        rec["seed"],
        rec["status"],
        rec["key_len"],
        "" if dist is None else f"{dist:.6f}",
        "" if info is None else f"{info:.6f}",
    ]


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.runs < 1 or args.workers < 1:
        raise ScenarioError("runs and workers must be positive")
    scenario = load_scenario(args.scenario)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        load_alist(scenario.config.code_path)  # fail fast on a bad code file
    except OSError as exc:
        raise ScenarioError(f"cannot read code file: {exc}") from exc

    key_dir = out_dir / "keys"
    if args.command == "keygen":
        key_dir.mkdir(exist_ok=True)
    succeeded = 0
    parallel = args.workers > 1
    # every output takes each run as it finishes, so a crash keeps the runs
    # before it
    with (
        ProcessPoolExecutor(max_workers=args.workers) if parallel else nullcontext() as pool,
        open(out_dir / "runs.jsonl", "w", encoding="utf-8") as runs_fh,
        open(out_dir / "summary.csv", "w", encoding="utf-8", newline="") as summary_fh,
    ):
        summary = csv.writer(summary_fh)
        summary.writerow(["seed", "status", "key_len", "d_bound_log2", "iprime_bound_log2"])
        run_map = pool.map if parallel else map
        for i, (rec, alice_hex, bob_hex) in enumerate(
            run_map(partial(_run_one, scenario), range(args.runs))
        ):
            runs_fh.write(json.dumps(rec) + "\n")
            runs_fh.flush()
            summary.writerow(_summary_row(rec))
            summary_fh.flush()
            if args.command == "keygen" and alice_hex is not None and bob_hex is not None:
                (key_dir / f"run_{i}_alice.hex").write_text(alice_hex + "\n")
                (key_dir / f"run_{i}_bob.hex").write_text(bob_hex + "\n")
            succeeded += rec["status"] == STATUS_SUCCESS
            print(f"run {i}: {rec['status']}", file=sys.stderr)

    print(f"{succeeded}/{args.runs} runs produced a key", file=sys.stderr)
    return 0 if succeeded > 0 else 1


def cmd_rate_curve(args: argparse.Namespace) -> int:
    if args.points < 2 or not (0 <= args.x_min < args.x_max):
        raise ScenarioError("need points >= 2 and 0 <= x-min < x-max")
    xs = np.linspace(args.x_min, args.x_max, args.points)
    rows = []
    for x in xs:
        rate, mi_ab, mi_eb = key_rate_symmetric(float(x))
        rows.append([f"{x:.6f}", f"{rate:.6f}", f"{mi_ab:.6f}", f"{mi_eb:.6f}"])
    _write_csv(args.out, ["x", "rate", "mi_ab", "mi_eb"], rows)
    return 0


def cmd_bound_curve(args: argparse.Namespace) -> int:
    if args.points < 2 or not (0 < args.s_min < args.s_max < 1.0):
        raise ScenarioError("need points >= 2 and 0 < s-min < s-max < 1")
    scenario = load_scenario(args.scenario)
    cfg = scenario.config
    phi = reference_exponent_evaluator(
        scenario.params, scenario.noise.variance, cfg.l, cfg.epsilon
    )
    if cfg.m1_override is not None:
        m1 = cfg.m1_override
    else:
        m1 = sacrifice_length(phi, cfg.n, cfg.security_target_log2)
    rows = []
    for s in np.linspace(args.s_min, args.s_max, args.points):
        val = math.log2(3.0) + s * (cfg.n - m1) + cfg.n * phi(float(s))
        rows.append([f"{s:.6f}", f"{val:.6f}"])
    cert = minimize_exponent(phi, cfg.n, m1, VARIATIONAL_DISTANCE)
    _write_csv(args.out, ["s", "log2_bound"], rows)
    with open(args.out, "a", encoding="utf-8") as fh:
        fh.write(f"# argmin s={cert.s_star:.6f} log2_bound={cert.log2_bound:.6f} m1={m1}\n")
    print(
        f"m1={m1} min log2 bound {cert.log2_bound:.4f} at s={cert.s_star:.4f}",
        file=sys.stderr,
    )
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    try:
        arr = np.loadtxt(args.data, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"cannot read data CSV: {exc}") from exc
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 4:
        raise ScenarioError("data CSV must have columns a,b and at least 4 rows")
    half = arr.shape[0] // 2
    bundle = estimate_moments(arr[:half], scenario.config.epsilon)
    bundle = residuals(arr[half : 2 * half], bundle)
    eve = estimate_eve_cdf(bundle, scenario.params)
    kappa = ks_error_bound(bundle) if bundle.c_hat != 0 else None
    report = {
        "l": bundle.l,
        "e_hat": bundle.e_hat,
        "v_hat": bundle.v_hat,
        "c_hat": bundle.c_hat,
        "v_ab_hat": bundle.v_ab_hat,
        "w_hat": bundle.w_hat,
        "underline_c": bundle.underline_c(),
        "confidence_intervals": {
            k: list(v) for k, v in bundle.confidence_intervals().items()
        },
        "smoothed": eve.stdev > 0,
        "smoothing_stdev": eve.stdev,
        "ks_error_bound": kappa,
    }
    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausskey",
        description="Key generation over a noise-injecting Gaussian wiretap channel",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the protocol against a scenario")
    key = sub.add_parser("keygen", help="simulate and write the keys out")
    for p in (sim, key):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--runs", type=int, default=1)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--workers", type=int, default=1)

    rate = sub.add_parser("rate-curve", help="symmetric-geometry key rate CSV")
    rate.add_argument("--x-min", type=float, default=0.05)
    rate.add_argument("--x-max", type=float, default=3.0)
    rate.add_argument("--points", type=int, default=60)
    rate.add_argument("--out", required=True, help="output CSV file")

    bound = sub.add_parser("bound-curve", help="leakage bound versus order parameter")
    bound.add_argument("--scenario", required=True)
    bound.add_argument("--s-min", type=float, default=0.005)
    bound.add_argument("--s-max", type=float, default=0.5)
    bound.add_argument("--points", type=int, default=100)
    bound.add_argument("--out", required=True, help="output CSV file")

    est = sub.add_parser("estimate", help="estimates from a CSV of a,b samples")
    est.add_argument("--scenario", required=True, help="supplies geometry and epsilon")
    est.add_argument("--data", required=True, help="CSV with header a,b")
    est.add_argument("--out", default=None, help="JSON output file (default stdout)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command in ("simulate", "keygen"):
            return cmd_simulate(args)
        if args.command == "rate-curve":
            return cmd_rate_curve(args)
        if args.command == "bound-curve":
            return cmd_bound_curve(args)
        if args.command == "estimate":
            return cmd_estimate(args)
        parser.error(f"unknown command {args.command!r}")
    except ValueError as exc:  # ScenarioError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
