import csv
import json
import math

import numpy as np
import pytest

import gausskey.cli as cli
from gausskey.cli import ScenarioError, load_scenario, main


def scenario_dict(code_path, **over):
    data = {
        "channel": {"a_B": 2.0, "b_B": 0.5, "e_B": 0.0, "a_E": 0.3, "b_E": 2.0},
        "noise": {"variant": "gaussian", "variance": 0.1},
        "protocol": {"n": 4096, "l": 10_000, "epsilon": 5e-5, "target": -40.0,
                     "m2": 64, "code_path": code_path},
        "seed": 11,
    }
    data.update(over)
    return data


def write_scenario(tmp_path, code_path, name="scenario.json", **over):
    path = tmp_path / name
    path.write_text(json.dumps(scenario_dict(code_path, **over)))
    return str(path)


def read_summary(out_dir):
    with open(out_dir / "summary.csv", newline="") as fh:
        return list(csv.reader(fh))


# ------------------------------------------------------------------- simulate

def test_simulate_outputs_and_exit_code(tmp_path, small_code_path, capsys):
    scen = write_scenario(tmp_path, small_code_path)
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", scen, "--runs", "2",
                 "--out", str(out)]) == 0
    rows = read_summary(out)
    assert rows[0] == ["seed", "status", "key_len",
                       "d_bound_log2", "iprime_bound_log2"]
    assert len(rows) == 3
    assert [r[0] for r in rows[1:]] == ["11", "12"]  # scenario seed + index
    for row in rows[1:]:
        assert row[1] == "success"
        assert int(row[2]) > 0
        assert float(row[3]) <= -40.0
    records = [json.loads(line)
               for line in (out / "runs.jsonl").read_text().splitlines()]
    assert len(records) == 2
    assert records[0]["converged_blocks"] == records[0]["total_blocks"] == 8
    assert len(records[0]["certificates"]) == 2
    assert "2/2 runs produced a key" in capsys.readouterr().err
    assert not (out / "keys").exists()  # not requested


def test_simulate_is_deterministic(tmp_path, small_code_path):
    scen = write_scenario(tmp_path, small_code_path)
    for d in ("a", "b"):
        assert main(["simulate", "--scenario", scen, "--runs", "2",
                     "--out", str(tmp_path / d)]) == 0
    assert ((tmp_path / "a" / "summary.csv").read_bytes()
            == (tmp_path / "b" / "summary.csv").read_bytes())
    assert ((tmp_path / "a" / "runs.jsonl").read_bytes()
            == (tmp_path / "b" / "runs.jsonl").read_bytes())


def test_parallel_workers_match_serial(tmp_path, small_code_path):
    scen = write_scenario(tmp_path, small_code_path)
    assert main(["simulate", "--scenario", scen, "--runs", "3",
                 "--out", str(tmp_path / "serial")]) == 0
    assert main(["simulate", "--scenario", scen, "--runs", "3",
                 "--out", str(tmp_path / "pooled"), "--workers", "2"]) == 0
    assert ((tmp_path / "serial" / "summary.csv").read_bytes()
            == (tmp_path / "pooled" / "summary.csv").read_bytes())


def test_runs_jsonl_keeps_the_runs_before_a_crash(tmp_path, small_code_path, monkeypatch):
    scen = write_scenario(tmp_path, small_code_path)
    for command in ("simulate", "keygen"):
        assert main([command, "--scenario", scen, "--runs", "3",
                     "--out", str(tmp_path / "whole" / command)]) == 0
    run_one = cli._run_one

    def crash_at_two(scenario, run_index):
        if run_index == 2:
            raise RuntimeError("run 2 crashed")
        return run_one(scenario, run_index)

    monkeypatch.setattr(cli, "_run_one", crash_at_two)
    for command in ("simulate", "keygen"):
        with pytest.raises(RuntimeError, match="run 2 crashed"):
            main([command, "--scenario", scen, "--runs", "3", "--workers", "1",
                  "--out", str(tmp_path / "crashed" / command)])
        crashed, whole = tmp_path / "crashed" / command, tmp_path / "whole" / command
        kept = (crashed / "runs.jsonl").read_bytes()
        assert kept.count(b"\n") == 2
        assert (whole / "runs.jsonl").read_bytes().startswith(kept)
        # the summary's header and the rows of runs 0 and 1
        rows = (whole / "summary.csv").read_bytes().splitlines(keepends=True)
        assert len(rows) == 4
        assert (crashed / "summary.csv").read_bytes() == b"".join(rows[:3])
    keys = sorted(p.name for p in (tmp_path / "crashed" / "keygen" / "keys").iterdir())
    assert keys == ["run_0_alice.hex", "run_0_bob.hex", "run_1_alice.hex", "run_1_bob.hex"]
    for name in keys:
        assert ((tmp_path / "crashed" / "keygen" / "keys" / name).read_bytes()
                == (tmp_path / "whole" / "keygen" / "keys" / name).read_bytes())


def test_keygen_writes_matching_hex(tmp_path, small_code_path):
    scen = write_scenario(tmp_path, small_code_path)
    out = tmp_path / "kg"
    assert main(["keygen", "--scenario", scen, "--runs", "1",
                 "--out", str(out)]) == 0
    alice = (out / "keys" / "run_0_alice.hex").read_text().strip()
    bob = (out / "keys" / "run_0_bob.hex").read_text().strip()
    assert alice == bob
    key_len = int(read_summary(out)[1][2])
    assert len(alice) == (key_len + 3) // 4

    # simulate makes the same runs and writes no keys; it has no flag for them
    out2 = tmp_path / "sim"
    assert main(["simulate", "--scenario", scen, "--runs", "1",
                 "--out", str(out2)]) == 0
    assert (out2 / "runs.jsonl").read_bytes() == (out / "runs.jsonl").read_bytes()
    assert not (out2 / "keys").exists()
    assert main(["simulate", "--scenario", scen, "--runs", "1",
                 "--out", str(out2), "--emit-keys"]) == 2


def test_exit_one_when_every_run_aborts(tmp_path, small_code_path, capsys):
    # the injected variance is healthy but the listener geometry is too
    # strong for it: the gate rejects regardless of estimation noise
    scen = write_scenario(
        tmp_path, small_code_path,
        channel={"a_B": 2.0, "b_B": 0.5, "e_B": 0.0, "a_E": 5.0, "b_E": 0.5},
        noise={"variant": "gaussian", "variance": 1.0})
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", scen, "--runs", "2",
                 "--out", str(out)]) == 1
    rows = read_summary(out)
    assert all(r[1] == "aborted" and r[3] == "" and r[4] == "" for r in rows[1:])
    rec = json.loads((out / "runs.jsonl").read_text().splitlines()[0])
    assert "post-selection gate" in rec["abort_reason"]
    assert "0/2 runs produced a key" in capsys.readouterr().err


def test_simulate_rejects_bad_counts(tmp_path, small_code_path, capsys):
    scen = write_scenario(tmp_path, small_code_path)
    assert main(["simulate", "--scenario", scen, "--runs", "0",
                 "--out", str(tmp_path / "x")]) == 2
    assert main(["simulate", "--scenario", scen, "--runs", "1", "--workers",
                 "0", "--out", str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_code_file_fails_fast(tmp_path, capsys):
    scen = write_scenario(tmp_path, str(tmp_path / "nowhere.alist"))
    assert main(["simulate", "--scenario", scen, "--runs", "1",
                 "--out", str(tmp_path / "x")]) == 2
    assert "cannot read code file" in capsys.readouterr().err


# ------------------------------------------------------------ scenario schema

def reject(tmp_path, capsys, **over):
    scen = write_scenario(tmp_path, "unused.alist", **over)
    code = main(["simulate", "--scenario", scen, "--runs", "1",
                 "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error:")
    return err


def test_schema_unknown_and_missing_keys(tmp_path, capsys):
    assert "unknown keys" in reject(tmp_path, capsys, extra=1)
    assert "missing keys" in reject(
        tmp_path, capsys,
        channel={"a_B": 2.0, "b_B": 0.5, "e_B": 0.0, "a_E": 0.3})
    assert "unknown keys" in reject(
        tmp_path, capsys,
        channel={"a_B": 2.0, "b_B": 0.5, "e_B": 0.0, "a_E": 0.3, "b_E": 2.0,
                 "c_B": 1.0})


def test_schema_rejects_silent_listener(tmp_path, capsys):
    # a_E = 0 denies the condensation step a direction; reject up front
    err = reject(tmp_path, capsys,
                 channel={"a_B": 2.0, "b_B": 0.5, "e_B": 0.0, "a_E": 0.0,
                          "b_E": 2.0})
    assert "channel:" in err


def test_schema_noise_variants(tmp_path, capsys):
    assert "variant" in reject(tmp_path, capsys,
                               noise={"variant": "laplace", "variance": 1.0})
    assert "missing keys" in reject(tmp_path, capsys,
                                    noise={"variant": "gaussian"})
    assert "components" in reject(
        tmp_path, capsys, noise={"variant": "mixture", "components": [[0.5, 0.0]]})
    assert "noise:" in reject(
        tmp_path, capsys,
        noise={"variant": "mixture", "components": [[0.5, 0.0, 1.0],
                                                    [0.4, 1.0, 1.0]]})
    assert "values" in reject(tmp_path, capsys,
                              noise={"variant": "empirical", "values": []})


def test_schema_protocol_and_seed(tmp_path, capsys):
    base = {"n": 4096, "l": 10_000, "epsilon": 5e-5, "target": -40.0,
            "m2": 64, "code_path": "unused.alist"}
    assert "epsilon" in reject(tmp_path, capsys,
                               protocol={**base, "epsilon": 0.5})
    assert "integer" in reject(tmp_path, capsys,
                               protocol={**base, "n": 4096.5})
    assert "code_path" in reject(tmp_path, capsys,
                                 protocol={**base, "code_path": 7})
    assert "seed" in reject(tmp_path, capsys, seed=-1)
    assert "seed" in reject(tmp_path, capsys, seed=True)


def test_scenario_file_errors(tmp_path, capsys):
    missing = str(tmp_path / "none.json")
    assert main(["simulate", "--scenario", missing, "--runs", "1",
                 "--out", str(tmp_path / "x")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--scenario", str(bad), "--runs", "1",
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "cannot read scenario" in err and "not valid JSON" in err


def test_load_scenario_direct(tmp_path, small_code_path):
    scen = write_scenario(tmp_path, small_code_path)
    s = load_scenario(scen)
    assert s.seed == 11
    assert s.params.bob_gain == 2.0
    assert s.noise.variance == pytest.approx(0.1)
    assert s.config.m1_override is None
    with pytest.raises(ScenarioError):
        load_scenario(str(tmp_path / "missing.json"))


# ----------------------------------------------------------------- rate curve

def test_rate_curve_values(tmp_path):
    out = tmp_path / "rate.csv"
    assert main(["rate-curve", "--x-min", "0.2", "--x-max", "0.8",
                 "--points", "4", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0] == ["x", "rate", "mi_ab", "mi_eb"]
    first = [float(v) for v in rows[1]]
    assert first[0] == pytest.approx(0.2)
    assert first[1] == pytest.approx(0.107892, abs=1e-6)
    assert first[2] == pytest.approx(0.372267, abs=1e-6)
    assert first[3] == pytest.approx(0.264375, abs=1e-6)
    rates = [float(r[1]) for r in rows[1:]]
    assert rates == sorted(rates, reverse=True)


def read_rows(path):
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if not row[0].startswith("#")]


def test_rate_curve_zero_crossing_and_origin(tmp_path):
    out = tmp_path / "rate.csv"
    assert main(["rate-curve", "--x-min", str(2.0 / 3.0), "--x-max", "1.0",
                 "--points", "2", "--out", str(out)]) == 0
    first = [float(v) for v in read_rows(out)[1]]
    assert abs(first[1]) < 1e-6
    # the noiseless endpoint is a valid grid point
    assert main(["rate-curve", "--x-min", "0", "--x-max", "0.4",
                 "--points", "3", "--out", str(out)]) == 0
    first = [float(v) for v in read_rows(out)[1]]
    assert first[0] == 0.0 and math.isfinite(first[1])


def test_rate_curve_rejects_bad_grid(tmp_path, capsys):
    out = str(tmp_path / "rate.csv")
    assert main(["rate-curve", "--x-min", "0.5", "--x-max", "0.2",
                 "--out", out]) == 2
    assert main(["rate-curve", "--points", "1", "--out", out]) == 2
    assert main(["rate-curve", "--x-min", "-0.1", "--out", out]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------- bound curve

def test_bound_curve_shape_and_argmin(tmp_path, small_code_path, capsys):
    scen = write_scenario(tmp_path, small_code_path)
    out = tmp_path / "bound.csv"
    assert main(["bound-curve", "--scenario", scen, "--s-min", "1e-6",
                 "--s-max", "0.4", "--points", "60", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0] == ["s", "log2_bound"]
    vals = np.array([[float(a), float(b)] for a, b in rows[1:]])
    # vanishing order parameter costs nothing: the offset alone remains
    assert vals[0, 1] == pytest.approx(math.log2(3.0), abs=0.02)
    second = np.diff(vals[:, 1], 2)
    assert (second >= -1e-6).all()
    comment = open(out).read().splitlines()[-1]
    assert comment.startswith("# argmin s=")
    argmin_bound = float(comment.split("log2_bound=")[1].split()[0])
    assert argmin_bound <= vals[:, 1].min() + 1e-9
    assert "min log2 bound" in capsys.readouterr().err
    # only the gain's magnitude is certified: a negative a_B gives the same curve
    channel = dict(scenario_dict(small_code_path)["channel"], a_B=-2.0)
    flipped = write_scenario(tmp_path, small_code_path, name="flipped.json",
                             channel=channel)
    out_flipped = tmp_path / "bound_flipped.csv"
    assert main(["bound-curve", "--scenario", flipped, "--s-min", "1e-6",
                 "--s-max", "0.4", "--points", "60", "--out", str(out_flipped)]) == 0
    assert out_flipped.read_bytes() == out.read_bytes()


def test_bound_curve_rejects_bad_grid(tmp_path, small_code_path, capsys):
    scen = write_scenario(tmp_path, small_code_path)
    out = str(tmp_path / "bound.csv")
    assert main(["bound-curve", "--scenario", scen, "--s-min", "0",
                 "--out", out]) == 2
    assert main(["bound-curve", "--scenario", scen, "--s-min", "0.4",
                 "--s-max", "0.2", "--out", out]) == 2
    assert main(["bound-curve", "--scenario", scen, "--s-max", "1.0",
                 "--out", out]) == 2
    assert "error:" in capsys.readouterr().err
    # the grid is checked before any work, even where the target is hopeless
    protocol = dict(scenario_dict(small_code_path)["protocol"], target=-1e5)
    hopeless = write_scenario(tmp_path, small_code_path, name="hopeless.json",
                              protocol=protocol)
    assert main(["bound-curve", "--scenario", hopeless, "--out", out]) == 2
    assert "unachievable" in capsys.readouterr().err
    assert main(["bound-curve", "--scenario", hopeless, "--points", "1",
                 "--out", out]) == 2
    assert "need points >= 2" in capsys.readouterr().err


# ------------------------------------------------------------------- estimate

def reference_csv(tmp_path, rows=200_000, seed=31):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=rows)
    b = math.sqrt(2.0) * a + rng.normal(scale=math.sqrt(1.2), size=rows)
    path = tmp_path / "samples.csv"
    np.savetxt(path, np.column_stack([a, b]), delimiter=",", header="a,b",
               comments="")
    return str(path)


def test_estimate_recovers_reference_geometry(tmp_path, capsys):
    scen = write_scenario(
        tmp_path, "unused.alist",
        channel={"a_B": math.sqrt(2.0), "b_B": 1.0, "e_B": 0.0,
                 "a_E": math.sqrt(2.0), "b_E": 1.0},
        noise={"variant": "gaussian", "variance": 0.2})
    data = reference_csv(tmp_path)
    assert main(["estimate", "--scenario", scen, "--data", data]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["l"] == 100_000
    lo, hi = report["confidence_intervals"]["covariance"]
    assert lo < math.sqrt(2.0) < hi
    assert report["c_hat"] == pytest.approx(math.sqrt(2.0), abs=0.05)
    assert report["v_hat"] == pytest.approx(3.2, abs=0.1)
    assert report["underline_c"] < report["c_hat"]
    assert report["smoothed"] is True
    assert report["smoothing_stdev"] == pytest.approx(math.sqrt(1.0 / 3.0),
                                                      abs=0.02)
    assert report["ks_error_bound"] > 0


def test_estimate_writes_file_when_asked(tmp_path):
    scen = write_scenario(
        tmp_path, "unused.alist",
        channel={"a_B": math.sqrt(2.0), "b_B": 1.0, "e_B": 0.0,
                 "a_E": math.sqrt(2.0), "b_E": 1.0},
        noise={"variant": "gaussian", "variance": 0.2})
    data = reference_csv(tmp_path, rows=40_000)
    out = tmp_path / "report.json"
    assert main(["estimate", "--scenario", scen, "--data", data,
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["l"] == 20_000


def test_estimate_constant_detector_output(tmp_path, capsys):
    # flat observations carry no covariance: no smoothing, no error bound
    scen = write_scenario(tmp_path, "unused.alist")
    rng = np.random.default_rng(5)
    a = rng.normal(size=400)
    path = tmp_path / "flat.csv"
    np.savetxt(path, np.column_stack([a, np.full(400, 3.14)]), delimiter=",",
               header="a,b", comments="")
    with pytest.warns(UserWarning, match="10000"):
        code = main(["estimate", "--scenario", scen, "--data", str(path)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["c_hat"] == 0.0
    assert report["smoothed"] is False
    assert report["smoothing_stdev"] == 0.0
    assert report["ks_error_bound"] is None


def test_estimate_rejects_bad_data(tmp_path, capsys):
    scen = write_scenario(tmp_path, "unused.alist")
    short = tmp_path / "short.csv"
    short.write_text("a,b\n1.0,2.0\n2.0,3.0\n")
    assert main(["estimate", "--scenario", scen, "--data", str(short)]) == 2
    wide = tmp_path / "wide.csv"
    wide.write_text("a,b,c\n" + "1.0,2.0,3.0\n" * 8)
    assert main(["estimate", "--scenario", scen, "--data", str(wide)]) == 2
    assert main(["estimate", "--scenario", scen,
                 "--data", str(tmp_path / "none.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_estimate_rejects_non_finite_data(tmp_path, capsys):
    scen = write_scenario(tmp_path, "unused.alist")
    data = tmp_path / "nan.csv"
    rows = ["%r,%r" % (0.1 * k, 0.2 * k) for k in range(16)]
    rows[5] = "0.5,nan"
    data.write_text("a,b\n" + "\n".join(rows) + "\n")
    assert main(["estimate", "--scenario", scen, "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "finite" in err


# --------------------------------------------------------------------- parser

def test_usage_errors_and_help(capsys):
    assert main([]) == 2
    assert main(["simulate"]) == 2  # missing required options
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out
