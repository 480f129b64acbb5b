import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from fraclangevin.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",")
    return header, np.atleast_2d(data)


def test_version_without_installed_metadata(runner):
    res = runner.invoke(main, ["--version"])
    assert res.exit_code == 0, res.output
    assert "0.1.0" in res.output


def test_simulate_fbm_deterministic_bytes(runner, tmp_path):
    out = tmp_path / "fbm.csv"
    args = ["simulate-fbm", "--hurst", "0.7", "--steps", "64", "--paths", "3",
            "--seed", "9", "--method", "kernel", "--out", str(out)]
    assert runner.invoke(main, args).exit_code == 0
    first = out.read_bytes()
    assert runner.invoke(main, args).exit_code == 0
    assert out.read_bytes() == first


def test_simulate_fbm_rejects_bad_hurst(runner, tmp_path):
    res = runner.invoke(main, ["simulate-fbm", "--hurst", "1.2", "--seed", "1",
                               "--out", str(tmp_path / "x.csv")])
    assert res.exit_code != 0
    assert "(0, 1)" in res.output


def test_simulate_fbm_requires_seed(runner, tmp_path):
    res = runner.invoke(main, ["simulate-fbm", "--hurst", "0.7",
                               "--out", str(tmp_path / "x.csv")])
    assert res.exit_code != 0
    assert "--seed" in res.output


def test_simulate_fbm_steps_over_dense_budget(runner, tmp_path):
    out = tmp_path / "x.csv"
    res = runner.invoke(main, ["simulate-fbm", "--hurst", "0.3", "--steps",
                               "200000", "--seed", "1", "--method", "kernel",
                               "--out", str(out)])
    assert res.exit_code != 0
    assert isinstance(res.exception, SystemExit)
    assert "--steps 200000 is too large" in res.output
    assert "Traceback" not in res.output
    assert not out.exists()


def test_simulate_fbm_variance_report(runner, tmp_path):
    out = tmp_path / "fbm.csv"
    res = runner.invoke(main, ["simulate-fbm", "--hurst", "0.7", "--steps", "16",
                               "--paths", "500", "--seed", "3",
                               "--report", "variance", "--out", str(out)])
    assert res.exit_code == 0
    assert "var(B_T)" in res.output
    header, data = read_csv(out)
    assert header[:2] == ["t", "path0"]
    assert data.shape == (17, 501)


def test_simulate_velocity_noiseless_decay(runner, tmp_path):
    out = tmp_path / "vel.csv"
    res = runner.invoke(main, ["simulate-velocity", "--hurst", "0.7",
                               "--sigma", "0", "--friction", "1.5",
                               "--steps", "32", "--seed", "4", "--out", str(out)])
    assert res.exit_code == 0
    header, data = read_csv(out)
    assert header == ["t", "V", "VH"]
    decay = np.exp(-1.5 * data[:, 0])
    assert np.allclose(data[:, 1], decay, rtol=1e-12)


def test_simulate_velocity_flat_transform_when_amplitude_zero(runner, tmp_path):
    out = tmp_path / "vel.csv"
    res = runner.invoke(main, ["simulate-velocity", "--hurst", "0.3", "--ah", "0",
                               "--v0", "2.0", "--steps", "16", "--seed", "4",
                               "--out", str(out)])
    assert res.exit_code == 0
    _, data = read_csv(out)
    assert np.array_equal(data[:, 2], np.full(17, 2.0))


def test_simulate_velocity_standard_has_no_transform(runner, tmp_path):
    out = tmp_path / "vel.csv"
    res = runner.invoke(main, ["simulate-velocity", "--hurst", "0.5",
                               "--steps", "8", "--seed", "4", "--out", str(out)])
    assert res.exit_code == 0
    header, _ = read_csv(out)
    assert header == ["t", "V"]


def test_estimate_hurst_exact_regression(runner, tmp_path):
    # three-point series: the two rescaled-range entries determine the line
    series = np.array([1.0, -1.0, 0.5])
    f = tmp_path / "series.csv"
    f.write_text("x\n" + "\n".join(repr(float(v)) for v in series) + "\n")
    res = runner.invoke(main, ["estimate-hurst", str(f), "--t-min", "2"])
    assert res.exit_code == 0

    # hand-computed rescaled ranges for prefix lengths 2 and 3
    def rs(prefix):
        x = np.asarray(prefix)
        z = np.cumsum(x - x.mean())
        return (z.max() - z.min()) / x.std()

    slope = (math.log(rs(series)) - math.log(rs(series[:2]))) / (math.log(3) - math.log(2))
    reported = float(res.output.split("H = ")[1].split()[0])
    assert reported == pytest.approx(slope, abs=1e-10)


@pytest.mark.parametrize("value", [0, 1])
def test_estimate_hurst_t_min_is_checked_by_click(runner, tmp_path, value):
    f = tmp_path / "series.csv"
    f.write_text("x\n" + "\n".join(str(float(v)) for v in range(40)) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t-min": value}))
    by_flag = runner.invoke(main, ["estimate-hurst", str(f), "--t-min", str(value)])
    by_config = runner.invoke(main, ["estimate-hurst", str(f), "--config", str(cfg)])
    for res in (by_flag, by_config):
        assert res.exit_code == 2, res.output
        assert "Invalid value for '--t-min'" in res.output


def test_estimate_hurst_constant_column_fails(runner, tmp_path):
    f = tmp_path / "flat.csv"
    f.write_text("x\n" + "5.0\n" * 40)
    res = runner.invoke(main, ["estimate-hurst", str(f)])
    assert res.exit_code != 0
    assert "rescaled-range" in res.output


def test_estimate_hurst_malformed_csv(runner, tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("x\n1.0\noops\n")
    res = runner.invoke(main, ["estimate-hurst", str(f)])
    assert res.exit_code != 0
    assert ":3:" in res.output


def test_estimate_hurst_rejects_nan_cell(runner, tmp_path):
    rng = np.random.default_rng(1)
    rows = [repr(float(x)) for x in rng.standard_normal(200)]
    rows[150] = "nan"
    f = tmp_path / "nan.csv"
    f.write_text("x\n" + "\n".join(rows) + "\n")
    res = runner.invoke(main, ["estimate-hurst", str(f)])
    assert res.exit_code != 0
    assert f"{f}:152: 'nan' is not a finite number" in res.output


def test_estimate_hurst_batch_mean_and_increments(runner, tmp_path):
    rng = np.random.default_rng(0)
    cols = rng.standard_normal((400, 3)).cumsum(axis=0)
    f = tmp_path / "batch.csv"
    rows = ["t,a,b,c"] + [
        f"{i},{float(r[0])!r},{float(r[1])!r},{float(r[2])!r}" for i, r in enumerate(cols)
    ]
    f.write_text("\n".join(rows) + "\n")
    res = runner.invoke(main, ["estimate-hurst", str(f), "--increments",
                               "--out", str(tmp_path / "rep.json")])
    assert res.exit_code == 0
    assert "mean H over 3 columns" in res.output
    report = json.loads((tmp_path / "rep.json").read_text())
    assert len(report["columns"]) == 3 and "mean_hurst" in report


def test_estimate_ah_round_trip(runner, tmp_path):
    vel = tmp_path / "vel.csv"
    args = ["simulate-velocity", "--hurst", "0.7", "--ah", "1.0",
            "--friction", "2.0", "--sigma", "0.5", "--steps", "128",
            "--seed", "12", "--out", str(vel)]
    assert runner.invoke(main, args).exit_code == 0
    res = runner.invoke(main, ["estimate-ah", str(vel), str(vel),
                               "--hurst", "0.7", "--out", str(tmp_path / "ah.json")])
    assert res.exit_code == 0
    amp = float(res.output.split("A_H estimate = ")[1].split()[0])
    assert amp == pytest.approx(1.0, rel=1e-6)
    report = json.loads((tmp_path / "ah.json").read_text())
    assert len(report["ratios"]) == 128


def test_estimate_ah_report_mean_is_amplitude(runner, tmp_path):
    # within the 1e-6 guard band the ratios use the standard-regime H
    vel = tmp_path / "v.csv"
    out = tmp_path / "ah.json"
    args = ["simulate-velocity", "--hurst", "0.7", "--friction", "2.0",
            "--sigma", "0.5", "--steps", "128", "--seed", "4", "--out", str(vel)]
    assert runner.invoke(main, args).exit_code == 0
    res = runner.invoke(main, ["estimate-ah", str(vel), str(vel),
                               "--hurst", "0.5000001", "--out", str(out)])
    assert res.exit_code == 0, res.output
    report = json.loads(out.read_text())
    ratios = np.array([r["ratio"] for r in report["ratios"]])
    assert ratios.mean() == report["amplitude"]


def test_estimate_ah_rejects_velocity_as_transform(runner, tmp_path):
    # within the 1e-6 guard band simulate-velocity writes t,V only
    vel = tmp_path / "v.csv"
    args = ["simulate-velocity", "--hurst", "0.5000001", "--steps", "64",
            "--seed", "4", "--out", str(vel)]
    assert runner.invoke(main, args).exit_code == 0
    res = runner.invoke(main, ["estimate-ah", str(vel), str(vel),
                               "--hurst", "0.5000001"])
    assert res.exit_code != 0
    assert f"{vel}: no VH column" in res.output


def test_estimate_ah_stdout_is_a_fixed_summary(runner, tmp_path):
    vel = tmp_path / "vel.csv"
    out = tmp_path / "ah.json"
    args = ["simulate-velocity", "--hurst", "0.3", "--steps", "512",
            "--seed", "2", "--out", str(vel)]
    assert runner.invoke(main, args).exit_code == 0
    res = runner.invoke(main, ["estimate-ah", str(vel), str(vel),
                               "--hurst", "0.3", "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = res.output.splitlines()
    assert len(lines) == 3
    assert lines[0] == "per-time ratios: count = 512"
    for name in ("min", "p05", "p50", "p95", "max"):
        assert f"{name} = " in lines[1]
    assert lines[2].startswith("A_H estimate = ")
    assert len(json.loads(out.read_text())["ratios"]) == 512


def test_estimate_ah_rejects_infinite_cell(runner, tmp_path):
    f = tmp_path / "inf.csv"
    f.write_text("t,V,VH\n0.0,1.0,1.0\n0.5,inf,1.1\n1.0,0.8,1.2\n")
    res = runner.invoke(main, ["estimate-ah", str(f), str(f), "--hurst", "0.7"])
    assert res.exit_code != 0
    assert f"{f}:3: 'inf' is not a finite number" in res.output


def test_estimate_ah_degenerate_velocity(runner, tmp_path):
    f = tmp_path / "zero.csv"
    rows = ["t,V,VH"] + [f"{i / 8!r},0.0,0.0" for i in range(9)]
    f.write_text("\n".join(rows) + "\n")
    res = runner.invoke(main, ["estimate-ah", str(f), str(f), "--hurst", "0.7"])
    assert res.exit_code != 0
    assert "vanishes at t=" in res.output


def test_estimate_ah_grid_mismatch(runner, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("t,V,VH\n0.0,1.0,1.0\n0.5,0.9,1.1\n1.0,0.8,1.2\n")
    b.write_text("t,V,VH\n0.0,1.0,1.0\n0.6,0.9,1.1\n1.0,0.8,1.2\n")
    res = runner.invoke(main, ["estimate-ah", str(a), str(b), "--hurst", "0.7"])
    assert res.exit_code != 0
    assert "row 2" in res.output


def test_validate_single_check_json(runner):
    res = runner.invoke(main, ["validate", "--check", "qv", "--n", "50000",
                               "--t", "2.0"])
    assert res.exit_code == 0
    assert "[PASS]" in res.output
    summary = json.loads(res.output.strip().splitlines()[-1])
    assert summary["passed"] is True
    assert summary["checks"][0]["measured"]["qv"] == pytest.approx(2.0, abs=0.1)


def test_validate_covariance_check(runner):
    res = runner.invoke(main, ["validate", "--check", "covariance", "--n", "512"])
    assert res.exit_code == 0


def test_validate_donsker_check(runner):
    res = runner.invoke(main, ["validate", "--check", "donsker", "--n", "2000"])
    assert res.exit_code == 0
    summary = json.loads(res.output.strip().splitlines()[-1])
    assert summary["checks"][0]["measured"]["ks_distance"] <= 0.05


def test_validate_nonzero_exit_on_failing_check(runner, monkeypatch):
    import fraclangevin.cli as cli_mod

    def broken(n, seed, horizon):
        return [{"name": "quadratic variation", "passed": False,
                 "measured": {"qv": 99.0}, "threshold": 0.05}]

    monkeypatch.setattr(cli_mod, "_check_qv", broken)
    res = runner.invoke(main, ["validate", "--check", "qv"])
    assert res.exit_code != 0
    assert "[FAIL]" in res.output
    summary = json.loads(res.output.strip().splitlines()[-1])
    assert summary["passed"] is False


def test_config_file_supplies_defaults_and_flags_override(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"hurst": 0.7, "seed": 5, "steps": 16}))
    out1 = tmp_path / "a.csv"
    res = runner.invoke(main, ["simulate-fbm", "--config", str(cfg),
                               "--out", str(out1)])
    assert res.exit_code == 0
    _, data = read_csv(out1)
    assert data.shape[0] == 17
    out2 = tmp_path / "b.csv"
    res = runner.invoke(main, ["simulate-fbm", "--config", str(cfg),
                               "--steps", "8", "--out", str(out2)])
    assert res.exit_code == 0
    _, data2 = read_csv(out2)
    assert data2.shape[0] == 9


def test_config_rejects_unknown_key(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"hurst": 0.7, "seed": 5, "bogus": 1}))
    res = runner.invoke(main, ["simulate-fbm", "--config", str(cfg),
                               "--out", str(tmp_path / "x.csv")])
    assert res.exit_code != 0
    assert "bogus" in res.output


# The options and arguments of each command, `--config` included.  A change
# that adds or removes a knob has to edit this table.
CLI_SURFACE = {
    "estimate-ah": ["config", "hurst", "observed_csv", "out", "velocity_csv"],
    "estimate-hurst": ["config", "increments", "input_csv", "out", "t_min"],
    "simulate-fbm": ["config", "horizon", "hurst", "method", "out", "paths",
                     "report", "seed", "steps"],
    "simulate-velocity": ["ah", "config", "friction", "horizon", "hurst", "mass",
                          "out", "seed", "sigma", "steps", "v0"],
    "validate": ["check", "config", "horizon", "n", "out", "seed"],
}


def test_cli_surface_is_pinned():
    surface = {name: sorted(p.name for p in cmd.params)
               for name, cmd in main.commands.items()}
    assert surface == CLI_SURFACE


@pytest.mark.parametrize("args, reason", [
    (["--check", "residual", "--n", "50"], "cell counts must divide the largest count"),
    (["--check", "covariance", "--n", "8"], "need at least 16 quadrature cells"),
    (["--check", "qv", "--t", "-1"], "-1.0 is not in the range x>0"),
    (["--check", "qv", "--n", "0"], "0 is not in the range x>=1"),
    (["--check", "qv", "--seed", "-1"], "-1 is not in the range 0<=x<="),
], ids=["residual-n50", "covariance-n8", "qv-t-1", "qv-n0", "seed-1"])
def test_validate_bad_size_is_a_usage_error(runner, args, reason):
    res = runner.invoke(main, ["validate", *args])
    assert res.exit_code == 2, res.output
    assert reason in res.output
    assert "Invalid value for '--" in res.output
    assert "Traceback" not in res.output


@pytest.fixture
def velocity_csv(runner, tmp_path):
    vel = tmp_path / "vel.csv"
    res = runner.invoke(main, ["simulate-velocity", "--hurst", "0.7", "--steps",
                               "32", "--seed", "4", "--out", str(vel)])
    assert res.exit_code == 0, res.output
    return vel


@pytest.mark.parametrize("command", ["estimate-hurst", "estimate-ah", "validate"])
def test_json_out_into_missing_directory(runner, tmp_path, velocity_csv, command):
    out = tmp_path / "missing" / "report.json"
    args = {"estimate-hurst": [str(velocity_csv), "--t-min", "4"],
            "estimate-ah": [str(velocity_csv), str(velocity_csv), "--hurst", "0.7"],
            "validate": ["--check", "qv", "--n", "1000"]}[command]
    res = runner.invoke(main, [command, *args, "--out", str(out)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert f"cannot write {out}: " in res.output
    assert "Traceback" not in res.output


def test_estimate_hurst_keeps_a_first_column_not_named_t(runner, tmp_path):
    rng = np.random.default_rng(5)
    f = tmp_path / "xy.csv"
    rows = ["x,y"] + [f"{float(a)!r},{float(b)!r}"
                      for a, b in rng.standard_normal((200, 2))]
    f.write_text("\n".join(rows) + "\n")
    out = tmp_path / "rep.json"
    res = runner.invoke(main, ["estimate-hurst", str(f), "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert "mean H over 2 columns" in res.output
    report = json.loads(out.read_text())
    assert [c["column"] for c in report["columns"]] == ["x", "y"]
    assert "mean_hurst" in report


def test_config_alone_matches_flags(runner, tmp_path):
    flags = {"hurst": 0.3, "ah": 0.5, "mass": 2.0, "friction": 1.5,
             "sigma": 0.25, "v0": -1.0, "horizon": 2.0, "steps": 64, "seed": 7}
    by_flags = tmp_path / "flags.csv"
    args = [a for k, v in flags.items() for a in (f"--{k}", str(v))]
    res = runner.invoke(main, ["simulate-velocity", *args, "--out", str(by_flags)])
    assert res.exit_code == 0, res.output
    by_config = tmp_path / "config.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**flags, "out": str(by_config)}))
    res = runner.invoke(main, ["simulate-velocity", "--config", str(cfg)])
    assert res.exit_code == 0, res.output
    assert by_config.read_bytes() == by_flags.read_bytes()


@pytest.mark.parametrize("key, value", [("hurst", 1.2), ("seed", -1)])
def test_config_value_is_checked_like_the_flag(runner, tmp_path, key, value):
    given = {"hurst": 0.7, "seed": 5, key: value}
    out = str(tmp_path / "x.csv")
    by_flags = runner.invoke(main, ["simulate-fbm", "--hurst", str(given["hurst"]),
                                    "--seed", str(given["seed"]), "--out", out])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(given))
    by_config = runner.invoke(main, ["simulate-fbm", "--config", str(cfg),
                                     "--out", out])
    assert by_config.exit_code == by_flags.exit_code == 2
    assert f"Invalid value for '--{key}'" in by_config.output
    assert by_config.output == by_flags.output


def test_config_flag_and_hyphenated_key(runner, tmp_path):
    rng = np.random.default_rng(2)
    f = tmp_path / "walk.csv"
    f.write_text("x\n" + "\n".join(repr(float(v))
                                   for v in rng.standard_normal(300).cumsum()) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"increments": True, "t-min": 4}))
    by_config = runner.invoke(main, ["estimate-hurst", str(f), "--config", str(cfg)])
    by_flags = runner.invoke(main, ["estimate-hurst", str(f), "--increments",
                                    "--t-min", "4"])
    default = runner.invoke(main, ["estimate-hurst", str(f), "--increments"])
    assert by_config.exit_code == by_flags.exit_code == default.exit_code == 0
    assert by_config.output == by_flags.output
    assert by_config.output != default.output
    assert "note:" not in by_config.output


def test_config_rejects_its_own_key(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"hurst": 0.7, "seed": 5, "config": "other.json"}))
    res = runner.invoke(main, ["simulate-fbm", "--config", str(cfg),
                               "--out", str(tmp_path / "x.csv")])
    assert res.exit_code != 0
    assert "unknown config key 'config'" in res.output


# Numeric options of the two simulate commands -> whether 0 and -1 are
# accepted; nan never is.  A refusal names the option, never a traceback.
NUMERIC_OPTIONS = {"steps": (False, False), "horizon": (False, False),
                   "mass": (False, False), "friction": (False, False),
                   "sigma": (True, False), "v0": (True, True),
                   "ah": (True, True)}


@pytest.mark.parametrize("option, value, accepted", [
    (opt, value, ok)
    for opt, (zero_ok, minus_ok) in NUMERIC_OPTIONS.items()
    for value, ok in (("0", zero_ok), ("-1", minus_ok), ("nan", False))]
    # positive, but too small for 8 distinct grid cells
    + [("horizon", "2e-323", False)])
def test_simulate_numeric_options_are_checked_by_click(runner, tmp_path,
                                                       option, value, accepted):
    commands = ["simulate-velocity"]
    if option in ("steps", "horizon"):
        commands.append("simulate-fbm")
    for command in commands:
        res = runner.invoke(main, [command, "--hurst", "0.7", "--steps", "8",
                                   "--seed", "1", "--out", str(tmp_path / "x.csv"),
                                   f"--{option}", value])
        if accepted:
            assert res.exit_code == 0, res.output
        else:
            assert res.exit_code == 2, res.output
            assert f"Invalid value for '--{option}'" in res.output
            assert "Traceback" not in res.output


# Horizons and velocities at the edges of the float range: each run either
# writes finite paths or exits 2 naming --horizon (and, for the transform,
# --v0 and --ah), never with a traceback or a numpy warning.
@pytest.mark.parametrize("command, horizon, extra, accepted", [
    ("simulate-fbm", "1e-300", [], False),        # T^2H underflows
    ("simulate-fbm", "1e308", [], False),         # T^2H overflows
    ("simulate-fbm", "1e308", ["--method", "kernel"], True),
    ("simulate-fbm", "1e-300", ["--method", "kernel"], True),
    ("simulate-fbm", "1e308", ["--method", "kernel", "--report", "variance"],
     False),
    ("simulate-fbm", "1e-216", ["--steps", "1024"], True),
    ("simulate-velocity", "1e308", [], False),    # the transform overflows
    ("simulate-velocity", "1e-300", [], True),
    ("simulate-velocity", "1", ["--v0", "1e308", "--ah", "0"], True),
    ("simulate-velocity", "1", ["--v0", "1e308", "--ah", "1e-3"], True),
    ("simulate-velocity", "1", ["--v0", "1e308", "--ah", "10"], False),
])
def test_simulate_horizon_at_float_range_edges(runner, tmp_path, command,
                                               horizon, extra, accepted):
    out = tmp_path / "x.csv"
    res = runner.invoke(main, [command, "--hurst", "0.7", "--seed", "1",
                               "--steps", "8", "--horizon", horizon,
                               "--out", str(out), *extra])
    assert "Traceback" not in res.output
    assert "RuntimeWarning" not in res.output
    if accepted:
        assert res.exit_code == 0, res.output
        _, data = read_csv(out)
        assert np.isfinite(data).all()
    else:
        assert res.exit_code == 2, res.output
        assert "Invalid value for '--horizon'" in res.output
        if command == "simulate-velocity":
            assert "'--v0' / '--ah'" in res.output
