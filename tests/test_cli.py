import json
import math
from collections import OrderedDict

import numpy as np
import pytest
from click.testing import CliRunner

from fraclangevin import KernelSpec, core, estimate_hurst, kernels, uniform_grid
from fraclangevin.cli import _read_csv, _write_csv, main


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
    # one click type checks --hurst on every command, from a flag or --config
    csv_in = tmp_path / "in.csv"
    csv_in.write_text("t,V\n0.0,1.0\n1.0,1.0\n")
    out = str(tmp_path / "x.csv")
    commands = {"simulate-fbm": ["--seed", "1", "--out", out],
                "simulate-velocity": ["--seed", "1", "--out", out],
                "estimate-ah": [str(csv_in), str(csv_in)]}
    reasons = {"1.2": "1.2 is not in the range 0.0<x<1.0",
               "0": "0.0 is not in the range 0.0<x<1.0",
               "1": "1.0 is not in the range 0.0<x<1.0",
               "-0.5": "-0.5 is not in the range 0.0<x<1.0",
               "nan": "nan is not a finite number"}
    cfg = tmp_path / "cfg.json"
    for command, args in commands.items():
        for value, reason in reasons.items():
            res = runner.invoke(main, [command, *args, "--hurst", value])
            assert res.exit_code == 2, (command, value, res.output)
            assert f"Invalid value for '--hurst': {reason}" in res.output
            cfg.write_text(json.dumps({"hurst": float(value)}))
            res = runner.invoke(main, [command, *args, "--config", str(cfg)])
            assert res.exit_code == 2, (command, value, res.output)
            assert f"Invalid value for '--hurst': {reason}" in res.output
        assert not (tmp_path / "x.csv").exists()


def test_simulate_fbm_requires_seed(runner, tmp_path):
    res = runner.invoke(main, ["simulate-fbm", "--hurst", "0.7",
                               "--out", str(tmp_path / "x.csv")])
    assert res.exit_code != 0
    assert "--seed" in res.output


def test_commands_stream_kernel_factors_over_the_budget(runner, tmp_path, monkeypatch):
    # a budget between the n = 512 grid's points (4 KiB) and one operator
    # (835 KB): every product streams and no operator is kept, and the
    # outputs match a run with the default budget, whose later products
    # apply stored operators, within rounding: paths and V^H within 4.4e-16
    # absolute (2.2e-16 measured), A_H and its ratios within 1e-14 relative
    # (4e-15 measured, a ratio divides by an integral near 0 at small t)
    def run(tag):
        monkeypatch.setattr(kernels, "_DENSE", OrderedDict())
        vel = str(tmp_path / f"{tag}vel.csv")
        grid = ["--hurst", "0.3", "--steps", "512"]
        for args in (["simulate-fbm", *grid, "--method", "kernel", "--paths", "2",
                      "--seed", "1", "--out", str(tmp_path / f"{tag}fbm.csv")],
                     ["simulate-velocity", *grid, "--seed", "2", "--out", vel],
                     ["estimate-ah", vel, vel, "--hurst", "0.3",
                      "--out", str(tmp_path / f"{tag}ah.json")]):
            res = runner.invoke(main, args)
            assert res.exit_code == 0, res.output
        return [key for key in kernels._DENSE if isinstance(key, tuple)]

    assert run("stored") == [(KernelSpec(0.3), uniform_grid(1.0, 512))]
    monkeypatch.setattr(core, "DENSE_BYTES_MAX", 1 << 19)
    assert run("streamed") == []
    for name in ("fbm.csv", "vel.csv"):
        (_, stored), (_, streamed) = (read_csv(tmp_path / f"{tag}{name}")
                                      for tag in ("stored", "streamed"))
        assert np.all(np.abs(stored - streamed) <= 4.4e-16)
    stored, streamed = (json.loads((tmp_path / f"{tag}ah.json").read_text())
                        for tag in ("stored", "streamed"))
    assert math.isclose(stored["amplitude"], streamed["amplitude"], rel_tol=1e-14)
    for a, b in zip(stored["ratios"], streamed["ratios"], strict=True):
        assert a["t"] == b["t"] and math.isclose(a["ratio"], b["ratio"], rel_tol=1e-14)


def test_one_shot_velocity_keeps_the_grid_layout_alone(runner, tmp_path, monkeypatch):
    # simulate-velocity applies the kernel once: the store keeps the
    # grid's points (16 KiB at 2048 steps), no layout and no Lagrange weights
    monkeypatch.setattr(kernels, "_DENSE", OrderedDict())
    grid = uniform_grid(1.0, 2048)
    res = runner.invoke(main, ["simulate-velocity", "--hurst", "0.7", "--steps", "2048",
                               "--seed", "1", "--out", str(tmp_path / "v.csv")])
    assert res.exit_code == 0, res.output
    assert list(kernels._DENSE) == [grid]
    assert kernels._dense_held() == grid.points.nbytes


def unbuilt(*args, **kwargs):
    raise AssertionError("the grid was built")


@pytest.mark.parametrize("command", ["simulate-fbm", "simulate-velocity"])
def test_steps_over_the_budget_are_refused_before_the_grid(runner, tmp_path,
                                                          monkeypatch, command):
    # 10^12 steps would hold 7450.6 GiB of grid points: refused by the
    # dense budget before the grid is built, so nothing is allocated
    monkeypatch.setattr(np, "linspace", unbuilt)
    out = tmp_path / "x.csv"
    res = runner.invoke(main, [command, "--hurst", "0.7", "--steps", str(10**12),
                               "--seed", "1", "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "Invalid value for '--steps'" in res.output and "GiB" in res.output
    assert not out.exists()


@pytest.mark.parametrize("extra", [["--mass", "1e-320"],
                                   ["--friction", "1e-300", "--mass", "1e-300"],
                                   ["--friction", "1e-300", "--mass", "1e-300",
                                    "--sigma", "0"],
                                   ["--sigma", "1e200", "--friction", "1e-150",
                                    "--mass", "1e-150"]],
                         ids=["rate", "2bm", "2bm-quiet", "stationary-std"])
def test_simulate_velocity_refuses_unrepresentable_parameters(runner, tmp_path, extra):
    # b/m overflows, 2bm underflows or sigma/sqrt(2bm) overflows: exit 2
    # naming the three options, where the solver ended in a traceback
    out = tmp_path / "v.csv"
    res = runner.invoke(main, ["simulate-velocity", "--hurst", "0.3", "--steps", "64",
                               "--seed", "1", "--out", str(out), *extra])
    assert res.exit_code == 2, res.output
    assert "Invalid value for '--mass' / '--friction' / '--sigma'" in res.output
    assert not out.exists()


def test_simulate_fbm_exact_on_a_long_uniform_grid(runner, tmp_path):
    # the exact route holds O(n) bytes on a uniform grid: a Cholesky factor
    # at 20000 steps would be reserved three dense matrices, 8.9 GiB
    out = tmp_path / "x.csv"
    res = runner.invoke(main, ["simulate-fbm", "--hurst", "0.7", "--steps",
                               "20000", "--paths", "1", "--seed", "1",
                               "--method", "exact", "--out", str(out)])
    assert res.exit_code == 0, res.output
    _, data = read_csv(out)
    assert data.shape == (20001, 2) and np.isfinite(data).all()


@pytest.mark.parametrize("command", [
    ["simulate-fbm", "--hurst", "0.3", "--method", "kernel"],
    ["simulate-velocity", "--hurst", "0.7"]])
def test_kernel_route_runs_at_20000_steps(runner, tmp_path, command):
    # the kernel factors of 20000 cells hold 69 MiB; a dense operator
    # would be 3.2 GB
    out = tmp_path / "x.csv"
    res = runner.invoke(main, command + ["--steps", "20000", "--seed", "1",
                                         "--out", str(out)])
    assert res.exit_code == 0, res.output
    _, data = read_csv(out)
    assert len(data) == 20001 and np.isfinite(data).all()


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


def test_estimate_hurst_near_float_max(runner, tmp_path):
    # increments near 1e307 square past the float range unless R/S works
    # at unit scale; the 8 increments need --t-min below the default 16
    vel = tmp_path / "v3.csv"
    res = runner.invoke(main, ["simulate-velocity", "--hurst", "0.3", "--seed", "1",
                               "--steps", "8", "--v0", "1e308", "--ah", "1e-3",
                               "--out", str(vel)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["estimate-hurst", str(vel), "--increments"])
    assert res.exit_code == 1
    assert "fewer than two rescaled-range entries at t >= 16" in res.output
    res = runner.invoke(main, ["estimate-hurst", str(vel), "--increments",
                               "--t-min", "2"])
    assert res.exit_code == 0, res.output
    assert "RuntimeWarning" not in res.output
    _, data = read_csv(vel)
    hurst = estimate_hurst(np.diff(data[:, 1]) * 2.0**-1000, t_min=2).hurst
    assert f"V: H = {hurst!r} " in res.output


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
    # the ratios use H = 0.5000001 as given, on a velocity made with H = 0.7
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
    # at H = 1/2 simulate-velocity writes t,V only
    vel = tmp_path / "v.csv"
    args = ["simulate-velocity", "--hurst", "0.5", "--steps", "64",
            "--seed", "4", "--out", str(vel)]
    assert runner.invoke(main, args).exit_code == 0
    res = runner.invoke(main, ["estimate-ah", str(vel), str(vel),
                               "--hurst", "0.5"])
    assert res.exit_code != 0
    assert f"{vel}: no VH column" in res.output


def test_velocity_next_to_half_has_a_transform(runner, tmp_path):
    # H = 1/2 + 1e-7 is not Brownian motion: its transform is written and
    # estimate-ah recovers the amplitude from it
    vel = tmp_path / "v.csv"
    args = ["simulate-velocity", "--hurst", "0.5000001", "--ah", "1.5",
            "--steps", "128", "--seed", "4", "--out", str(vel)]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    assert res.output == f"wrote t,V,VH to {vel}\n"
    assert vel.read_text().splitlines()[0] == "t,V,VH"
    res = runner.invoke(main, ["estimate-ah", str(vel), str(vel),
                               "--hurst", "0.5000001"])
    assert res.exit_code == 0, res.output
    amp = float(res.output.split("A_H estimate = ")[1].split()[0])
    assert amp == pytest.approx(1.5, abs=1e-12)


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


def test_estimate_ah_refuses_a_midpoint_on_a_grid_point(runner, tmp_path):
    # cells of one ulp after t = 1/2: the transform's kernel products
    # name the first cell whose midpoint is not inside it
    t = np.concatenate((np.linspace(0.0, 0.5, 1025),
                        0.5 + np.arange(1, 2049) * np.spacing(0.5)))
    f = tmp_path / "ulp.csv"
    f.write_text("t,V,VH\n" + "".join(f"{x!r},1.0,1.0\n" for x in t.tolist()))
    for hurst in ("0.3", "0.7"):
        res = runner.invoke(main, ["estimate-ah", str(f), str(f), "--hurst", hurst])
        assert res.exit_code == 1
        assert ("cell 1024, [0.5, 0.5000000000000001], is under two ulps wide: "
                "its midpoint is not inside it") in res.output


def test_estimate_ah_grid_mismatch(runner, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("t,V,VH\n0.0,1.0,1.0\n0.5,0.9,1.1\n1.0,0.8,1.2\n")
    b.write_text("t,V,VH\n0.0,1.0,1.0\n0.6,0.9,1.1\n1.0,0.8,1.2\n")
    res = runner.invoke(main, ["estimate-ah", str(a), str(b), "--hurst", "0.7"])
    assert res.exit_code != 0
    assert "row 2" in res.output


def test_estimate_ah_grid_tolerance_is_relative_to_horizon(runner, tmp_path):
    def scaled_copy(src, factor, dst):
        lines = src.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        dst.write_text("\n".join([lines[0]] + [
            ",".join([repr(float(r[0]) * factor)] + r[1:]) for r in rows]) + "\n")

    def run(horizon, factor):
        vel = tmp_path / f"vel_{horizon}.csv"
        obs = tmp_path / f"obs_{horizon}.csv"
        args = ["simulate-velocity", "--hurst", "0.7", "--horizon", horizon,
                "--steps", "64", "--seed", "3", "--out", str(vel)]
        assert runner.invoke(main, args).exit_code == 0
        scaled_copy(vel, factor, obs)
        return runner.invoke(main, ["estimate-ah", str(obs), str(vel),
                                    "--hurst", "0.7"])

    # the same grid at a large horizon, t off by one ulp
    res = run("1e6", 1 + 2**-52)
    assert res.exit_code == 0, res.output
    assert "A_H estimate = " in res.output
    # another grid at a small horizon, t off by up to 9e-13
    res = run("1e-3", 1 + 9e-10)
    assert res.exit_code != 0
    assert "grids differ at data row" in res.output
    assert "np.float64" not in res.output


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


def test_validate_residual_check(runner):
    res = runner.invoke(main, ["validate", "--check", "residual", "--n", "256"])
    assert res.exit_code == 0, res.output
    lines = res.output.strip().splitlines()
    assert [line.split()[0] for line in lines[:-1]] == ["[PASS]"]
    measured = json.loads(lines[-1])["checks"][0]["measured"]
    assert measured["worst_normalized_residual"] <= 0.05
    assert "fraction_improved_vs_coarse" in measured


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


@pytest.mark.parametrize("content, reason", [
    (b"hurst = 0.7", "cannot read config {}: Expecting value"),
    (b"\xff\xfe{}", "cannot read config {}: 'utf-8' codec can't decode"),
    (b"[0.7, 5]", "config {} must hold a JSON object"),
], ids=["not-json", "not-utf8", "not-object"])
def test_config_file_refusals(runner, tmp_path, content, reason):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    res = runner.invoke(main, ["simulate-fbm", "--hurst", "0.7", "--seed", "1",
                               "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    assert reason.format(cfg) in res.output
    assert "Traceback" not in res.output


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
    (["--check", "residual", "--n", "16"], "need more than 16 cells"),
    (["--check", "residual", "--n", "8"], "need more than 16 cells"),
], ids=["residual-n50", "covariance-n8", "qv-t-1", "qv-n0", "seed-1",
        "residual-n16", "residual-n8"])
def test_validate_bad_size_is_a_usage_error(runner, args, reason):
    res = runner.invoke(main, ["validate", *args])
    assert res.exit_code == 2, res.output
    assert reason in res.output
    assert "Invalid value for '--" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("check", [[], ["--check", "qv"], ["--check", "residual"],
                                   ["--check", "covariance"]],
                         ids=["all", "qv", "residual", "covariance"])
def test_validate_refuses_grids_over_the_budget(runner, monkeypatch, check):
    # 10^12 cells would hold 7450.6 GiB of grid points: refused before the
    # grid is built, where numpy's allocation error was a traceback
    monkeypatch.setattr(np, "linspace", unbuilt)
    res = runner.invoke(main, ["validate", *check, "--n", str(10**12)])
    assert res.exit_code == 2, res.output
    assert "Invalid value for '--n'" in res.output and "GiB" in res.output
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


@pytest.mark.parametrize("command", ["simulate-fbm", "simulate-velocity"])
def test_csv_out_into_missing_directory(runner, tmp_path, command):
    out = tmp_path / "missing" / "path.csv"
    res = runner.invoke(main, [command, "--hurst", "0.7", "--steps", "8",
                               "--seed", "1", "--out", str(out)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert f"cannot write {out}: " in res.output
    assert "Traceback" not in res.output


def test_csv_round_trip_is_lossless(tmp_path):
    # shortest round-trip reprs, one line per row, read back bit for bit
    # at the float extremes: signed zero, subnormals, 1e16 and float max
    extremes = np.array([-0.0, 5e-324, 1e-310, 1e-5, 1e16, 1.7976931348623157e308])
    rng = np.random.default_rng(3)
    columns = [np.concatenate((rng.standard_normal(50), extremes)),
               np.concatenate((-extremes, rng.uniform(-1e300, 1e300, 50))),
               np.ldexp(rng.uniform(1, 2, 56), rng.integers(-1074, 1023, 56))]
    path = tmp_path / "r.csv"
    _write_csv(path, ["t", "a", "b"], columns)
    lines = path.read_text().splitlines()
    assert lines == ["t,a,b"] + [",".join(map(repr, row))
                                 for row in np.column_stack(columns).tolist()]
    header, back = _read_csv(path)
    assert header == ["t", "a", "b"]
    for got, want in zip(back, columns, strict=True):
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


GRID3 = b"t,V,VH\n0.0,1.0,1.0\n0.5,0.9,1.1\n1.0,0.8,1.2\n"


@pytest.mark.parametrize("command, first, second, reason", [
    ("estimate-hurst", b"", None, "{first}: file is empty"),
    ("estimate-hurst", b"x,y\n1.0,2.0\n3.0\n", None,
     "{first}:3: expected 2 fields, got 1"),
    ("estimate-hurst", b"x\n1.0\n\xff\n", None,
     "cannot read {first}: 'utf-8' codec can't decode"),
    ("estimate-ah", b"t\n0.0\n0.5\n1.0\n", GRID3,
     "observed file needs a t column plus a value column"),
    ("estimate-ah", GRID3, b"t\n0.0\n0.5\n1.0\n",
     "velocity file needs a t column plus a value column"),
    ("estimate-ah", GRID3, b"t,V\n0.0,1.0\n1.0,0.8\n",
     "grids differ in length: 3 vs 2 rows"),
], ids=["empty", "field-count", "not-utf8", "one-column-observed",
        "one-column-velocity", "grid-lengths"])
def test_csv_input_refusals(runner, tmp_path, command, first, second, reason):
    paths = []
    for name, content in (("first.csv", first), ("second.csv", second)):
        if content is not None:
            (tmp_path / name).write_bytes(content)
            paths.append(str(tmp_path / name))
    extra = ["--hurst", "0.7"] if command == "estimate-ah" else []
    res = runner.invoke(main, [command, *paths, *extra])
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    assert reason.format(first=paths[0]) in res.output
    assert "Traceback" not in res.output


def test_estimate_ah_reads_the_last_observed_column(runner, tmp_path, velocity_csv):
    # with neither VH nor V, the observed file's last column is the transform
    lines = velocity_csv.read_text().splitlines()
    obs = tmp_path / "obs.csv"
    obs.write_text("\n".join(["t,W"] + [f"{r.split(',')[0]},{r.split(',')[2]}"
                                        for r in lines[1:]]) + "\n")
    want = runner.invoke(main, ["estimate-ah", str(velocity_csv), str(velocity_csv),
                                "--hurst", "0.7"])
    got = runner.invoke(main, ["estimate-ah", str(obs), str(velocity_csv),
                               "--hurst", "0.7"])
    assert want.exit_code == got.exit_code == 0, got.output
    assert got.output == want.output


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
    # positive, but too small for 8 distinct grid cells, or for 8 cells
    # that each hold their midpoint (4e-323 gives cells of one ulp)
    + [("horizon", "2e-323", False), ("horizon", "4e-323", False)])
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
    ("simulate-fbm", "4e-323", ["--method", "kernel"], False),  # one-ulp cells
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
