"""Command-line front end: reproducible simulation and estimation runs.

Commands emit plain CSV (header row, first column t, shortest
round-trip float formatting) so estimates can re-consume simulator
output losslessly.  Every simulation command requires an explicit seed;
there is no silent entropy anywhere.  Click alone parses, types and
checks every parameter.  ``--config FILE`` makes a JSON object of
parameter names (hyphens or underscores) the command's defaults, so any
option or argument may come from the file and meets the same checks as
on the command line; values given on the command line win, and unknown
keys are refused.
"""
from __future__ import annotations

import array
import csv
import json
import math
import sys

import click
import numpy as np

from . import __version__
from .core import NoiseStream, Path, TimeGrid, uniform_grid
from .fractional import (FractionalConfig, ah_ratios, estimate_ah,
                         fractional_velocity, residual_refinement_study)
from .hurst import DEFAULT_T_MIN, estimate_hurst
from .kernels import KernelSpec, verify_covariance_identity
from .langevin import LangevinParams, simulate_ou_exact
from .fbm import sample_fbm_exact, sample_fbm_kernel
from .noise import (StepKind, donsker_path, gaussian_increments,
                    quadratic_variation)

__all__ = ["main"]


# ---------------------------------------------------------------------------
# option plumbing
# ---------------------------------------------------------------------------


def _load_config(ctx, _param, path):
    """Make the config file's values the defaults that click checks like flags."""
    if path is None:
        return
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
        raise click.ClickException(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise click.ClickException(f"config {path} must hold a JSON object")
    names = {p.name for p in ctx.command.params} - {"config"}
    defaults = {}
    for key, value in cfg.items():
        name = key.replace("-", "_")
        if name not in names:
            raise click.ClickException(f"unknown config key {key!r}")
        defaults[name] = value
    ctx.default_map = defaults


def _write_csv(path, header, columns):
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in np.column_stack(columns):
                fh.write(",".join(map(repr, row.tolist())) + "\n")
    except OSError as exc:
        raise click.ClickException(f"cannot write {path}: {exc}")


def _write_json(path, data):
    try:
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise click.ClickException(f"cannot write {path}: {exc}")


def _read_csv(path):
    """Header plus finite float columns; parse errors carry the line number."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise click.ClickException(f"{path}: file is empty")
            columns = [array.array("d") for _ in header]
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise click.ClickException(
                        f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
                for i, field in enumerate(row):
                    try:
                        value = float(field)
                    except ValueError:
                        raise click.ClickException(
                            f"{path}:{lineno}: {field!r} is not a number")
                    if not math.isfinite(value):
                        raise click.ClickException(
                            f"{path}:{lineno}: {field!r} is not a finite number")
                    columns[i].append(value)
    except (OSError, UnicodeDecodeError) as exc:
        raise click.ClickException(f"cannot read {path}: {exc}")
    return header, [np.asarray(c) for c in columns]


_config_option = click.option(
    "--config", type=click.Path(exists=True, dir_okay=False), is_eager=True,
    expose_value=False, callback=_load_config,
    help="JSON file with default parameter values; flags override it.")
_seed_range = click.IntRange(0, 2**64 - 1)


class _Finite(click.FloatRange):
    """A FloatRange that also refuses nan and inf (FloatRange lets nan by)."""

    def convert(self, value, param, ctx):
        value = super().convert(value, param, ctx)
        if not math.isfinite(value):
            self.fail(f"{value!r} is not a finite number.", param, ctx)
        return value


_real = _Finite()
_positive = _Finite(min=0.0, min_open=True)
_hurst = _Finite(0.0, 1.0, min_open=True, max_open=True)
_cells = click.IntRange(min=1)


def _grid(horizon, steps, hurst=None):
    """uniform_grid; a --horizon error if too small for distinct points or,
    given ``hurst``, if (horizon/steps)^2H or 2 horizon^2H is not normal."""
    try:
        grid = uniform_grid(horizon, steps)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint=["--horizon"])
    if hurst is not None and not (
            2 * hurst * math.log(horizon / steps) >= math.log(sys.float_info.min)
            and 2 * hurst * math.log(horizon) <= math.log(sys.float_info.max / 2)):
        raise click.BadParameter(
            f"the fBm variance horizon^(2H) = {horizon:g}^{2 * hurst:g} on "
            f"{steps} cells leaves the float range", param_hint=["--horizon"])
    return grid


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


@click.group()
@click.version_option(version=__version__)
def main():
    """Fractional-Brownian Langevin toolkit."""


@main.command("simulate-fbm")
@click.option("--hurst", type=_hurst, required=True,
              help="Hurst index in (0,1).")
@click.option("--horizon", type=_positive, default=1.0, show_default=True)
@click.option("--steps", type=_cells, default=1024, show_default=True,
              help="Grid cells on [0, horizon].")
@click.option("--paths", type=_cells, default=1, show_default=True)
@click.option("--seed", type=_seed_range, required=True, help="Mandatory RNG seed.")
@click.option("--method", type=click.Choice(["exact", "kernel"]),
              default="exact", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@click.option("--report", type=click.Choice(["variance"]), default=None,
              help="Print a Monte Carlo summary of the emitted paths.")
@_config_option
def cmd_simulate_fbm(hurst, horizon, steps, paths, seed, method, out, report):
    """Sample fractional Brownian motion paths to CSV."""
    grid = _grid(horizon, steps, hurst if method == "exact" or report else None)
    spec = KernelSpec(hurst)
    cols = []
    for k in range(paths):
        stream = NoiseStream(seed, k)
        if method == "exact":
            path = sample_fbm_exact(hurst, grid, stream)
        else:
            path = sample_fbm_kernel(spec, grid, stream)
        cols.append(path.values)
    header = ["t"] + [f"path{k}" for k in range(paths)]
    _write_csv(out, header, [grid.points] + cols)
    click.echo(f"wrote {paths} path(s) on {steps} cells to {out}")
    if report == "variance":
        terminal = np.array([c[-1] for c in cols])
        var = float(np.var(terminal))
        target = grid.horizon ** (2 * hurst)
        se = target * math.sqrt(2.0 / paths)
        click.echo(f"var(B_T) = {var:.6g}  target T^2H = {target:.6g}  "
                   f"standard error ~ {se:.2g}")


@main.command("simulate-velocity")
@click.option("--hurst", type=_hurst, required=True)
@click.option("--ah", type=_real, default=1.0, show_default=True,
              help="Amplitude of the transform normalization.")
@click.option("--mass", type=_positive, default=1.0, show_default=True)
@click.option("--friction", type=_positive, default=1.0, show_default=True)
@click.option("--sigma", type=_Finite(min=0.0), default=1.0, show_default=True)
@click.option("--v0", type=_real, default=1.0, show_default=True)
@click.option("--horizon", type=_positive, default=1.0, show_default=True)
@click.option("--steps", type=_cells, default=1024, show_default=True)
@click.option("--seed", type=_seed_range, required=True, help="Mandatory RNG seed.")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_config_option
def cmd_simulate_velocity(hurst, ah, mass, friction, sigma, v0, horizon, steps,
                          seed, out):
    """Exact OU velocity path plus its fractional transform to CSV."""
    params = LangevinParams(mass=mass, friction=friction, sigma=sigma, v0=v0)
    grid = _grid(horizon, steps)
    v = simulate_ou_exact(params, grid, NoiseStream(seed))
    spec = KernelSpec(hurst)
    if spec.hurst == 0.5:
        _write_csv(out, ["t", "V"], [grid.points, v.values])
        click.echo(f"wrote t,V to {out} (H = 1/2 has no transform)")
        return
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            fp = fractional_velocity(FractionalConfig(spec, ah), v)
        except OverflowError as exc:
            raise click.BadParameter(str(exc), param_hint=["--horizon", "--v0", "--ah"])
    _write_csv(out, ["t", "V", "VH"],
               [grid.points, v.values, fp.transformed.values])
    click.echo(f"wrote t,V,VH to {out}")


@main.command("estimate-hurst")
@click.argument("input_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--t-min", type=click.IntRange(min=2), default=DEFAULT_T_MIN,
              show_default=True,
              help="Smallest prefix length used in the log-log fit.")
@click.option("--increments", is_flag=True,
              help="Difference each series before the analysis.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Also write the report as JSON.")
@_config_option
def cmd_estimate_hurst(input_csv, t_min, increments, out):
    """Rescaled-range Hurst estimate for each series column of a CSV."""
    header, columns = _read_csv(input_csv)
    if len(columns) > 1 and header[0] == "t":
        header, columns = header[1:], columns[1:]  # the time column is not a series
    if not increments:
        click.echo("note: rescaled-range analysis assumes a stationary series; "
                   "use --increments for path-like data")
    reports = []
    for name, values in zip(header, columns):
        data = np.diff(values) if increments else values
        try:
            est = estimate_hurst(data, t_min=t_min)
        except ValueError as exc:
            raise click.ClickException(f"column {name!r}: {exc}")
        reports.append({"column": name, "hurst": est.hurst,
                        "amplitude": est.amplitude,
                        "r_squared": est.r_squared,
                        "points_used": est.points_used})
        click.echo(f"{name}: H = {est.hurst!r}  lambda = {est.amplitude!r}  "
                   f"r2 = {est.r_squared:.6g}  points = {est.points_used}")
    summary = {"columns": reports}
    if len(reports) > 1:
        summary["mean_hurst"] = float(np.mean([r["hurst"] for r in reports]))
        click.echo(f"mean H over {len(reports)} columns = "
                   f"{summary['mean_hurst']:.6g}")
    if out:
        _write_json(out, summary)


@main.command("estimate-ah")
@click.argument("observed_csv", type=click.Path(exists=True, dir_okay=False))
@click.argument("velocity_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--hurst", type=_hurst, required=True,
              help="Hurst index of the kernel (estimate it first).")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Also write the report as JSON.")
@_config_option
def cmd_estimate_ah(observed_csv, velocity_csv, hurst, out):
    """Amplitude estimate from measured transform values and a velocity path."""
    obs_header, obs_cols = _read_csv(observed_csv)
    vel_header, vel_cols = _read_csv(velocity_csv)
    for name, cols in (("observed", obs_cols), ("velocity", vel_cols)):
        if len(cols) < 2:
            raise click.ClickException(
                f"{name} file needs a t column plus a value column")
    t_obs, t_vel = obs_cols[0], vel_cols[0]
    if t_obs.size != t_vel.size:
        raise click.ClickException(
            f"grids differ in length: {t_obs.size} vs {t_vel.size} rows")
    # times match within 1e-12 of the largest |t|, so the check is scale-free
    scale = np.max(np.abs(np.concatenate((t_obs, t_vel))), initial=0.0)
    gap = np.abs(t_obs - t_vel) > 1e-12 * scale
    if gap.any():
        row = int(np.argmax(gap))
        raise click.ClickException(
            f"grids differ at data row {row + 1}: "
            f"t={float(t_obs[row])!r} vs {float(t_vel[row])!r}")

    if "VH" in obs_header:
        observed = obs_cols[obs_header.index("VH")]
    elif "V" in obs_header:
        raise click.ClickException(
            f"{observed_csv}: no VH column (it has V, which is the "
            "velocity, not its transform)")
    else:
        observed = obs_cols[-1]
    velocity = vel_cols[vel_header.index("V") if "V" in vel_header else 1]
    spec = KernelSpec(hurst)
    try:
        grid = TimeGrid(t_vel)
        v_path, o_path = Path(grid, velocity), Path(grid, observed)
        ratios = ah_ratios(spec, o_path, v_path)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    amplitude = estimate_ah(spec, o_path, v_path)
    times = grid.points[1:]
    quantiles = np.quantile(ratios, [0.0, 0.05, 0.5, 0.95, 1.0])
    click.echo(f"per-time ratios: count = {ratios.size}")
    click.echo("  " + "  ".join(
        f"{name} = {float(x)!r}"
        for name, x in zip(("min", "p05", "p50", "p95", "max"), quantiles)))
    click.echo(f"A_H estimate = {amplitude!r}")
    if out:
        _write_json(out, {"amplitude": amplitude,
                          "ratios": [{"t": float(t), "ratio": float(r)}
                                     for t, r in zip(times, ratios)]})


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _normal_cdf(x):
    return 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))


def _ks_distance_normal(samples):
    s = np.sort(samples)
    m = s.size
    cdf = _normal_cdf(s)
    upper = np.arange(1, m + 1) / m
    lower = np.arange(0, m) / m
    return float(max(np.max(upper - cdf), np.max(cdf - lower)))


def _check_covariance(n, seed):
    del seed  # deterministic
    n = n or 2048
    results = []
    for hurst in (0.7, 0.3):
        spec = KernelSpec(hurst)
        tol = 1e-2 if hurst > 0.5 else 2e-2
        for (s, t) in ((1.0, 1.0), (0.5, 1.0)):
            coarse = verify_covariance_identity(spec, s, t, n)
            fine = verify_covariance_identity(spec, s, t, 4 * n)
            ok = coarse <= tol and fine <= coarse * 1.05
            results.append({
                "name": f"covariance H={hurst} s={s} t={t}",
                "passed": bool(ok),
                "measured": {"residual": coarse, "residual_4n": fine},
                "threshold": tol,
            })
    return results


def _check_qv(n, seed, horizon):
    n = n or 100_000
    horizon = horizon or 2.0
    grid = uniform_grid(horizon, n)
    db = gaussian_increments(grid, NoiseStream(seed))
    qv = quadratic_variation(Path(grid, np.concatenate(([0.0], np.cumsum(db)))))
    tol = 5.0 * horizon * math.sqrt(2.0 / n)
    return [{
        "name": f"quadratic variation n={n} T={horizon}",
        "passed": bool(abs(qv - horizon) <= tol),
        "measured": {"qv": qv, "abs_error": abs(qv - horizon)},
        "threshold": tol,
    }]


def _check_donsker(n, seed):
    n = n or 10_000
    m = 2000
    samples = np.array([
        donsker_path(n, 1.0, StepKind.RADEMACHER, NoiseStream(seed, k)).values[-1]
        for k in range(m)
    ])
    ks = _ks_distance_normal(samples)
    return [{
        "name": f"donsker KS n={n} M={m}",
        "passed": bool(ks <= 0.05),
        "measured": {"ks_distance": ks},
        "threshold": 0.05,
    }]


def _check_residual(n, seed):
    n = n or 1024
    coarse = max(16, n // 4)
    if coarse >= n:
        raise ValueError(f"need more than {coarse} cells to refine a coarser grid")
    spec = KernelSpec(0.7)
    params = LangevinParams(mass=1.0, friction=2.0, sigma=0.5, v0=1.0)
    study = residual_refinement_study(spec, params, 1.0, [coarse, n], 8,
                                      NoiseStream(seed))
    worst = float(np.max(study[n]))
    improved = float(np.mean(study[n] < study[coarse]))
    return [{
        "name": f"transformed-equation residual n={n}",
        "passed": bool(worst <= 0.05 and improved >= 0.75),
        "measured": {"worst_normalized_residual": worst,
                     "fraction_improved_vs_coarse": improved},
        "threshold": 0.05,
    }]


@main.command("validate")
@click.option("--check", type=click.Choice(["all", "covariance", "qv",
                                            "donsker", "residual"]),
              default="all", show_default=True)
@click.option("--n", "--steps", "n", type=_cells, default=None,
              help="Override the check's grid/series size.")
@click.option("--t", "--horizon", "horizon", type=_positive, default=None,
              help="Override the check's horizon (qv only).")
@click.option("--seed", type=_seed_range, default=20200409, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Also write the JSON summary to a file.")
@_config_option
def cmd_validate(check, n, horizon, seed, out):
    """Built-in diagnostic suite; fails with a nonzero exit code."""
    results = []
    try:
        if check in ("all", "covariance"):
            results += _check_covariance(n, seed)
        if check in ("all", "qv"):
            results += _check_qv(n, seed, horizon)
        if check in ("all", "donsker"):
            results += _check_donsker(n, seed)
        if check in ("all", "residual"):
            results += _check_residual(n, seed)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint=["--n", "--t"])
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        measured = "  ".join(f"{k}={v:.6g}" for k, v in r["measured"].items())
        click.echo(f"[{status}] {r['name']}: {measured} (threshold {r['threshold']:.3g})")
    summary = {"passed": all(r["passed"] for r in results), "checks": results}
    click.echo(json.dumps(summary))
    if out:
        _write_json(out, summary)
    if not summary["passed"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
