"""One pass of one benchmark workload, run in a fresh process.

Usage, from the repository root with ``src`` on PYTHONPATH:

    python perfbench/workloads.py WORKLOAD --seed N --spawned-at T
        [--trace --spans-out FILE]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process, so ``setup_s`` covers interpreter start, imports
and the dense operators the workload reuses.  Each pass is closed loop:
one client issues the next operation only after the previous one has
returned.  Every output is checked against a fixed tolerance; an
exception or a failed check makes the operation a failure.  The last
stdout line is a JSON record of the pass, which run.py aggregates.
With ``--trace`` the public library calls are recorded as spans
(see spans.py), written to FILE, and summarized in the record.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, concat, install, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

HURSTS = (0.3, 0.7)
# Langevin parameters of the README and the acceptance suite
OU = {"mass": 1.0, "friction": 2.0, "sigma": 0.5, "v0": 1.0}
# stream index of set-up draws, beyond every operation's index
WARMUP_STREAM = 2**32

FBM_STEPS, FBM_OPS = 2048, 320
VEL_STEPS, VEL_OPS = 2048, 1024
RES_STEPS, RES_COARSE, RES_OPS, RES_SEEDS = 1024, 256, 8, 8
CLI_STEPS, CLI_PATHS, CLI_AH = 2048, 32, 1.0
CLI_IMPORT_PROBES = 3

# |mean(B_T^2) - T^2H| <= VAR_Z * T^2H * sqrt(2/m) per (H, route) cell of
# m paths; the chance that a correct sampler fails one of the four cells
# at m = 64 is about 1e-4 per pass.
VAR_Z = 5.0
HURST_BAND, HURST_GAP = 0.1, 0.2        # acceptance test c10
AH_CLEAN_TOL, AH_NOISE = 1e-6, 1e-3     # acceptance test c09
RESIDUAL_MAX, REFINE_WINS = 0.05, 0.75  # `fraclangevin validate --check residual`


class Pass:
    """Operation latencies, failures and checks of one workload pass."""

    def __init__(self, spawned_at, tracer, traced):
        self.spawned_at = spawned_at
        self.tracer = tracer  # records library calls made in this process
        self.traced = traced
        self.span_lists = []  # spans of traced child processes
        self.setup_s = None
        self.latencies = []
        self.failed = 0
        self.errors = []
        self.checks = []
        self.layer_failed = {}
        self.health = {}
        self.counters = {}

    def setup_done(self):
        self.setup_s = time.monotonic() - self.spawned_at

    def op(self, index, work):
        """Run and time one operation; its output, or None if it raised."""
        if self.tracer is not None:
            self.tracer.op = index
        start = time.perf_counter()
        try:
            out = work()
        except Exception as exc:  # a raising operation is a failed one
            out = None
            self.failed += 1
            self._note(f"op {index}: {type(exc).__name__}: {exc}")
        self.latencies.append(time.perf_counter() - start)
        return out

    def reject(self, index, layer, message):
        """Count operation ``index`` as failed by ``layer``'s output."""
        self.failed += 1
        self.layer_failed[layer] = self.layer_failed.get(layer, 0) + 1
        self._note(f"op {index}: {layer}: {message}")

    def check(self, name, layer, ok, detail):
        """Record an aggregate check over the whole pass."""
        self.checks.append({"name": name, "layer": layer, "ok": bool(ok),
                            "detail": detail})
        if not ok:
            self.layer_failed[layer] = self.layer_failed.get(layer, 0) + 1

    def _note(self, message):
        if len(self.errors) < 10:
            self.errors.append(message)

    def record(self, peak_rss_kib):
        return {"setup_s": self.setup_s, "latencies": self.latencies,
                "attempted": len(self.latencies), "failed": self.failed,
                "errors": self.errors, "checks": self.checks,
                "layer_failed": self.layer_failed, "health": self.health,
                "counters": self.counters, "peak_rss_mb": peak_rss_kib / 1024}


def _library():
    """Import numpy and fraclangevin; refuse a copy outside ./src."""
    import numpy
    import fraclangevin
    where = Path(fraclangevin.__file__).resolve().parent
    if where != SRC / "fraclangevin":
        raise SystemExit(f"fraclangevin imported from {where}, not from {SRC}")
    return fraclangevin, numpy


def fbm_hurst(seed, run):
    """Simulate-then-estimate: one fBm path per op, then R/S on its increments."""
    fl, np = _library()
    grid = fl.uniform_grid(1.0, FBM_STEPS)
    specs = {h: fl.make_kernel_spec(h) for h in HURSTS}
    for h in HURSTS:
        fl.kernel_matrix(specs[h], grid)
        fl.sample_fbm_exact(h, grid, fl.NoiseStream(seed, WARMUP_STREAM))
    run.setup_done()

    terminal = {(h, route): [] for h in HURSTS for route in ("exact", "kernel")}
    hats = {h: [] for h in HURSTS}
    for k in range(FBM_OPS):
        h = HURSTS[(k // 2) % 2]
        route = ("exact", "kernel")[k % 2]
        stream = fl.NoiseStream(seed, k)

        def work():
            if route == "exact":
                path = fl.sample_fbm_exact(h, grid, stream)
            else:
                path = fl.sample_fbm_kernel(specs[h], grid, stream)
            return path.values, fl.estimate_hurst(np.diff(path.values)).hurst

        out = run.op(k, work)
        if out is None:
            continue
        values, hurst_hat = out
        if not (np.isfinite(values).all() and values[0] == 0.0):
            run.reject(k, "fbm", "path not finite or B_0 != 0")
        elif not math.isfinite(hurst_hat):
            run.reject(k, "hurst", f"estimate {hurst_hat!r}")
        else:
            terminal[(h, route)].append(values[-1])
            hats[h].append(hurst_hat)

    for (h, route), ends in terminal.items():
        m = len(ends)
        target = grid.horizon ** (2 * h)
        second = float(np.mean(np.square(ends))) if m else math.nan
        tol = VAR_Z * target * math.sqrt(2.0 / max(m, 1))
        run.check(f"var(B_T) H={h} {route}", "fbm",
                  m > 0 and abs(second - target) <= tol,
                  f"{second:.4g} vs {target:.4g} +- {tol:.3g} over {m} paths")
    mean_hat = {h: float(np.mean(v)) if v else math.nan for h, v in hats.items()}
    run.check("mean H_hat(0.7)", "hurst", abs(mean_hat[0.7] - 0.7) <= HURST_BAND,
              f"{mean_hat[0.7]:.4f}")
    gap = mean_hat[0.7] - mean_hat[0.3]
    run.check("mean H_hat(0.7) - mean H_hat(0.3)", "hurst", gap >= HURST_GAP,
              f"{gap:.4f}")


def velocity_ah(seed, run):
    """OU velocity -> fractional transform -> A_H fit, clean and noisy."""
    fl, np = _library()
    grid = fl.uniform_grid(1.0, VEL_STEPS)
    params = fl.LangevinParams(**OU)
    configs = {h: fl.FractionalConfig(fl.make_kernel_spec(h), 1.0) for h in HURSTS}
    for config in configs.values():
        fl.weight_matrix(config.spec, grid)
    run.setup_done()

    worst = (0.0, None, None)
    for k in range(VEL_OPS):
        config = configs[HURSTS[k % 2]]
        noise = fl.NoiseStream((seed + 1) % 2**64, k).generator().standard_normal(
            grid.points.size)

        def work():
            v = fl.simulate_ou_exact(params, grid, fl.NoiseStream(seed, k))
            observed = fl.fractional_velocity(config, v).transformed
            clean = fl.estimate_ah(config.spec, observed, v)
            noisy = observed.values * (1.0 + AH_NOISE * noise)
            noisy[0] = observed.values[0]
            return clean, fl.estimate_ah(config.spec, fl.Path(grid, noisy), v)

        out = run.op(k, work)
        if out is None:
            continue
        clean, noisy = out
        if not abs(clean - config.amplitude) <= AH_CLEAN_TOL:
            run.reject(k, "fractional", f"clean A_H {clean!r} != {config.amplitude}")
        err = abs(noisy - config.amplitude)
        if err > worst[0]:
            worst = (err, config.spec.hurst, k)
    # a health figure, not a gate: the fit divides by int K V ds, which
    # can pass close to zero (an estimator defect, not a benchmark fault)
    run.health["noisy_ah_err_max"] = {"value": worst[0], "hurst": worst[1],
                                      "op": worst[2]}


def residual_certify(seed, run):
    """Euler-Maruyama velocity and the transformed-equation residual."""
    fl, np = _library()
    grid = fl.uniform_grid(1.0, RES_STEPS)
    params = fl.LangevinParams(**OU)
    specs = {h: fl.make_kernel_spec(h) for h in HURSTS}
    run.setup_done()

    for k in range(RES_OPS):
        spec = specs[HURSTS[k % 2]]

        def work():
            db = fl.gaussian_increments(grid, fl.NoiseStream(seed, k))
            v = fl.simulate_ou_em(params, grid, db)
            return fl.normalized_residual_max(spec, params, v, db)

        out = run.op(k, work)
        if out is not None and not out <= RESIDUAL_MAX:
            run.reject(k, "fractional", f"normalized residual {out!r}")

    if run.tracer is not None:
        run.tracer.op = "refinement"
    for h, spec in specs.items():
        study = fl.residual_refinement_study(
            spec, params, 1.0, [RES_COARSE, RES_STEPS], RES_SEEDS,
            fl.NoiseStream((seed + 1) % 2**64))
        worst = float(np.max(study[RES_STEPS]))
        wins = float(np.mean(study[RES_STEPS] < study[RES_COARSE]))
        run.check(f"refinement H={h}", "fractional",
                  worst <= RESIDUAL_MAX and wins >= REFINE_WINS,
                  f"worst {worst:.3g}, finer grid wins {wins:.0%}")


def _cli_commands(seed):
    s = str(seed)
    steps, paths = str(CLI_STEPS), str(CLI_PATHS)
    return [
        ("simulate-fbm-exact", ["simulate-fbm", "--hurst", "0.7", "--steps", steps,
                                "--paths", paths, "--seed", s, "--method", "exact",
                                "--out", "fbm_exact.csv"]),
        ("estimate-hurst", ["estimate-hurst", "fbm_exact.csv", "--increments",
                            "--out", "hurst.json"]),
        ("simulate-velocity", ["simulate-velocity", "--hurst", "0.3",
                               "--ah", repr(CLI_AH), "--mass", "1", "--friction", "2",
                               "--sigma", "0.5", "--v0", "1", "--steps", steps,
                               "--seed", s, "--out", "vel.csv"]),
        ("estimate-ah", ["estimate-ah", "vel.csv", "vel.csv", "--hurst", "0.3",
                         "--out", "ah.json"]),
        ("simulate-fbm-kernel", ["simulate-fbm", "--hurst", "0.3", "--steps", steps,
                                 "--paths", paths, "--seed", s, "--method", "kernel",
                                 "--out", "fbm_kernel.csv"]),
    ]


def _csv_shape(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return len(rows) - 1, len(rows[0]) if rows else 0


def cli_roundtrip(seed, run):
    """The README chain, one fresh CLI process per command."""
    probes = []
    for _ in range(CLI_IMPORT_PROBES):
        start = time.monotonic()
        subprocess.run([sys.executable, "-c", "import fraclangevin.cli"],
                       check=True, timeout=120)
        probes.append(time.monotonic() - start)
    run.setup_s = statistics.median(probes)

    work_dir = OUT_DIR / f"cli-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    import_s, command_s = [], {}
    stdout_bytes = csv_bytes = 0
    try:
        for k, (name, args) in enumerate(_cli_commands(seed)):
            spans_file = work_dir / f"spans-{k}.json"
            argv = ([sys.executable, str(HERE / "cli_shim.py"), str(spans_file)]
                    if run.traced else [sys.executable, "-m", "fraclangevin.cli"])
            proc = run.op(k, lambda: subprocess.run(
                argv + args, cwd=work_dir, capture_output=True, timeout=120))
            command_s[name] = run.latencies[-1]
            if proc is None:
                continue
            stdout_bytes += len(proc.stdout)
            if proc.returncode != 0:
                run.reject(k, "cli", f"{name} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-300:]}")
            if run.traced and spans_file.exists():
                shim = json.loads(spans_file.read_text())
                import_s.append(shim["import_s"])
                run.span_lists.append([dict(s, proc=k) for s in shim["spans"]])

        csvs = {"fbm_exact.csv": (CLI_STEPS, CLI_PATHS + 1),
                "vel.csv": (CLI_STEPS, 3),
                "fbm_kernel.csv": (CLI_STEPS, CLI_PATHS + 1)}
        for name, (cells, cols) in csvs.items():
            path = work_dir / name
            shape = _csv_shape(path) if path.exists() else None
            csv_bytes += path.stat().st_size if path.exists() else 0
            run.check(f"{name} shape", "cli", shape == (cells + 1, cols),
                      f"{shape} rows x columns, want {(cells + 1, cols)}")
        mean_h = _json_field(work_dir / "hurst.json", "mean_hurst")
        run.check("estimate-hurst mean H(0.7)", "cli",
                  mean_h is not None and abs(mean_h - 0.7) <= HURST_BAND,
                  f"{mean_h!r}")
        amplitude = _json_field(work_dir / "ah.json", "amplitude")
        run.check("estimate-ah amplitude", "cli",
                  amplitude is not None and abs(amplitude - CLI_AH) <= AH_CLEAN_TOL,
                  f"{amplitude!r} vs --ah {CLI_AH}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    run.counters = {"cli.stdout_bytes": stdout_bytes, "cli.csv_bytes": csv_bytes}
    run.counters.update({f"cli.{name}.s": s for name, s in command_s.items()})
    if import_s:
        run.counters["cli.import_s"] = statistics.median(import_s)


def _json_field(path, key):
    try:
        return float(json.loads(path.read_text())[key])
    except (OSError, ValueError, KeyError, TypeError):
        return None


WORKLOADS = {"fbm_hurst": fbm_hurst, "velocity_ah": velocity_ah,
             "residual_certify": residual_certify, "cli_roundtrip": cli_roundtrip}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args()

    tracer = None
    if args.trace and args.workload != "cli_roundtrip":
        _library()
        tracer = Tracer()
        install(tracer)
    run = Pass(args.spawned_at, tracer, args.trace)
    WORKLOADS[args.workload](args.seed, run)

    who = (resource.RUSAGE_CHILDREN if args.workload == "cli_roundtrip"
           else resource.RUSAGE_SELF)
    record = run.record(resource.getrusage(who).ru_maxrss)
    if args.trace:
        spans = tracer.export() if tracer is not None else concat(run.span_lists)
        layers = summarize(spans)
        for layer, count in run.layer_failed.items():
            layers[f"{layer}.failed"] = layers.get(f"{layer}.failed", 0) + count
        record["layers"] = layers
        if args.spans_out is not None:
            args.spans_out.parent.mkdir(parents=True, exist_ok=True)
            args.spans_out.write_text(json.dumps(spans))
    print(json.dumps(record))


if __name__ == "__main__":
    main()
