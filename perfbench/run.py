"""fraclangevin benchmark: run a workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload pass runs in a fresh child process (workloads.py) that
receives only the seed and builds its inputs from it.  With --trace 0
the run starts passes one after another until the next one would end
after S seconds, but makes at least two, and reports the end-to-end
metrics:

    setup_s      median time from spawning a pass to its first operation
    wall_s       median lifetime of a pass, set-up included
    ops_per_s    operations per second of op time, pooled over passes
    op_p50_ms    median operation latency, pooled over passes
    peak_rss_mb  median peak resident memory of a pass (ru_maxrss)

and, in the human-readable lines only, op_p95_ms (where at least ten
samples lie beyond it) and fail_frac.  With --trace 1 it makes three
passes, untraced, traced, and traced with one BLAS thread, and reports
the per-layer metrics of metric_table.PER_LAYER; the spans and a report
with the metric-to-workload mapping go to .perfbench_out/.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  Every pass checks its outputs; an
operation that raises or fails its check counts in ``failed``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metric_table import END_TO_END, PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
MIN_PASSES, MAX_PASSES = 2, 12
PASS_TIMEOUT_S = 150
P95_TAIL = 10  # samples that must lie beyond p95 before it is reported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class PassError(RuntimeError):
    """A workload pass did not complete."""


def nproc():
    return len(os.sched_getaffinity(0))


def machine():
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        l3 = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                text=True, timeout=10).stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        l3 = None
    return {"nproc": nproc(), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_threads": nproc(), "l3_bytes": l3}


def run_pass(workload, seed, trace, blas_threads, spans_out=None):
    """One workload pass in a fresh process; its record plus ``wall_s``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: str(blas_threads) for var in BLAS_THREAD_VARS})
    argv = [sys.executable, str(HERE / "workloads.py"), workload, "--seed", str(seed)]
    if trace:
        argv += ["--trace", "--spans-out", str(spans_out)]
    spawned = time.monotonic()
    # own session, so a timeout also stops the CLI commands a pass started
    with subprocess.Popen(argv + ["--spawned-at", repr(spawned)], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    wall = time.monotonic() - spawned
    if proc.returncode != 0 or not out.strip():
        raise PassError(f"{workload} pass exited {proc.returncode}\n{err[-3000:]}")
    record = json.loads(out.splitlines()[-1])
    record["wall_s"] = wall
    return record


def end_to_end(records):
    lat = [x for r in records for x in r["latencies"]]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "wall_s": statistics.median(r["wall_s"] for r in records),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }
    extra = {"ops": len(lat), "passes": len(records)}
    if len(lat) * 0.05 >= P95_TAIL:
        extra["op_p95_ms"] = 1e3 * statistics.quantiles(lat, n=20)[-1]
    return values, extra


def verdict(records):
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    checks_ok = all(c["ok"] for r in records for c in r["checks"])
    return failed == 0 and checks_ok, attempted, failed


def layer_metrics(plain, traced, single):
    found = dict(traced["layers"])
    found.update(traced["counters"])
    health = traced["health"].get("noisy_ah_err_max")
    if health is not None:
        found["fractional.estimate_ah.noisy_err_max"] = health["value"]
    found["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    # blas1.<metric> is <metric> of the pass with one BLAS thread
    single_found = dict(single["layers"])
    single_found.update(end_to_end([single])[0])
    out = {}
    for name, unit, _, _ in PER_LAYER:
        if name.startswith("blas1."):
            value = single_found.get(name.removeprefix("blas1."), 0)
        else:
            value = found.get(name, 0)
        out[name] = {"value": int(value) if unit in ("count", "B") else value,
                     "unit": unit}
    return out


def run_workload(workload, seed, seconds, trace, info):
    """Metrics dict, verdict and human-readable lines for one workload."""
    threads = info["blas_threads"]
    if not trace:
        records = []
        start = time.monotonic()
        while len(records) < MAX_PASSES:
            records.append(run_pass(workload, seed, False, threads))
            elapsed = time.monotonic() - start
            if len(records) >= MIN_PASSES and elapsed + records[-1]["wall_s"] > seconds:
                break
        values, extra = end_to_end(records)
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    else:
        OUT_DIR.mkdir(exist_ok=True)
        stem = OUT_DIR / f"{workload}-seed{seed}"
        records = [run_pass(workload, seed, False, threads),
                   run_pass(workload, seed, True, threads,
                            spans_out=Path(f"{stem}-spans.json")),
                   run_pass(workload, seed, True, 1,
                            spans_out=Path(f"{stem}-blas1-spans.json"))]
        metrics = layer_metrics(*records)
        values, _ = end_to_end(records[:1])
        report = {"workload": workload, "seed": seed, "machine": info,
                  "metrics": metrics,
                  "mapping": {name: {"kind": kind, "moves": moves}
                              for name, _, kind, moves in PER_LAYER},
                  "untraced": values,
                  "checks": records[1]["checks"], "health": records[1]["health"]}
        Path(f"{stem}-trace.json").write_text(json.dumps(report, indent=1))
    correct, attempted, failed = verdict(records)

    lines = [f"{workload}  seed={seed}  trace={int(trace)}  passes={len(records)}  "
             f"ops={attempted}  blas_threads={threads}"]
    for name, m in metrics.items():
        lines.append(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
    if not trace:
        if "op_p95_ms" in extra:
            beyond = extra["ops"] - int(0.95 * extra["ops"])
            lines.append(f"  {'op_p95_ms':<46} {extra['op_p95_ms']:>14.6g} ms"
                         f"  (n={extra['ops']}, {beyond} beyond)")
        else:
            lines.append(f"  {'op_p95_ms':<46} {'-':>14}     "
                         f"(n={extra['ops']}, fewer than {P95_TAIL} beyond p95)")
        lines.append(f"  {'fail_frac':<46} {failed / attempted:>14.6g}"
                     f"     ({failed}/{attempted})")
    else:
        lines.append(f"  report: {stem}-trace.json")
    for r in records[:1]:
        for c in r["checks"]:
            lines.append(f"  check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
        for name, h in r["health"].items():
            lines.append(f"  health {name}: {h}")
    for r in records:
        lines += [f"  error {e}" for e in r["errors"]]
    return metrics, (correct, attempted, failed), lines


def main():
    parser = argparse.ArgumentParser(description="fraclangevin benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "fraclangevin" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fraclangevin sources under {ROOT / 'src'}")

    info = machine()
    print(json.dumps({"machine": info}), flush=True)
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, correct = {}, 0, 0, True
    for workload in names:
        try:
            found, (ok, tried, bad), lines = run_workload(
                workload, args.seed, args.seconds, bool(args.trace), info)
        except (PassError, subprocess.TimeoutExpired) as exc:
            sys.exit(f"perfbench: {exc}")
        print("\n".join(lines), flush=True)
        prefix = "" if len(names) == 1 else f"{workload}."
        metrics.update({prefix + k: v for k, v in found.items()})
        correct, attempted, failed = correct and ok, attempted + tried, failed + bad
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
