"""Metric names, units, and what each per-layer metric should move.

BENCHMARK.json lists the same names, units and directions.  This table
adds, for each per-layer metric, its kind (measured, or computed from
sizes and counts) and the end-to-end metric it should move on which
workload; the traced run writes that mapping into its report.
A per-layer metric of a function a workload never calls reads 0.
"""

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}

# name, unit, kind, end-to-end metric it should move (on which workload)
PER_LAYER = [
    ("kernels.kernel_matrix.busy_s", "s", "measured",
     "setup_s on fbm_hurst and cli_roundtrip"),
    ("kernels.kernel_matrix.calls", "count", "count",
     "setup_s on fbm_hurst and cli_roundtrip"),
    ("kernels.weight_matrix.busy_s", "s", "measured", "setup_s on velocity_ah"),
    ("kernels.weight_matrix.calls", "count", "count",
     "op_p50_ms on velocity_ah (cache hits per op)"),
    ("kernels.dense_bytes", "B", "computed", "peak_rss_mb on all workloads"),
    ("kernels.self_s", "s", "measured", "setup_s on fbm_hurst and velocity_ah"),
    ("kernels.calls", "count", "count", "-"),
    ("kernels.failed", "count", "count", "-"),
    ("fbm.sample_fbm_exact.first_s", "s", "measured", "setup_s on fbm_hurst"),
    ("fbm.sample_fbm_exact.p50_ms", "ms", "measured", "op_p50_ms on fbm_hurst"),
    ("fbm.sample_fbm_kernel.p50_ms", "ms", "measured", "op_p50_ms on fbm_hurst"),
    ("fbm.dense_bytes", "B", "computed", "peak_rss_mb on fbm_hurst and cli_roundtrip"),
    ("fbm.self_s", "s", "measured", "setup_s and op_p50_ms on fbm_hurst"),
    ("fbm.calls", "count", "count", "-"),
    ("fbm.failed", "count", "count", "-"),
    ("noise.gaussian_increments.p50_ms", "ms", "measured",
     "op_p50_ms on residual_certify (predicted flat)"),
    ("noise.self_s", "s", "measured", "-"),
    ("noise.calls", "count", "count", "-"),
    ("noise.failed", "count", "count", "-"),
    ("langevin.simulate_ou_exact.p50_ms", "ms", "measured",
     "op_p50_ms and ops_per_s on velocity_ah"),
    ("langevin.simulate_ou_em.p50_ms", "ms", "measured", "op_p50_ms on residual_certify"),
    ("langevin.self_s", "s", "measured", "ops_per_s on velocity_ah"),
    ("langevin.calls", "count", "count", "-"),
    ("langevin.failed", "count", "count", "-"),
    ("fractional.fractional_velocity.p50_ms", "ms", "measured",
     "op_p50_ms on velocity_ah"),
    ("fractional.estimate_ah.p50_ms", "ms", "measured", "op_p50_ms on velocity_ah"),
    ("fractional.estimate_ah.noisy_err_max", "1", "health",
     "none: worst |A_H - 1| under 1e-3 noise on velocity_ah, not a gate"),
    ("fractional.normalized_residual_max.p50_ms", "ms", "measured",
     "op_p50_ms and wall_s on residual_certify"),
    ("fractional.residual_refinement_study.busy_s", "s", "measured",
     "op_p50_ms and wall_s on residual_certify"),
    ("fractional.self_s", "s", "measured", "wall_s on residual_certify"),
    ("fractional.calls", "count", "count", "-"),
    ("fractional.failed", "count", "count", "-"),
    ("hurst.estimate_hurst.p50_ms", "ms", "measured",
     "op_p50_ms and ops_per_s on fbm_hurst"),
    ("hurst.estimate_hurst.busy_s", "s", "measured",
     "op_p50_ms and ops_per_s on fbm_hurst"),
    ("hurst.self_s", "s", "measured", "ops_per_s on fbm_hurst"),
    ("hurst.calls", "count", "count", "-"),
    ("hurst.failed", "count", "count", "-"),
    ("cli.import_s", "s", "measured", "setup_s on cli_roundtrip"),
    ("cli.simulate-fbm-exact.s", "s", "measured", "wall_s on cli_roundtrip"),
    ("cli.estimate-hurst.s", "s", "measured", "wall_s on cli_roundtrip"),
    ("cli.simulate-velocity.s", "s", "measured", "wall_s on cli_roundtrip"),
    ("cli.estimate-ah.s", "s", "measured", "wall_s on cli_roundtrip"),
    ("cli.simulate-fbm-kernel.s", "s", "measured", "wall_s on cli_roundtrip"),
    ("cli.stdout_bytes", "B", "computed", "wall_s on cli_roundtrip"),
    ("cli.csv_bytes", "B", "computed", "wall_s on cli_roundtrip"),
    ("cli.self_s", "s", "measured", "wall_s on cli_roundtrip"),
    ("cli.calls", "count", "count", "-"),
    ("cli.failed", "count", "count", "-"),
    ("trace.overhead_s", "s", "measured",
     "none: traced wall_s minus untraced wall_s of the same pass"),
    ("trace.spans", "count", "count", "-"),
    ("blas1.setup_s", "s", "measured", "setup_s, with one BLAS thread"),
    ("blas1.wall_s", "s", "measured", "wall_s, with one BLAS thread"),
    ("blas1.op_p50_ms", "ms", "measured", "op_p50_ms, with one BLAS thread"),
] + [
    (f"blas1.{layer}.self_s", "s", "measured", f"{layer}.self_s, with one BLAS thread")
    for layer in ("kernels", "fbm", "noise", "langevin", "fractional", "hurst", "cli")
]
