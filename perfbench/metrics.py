"""Metric definitions: name, unit, direction, and what each should move.

``E2E`` metrics are measured with tracing off and apply to every
workload.  ``PER_LAYER`` metrics come from a traced run (``--trace 1``);
their last field names the end-to-end metric and workload each one is
expected to move.  BENCHMARK.json lists the same metrics.
"""

E2E = [
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("total_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# Stage-level figures a user sees.  They are printed by every run but
# apply to only some workloads, so the traced run also reports them
# under ``cli.`` / ``windows.`` / ``validation.`` names.
STAGE_FIGURES = [
    ("setup_s", "s"), ("total_s", "s"), ("cpu_s", "s"), ("mean_s", "s"),
    ("map_s", "s"), ("map_1w_s", "s"), ("cv_s", "s"), ("calibrate_s", "s"),
    ("parallel_eff", "ratio"), ("cells_per_s", "1/s"), ("folds_per_s", "1/s"),
    ("peak_rss_mb", "MB"), ("fail_frac", "ratio"), ("cv_rmse", "degC"),
    ("cov68_gap", "ratio"),
]

SPAN_NAMES = [
    "cli.write", "ingest.parse", "ingest.level", "ingest.mean_fit",
    "ingest.read_mean", "ingest.subtract", "windows.fit_grid_point",
    "windows.select", "gaussian.fit", "gaussian.predict", "gaussian.chol",
    "covariance.cov_matrix", "covariance.rg_corr", "student.fit",
    "student.mode", "student.interval", "student.predict", "student.mc_sample",
    "validation.cv", "validation.calibration",
]

PER_LAYER = [
    # name, unit, better, moves
    ("cli.mean_s", "s", "lower", "untraced mean stage; global-ref, map-pool"),
    ("cli.map_s", "s", "lower", "untraced map stage (nproc workers on map-pool)"),
    ("cli.map_1w_s", "s", "lower", "untraced 1-worker map; map-pool"),
    ("cli.cv_s", "s", "lower", "untraced cv stage; cv-gauss, student"),
    ("cli.calibrate_s", "s", "lower", "untraced calibrate stage; cv-gauss, student"),
    ("cli.write_s", "s", "lower", "map_s on map-pool and global-ref"),
    ("cli.bytes_written", "bytes", "lower", "map_s on map-pool and global-ref"),
    ("ingest.parse_s", "s", "lower", "mean_s, map_s on global-ref"),
    ("ingest.rows_per_s", "1/s", "higher", "mean_s, map_s on global-ref"),
    ("ingest.level_s", "s", "lower", "mean_s, map_s on global-ref"),
    ("ingest.mean_fit_s", "s", "lower", "mean_s on global-ref"),
    ("ingest.read_mean_s", "s", "lower", "map_s on global-ref"),
    ("ingest.subtract_s", "s", "lower", "map_s on global-ref"),
    ("ingest.subtract_obs_per_s", "1/s", "higher", "map_s on global-ref"),
    ("windows.select_s", "s", "lower", "map_s, cells_per_s on global-ref"),
    ("windows.select_calls", "count", "lower", "map_s on global-ref"),
    ("windows.obs_scanned", "count", "lower", "map_s on global-ref"),
    ("windows.window_obs_p50", "count", "lower", "map_s on global-ref"),
    ("windows.window_obs_max", "count", "lower", "map_s on global-ref"),
    ("windows.cell_s_p50", "s", "lower", "map_s on every workload"),
    ("windows.cell_s_p95", "s", "lower", "map_s on every workload"),
    ("windows.cells_per_s", "1/s", "higher", "total_s on map-pool, global-ref"),
    ("windows.parallel_eff", "ratio", "higher", "map_s on map-pool"),
    ("windows.pool_busy_frac", "ratio", "higher", "map_s, parallel_eff on map-pool"),
    ("windows.pool_overhead_s", "s", "lower", "map_s, parallel_eff on map-pool"),
    ("windows.fail_frac", "ratio", "lower", "failed cells and folds; map-pool"),
    ("windows.failed_error", "count", "lower", "fail_frac on map-pool"),
    ("windows.failed_factorization_failed", "count", "lower", "fail_frac"),
    ("windows.failed_mode_finding_failed", "count", "lower", "fail_frac on student"),
    ("windows.insufficient_data", "count", "lower", "cells skipped, not failed"),
    ("windows.unpinned_map_s", "s", "lower", "map-pool map under inherited threads"),
    ("windows.unpinned_cpu_per_wall", "ratio", "lower", "oversubscription; map-pool"),
    ("windows.unpinned_bitwise_equal", "count", "higher", "1 if equal to pinned map"),
    ("gaussian.fit_s", "s", "lower", "map_1w_s, map_s, cpu_s on map-pool"),
    ("gaussian.lik_evals", "count", "lower", "map_1w_s, map_s on map-pool"),
    ("gaussian.fit_iters", "count", "lower", "map_1w_s, map_s on map-pool"),
    ("gaussian.fit_unconverged", "count", "lower", "fit quality on map-pool"),
    ("gaussian.s_per_lik_eval", "s", "lower", "map_1w_s, map_s on map-pool"),
    ("gaussian.predict_s", "s", "lower", "cv_s on cv-gauss"),
    ("gaussian.chol_calls", "count", "lower", "cv_s on cv-gauss"),
    ("gaussian.chol_s", "s", "lower", "cv_s on cv-gauss"),
    ("gaussian.chol_gflop", "GFLOP", "lower", "cv_s on cv-gauss"),
    ("covariance.cov_matrix_s", "s", "lower", "cv_s on cv-gauss, map_s on student"),
    ("covariance.cov_matrix_calls", "count", "lower", "cv_s on cv-gauss"),
    ("covariance.kernel_entries", "count", "lower", "cv_s on cv-gauss"),
    ("covariance.rg_corr_s", "s", "lower", "cv_s on cv-gauss, map_s on global-ref"),
    ("student.fit_s", "s", "lower", "map_s on student"),
    ("student.lik_evals", "count", "lower", "map_s on student"),
    ("student.fit_unconverged", "count", "lower", "fit diagnostics on student"),
    ("student.mode_failures", "count", "lower", "map_s on student"),
    ("student.mode_calls", "count", "lower", "map_s on student"),
    ("student.mode_s", "s", "lower", "map_s on student"),
    ("student.newton_iters", "count", "lower", "map_s on student"),
    ("student.newton_per_mode", "count", "lower", "map_s on student"),
    ("student.interval_s", "s", "lower", "map_s on student"),
    ("student.mc_draws", "count", "lower", "map_s, cv_s, calibrate_s on student"),
    ("student.predict_s", "s", "lower", "cv_s on student"),
    ("validation.cv_s", "s", "lower", "cv_s, folds_per_s on cv-gauss"),
    ("validation.folds", "count", "higher", "folds_per_s on cv-gauss"),
    ("validation.folds_failed", "count", "lower", "fail_frac"),
    ("validation.folds_skipped", "count", "lower", "folds not scored"),
    ("validation.folds_per_s", "1/s", "higher", "cv_s on cv-gauss"),
    ("validation.s_per_fold", "s", "lower", "cv_s, folds_per_s on cv-gauss"),
    ("validation.chol_per_fold", "count", "lower", "cv_s on cv-gauss"),
    ("validation.calibration_s", "s", "lower", "cv_s, calibrate_s on student"),
    ("validation.calibration_records", "count", "lower", "calibrate_s on student"),
    ("validation.s_per_record", "s", "lower", "cv_s, calibrate_s on student"),
    ("validation.cv_rmse", "degC", "lower", "CV accuracy of the main variant"),
    ("validation.cov68_gap", "ratio", "lower", "CV calibration of the main variant"),
    ("trace.overhead_s", "s", "lower", "traced minus untraced stage time"),
    ("trace.overhead_frac", "ratio", "lower", "overhead over untraced stage time"),
    ("trace.spans", "count", "lower", "spans recorded"),
] + [(f"self.{name}_s", "s", "lower", "self time of the span")
     for name in SPAN_NAMES]
