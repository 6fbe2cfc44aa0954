#!/usr/bin/env python3
"""Pipeline benchmark of the mwgp CLI.

Run from the repository root:

    python3 perfbench/run.py --workload cv-gauss --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload

Each repetition is a fresh interpreter (perfbench/runner.py) that
imports the package from ``src``, writes the seeded inputs, then calls
the ``mwgp`` CLI stages in-process with one BLAS/OpenMP thread per
process, so total threads equal the ``--threads`` a stage asks for.
Repetitions start until ``--seconds`` have passed; the printed
figures are medians over them, and set-up is sampled at least three
times.  Every repetition's outputs are checked (perfbench/checks.py).

``--trace 1`` runs the stages once untraced and once traced with one
worker, and reports per-layer metrics, self times and the tracing
overhead; on map-pool it also times the nproc-worker map under the
inherited thread environment.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  An operation is one CLI stage
invocation.  The exit code is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
from metrics import E2E, PER_LAYER, STAGE_FIGURES  # noqa: E402
from workloads import SIZES, STAGES, TRACE_STAGES, WORKLOADS  # noqa: E402

PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
       "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
RUN_LIMIT_S = 170.0
UNPINNED_LIMIT_S = 100.0
MIN_SETUP_SAMPLES = 3


class Run:
    """One benchmark invocation: work directory, environment, time budget."""

    def __init__(self, root, workload, seed, size):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.size = size
        self.nproc = len(os.sched_getaffinity(0))
        self.work = os.path.join(root, ".perfbench_work",
                                 f"{workload}-s{seed}-{os.getpid()}")
        self.started = time.monotonic()
        src = os.path.join(root, "src")
        base = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        base["PYTHONPATH"] = os.pathsep.join(
            [src] + ([base["PYTHONPATH"]] if base.get("PYTHONPATH") else []))
        self.inherited_env = base
        self.pinned_env = dict(base, **{k: "1" for k in PIN})
        self.n_runner = 0
        self.ops = 0          # CLI stage invocations
        self.ops_failed = 0

    def runner(self, stages, trace=False, pinned=True, out=None, limit=None):
        """Start one repetition; its result dict, or one saying how it failed."""
        self.n_runner += 1
        os.makedirs(self.work, exist_ok=True)
        tag = f"r{self.n_runner}"
        spec = {"workload": self.workload, "size": self.size, "seed": self.seed,
                "work": self.work, "stages": list(stages), "trace": trace,
                "workers": str(self.nproc), "out": out or {},
                "result": os.path.join(self.work, f"{tag}.json")}
        spec_path = os.path.join(self.work, f"{tag}.spec.json")
        log_path = os.path.join(self.work, f"{tag}.log")
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        limit = min(limit or remaining, remaining)
        with open(log_path, "w", encoding="utf-8") as log:
            spec["t_spawn"] = time.monotonic()
            with open(spec_path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "runner.py"), spec_path],
                cwd=self.root, env=self.pinned_env if pinned else self.inherited_env,
                stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
            try:
                rc = proc.wait(timeout=max(limit, 1.0))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                return {"timeout": True, "elapsed": time.monotonic() - spec["t_spawn"],
                        "log": log_path}
        if rc != 0 or not os.path.exists(spec["result"]):
            return {"crashed": rc, "log": log_path}
        with open(spec["result"], encoding="utf-8") as fh:
            result = json.load(fh)
        result["wall"] = time.monotonic() - spec["t_spawn"]
        return result


def check_result(run, res, problems, label):
    """Stage exit codes, the source the runner imported, then the outputs."""
    if "plan" not in res:
        run.ops += 1
        run.ops_failed += 1
        with open(res["log"], encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        what = "timed out" if res.get("timeout") else f"exited {res.get('crashed')}"
        problems.append(f"{label}: runner {what}; log tail:\n{tail}")
        return None
    want_src = os.path.realpath(os.path.join(run.root, "src", "mwgp"))
    if os.path.realpath(res["env"]["mwgp_path"]) != want_src:
        problems.append(f"{label}: imported mwgp from {res['env']['mwgp_path']}")
    for stage, rc in res["stage_rc"].items():
        run.ops += 1
        if rc != 0:
            run.ops_failed += 1
            problems.append(f"{label}: stage {stage} exited {rc}")
    if problems:
        return None
    return checks.check_rep(res["plan"], run.work, list(res["stage_s"]), problems)


def digests(work, stages):
    return {s: checks.csv_digests(os.path.join(work, s)) for s in stages}


def stage_figures(res, stats, nproc):
    """The user-facing figures of one repetition (None where n/a)."""
    st = res["stage_s"]
    fig = {"setup_s": res["setup_s"], "total_s": sum(st.values()),
           "cpu_s": res["cpu_s"], "peak_rss_mb": res["peak_rss_mb"],
           "fail_frac": stats["fail_frac"]}
    for stage in ("mean", "map", "map_1w", "cv", "calibrate"):
        fig[f"{stage}_s"] = st.get(stage)
    if "map_1w" in st and "map" in st:
        fig["parallel_eff"] = st["map_1w"] / (nproc * st["map"])
    if "map" in st:
        fig["cells_per_s"] = res["plan"]["expect"]["cells"] / st["map"]
    if "cv" in st:
        fig["folds_per_s"] = stats["folds"] / st["cv"]
        fig["cv_rmse"] = stats["cv_rmse"]
        fig["cov68_gap"] = stats["cov68_gap"]
    return fig


def median_figures(figs):
    out = {}
    for name, _ in STAGE_FIGURES:
        vals = [f[name] for f in figs if f.get(name) is not None]
        out[name] = statistics.median(vals) if vals else None
    return out


def measure(run, seconds, problems):
    """Repetitions until ``seconds`` have passed; then set-ups."""
    stages = STAGES[run.workload]
    figs, setups, first = [], [], None
    t0 = time.monotonic()
    while True:
        res = run.runner(stages)
        stats = check_result(run, res, problems, f"repetition {len(figs) + 1}")
        if stats is None:
            return figs, setups, first or res
        d = digests(run.work, stages)
        if first is None:
            first, first_digests = res, d
        elif d != first_digests or res["profiles_sha256"] != first["profiles_sha256"]:
            problems.append("outputs or inputs differ between repetitions")
        figs.append(stage_figures(res, stats, run.nproc))
        setups.append(res["setup_s"])
        if time.monotonic() - t0 >= seconds:
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        res = run.runner([])
        if "setup_s" not in res:
            problems.append("set-up-only repetition failed")
            break
        setups.append(res["setup_s"])
    return figs, setups, first


def percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(run, untraced, traced, stats, unpinned):
    """Per-layer metrics from the traced run plus untraced manifests."""
    tr = traced["trace"]
    tot = lambda k: tr["total_s"].get(k, 0.0)  # noqa: E731
    cnt = lambda k: tr["counts"].get(k, 0)  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    st = untraced["stage_s"]
    m = {f"cli.{s}_s": st.get(s, 0.0) for s in ("mean", "map", "map_1w", "cv",
                                                "calibrate")}
    m["cli.write_s"] = tot("cli.write")
    m["cli.bytes_written"] = untraced["bytes_written"]
    m["ingest.parse_s"] = tot("ingest.parse")
    m["ingest.rows_per_s"] = ratio(cnt("ingest.rows"), tot("ingest.parse"))
    m["ingest.level_s"] = tot("ingest.level")
    m["ingest.mean_fit_s"] = tot("ingest.mean_fit")
    m["ingest.read_mean_s"] = tot("ingest.read_mean")
    m["ingest.subtract_s"] = tot("ingest.subtract")
    m["ingest.subtract_obs_per_s"] = ratio(cnt("ingest.subtract_obs"),
                                           tot("ingest.subtract"))
    win = tr["samples"].get("window_obs", [])
    m["windows.select_s"] = tot("windows.select")
    m["windows.select_calls"] = cnt("windows.select_calls")
    m["windows.obs_scanned"] = cnt("windows.obs_scanned")
    m["windows.window_obs_p50"] = percentile(win, 50)
    m["windows.window_obs_max"] = max(win) if win else 0
    manifest = untraced["map_manifest"]
    cell_times = list(manifest["cell_wall_times_s"].values())
    workers = int(manifest["config"]["threads"] or 1)
    wall = manifest["wall_time_s"]
    m["windows.cell_s_p50"] = percentile(cell_times, 50)
    m["windows.cell_s_p95"] = percentile(cell_times, 95)
    m["windows.cells_per_s"] = ratio(len(cell_times), st["map"])
    m["windows.parallel_eff"] = (ratio(st["map_1w"], workers * st["map"])
                                 if "map_1w" in st else 0.0)
    m["windows.pool_busy_frac"] = ratio(sum(cell_times), workers * wall)
    m["windows.pool_overhead_s"] = wall - sum(cell_times) / workers
    m["windows.fail_frac"] = stats["fail_frac"]
    by_status = {}
    for status, _, _, n in tr["failures"]:
        by_status[status] = by_status.get(status, 0) + n
    for status in ("error", "factorization_failed", "mode_finding_failed"):
        m[f"windows.failed_{status}"] = by_status.get(status, 0)
    m["windows.insufficient_data"] = by_status.get("insufficient_data", 0)
    m["windows.unpinned_map_s"] = unpinned.get("map_s", 0.0)
    m["windows.unpinned_cpu_per_wall"] = unpinned.get("cpu_per_wall", 0.0)
    m["windows.unpinned_bitwise_equal"] = unpinned.get("equal", 0)
    m["gaussian.fit_s"] = tot("gaussian.fit")
    m["gaussian.lik_evals"] = cnt("gaussian.lik_evals")
    m["gaussian.fit_iters"] = cnt("gaussian.fit_iters")
    m["gaussian.fit_unconverged"] = cnt("gaussian.fit_unconverged")
    m["gaussian.s_per_lik_eval"] = ratio(tot("gaussian.fit"),
                                         cnt("gaussian.lik_evals"))
    m["gaussian.predict_s"] = tot("gaussian.predict")
    m["gaussian.chol_calls"] = cnt("gaussian.chol_calls")
    m["gaussian.chol_s"] = tot("gaussian.chol")
    m["gaussian.chol_gflop"] = cnt("gaussian.chol_flop") / 1e9
    m["covariance.cov_matrix_s"] = tot("covariance.cov_matrix")
    m["covariance.cov_matrix_calls"] = cnt("covariance.cov_matrix_calls")
    m["covariance.kernel_entries"] = cnt("covariance.kernel_entries")
    m["covariance.rg_corr_s"] = tot("covariance.rg_corr")
    m["student.fit_s"] = tot("student.fit")
    m["student.lik_evals"] = cnt("student.lik_evals")
    m["student.fit_unconverged"] = cnt("student.fit_unconverged")
    m["student.mode_failures"] = cnt("student.mode_failures")
    m["student.mode_calls"] = cnt("student.mode_calls")
    m["student.mode_s"] = tot("student.mode")
    m["student.newton_iters"] = cnt("student.newton_iters")
    m["student.newton_per_mode"] = ratio(
        cnt("student.newton_iters"),
        cnt("student.mode_calls") - cnt("student.mode_failures"))
    m["student.interval_s"] = tot("student.interval")
    m["student.mc_draws"] = cnt("student.mc_draws")
    m["student.predict_s"] = tot("student.predict")
    folds = cnt("validation.folds")
    m["validation.cv_s"] = tot("validation.cv")
    m["validation.folds"] = folds
    m["validation.folds_failed"] = cnt("validation.folds_failed")
    m["validation.folds_skipped"] = cnt("validation.folds_skipped")
    m["validation.folds_per_s"] = ratio(stats["folds"], st.get("cv", 0.0))
    m["validation.s_per_fold"] = ratio(tot("validation.cv"), folds)
    m["validation.chol_per_fold"] = ratio(cnt("validation.chol_in_cv"), folds)
    m["validation.calibration_s"] = tot("validation.calibration")
    m["validation.calibration_records"] = cnt("validation.calibration_records")
    m["validation.s_per_record"] = ratio(tot("validation.calibration"),
                                         cnt("validation.calibration_records"))
    m["validation.cv_rmse"] = stats.get("cv_rmse", 0.0)
    m["validation.cov68_gap"] = stats.get("cov68_gap", 0.0)
    traced_s = sum(traced["stage_s"].values())
    untraced_s = sum(st[s] for s in traced["stage_s"])
    m["trace.overhead_s"] = traced_s - untraced_s
    m["trace.overhead_frac"] = ratio(traced_s - untraced_s, untraced_s)
    m["trace.spans"] = tr["n_spans"]
    for name, _, _, _ in PER_LAYER:
        if name.startswith("self."):
            m[name] = tr["self_s"].get(name[5:-2], 0.0)
    if tr["missing_hooks"]:
        print(f"note: functions not found for tracing: {tr['missing_hooks']}")
    return m


def traced_run(run, problems):
    """Untraced repetition, traced repetition, and the unpinned diagnostic."""
    stages = TRACE_STAGES[run.workload]
    untraced = run.runner(stages)
    stats = check_result(run, untraced, problems, "untraced repetition")
    if stats is None:
        return None, untraced
    base = digests(run.work, stages)
    # Cell times and output sizes of the untraced run, before the traced
    # run rewrites the same directories.
    untraced["map_manifest"] = checks.read_manifest(os.path.join(run.work, "map"))
    untraced["bytes_written"] = sum(
        os.path.getsize(os.path.join(run.work, s, f))
        for s in stages for f in os.listdir(os.path.join(run.work, s)))
    # One worker, so every span is recorded in this process.
    one = [s for s in stages if s != "map" or run.workload != "map-pool"]
    traced = run.runner(one, trace=True)
    if check_result(run, traced, problems, "traced repetition") is None:
        return None, untraced
    if digests(run.work, one) != {s: base[s] for s in one}:
        problems.append("traced outputs differ from untraced outputs")
    unpinned = {}
    if run.workload == "map-pool":
        res = run.runner(["map"], pinned=False, out={"map": "map_unpinned"},
                         limit=UNPINNED_LIMIT_S)
        run.ops += 1
        if res.get("stage_rc", {}).get("map") == 0:
            wall = res["stage_s"]["map"]
            unpinned = {"map_s": wall, "cpu_per_wall": res["cpu_s"] / wall,
                        "equal": int(checks.csv_digests(os.path.join(
                            run.work, "map_unpinned")) == base["map"]),
                        "blas_threads": res["env"]["blas_threads"]}
        elif res.get("timeout"):
            print(f"note: unpinned map stopped after {res['elapsed']:.1f} s")
            unpinned = {"map_s": res["elapsed"], "timed_out": True}
        else:
            run.ops_failed += 1
            problems.append(f"unpinned map failed; see {res.get('log')}")
    metrics = layer_metrics(run, untraced, traced, stats, unpinned)
    return (metrics, traced, unpinned), untraced


def environment(run, res):
    expect = res["plan"]["expect"] if res and "plan" in res else {}
    env = {"nproc": run.nproc, "workload": run.workload, "seed": run.seed,
           "size": run.size, "thread_env": {k: run.pinned_env[k] for k in PIN},
           "inputs": expect}
    if res and "env" in res:
        env.update(res["env"])
    try:
        cfg = np.__config__.CONFIG["Build Dependencies"]["blas"]
        env["blas"] = f"{cfg.get('name')} {cfg.get('version')}"
    except (AttributeError, KeyError, TypeError):
        env["blas"] = "unknown"
    return env


def fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def run_one(root, workload, seed, seconds, trace, size):
    run = Run(root, workload, seed, size)
    problems = []
    record = {}
    if trace:
        out, first = traced_run(run, problems)
        metrics = {}
        if out is not None:
            layer, traced, unpinned = out
            units = {n: u for n, u, _, _ in PER_LAYER}
            metrics = {n: {"value": layer[n], "unit": units[n]}
                       for n, _, _, _ in PER_LAYER}
            record.update(layer=layer, unpinned=unpinned,
                          failures=traced["trace"]["failures"],
                          unconverged=traced["trace"]["unconverged"])
            print(f"per-layer metrics, {workload}, seed {seed} (traced, 1 worker):")
            for n, u, _, _ in PER_LAYER:
                print(f"  {n:40s} {fmt(layer[n]):>14s} {u}")
            print("cell failures (status, exception, message, count):")
            for row in traced["trace"]["failures"][:20]:
                print(f"  {row}")
            print("unconverged fits (message, count):")
            for row in traced["trace"]["unconverged"][:10]:
                print(f"  {row}")
    else:
        figs, setups, first = measure(run, seconds, problems)
        metrics = {}
        if figs and setups:
            med = median_figures(figs)
            med["setup_s"] = statistics.median(setups)
            record.update(figures=figs, setups=setups, median=med)
            print(f"{workload}, seed {seed}: medians of {len(figs)} "
                  f"repetition(s), set-up sampled {len(setups)} times")
            for name, unit in STAGE_FIGURES:
                print(f"  {name:14s} {fmt(med[name]):>12s} {unit}")
            metrics = {n: {"value": med[n], "unit": u} for n, u, _, _ in E2E}
    env = environment(run, first)
    print("environment: " + json.dumps(env, sort_keys=True))
    for p in problems:
        print(f"CHECK FAILED: {p}")
    correct = not problems and bool(metrics)
    record.update(env=env, problems=problems, correct=correct)
    results = os.path.join(root, ".perfbench_results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{workload}-s{seed}-t{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    if correct:
        shutil.rmtree(run.work, ignore_errors=True)
    return {"correct": correct, "attempted": max(run.ops, 1),
            "failed": run.ops_failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SIZES["map-pool"]), default="full",
                    help="toy runs every stage and check in seconds")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mwgp", "cli.py")):
        print(f"error: {root} holds no src/mwgp; run from the repository root",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        out = run_one(root, name, args.seed, args.seconds, args.trace, args.size)
        ok = ok and out["correct"]
        print(json.dumps(out), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
