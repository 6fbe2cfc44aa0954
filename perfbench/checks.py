"""Output checks for one repetition of a workload.

Everything here reads the files the CLI wrote and recomputes what it
can with the benchmark's own code (numpy and the standard library), so
a speed-up that changes results fails the run.  Each check appends a
message to ``problems`` on failure.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from statistics import NormalDist

import numpy as np

from workloads import MEAN_C, month_halfwidth

REL_TOL = 1e-8
KM_PER_DEG = 111.2
RG_NUGGET = 0.15


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_manifest(stage_dir):
    with open(os.path.join(stage_dir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def csv_digests(stage_dir):
    """sha256 of every CSV a stage wrote, by file name."""
    out = {}
    for name in sorted(os.listdir(stage_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(stage_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def grid_values(path):
    _, rows = read_rows(path)
    return {(r[0], r[1]): float(r[2]) for r in rows}


def check_map(stage_dir, n_cells, problems):
    """Cell count, and sane values in every predicted cell."""
    _, status = read_rows(os.path.join(stage_dir, "status.csv"))
    if len(status) != n_cells:
        problems.append(f"{stage_dir}: {len(status)} cells, expected {n_cells}")
    with_values = {(r[0], r[1]) for r in status if r[2] in ("ok", "fallback")}
    grids = {name: grid_values(os.path.join(stage_dir, f"{name}.csv"))
             for name in ("prediction", "variance_ratio", "interval_lower",
                          "interval_upper")}
    if set(grids["prediction"]) != with_values:
        problems.append(f"{stage_dir}: predicted cells differ from ok cells")
        return status
    for key in with_values:
        mean = grids["prediction"][key]
        ratio = grids["variance_ratio"][key]
        lo, hi = grids["interval_lower"][key], grids["interval_upper"][key]
        if not (math.isfinite(mean) and 0.0 <= ratio <= 1.0 and lo <= mean <= hi):
            problems.append(f"{stage_dir}: cell {key} mean={mean} ratio={ratio} "
                            f"interval=({lo}, {hi})")
            break
    return status


def check_same_outputs(dir_a, dir_b, problems):
    a, b = csv_digests(dir_a), csv_digests(dir_b)
    if a != b:
        diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        problems.append(f"{dir_b} differs from {dir_a}: {', '.join(diff)}")


def load_profiles(path):
    """Single-level profile rows as arrays, grouped the way the CLI blocks them."""
    _, rows = read_rows(path)
    year = np.array([int(r[3]) for r in rows])
    cols = np.array([[float(r[1]), float(r[2]), float(r[4]), float(r[6])]
                     for r in rows])
    blocks = []
    for y in sorted(set(year.tolist())):
        sel = year == y
        lat, lon, day, value = cols[sel].T
        blocks.append((lat, lon, day, value - MEAN_C))
    return blocks


def _wrap(dlon):
    return (dlon + 180.0) % 360.0 - 180.0


def _in_window(block, x_win, t_win, eval_time=45.5):
    lat, lon, day, _ = block
    return ((np.abs(lat) <= x_win) & (np.abs(_wrap(lon)) <= x_win)
            & (np.abs(day - eval_time) <= t_win))


def _exp_cov(p, lat1, lon1, t1, lat2, lon2, t2):
    d2 = ((lat1 - lat2) / p["theta_lat"]) ** 2 \
        + (_wrap(lon1 - lon2) / p["theta_lon"]) ** 2 \
        + ((t1 - t2) / p["theta_t"]) ** 2
    return p["phi"] * np.exp(-np.sqrt(d2))


def _rg_corr(lat1, lon1, lat2, lon2):
    mid = 0.5 * (lat1 + lat2)
    tropic = np.where(np.abs(mid) > 20.0, 1.0, 0.125 + (7.0 / 160.0) * np.abs(mid))
    d = np.hypot((lat1 - lat2) * KM_PER_DEG,
                 tropic * _wrap(lon1 - lon2) * KM_PER_DEG * np.cos(np.radians(mid)))
    return 0.77 * np.exp(-(d / 140.0) ** 2) + 0.23 * np.exp(-d / 1111.0)


def gaussian_fold(block, keep, target, p):
    """Explicit-inverse conditional of one held-out observation (v5)."""
    lat, lon, day, y = (a[keep] for a in block)
    K = _exp_cov(p, lat[:, None], lon[:, None], day[:, None], lat, lon, day)
    np.fill_diagonal(K, p["phi"])
    inv = np.linalg.inv(K + p["sigma2"] * np.eye(lat.size))
    k = _exp_cov(p, target[0], target[1], target[2], lat, lon, day)
    prior = p["phi"] + p["sigma2"]
    var = prior - k @ inv @ k
    return float(k @ inv @ y), min(max(float(var), 0.0), prior), prior


def reference_fold(block, keep, target, phi_hat):
    """Explicit-inverse conditional in correlation space (v1)."""
    lat, lon, _, y = (a[keep] for a in block)
    R = _rg_corr(lat[:, None], lon[:, None], lat, lon)
    np.fill_diagonal(R, 1.0)
    inv = np.linalg.inv(R + RG_NUGGET * np.eye(lat.size))
    r = _rg_corr(target[0], target[1], lat, lon)
    corr_var = 1.0 + RG_NUGGET - r @ inv @ r
    var = phi_hat * min(max(float(corr_var), 0.0), 1.0 + RG_NUGGET)
    return float(r @ inv @ y), var, phi_hat * (1.0 + RG_NUGGET)


def _close(got, want, scale):
    return abs(got - want) <= REL_TOL * max(abs(want), scale)


def check_folds(work, seed, problems, n_sample=5):
    """Recompute sampled v5 and v1 folds of the cv-gauss workload."""
    blocks = load_profiles(os.path.join(work, "profiles.csv"))
    p = {name: grid_values(os.path.join(work, "map", f"param_{name}.csv"))
         for name in ("phi", "theta_lat", "theta_lon", "theta_t", "sigma2")}
    p = {name: next(iter(v.values())) for name, v in p.items()}
    t5, t1 = month_halfwidth(3), month_halfwidth(1)
    pooled = np.concatenate([b[3][_in_window(b, 10.0, t1)] for b in blocks])
    phi_hat = float(np.var(pooled, ddof=1)) / (1.0 + RG_NUGGET)
    rng = np.random.default_rng(seed)
    checked = 0
    for fname, t_win, fold in (("cv_records.csv", t5, "v5"),
                               ("cv_records_baseline.csv", t1, "v1")):
        _, rows = read_rows(os.path.join(work, "cv", fname))
        for k in rng.choice(len(rows), size=min(n_sample, len(rows)),
                            replace=False):
            r = rows[int(k)]
            yp, oi = int(r[2]), int(r[3])
            block = blocks[yp]
            keep = _in_window(block, 10.0, t_win)
            keep[oi] = False
            target = (block[0][oi], block[1][oi], block[2][oi])
            if fold == "v5":
                mean, var, prior = gaussian_fold(block, keep, target, p)
            else:
                mean, var, prior = reference_fold(block, keep, target, phi_hat)
            got_mean, got_var = float(r[11]), float(r[12])
            if not (_close(got_mean, mean, math.sqrt(prior))
                    and _close(got_var, var, prior)):
                problems.append(
                    f"{fold} fold ({yp}, {oi}): mean {got_mean!r} vs {mean!r}, "
                    f"variance {got_var!r} vs {var!r}")
            checked += 1
    return checked


def cv_summary(cv_dir, problems):
    """RMSE and 68% coverage of the main variant, cross-checked."""
    _, rows = read_rows(os.path.join(cv_dir, "cv_records.csv"))
    err = np.array([float(r[9]) - float(r[11]) for r in rows])
    rmse = float(np.sqrt(np.mean(err ** 2)))
    manifest = read_manifest(cv_dir)
    cov68 = float(manifest["coverage"]["0.68"])
    _, metrics = read_rows(os.path.join(cv_dir, "metrics.csv"))
    variant = f"variant {rows[0][1]}"
    listed = [float(m[2]) for m in metrics if m[0] == variant]
    if not listed or not math.isclose(listed[0], rmse, rel_tol=1e-9):
        problems.append(f"{cv_dir}: metrics.csv RMSE {listed} vs records {rmse}")
    if all(r[10] == "gaussian" for r in rows):
        z = NormalDist().inv_cdf(0.84)
        hits = [abs(float(r[9]) - float(r[11])) <= z * math.sqrt(float(r[12]))
                for r in rows]
        if not math.isclose(sum(hits) / len(hits), cov68, abs_tol=1e-12):
            problems.append(f"{cv_dir}: coverage {cov68} vs records "
                            f"{sum(hits) / len(hits)}")
    return rmse, cov68, manifest


def check_rep(plan, work, stages, problems):
    """Checks of one repetition's outputs; returns derived statistics."""
    name = plan["workload"]
    expect = plan["expect"]
    stats = {"cells": 0, "failed_cells": 0, "folds": 0, "failed_folds": 0}
    failed_status = ("error", "factorization_failed", "mode_finding_failed")
    for stage in stages:
        sdir = os.path.join(work, stage)
        if stage.startswith("map"):
            status = check_map(sdir, expect["cells"], problems)
            if stage == "map":
                stats["cells"] += len(status)
                stats["failed_cells"] += sum(r[2] in failed_status for r in status)
                stats["status"] = read_manifest(sdir)["status_counts"]
        elif stage == "mean":
            n_obs = read_manifest(sdir)["n_obs"]
            if n_obs != expect["profiles"]:
                problems.append(f"mean read {n_obs} obs, expected "
                                f"{expect['profiles']}")
        elif stage == "cv":
            rmse, cov68, manifest = cv_summary(sdir, problems)
            stats.update(cv_rmse=rmse, cov68_gap=abs(cov68 - 0.68))
            n = manifest["n_folds"] + manifest["n_failed"]
            if n != expect["folds"] or manifest["n_skipped"] != expect["skipped"]:
                problems.append(f"cv: {manifest['n_folds']} scored + "
                                f"{manifest['n_failed']} failed folds, "
                                f"{manifest['n_skipped']} skipped; expected "
                                f"{expect['folds']} and {expect['skipped']}")
            stats["folds"] += n
            stats["failed_folds"] += manifest["n_failed"]
            for status, count in manifest["status_counts"].items():
                stats["cells"] += count
                stats["failed_cells"] += count if status in failed_status else 0
            if "baseline_folds" in expect:
                _, base = read_rows(os.path.join(sdir, "cv_records_baseline.csv"))
                if len(base) != expect["baseline_folds"]:
                    problems.append(f"baseline cv: {len(base)} records, expected "
                                    f"{expect['baseline_folds']}")
                stats["folds"] += len(base)
        elif stage == "calibrate":
            n = read_manifest(sdir)["n_folds"]
            if n != expect["records"]:
                problems.append(f"calibrate: {n} records, expected "
                                f"{expect['records']}")
    if name == "map-pool" and {"map", "map_1w"} <= set(stages):
        check_same_outputs(os.path.join(work, "map_1w"), os.path.join(work, "map"),
                           problems)
    if name == "cv-gauss" and "cv" in stages:
        stats["oracle_folds"] = check_folds(work, plan["seed"], problems)
        cov = stats["cov68_gap"]
        if cov > 0.12 or stats["cv_rmse"] >= 1.14:  # prior sd is sqrt(1.3)
            problems.append(f"cv-gauss statistics off: rmse {stats['cv_rmse']}, "
                            f"|coverage68 - 0.68| {cov}")
    attempted = stats["cells"] + stats["folds"]
    stats["fail_frac"] = ((stats["failed_cells"] + stats["failed_folds"])
                          / attempted if attempted else 0.0)
    return stats
