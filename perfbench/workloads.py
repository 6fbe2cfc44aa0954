"""Workload definitions and the seeded input generator.

Each workload is a list of ``mwgp`` CLI stages plus the synthetic
inputs they read.  The generator uses numpy only, so the inputs for a
seed stay the same when the package's own simulator changes.  Values
are a zero-mean Gaussian process with the package's anisotropic
exponential space-time kernel, drawn independently per square patch
(a dense draw over a whole basin or the globe is infeasible), plus a
Gaussian or Student-t nugget and a known mean.
"""

from __future__ import annotations

import math
import os

import numpy as np

PRESSURE = 300.0
MEAN_C = 10.0
DAYS_PER_MONTH = 365.25 / 12.0

# Kernel of the synthetic field: phi, theta_lat, theta_lon, theta_t, sigma2.
FIELD = (1.0, 3.0, 5.0, 5.0, 0.3)


def month_halfwidth(months: int) -> float:
    return months * DAYS_PER_MONTH / 2.0


def _grid_sets(lat_min, lat_max, lon_min, lon_max, lat_step=1.0, lon_step=1.0):
    return [f"lat_min={lat_min}", f"lat_max={lat_max}", f"lon_min={lon_min}",
            f"lon_max={lon_max}", f"lat_step={lat_step}", f"lon_step={lon_step}"]


def _n_steps(lo, hi, step):
    return int(math.floor((hi - lo) / step + 1e-9)) + 1


# Sizes per workload.  "full" is what the benchmark measures; "toy" keeps
# every stage and check but runs in seconds, for the smoke test.
SIZES = {
    "map-pool": {
        "full": dict(floats=525, per_float=9, years=2, half=14.5, grid=11.5,
                     x_win=2.5, patch=7.25),
        "toy": dict(floats=60, per_float=9, years=2, half=4.0, grid=1.5,
                    x_win=2.5, patch=4.0),
    },
    "cv-gauss": {
        "full": dict(per_year=260, years=2),
        "toy": dict(per_year=60, years=2),
    },
    "student": {
        "full": dict(box_floats=12, cv_floats=20, grid=(2, 3), cv_profiles=1),
        "toy": dict(box_floats=12, cv_floats=8, grid=(1, 1), cv_profiles=2),
    },
    "global-ref": {
        "full": dict(floats=1500, per_float=20, lat_step=6.0, lon_step=18.0,
                     lat_edge=57.0, lon_edge=171.0, patch=10.0),
        "toy": dict(floats=400, per_float=20, lat_step=30.0, lon_step=60.0,
                    lat_edge=30.0, lon_edge=150.0, patch=30.0),
    },
}

WHY = {
    "map-pool": "many cheap v2 Gaussian cells at nproc workers: "
                "the process pool and the L-BFGS fit",
    "cv-gauss": "one v5 window, hundreds of LOOO folds plus the v1 baseline: "
                "per-fold kernel rebuild and Cholesky",
    "student": "v6 Laplace fits, v3 Student CV and 100k-draw Monte Carlo "
               "calibration",
    "global-ref": "global three-level profiles, default mean field and a v1 "
                  "map: parse, mean fit, subtraction, window selection",
}

WORKLOADS = tuple(WHY)

# Timed CLI stages in order.  The traced run adds map-pool's "map_1w",
# the same map at one worker instead of nproc, for the parallel
# efficiency and the byte-identity check.
STAGES = {"map-pool": ("mean", "map"),
          "cv-gauss": ("map", "cv", "calibrate"),
          "student": ("map", "cv", "calibrate"),
          "global-ref": ("mean", "map")}
TRACE_STAGES = dict(STAGES, **{"map-pool": ("mean", "map_1w", "map")})


def float_tracks(rng, n_floats, per_float, lat_range, lon_range, day_range,
                 drift=0.4):
    """Drifting-float positions and times, shape (n_floats, per_float).

    Each float starts uniformly in the box and random-walks between its
    profiles, clipped to the box; its profile times are evenly spaced
    with a random per-float phase.
    """
    lat = np.empty((n_floats, per_float))
    lon = np.empty((n_floats, per_float))
    lat[:, 0] = rng.uniform(*lat_range, n_floats)
    lon[:, 0] = rng.uniform(*lon_range, n_floats)
    steps = drift * rng.standard_normal((n_floats, per_float - 1, 2))
    lat[:, 1:] = lat[:, :1] + np.cumsum(steps[:, :, 0], axis=1)
    lon[:, 1:] = lon[:, :1] + np.cumsum(steps[:, :, 1], axis=1)
    np.clip(lat, *lat_range, out=lat)
    np.clip(lon, *lon_range, out=lon)
    spacing = (day_range[1] - day_range[0]) / per_float
    phase = rng.uniform(0.0, spacing, n_floats)
    day = day_range[0] + phase[:, None] + spacing * np.arange(per_float)[None, :]
    return lat, lon, day


def exp_kernel(lat, lon, day, params=FIELD):
    phi, tlat, tlon, tt, _ = params
    dlon = lon[:, None] - lon[None, :]
    dlon = (dlon + 180.0) % 360.0 - 180.0
    d2 = ((lat[:, None] - lat[None, :]) / tlat) ** 2 + (dlon / tlon) ** 2 \
        + ((day[:, None] - day[None, :]) / tt) ** 2
    return phi * np.exp(-np.sqrt(d2))


def gp_values(rng, lat, lon, day, patch_deg=None, nu=None, params=FIELD):
    """Latent GP draw (per patch) plus nugget at the given points."""
    n = lat.shape[0]
    if patch_deg is None:
        keys = np.zeros(n, dtype=np.int64)
    else:
        ki = np.floor(lat / patch_deg).astype(np.int64)
        kj = np.floor(lon / patch_deg).astype(np.int64)
        keys = ki * 100_000 + kj
    f = np.empty(n)
    for key in np.unique(keys):
        idx = np.flatnonzero(keys == key)
        K = exp_kernel(lat[idx], lon[idx], day[idx], params)
        K[np.diag_indices_from(K)] *= 1.0 + 1e-9
        f[idx] = np.linalg.cholesky(K) @ rng.standard_normal(idx.size)
    sigma = math.sqrt(params[4])
    noise = rng.standard_t(nu, n) if nu else rng.standard_normal(n)
    return f + sigma * noise


def write_profiles(path, sid, lat, lon, year, day, value, levels=None):
    """Profile CSV in the package's documented input schema.

    ``levels`` maps a value to the (pressure, value) pairs of one
    profile; by default a single level at PRESSURE.
    """
    fmt = "%.17g"
    lines = ["source_id,lat,lon,year,day,pressure_db,temp_c"]
    for k in range(lat.shape[0]):
        head = f"{sid[k]},{fmt % lat[k]},{fmt % lon[k]},{year[k]},{fmt % day[k]}"
        pairs = levels(value[k]) if levels else ((PRESSURE, value[k]),)
        for p, v in pairs:
            lines.append(f"{head},{fmt % p},{fmt % v}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(lines) - 1


def write_mean_grid(path, half, lon_range=None, step=1):
    """Gridded constant mean over |lat| <= half.

    Longitudes cover ``lon_range`` (default [-half, half]).
    """
    lon_lo, lon_hi = lon_range or (-half, half)
    lines = ["lat,lon,mean_c"]
    for lat in range(-half, half + 1, step):
        for lon in range(lon_lo, lon_hi + 1, step):
            lines.append(f"{lat},{lon},{MEAN_C:.17g}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def three_levels(value):
    """Levels whose linear interpolation at PRESSURE is the field value."""
    return ((250.0, value + 0.5), (310.0, value - 0.1), (420.0, value - 1.2))


def _tracks_to_rows(rng, lat, lon, day, years, patch, nu=None):
    n_floats, per_float = lat.shape[-2:]
    cols = {k: [] for k in ("sid", "lat", "lon", "year", "day", "value")}
    for y in range(years):
        la, lo, dy = lat[y].ravel(), lon[y].ravel(), day[y].ravel()
        cols["sid"] += [f"f{y}{i:05d}" for i in range(n_floats)
                        for _ in range(per_float)]
        cols["lat"].append(la)
        cols["lon"].append(lo)
        cols["day"].append(dy)
        cols["year"].append(np.full(la.size, y))
        cols["value"].append(gp_values(rng, la, lo, dy, patch, nu))
    return {k: (np.concatenate(v) if k != "sid" else v) for k, v in cols.items()}


def generate(name, size, seed, out_dir):
    """Write the inputs of one workload and return its stage plan.

    The plan holds the stage argument lists (relative to ``out_dir``)
    and the counts the outputs must show.
    """
    cfg = SIZES[name][size]
    rng = np.random.default_rng(np.random.SeedSequence(
        [int(seed), WORKLOADS.index(name)]))
    os.makedirs(out_dir, exist_ok=True)
    prof = os.path.join(out_dir, "profiles.csv")
    meanf = os.path.join(out_dir, "mean_grid.csv")
    plan = {"workload": name, "size": size, "seed": int(seed),
            "profiles": prof, "stages": [], "expect": {}}

    def od(stage):
        return os.path.join(out_dir, stage)

    if name == "map-pool":
        h = cfg["half"]
        tracks = [float_tracks(rng, cfg["floats"], cfg["per_float"], (-h, h),
                               (-h, h), (0.0, 91.0)) for _ in range(cfg["years"])]
        rows = _tracks_to_rows(rng, *[np.stack(t) for t in zip(*tracks)],
                               cfg["years"], cfg["patch"])
        g = cfg["grid"]
        grid = _grid_sets(-g, g, -g, g)
        n_cells = _n_steps(-g, g, 1.0) ** 2
        mean_args = ["mean", "--profiles", prof, "--out", od("mean"),
                     "--set", "n_harmonics=1"]
        map_args = ["map", "--profiles", prof, "--mean",
                    os.path.join(od("mean"), "mean_field.csv"), "--variant", "2",
                    "--set", f"x_win={cfg['x_win']}"]
        plan["stages"] = [
            ("mean", mean_args + _sets(grid)),
            ("map_1w", map_args + ["--out", od("map_1w"), "--threads", "1"]
             + _sets(grid)),
            ("map", map_args + ["--out", od("map"), "--threads", "NPROC"]
             + _sets(grid)),
        ]
        plan["expect"] = {"cells": n_cells}
    elif name == "cv-gauss":
        # One 20 x 20 degree, 3-month window holds every observation.
        n = cfg["per_year"]
        lat, lon, day = [], [], []
        for _ in range(cfg["years"]):
            la, lo, dy = float_tracks(rng, n // 10, 10, (-9.9, 9.9), (-9.9, 9.9),
                                      (0.0, 91.0), drift=1.0)
            lat.append(la); lon.append(lo); day.append(dy)
        rows = _tracks_to_rows(rng, np.stack(lat), np.stack(lon), np.stack(day),
                               cfg["years"], None)
        write_mean_grid(meanf, 10)
        grid = _grid_sets(0, 0, 0, 0)
        common = ["--profiles", prof, "--mean", meanf, "--threads", "1"]
        plan["stages"] = [
            ("map", ["map", *common, "--variant", "5", "--out", od("map")]
             + _sets(grid)),
            ("cv", ["cv", *common, "--variant", "5", "--out", od("cv"),
                    "--set", "baseline_variant=1", "--set", "radius_steps=15"]
             + _sets(grid)),
            ("calibrate", ["calibrate", "--records",
                           os.path.join(od("cv"), "cv_records.csv"),
                           "--out", od("calibrate")]),
        ]
        n_obs = len(rows["sid"])
        plan["expect"] = {"cells": 1, "folds": n_obs, "skipped": 0,
                          "baseline_folds": n_obs, "records": n_obs}
    elif name == "student":
        # Map boxes 30 degrees apart, each holding one year of its own
        # floats, so the cells' fits are independent.  The CV cells sit in
        # a box of their own beyond the map's windows, reached only by
        # their own radius, with two years of floats; the CV day range
        # holds exactly ``cv_profiles`` profiles of every float.  There are three CV
        # cells because a Student fit sometimes overflows, and a cv stage
        # whose only cell failed exits with no records.
        step = 30.0
        lats = step * np.arange(cfg["grid"][0])
        lons = step * (np.arange(cfg["grid"][1]) - (cfg["grid"][1] - 1) // 2)
        boxes = [(float(a), float(b), cfg["box_floats"], 1)
                 for a in lats for b in lons]
        cv_lon = 90.0
        boxes.append((0.0, cv_lon, cfg["cv_floats"], 2))
        lat, lon, day, year = [], [], [], []
        for a, b, nf, years in boxes:
            for y in range(years):
                la, lo, dy = float_tracks(rng, nf, 10, (a - 9.9, a + 9.9),
                                          (b - 9.9, b + 9.9), (0.0, 91.0),
                                          drift=1.0)
                lat.append(la.ravel()); lon.append(lo.ravel())
                day.append(dy.ravel()); year.append(np.full(la.size, y))
        lat, lon, day, year = map(np.concatenate, (lat, lon, day, year))
        order = np.argsort(year, kind="stable")
        lat, lon, day, year = lat[order], lon[order], day[order], year[order]
        sid = [f"f{k:05d}" for k in range(lat.size // 10) for _ in range(10)]
        sid = [sid[k] for k in order]
        value = np.concatenate([gp_values(rng, lat[year == y], lon[year == y],
                                          day[year == y], None, nu=4.0)
                                for y in (0, 1)])
        rows = {"sid": sid, "lat": lat, "lon": lon, "day": day, "year": year,
                "value": value}
        write_mean_grid(meanf, 40, (-40, 130), step=2)
        d0 = 40.0
        d1 = d0 + cfg["cv_profiles"] * 91.0 / 10
        common = ["--profiles", prof, "--mean", meanf, "--threads", "1"]
        plan["stages"] = [
            ("map", ["map", *common, "--variant", "6", "--out", od("map")]
             + _sets(_grid_sets(lats[0], lats[-1], lons[0], lons[-1],
                                step, step))),
            ("cv", ["cv", *common, "--variant", "3", "--out", od("cv"),
                    "--set", "radius_steps=4", "--set", f"cv_day_min={d0}",
                    "--set", f"cv_day_max={d1!r}"]
             + _sets(_grid_sets(-4, 4, cv_lon, cv_lon, 4.0))),
            ("calibrate", ["calibrate", "--records",
                           os.path.join(od("cv"), "cv_records.csv"),
                           "--out", od("calibrate")]),
        ]
        in_box = (np.abs(lat) < 10.0) & (np.abs(lon - cv_lon) < 10.0)
        in_days = (day >= d0) & (day <= d1)
        n_folds = int(np.sum(in_box & in_days))
        plan["expect"] = {"cells": lats.size * lons.size, "folds": n_folds,
                          "skipped": int(np.sum(in_days)) - n_folds,
                          "records": n_folds}
    elif name == "global-ref":
        tracks = float_tracks(rng, cfg["floats"], cfg["per_float"], (-60.0, 60.0),
                              (-180.0, 179.999), (0.0, 365.0), drift=0.5)
        rows = _tracks_to_rows(rng, *[t[None] for t in tracks], 1, cfg["patch"])
        # A meridional temperature gradient and a seasonal cycle for the
        # mean stage to fit.
        rows["value"] = (rows["value"] + 15.0 * np.cos(np.radians(rows["lat"]))
                         + np.sin(2.0 * math.pi * rows["day"] / 365.25))
        la, lo = cfg["lat_edge"], cfg["lon_edge"]
        grid = _grid_sets(-la, la, -lo, lo, cfg["lat_step"], cfg["lon_step"])
        n_cells = (_n_steps(-la, la, cfg["lat_step"])
                   * _n_steps(-lo, lo, cfg["lon_step"]))
        plan["stages"] = [
            ("mean", ["mean", "--profiles", prof, "--out", od("mean")]
             + _sets(grid)),
            ("map", ["map", "--profiles", prof, "--mean",
                     os.path.join(od("mean"), "mean_field.csv"), "--variant", "1",
                     "--threads", "1", "--out", od("map"),
                     "--set", "min_obs=10"] + _sets(grid)),
        ]
        plan["expect"] = {"cells": n_cells}
    else:
        raise KeyError(f"unknown workload {name!r}")

    if name != "global-ref":
        rows["value"] = rows["value"] + MEAN_C
    n_rows = write_profiles(prof, rows["sid"], rows["lat"], rows["lon"],
                            rows["year"], rows["day"], rows["value"],
                            three_levels if name == "global-ref" else None)
    plan["expect"]["rows"] = n_rows
    plan["expect"]["profiles"] = len(rows["sid"])
    return plan


def _sets(items):
    out = []
    for item in items:
        out += ["--set", item]
    return out
