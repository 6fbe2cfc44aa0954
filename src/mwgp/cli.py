"""Command-line front end for the moving-window mapping pipeline.

Subcommands: ``simulate`` (synthetic datasets), ``mean`` (mean-field
estimation), ``map`` (gridded fields), ``cv`` (cross-validated
metrics and calibration), ``calibrate`` (re-derive calibration from
stored CV records), ``lagmaps`` (fitted-correlation maps at fixed
lags).  Configuration comes from a key=value file plus flag
overrides; flags win.  Each subcommand returns its output file names
and manifest fields; ``main`` then writes the JSON manifest with the
configuration, its hash, library versions and the subcommand's wall
time.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .covariance import KM_PER_DEG, CovParams
from .errors import InputError, InvalidParameterError, MappingError, SchemaError
from .gaussian import MIN_OBS, GaussianPredictive
from .ingest import (
    FLOAT_FMT,
    MeanFieldConfig,
    _parse_float,
    _parse_int,
    apply_filters,
    estimate_mean_field,
    load_mask,
    open_text,
    parse_profiles,
    profiles_to_level,
    read_mean_field,
    read_table,
    subtract_mean,
    write_mean_field,
    write_mean_field_gridded,
    write_profiles,
    write_table,
)
from .student import StudentParams, StudentPredictive
from .validation import (
    CVRecord,
    CVResult,
    calibration,
    point_metrics,
    run_cv,
    simulate_field,
    synthetic_float_blocks,
)
from .windows import (
    GridSpec,
    WindowSpec,
    _blas_thread_controls,
    correlation_at_lag,
    get_variant,
    map_grid,
    zonal_km_to_degrees,
)

THREADS_ENV = "MWGP_THREADS"


@dataclass
class RunConfig:
    """Flat key=value configuration for every subcommand.

    Defaults reproduce the reference setup: 1-degree grid, 20-degree
    moving window, variant 5 (3-month spatio-temporal Gaussian),
    pressure 300 db, mid-February evaluation time.
    """

    # data selection and paths
    pressure: float = 300.0
    variant: int = 5
    profiles: str | None = None
    mean: str | None = None
    mask: str | None = None
    out: str = "out"
    records: str | None = None
    params_dir: str | None = None
    # grid
    lat_min: float = -79.5
    lat_max: float = 79.5
    lon_min: float = -179.5
    lon_max: float = 179.5
    lat_step: float = 1.0
    lon_step: float = 1.0
    eval_time: float = 45.5
    eval_year: int = 0
    # moving window
    x_win: float = 10.0
    t_win: float | None = None
    min_obs: int = MIN_OBS
    # ingest-time day filter (closed interval, days within year)
    day_min: float | None = None
    day_max: float | None = None
    # intervals
    alpha: float = 0.32
    levels: str = "0.5,0.68,0.8,0.9,0.95,0.99"
    # mean field
    n_neighbors: int = 300
    weight_scale_km: float = 500.0
    n_harmonics: int = 6
    # cross-validation
    scheme: str = "looo"
    cv_day_min: float | None = None
    cv_day_max: float | None = None
    radius_steps: float = 2.0
    baseline_variant: int = 0
    # lag maps (0 km / 0 days skips that map)
    lag_zonal_km: float = 800.0
    lag_meridional_km: float = 800.0
    lag_days: float = 10.0
    lag_normalization: str = "total"
    # synthetic data
    sim_m: int = 150
    sim_years: int = 4
    sim_floats: int = 0
    sim_profiles_per_float: int = 9
    sim_phi: float = 1.0
    sim_theta_lat: float = 3.0
    sim_theta_lon: float = 5.0
    sim_theta_t: float = 5.0
    sim_sigma2: float = 0.3
    sim_nu: float = 0.0
    sim_lat_min: float = -8.0
    sim_lat_max: float = 8.0
    sim_lon_min: float = -8.0
    sim_lon_max: float = 8.0
    sim_day_min: float = 0.0
    sim_day_max: float = 91.0
    sim_start_year: int = 0
    # execution
    seed: int = 0
    threads: int | None = None
    fallback_nearest: bool = False
    write_binary: bool = False

    def resolved_t_win(self, warn=True) -> float:
        """Window half-width in days, defaulting to the variant's months."""
        default = get_variant(self.variant).t_win
        if self.t_win is None:
            return default
        if warn and abs(self.t_win - default) > 1e-9:
            print(f"warning: t_win {self.t_win} overrides the variant "
                  f"{self.variant} default {default}", file=sys.stderr)
        return self.t_win

    def resolved_threads(self) -> int:
        if self.threads is not None:
            return max(1, self.threads)
        env = os.environ.get(THREADS_ENV)
        if env:
            try:
                return max(1, int(env))
            except ValueError:
                raise InputError(
                    f"{THREADS_ENV} must be an integer, got {env!r}") from None
        return 1

    def level_list(self) -> tuple:
        try:
            out = tuple(float(s) for s in self.levels.split(",") if s.strip())
        except ValueError:
            raise InputError(f"cannot parse levels {self.levels!r}") from None
        if not out:
            raise InputError("levels is empty")
        return out

    def grid_spec(self, mask=frozenset()) -> GridSpec:
        return GridSpec(self.lat_min, self.lat_max, self.lon_min, self.lon_max,
                        self.lat_step, self.lon_step, self.eval_time,
                        self.eval_year, mask)

    def window_spec(self) -> WindowSpec:
        return WindowSpec(self.x_win, self.resolved_t_win(), self.min_obs)


# key: (base type name, optional), read off annotations such as "float | None"
_FIELD_TYPES = {f.name: (f.type.split(" | ")[0], f.type.endswith(" | None"))
                for f in dataclasses.fields(RunConfig)}


def _coerce(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise InputError(f"unknown config key {key!r}")
    base, optional = _FIELD_TYPES[key]
    text = raw.strip()
    if optional and (not text if base == "str"
                     else text.lower() in ("none", "")):
        return None
    try:
        if base == "bool":
            if text.lower() in ("1", "true", "yes", "on"):
                return True
            if text.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(text)
        return {"float": _finite_float, "int": int, "str": str}[base](text)
    except ValueError:
        raise InputError(f"bad value for config key {key}: {raw!r}") from None


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text!r}")
    return value


def parse_config_file(path) -> dict:
    """key=value lines; # starts a comment; blank lines ignored."""
    out = {}
    with open_text(path) as fh:
        for line_number, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise InputError(
                    f"{path}:{line_number}: expected key=value, got {text!r}")
            key, _, value = text.partition("=")
            out[key.strip()] = _coerce(key.strip(), value)
    return out


def build_config(args) -> RunConfig:
    """Defaults, then the config file, then flags (flags win)."""
    values = {}
    if args.config:
        values.update(parse_config_file(args.config))
    values.update(args.set or {})
    values.update({key: value for key, value in vars(args).items()
                   if key in _FIELD_TYPES and value is not None})
    cfg = RunConfig(**values)
    get_variant(cfg.variant)
    if not 0.0 < cfg.alpha < 1.0:
        raise InputError(f"alpha must lie in (0, 1), got {cfg.alpha}")
    if cfg.scheme not in ("looo", "lofo"):
        raise InputError(f"scheme must be looo or lofo, got {cfg.scheme!r}")
    if cfg.lag_normalization not in ("total", "process"):
        raise InputError(f"lag_normalization must be total or process, "
                         f"got {cfg.lag_normalization!r}")
    if cfg.radius_steps < 0.0:
        raise InputError(f"radius_steps must be >= 0, got {cfg.radius_steps}")
    if None not in (cfg.cv_day_min, cfg.cv_day_max) \
            and cfg.cv_day_max < cfg.cv_day_min:
        raise InputError(f"cv_day_max {cfg.cv_day_max} precedes "
                         f"cv_day_min {cfg.cv_day_min}")
    for key, least in (("sim_m", 1), ("sim_profiles_per_float", 1),
                       ("sim_floats", 0), ("sim_years", 0)):
        if getattr(cfg, key) < least:
            raise InputError(f"{key} must be >= {least}, got {getattr(cfg, key)}")
    return cfg


def config_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


INPUT_KEYS = ("profiles", "mean", "mask", "records")


def config_hash(cfg: RunConfig, inputs: dict) -> str:
    """sha256 of every key but ``out``, each input path replaced by its
    file's sha256 from ``inputs``, so the same run over the same input
    bytes hashes alike wherever its files live.  ``params_dir`` stays a
    path."""
    values = config_dict(cfg)
    del values["out"]
    for key in INPUT_KEYS:
        values[key] = inputs.get(values[key], values[key])
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()


def _file_hash(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(cfg: RunConfig, command: str, outputs, extra=None) -> str:
    paths = [getattr(cfg, key) for key in INPUT_KEYS]
    inputs = {p: _file_hash(p) for p in paths if p and os.path.exists(p)}
    manifest = {
        "command": command,
        "package_version": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": __import__("scipy").__version__,
        "blas_threads": [get() for get, _ in _blas_thread_controls()],
        "config": config_dict(cfg),
        "config_hash": config_hash(cfg, inputs),
        "inputs": inputs,
        "outputs": sorted(outputs),
    }
    if extra:
        manifest.update(extra)
    path = os.path.join(cfg.out, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


GRID_HEADER = ["lat", "lon", "value"]


def write_grid_csv(path, rows) -> None:
    """lat,lon,value rows at 17 significant digits."""
    write_table(path, GRID_HEADER, rows)


def read_grid_csv(path):
    """Rows of a lat,lon,value grid file, in file order.

    Values may be non-finite, as written (an infinite Student variance).
    """
    with read_table(path, GRID_HEADER) as (_, rows):
        return [tuple(_parse_float(text, name, k, finite=False)
                      for text, name in zip(row, GRID_HEADER))
                for k, row in rows]


def write_grid_binary(path, grid: GridSpec, values: dict) -> None:
    """Row-major little-endian float64 full-grid dump plus a sidecar.

    Absent cells are NaN.  The sidecar documents the layout so the
    file is self-describing.
    """
    arr = np.full((grid.n_lat, grid.n_lon), np.nan)
    for (i, j), value in values.items():
        arr[i, j] = value
    with open(path, "wb") as fh:
        fh.write(arr.astype("<f8").tobytes())
    with open(f"{path}.txt", "w", encoding="utf-8") as fh:
        fh.write(f"dtype=<f8\norder=row-major\nn_lat={grid.n_lat}\n"
                 f"n_lon={grid.n_lon}\nlat_min={FLOAT_FMT % grid.lat_min}\n"
                 f"lon_min={FLOAT_FMT % grid.lon_min}\n"
                 f"lat_step={FLOAT_FMT % grid.lat_step}\n"
                 f"lon_step={FLOAT_FMT % grid.lon_step}\n")


def cmd_simulate(cfg: RunConfig) -> tuple[list, dict]:
    """Write a synthetic single-level profile dataset."""
    os.makedirs(cfg.out, exist_ok=True)
    out_path = os.path.join(cfg.out, "profiles.csv")
    if cfg.sim_years == 0:
        write_profiles([], cfg.pressure, out_path)
        return ["profiles.csv"], {}
    cov = CovParams(cfg.sim_phi, cfg.sim_theta_lat, cfg.sim_theta_lon,
                    cfg.sim_theta_t, cfg.sim_sigma2)
    params = StudentParams(cov, cfg.sim_nu) if cfg.sim_nu > 1.0 else cov
    field_seed = int(np.random.SeedSequence([cfg.seed, 202]).generate_state(1)[0])
    if cfg.sim_floats > 0:
        blocks = synthetic_float_blocks(
            params, cfg.sim_floats, cfg.sim_profiles_per_float, cfg.sim_years,
            field_seed, (cfg.sim_lat_min, cfg.sim_lat_max),
            (cfg.sim_lon_min, cfg.sim_lon_max),
            (cfg.sim_day_min, cfg.sim_day_max),
            start_year=cfg.sim_start_year)
    else:
        loc_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 101]))
        locs = np.column_stack([
            loc_rng.uniform(cfg.sim_lat_min, cfg.sim_lat_max, cfg.sim_m),
            loc_rng.uniform(cfg.sim_lon_min, cfg.sim_lon_max, cfg.sim_m),
            loc_rng.uniform(cfg.sim_day_min, cfg.sim_day_max, cfg.sim_m),
        ])
        blocks = simulate_field(params, locs, cfg.sim_years, field_seed,
                                start_year=cfg.sim_start_year)
    write_profiles(blocks, cfg.pressure, out_path)
    return ["profiles.csv"], {}


def _closed_window(lo, hi):
    """(lo, hi) with an unset side open; None when neither side is set."""
    if lo is None and hi is None:
        return None
    return (-math.inf if lo is None else lo, math.inf if hi is None else hi)


def _load_level_blocks(cfg: RunConfig):
    """Parse, filter and interpolate the input profiles into year blocks."""
    if not cfg.profiles:
        raise InputError("profiles path is required (profiles=... or --profiles)")
    records = parse_profiles(cfg.profiles)
    mask = load_mask(cfg.mask) if cfg.mask else frozenset()
    records = apply_filters(records, _closed_window(cfg.day_min, cfg.day_max),
                            mask, cell_size=max(cfg.lat_step, cfg.lon_step))
    return profiles_to_level(records, cfg.pressure), mask


def _map_field(cfg: RunConfig, variant, loaded, mean):
    """Map the grid from ``loaded``, the (year blocks, mask) of
    ``_load_level_blocks``, residualized when ``mean``, the parsed
    mean field, is not None.  Returns (blocks, grid, spec, field, number
    of observations without a mean, seconds of the sweep alone)."""
    blocks, mask = loaded
    n_excluded = 0
    if mean is not None:
        blocks, n_excluded = subtract_mean(blocks, mean, variant.mean_mode,
                                           cfg.eval_time)
    years = [b.year for b in blocks]
    if blocks and cfg.eval_year not in years:
        raise InputError(
            f"eval_year {cfg.eval_year} not among data years {sorted(years)}")
    grid = cfg.grid_spec(mask)
    spec = cfg.window_spec()
    start = time.perf_counter()
    field_ = map_grid(blocks, grid, variant, spec, cfg.alpha,
                      cfg.resolved_threads(), cfg.fallback_nearest)
    return blocks, grid, spec, field_, n_excluded, time.perf_counter() - start


def cmd_map(cfg: RunConfig) -> tuple[list, dict]:
    """Fit every grid cell and write the gridded output files."""
    variant = get_variant(cfg.variant)
    _, grid, _, field_, n_excluded, wall = _map_field(
        cfg, variant, _load_level_blocks(cfg),
        read_mean_field(cfg.mean) if cfg.mean else None)
    os.makedirs(cfg.out, exist_ok=True)

    family = variant.family
    grids = {"prediction": {}, "variance": {}, "variance_ratio": {},
             "interval_lower": {}, "interval_upper": {}}
    param_grids: dict[str, dict] = {}
    statuses, wall_times, status_rows = {}, {}, []
    for key, fit in field_.ordered():  # flat-index order, as the files list cells
        statuses["%d,%d" % key] = fit.status
        wall_times["%d,%d" % key] = fit.wall_time
        status_rows.append((*grid.center(*key), fit.status))
        if fit.params is None:
            continue
        for name, value in family.param_values(fit.params).items():
            param_grids.setdefault(name, {})[key] = value
        pred = fit.prediction_for(grid.eval_year)
        if pred is None:
            continue
        grids["prediction"][key] = pred.mean
        grids["variance"][key] = pred.variance
        grids["variance_ratio"][key] = pred.variance_ratio
        grids["interval_lower"][key] = pred.lower
        grids["interval_upper"][key] = pred.upper

    outputs = []
    for name, values in list(grids.items()) + [
            (f"param_{p}", v) for p, v in sorted(param_grids.items())]:
        write_grid_csv(os.path.join(cfg.out, f"{name}.csv"),
                       ((grid.lats[i], grid.lons[j], value)
                        for (i, j), value in values.items()))
        outputs.append(f"{name}.csv")
        if cfg.write_binary:
            write_grid_binary(os.path.join(cfg.out, f"{name}.bin"), grid, values)
            outputs += [f"{name}.bin", f"{name}.bin.txt"]
    write_table(os.path.join(cfg.out, "status.csv"), ["lat", "lon", "status"],
                status_rows)
    outputs.append("status.csv")

    return outputs, {
        "statuses": statuses,
        "status_counts": dict(field_.status_counts),
        "n_excluded_by_mean": n_excluded,
        "wall_time_s": wall,  # the sweep alone
        "cell_wall_times_s": wall_times,
    }


def cmd_mean(cfg: RunConfig) -> tuple[list, dict]:
    """Estimate the mean field and write it in both formats."""
    blocks, mask = _load_level_blocks(cfg)
    mean = estimate_mean_field(
        blocks, cfg.grid_spec(mask),
        MeanFieldConfig(cfg.n_neighbors, cfg.weight_scale_km, cfg.n_harmonics))
    os.makedirs(cfg.out, exist_ok=True)
    write_mean_field(mean, os.path.join(cfg.out, "mean_field.csv"))
    write_mean_field_gridded(mean, os.path.join(cfg.out, "mean_grid.csv"),
                             cfg.eval_time)
    return ["mean_field.csv", "mean_grid.csv"], {
        "n_obs": sum(b.m for b in blocks), "n_ridge_cells": len(mean.ridge_cells)}


CV_HEADER = ["scheme", "variant", "year_pos", "obs_index", "year", "source_id",
             "lat", "lon", "day", "truth", "kind", "mean", "variance",
             "f_var", "scale", "dof", "cell_i", "cell_j"]


def write_cv_records(cv: CVResult, path) -> None:
    kind = get_variant(cv.variant_id).family.kind
    student = kind == "student"
    write_table(path, CV_HEADER, (
        (cv.scheme, r.variant_id, r.year_pos, r.obs_index, r.year, r.source_id,
         r.lat, r.lon, r.day, r.truth, kind, r.pred.mean,
         None if student else r.pred.variance,
         *((r.pred.f_var, r.pred.scale, r.pred.dof) if student else [None] * 3),
         *r.cell) for r in cv.records))


def read_cv_records(path) -> CVResult:
    """Records of one known scheme and variant, each of its variant
    family's kind; a row that breaks this raises SchemaError at its line."""
    scheme, variant_id, records = "looo", 0, []
    with read_table(path, CV_HEADER) as (_, rows):
        for k, row in rows:
            def num(c):
                return _parse_float(row[c], CV_HEADER[c], k, finite=False)

            def count(c):
                return _parse_int(row[c], CV_HEADER[c], k)

            if not records:
                scheme, variant_id = row[0], count(1)
                try:
                    kind = get_variant(variant_id).family.kind
                except InvalidParameterError as exc:
                    raise SchemaError(str(exc), k) from None
                if scheme not in ("looo", "lofo"):
                    raise SchemaError(f"unknown cv scheme {scheme!r}", k)
            elif (row[0], count(1)) != (scheme, variant_id):
                raise SchemaError(f"scheme {row[0]!r} and variant {row[1]} differ "
                                  f"from the first row's {scheme!r} and "
                                  f"{variant_id}", k)
            if row[10] != kind:
                raise SchemaError(f"kind {row[10]!r} is not variant "
                                  f"{variant_id}'s {kind!r}", k)
            if kind == "student":
                pred = StudentPredictive(num(11), num(13), num(14), num(15))
            else:
                pred = GaussianPredictive(num(11), num(12))
            records.append(CVRecord(
                count(2), count(3), count(4), row[5] or None,
                num(6), num(7), num(8), num(9),
                pred, variant_id, (count(16), count(17))))
    return CVResult(scheme, variant_id, records)


def _write_metrics(path, tables: dict) -> None:
    write_table(path, ["model", "n", "RMSE", "MdAE", "Q3AE",
                       "RMSE improvement %", "MdAE improvement %",
                       "Q3AE improvement %"], (
        (name, t.n, t.rmse, t.mdae, t.q3ae,
         *map((t.improvement or {}).get, ("rmse", "mdae", "q3ae")))
        for name, t in tables.items()))


def _write_calibration(out_dir, report) -> list:
    write_table(os.path.join(out_dir, "coverage.csv"),
                ["Level", "Empirical coverage", "Mean length", "Median length"],
                ((lv, report.coverage[lv], report.mean_length[lv],
                  report.median_length[lv]) for lv in report.levels))
    write_table(os.path.join(out_dir, "quantile_curve.csv"),
                ["q_theory", "q_delta"], zip(report.q_theory, report.q_delta))
    return ["coverage.csv", "quantile_curve.csv"]


def cmd_cv(cfg: RunConfig) -> tuple[list, dict]:
    """Cross-validate and write records, metrics, and calibration."""
    # the variant and its baseline share one load of the profiles and the mean
    loaded = _load_level_blocks(cfg)
    mean = read_mean_field(cfg.mean) if cfg.mean else None
    variant_ids = ((cfg.variant, cfg.baseline_variant) if cfg.baseline_variant
                   else (cfg.variant,))
    cvs, status_counts = [], []
    for variant_id in variant_ids:
        variant = get_variant(variant_id)
        blocks, grid, spec, field_, _, _ = _map_field(
            replace(cfg, variant=variant_id), variant, loaded, mean)
        cvs.append(run_cv(blocks, grid, field_, variant, spec, cfg.scheme,
                          _closed_window(cfg.cv_day_min, cfg.cv_day_max),
                          cfg.radius_steps))
        status_counts.append(dict(field_.status_counts))
    cv = cvs[0]
    os.makedirs(cfg.out, exist_ok=True)
    outputs = ["cv_records.csv", "metrics.csv"]
    write_cv_records(cv, os.path.join(cfg.out, "cv_records.csv"))
    tables = {}
    extra = {"n_folds": len(cv.records), "n_skipped": cv.n_skipped,
             "n_failed": cv.n_failed, "status_counts": status_counts[0]}
    if cfg.baseline_variant:
        base_cv = cvs[1]
        tables[f"variant {cfg.baseline_variant}"] = point_metrics(base_cv)
        tables[f"variant {cfg.variant}"] = point_metrics(
            cv, baseline=base_cv, baseline_name=f"variant {cfg.baseline_variant}")
        write_cv_records(base_cv,
                         os.path.join(cfg.out, "cv_records_baseline.csv"))
        outputs.append("cv_records_baseline.csv")
    else:
        tables[f"variant {cfg.variant}"] = point_metrics(cv)
    _write_metrics(os.path.join(cfg.out, "metrics.csv"), tables)
    if cv.records:
        report = calibration(cv, cfg.level_list())
        outputs += _write_calibration(cfg.out, report)
        extra["coverage"] = {str(k): v for k, v in report.coverage.items()}
        extra["n_flagged"] = report.n_flagged
    return outputs, extra


def cmd_calibrate(cfg: RunConfig) -> tuple[list, dict]:
    """Recompute calibration outputs from stored CV records."""
    path = cfg.records or os.path.join(cfg.out, "cv_records.csv")
    cv = read_cv_records(path)
    report = calibration(cv, cfg.level_list())
    os.makedirs(cfg.out, exist_ok=True)
    outputs = _write_calibration(cfg.out, report)
    return outputs, {
        "n_folds": len(cv.records), "n_flagged": report.n_flagged,
        "coverage": {str(k): v for k, v in report.coverage.items()}}


def cmd_lagmaps(cfg: RunConfig) -> tuple[list, dict]:
    """Correlation maps at fixed zonal/meridional/temporal lags."""
    src = cfg.params_dir or cfg.out
    need = ["param_phi", "param_sigma2", "param_theta_lat", "param_theta_lon"]
    temporal = cfg.lag_days > 0.0
    if temporal:
        need.append("param_theta_t")
    tables = {}
    for name in need:
        path = os.path.join(src, f"{name}.csv")
        if not os.path.exists(path):
            raise InputError(
                f"missing parameter grid {path}"
                + (" (set lag_days=0 for spatial-only maps)"
                   if name == "param_theta_t" else ""))
        tables[name] = {(lat, lon): v for lat, lon, v in read_grid_csv(path)}
    total = cfg.lag_normalization == "total"
    lags = {  # map name: (lag size, the lag at a latitude)
        "lag_zonal": (cfg.lag_zonal_km, lambda lat: {
            "dlon": zonal_km_to_degrees(cfg.lag_zonal_km, lat)}),
        "lag_meridional": (cfg.lag_meridional_km, lambda lat: {
            "dlat": cfg.lag_meridional_km / KM_PER_DEG}),
        "lag_temporal": (cfg.lag_days, lambda lat: {"dt": cfg.lag_days}),
    }
    outputs = []
    os.makedirs(cfg.out, exist_ok=True)
    for name, (size, lag) in lags.items():
        if size <= 0.0:
            continue
        rows = []
        for lat, lon in tables["param_phi"]:
            try:
                params = CovParams(
                    tables["param_phi"][(lat, lon)],
                    tables["param_theta_lat"][(lat, lon)],
                    tables["param_theta_lon"][(lat, lon)],
                    tables["param_theta_t"][(lat, lon)] if temporal else 1.0,
                    tables["param_sigma2"][(lat, lon)],
                )
            except KeyError:
                raise InputError(
                    f"parameter grids disagree on cells near ({lat}, {lon})"
                ) from None
            rows.append((lat, lon, correlation_at_lag(
                params, **lag(lat), total_normalization=total,
                spatial=not temporal)))
        write_grid_csv(os.path.join(cfg.out, f"{name}.csv"), rows)
        outputs.append(f"{name}.csv")
    return outputs, {}


COMMANDS = {
    "simulate": cmd_simulate,
    "mean": cmd_mean,
    "map": cmd_map,
    "cv": cmd_cv,
    "calibrate": cmd_calibrate,
    "lagmaps": cmd_lagmaps,
}


class _SetAction(argparse.Action):
    def __call__(self, parser, namespace, value, option_string=None):
        store = getattr(namespace, self.dest) or {}
        if "=" not in value:
            parser.error(f"--set expects key=value, got {value!r}")
        key, _, raw = value.partition("=")
        try:
            store[key.strip()] = _coerce(key.strip(), raw)
        except InputError as exc:
            parser.error(str(exc))
        setattr(namespace, self.dest, store)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwgp",
        description="Moving-window Gaussian-process mapping of scattered "
                    "ocean profile data.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0])
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--threads", type=int,
                       help=f"worker processes (default ${THREADS_ENV} or 1)")
        p.add_argument("--seed", type=int, help="random seed of simulate")
        p.add_argument("--variant", type=int, choices=range(1, 7),
                       help="model variant 1-6")
        p.add_argument("--pressure", type=_finite_float,
                       help="pressure level (db)")
        p.add_argument("--scheme", choices=("looo", "lofo"),
                       help="cross-validation scheme")
        p.add_argument("--out", help="output directory")
        p.add_argument("--profiles", help="input profile CSV")
        p.add_argument("--mean", help="mean-field file")
        p.add_argument("--mask", help="excluded-cell mask CSV")
        p.add_argument("--records", help="cv_records.csv to calibrate")
        p.add_argument("--params-dir", dest="params_dir",
                       help="directory holding param_*.csv grids")
        p.add_argument("--set", action=_SetAction, metavar="KEY=VALUE",
                       help="override any config key (repeatable)")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        start = time.perf_counter()
        outputs, extra = COMMANDS[args.command](cfg)
        write_manifest(cfg, args.command, outputs,
                       {"wall_time_s": time.perf_counter() - start, **extra})
        return 0
    except (MappingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
