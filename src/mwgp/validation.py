"""Simulation oracles, cross-validation, metrics, and calibration.

Synthetic fields provide ground truth for recovery and coverage
studies.  Cross-validation holds observations (or whole instrument
tracks) out of refitted windows while keeping the gridded parameter
estimates fixed, mirroring how the mapped product would be scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .covariance import CovParams, SpaceTimePoint, as_point_array, cov_matrix, wrap_dlon
from .errors import (
    EmptyInputError,
    FactorizationError,
    InputError,
    InvalidParameterError,
)
from .gaussian import YearBlock, ndtri
from .student import StudentParams
from .windows import (
    GridField,
    GridSpec,
    ModelVariant,
    WindowSpec,
    get_variant,
    nearest_cell_index,
    single_blas_thread,
    window_rows,
)


def _field_draws(params, pts: np.ndarray, n_draws: int, rng,
                 spatial: bool = False) -> list[np.ndarray]:
    """Independent field draws plus nugget noise at ``pts``.

    The latent field is drawn through one Cholesky factor shared by all
    draws.  The nugget follows the parameter type: Gaussian variance or
    scaled Student t.  Each draw takes its latent normals first, then
    its nugget.
    """
    if isinstance(params, StudentParams):
        cov, nu = params.cov, params.nu
    elif isinstance(params, CovParams):
        cov, nu = params, None
    else:
        raise InvalidParameterError(f"unsupported params type {type(params)!r}")
    try:
        L = np.linalg.cholesky(cov_matrix(pts, cov, spatial))
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"simulation covariance not PD: {exc}") from None
    sigma, m = math.sqrt(cov.sigma2), pts.shape[0]
    return [L @ rng.standard_normal(m) + sigma * (
        rng.standard_normal(m) if nu is None else rng.standard_t(nu, m))
        for _ in range(n_draws)]


def simulate_field(params, locations, n_years: int, seed: int,
                   spatial: bool = False, start_year: int = 0) -> list[YearBlock]:
    """Independent yearly field draws plus nugget noise at fixed locations.

    Output is deterministic in the seed; see ``_field_draws`` for the law
    and the draw order, year by year.
    """
    if n_years < 1:
        raise InvalidParameterError(f"n_years must be >= 1, got {n_years}")
    pts = as_point_array(locations)
    draws = _field_draws(params, pts, n_years, np.random.default_rng(seed), spatial)
    return [YearBlock(start_year + k, pts[:, 0].copy(), pts[:, 1].copy(),
                      pts[:, 2].copy(), values) for k, values in enumerate(draws)]


def synthetic_float_blocks(params, n_floats: int, profiles_per_float: int,
                           n_years: int, seed: int,
                           lat_range=(-8.0, 8.0), lon_range=(-8.0, 8.0),
                           t_range=(0.0, 91.0), drift_deg: float = 0.4,
                           spatial: bool = False,
                           start_year: int = 0) -> list[YearBlock]:
    """Clustered drifting-instrument sampling with simulated values.

    Each float starts at a uniform position and random-walks between
    its successive profiles, so its observations are spatially
    clustered; profile times are evenly spread over ``t_range``.  The
    values come from a fresh field draw each year at that year's
    geometry.  Blocks carry source ids for track-level holdout.
    """
    rng = np.random.default_rng(seed)
    days = np.linspace(t_range[0], t_range[1], profiles_per_float)
    blocks = []
    for k in range(n_years):
        lats, lons, ts, sids = [], [], [], []
        for fl in range(n_floats):
            lat = rng.uniform(*lat_range)
            lon = rng.uniform(*lon_range)
            for d in days:
                lats.append(lat)
                lons.append(lon)
                ts.append(float(d))
                sids.append(f"float{fl:04d}")
                lat = float(np.clip(lat + drift_deg * rng.standard_normal(),
                                    -90.0, 90.0))
                lon = lon + drift_deg * rng.standard_normal()
        pts = np.column_stack([lats, lons, ts])
        values, = _field_draws(params, pts, 1, rng, spatial)
        blocks.append(YearBlock(start_year + k, pts[:, 0], pts[:, 1], pts[:, 2],
                                values, np.array(sids)))
    return blocks


@dataclass(frozen=True)
class CVRecord:
    """One cross-validated prediction of a held-out observation."""

    year_pos: int
    obs_index: int
    year: int
    source_id: str | None
    lat: float
    lon: float
    day: float
    truth: float
    pred: object  # the variant family's predictive law
    variant_id: int
    cell: tuple[int, int]

    @property
    def error(self) -> float:
        return self.truth - self.pred.mean


@dataclass
class CVResult:
    """All fold records of one cross-validation run."""

    scheme: str
    variant_id: int
    records: list[CVRecord] = field(default_factory=list)
    n_skipped: int = 0
    n_failed: int = 0

    def errors(self) -> np.ndarray:
        return np.array([r.error for r in self.records])


def _usable_cells(field_: GridField):
    """((i, j), params, lat, lon) of every cell with parameters, in flat
    index order, and arrays of their latitudes and longitudes."""
    cells = [(ij, fit.params, *field_.grid.center(*ij))
             for ij, fit in field_.ordered() if fit.params is not None]
    if not cells:
        return None
    lat, lon = np.array([c[2:] for c in cells]).T
    return cells, lat, lon


@single_blas_thread()
def run_cv(data, grid: GridSpec, field_: GridField, variant: ModelVariant,
           spec: WindowSpec, scheme: str = "looo", eval_filter=None,
           radius_steps: float = 2.0) -> CVResult:
    """Score held-out observations with frozen per-cell parameters.

    Each observation is predicted from the window of its nearest
    fitted grid cell with that cell's cached parameters; the held-out
    observation (and, under the track scheme, its whole source) is
    removed from the window first.  Observations with no fitted cell
    within ``radius_steps`` grid steps are counted as skipped.  The
    folds of one year and cell share a window and are scored together
    by ``family.predict_folds``.  OpenBLAS runs at one thread, so the
    records do not depend on its thread count.
    """
    if scheme not in ("looo", "lofo"):
        raise InvalidParameterError(f"unknown cv scheme {scheme!r}")
    if not 0.0 <= radius_steps < math.inf:
        raise InvalidParameterError(
            f"radius_steps must be finite and >= 0, got {radius_steps}")
    result = CVResult(scheme, variant.id)
    family = variant.family
    lookup = _usable_cells(field_)
    cap = radius_steps * max(grid.lat_step, grid.lon_step)
    if eval_filter is not None:
        f_lo, f_hi = eval_filter
    if scheme == "lofo":
        for block in data:
            if block.source_ids is None:
                raise InputError("track-level holdout requires source_ids")
    for year_pos, block in enumerate(data):
        groups = {}  # nearest cell index -> records still without a prediction
        for k in range(block.m):
            sid = None if block.source_ids is None else str(block.source_ids[k])
            o = CVRecord(year_pos, k, block.year, sid, float(block.lat[k]),
                         float(block.lon[k]), float(block.t[k]),
                         float(block.values[k]), None, variant.id, None)
            if eval_filter is not None and not (f_lo <= o.day <= f_hi):
                continue
            if lookup is None:
                result.n_skipped += 1
                continue
            cells, clat, clon = lookup
            ci = nearest_cell_index(o.lat, o.lon, clat, clon)
            d = math.hypot(clat[ci] - o.lat, float(wrap_dlon(clon[ci] - o.lon)))
            if d > cap:
                result.n_skipped += 1
                continue
            groups.setdefault(ci, []).append(o)
        scored = []
        for ci, held in groups.items():
            ij, params, lat, lon = cells[ci]
            center = SpaceTimePoint(lat, lon, grid.eval_time)
            win = window_rows(block, center, spec)
            if scheme == "looo":
                removals = [np.flatnonzero(win == o.obs_index) for o in held]
            else:
                ids = block.source_ids[win]
                removals = [np.flatnonzero(ids == o.source_id) for o in held]
            targets = [SpaceTimePoint(o.lat, o.lon, o.day) for o in held]
            preds = family.predict_folds(targets, block.subset(win),
                                         removals, params)
            scored += [replace(o, pred=pred, cell=ij)
                       for o, pred in zip(held, preds)]
        for rec in sorted(scored, key=lambda r: r.obs_index):
            if rec.pred is None:
                result.n_failed += 1
            else:
                result.records.append(rec)
    return result


@dataclass(frozen=True)
class MetricTable:
    """Point-prediction error summary in observation units."""

    rmse: float
    mdae: float
    q3ae: float
    n: int
    baseline_name: str | None = None
    improvement: dict | None = None


def point_metrics(cv: CVResult, baseline: CVResult | None = None,
                  baseline_name: str = "baseline") -> MetricTable:
    """RMSE, median and third-quartile absolute error of CV records.

    Quartiles use linear interpolation between order statistics.  With
    a baseline the percent improvement per metric is included.
    """
    errors = cv.errors()
    if errors.size == 0:
        raise EmptyInputError("no cross-validation records to summarize")
    abs_err = np.abs(errors)
    table = {
        "rmse": float(np.sqrt(np.mean(errors ** 2))),
        "mdae": float(np.quantile(abs_err, 0.5)),
        "q3ae": float(np.quantile(abs_err, 0.75)),
    }
    improvement = None
    name = None
    if baseline is not None:
        base = point_metrics(baseline)
        improvement = {
            key: 100.0 * (getattr(base, key) - table[key]) / getattr(base, key)
            for key in ("rmse", "mdae", "q3ae")
        }
        name = baseline_name
    return MetricTable(table["rmse"], table["mdae"], table["q3ae"],
                       int(errors.size), name, improvement)


QUANTILE_GRID_POINTS = 199


@dataclass
class CalibrationReport:
    """Normalized-residual diagnostics and per-level coverage table."""

    residuals: np.ndarray
    q_theory: np.ndarray
    q_delta: np.ndarray
    levels: tuple
    coverage: dict
    mean_length: dict
    median_length: dict
    n: int
    n_flagged: int


DEFAULT_LEVELS = (0.50, 0.68, 0.80, 0.90, 0.95, 0.99)


def calibration(cv: CVResult, levels=DEFAULT_LEVELS) -> CalibrationReport:
    """Standard-normal residual diagnostics of CV predictions.

    Every record is scored through its variant's model family: the
    family's normal score, which flags degenerate predictions, and its
    central intervals at every level, the intervals the map reports.  A
    record is covered where lower <= truth <= upper, and the interval's
    length is upper - lower.
    """
    if not cv.records:
        raise EmptyInputError("no cross-validation records to calibrate")
    levels = tuple(levels)
    for lv in levels:
        if not 0.0 < lv < 1.0:
            raise InvalidParameterError(f"confidence level {lv} outside (0, 1)")
    family = get_variant(cv.variant_id).family
    alphas = 1.0 - np.array(levels)
    truth = np.array([rec.truth for rec in cv.records])
    residuals = np.empty(truth.size)
    n_flagged = 0
    for k, rec in enumerate(cv.records):
        residuals[k], flagged = family.normal_score(rec.pred, rec.truth)
        n_flagged += flagged
    lower, upper = family.intervals([rec.pred for rec in cv.records], alphas)
    covered = (lower <= truth) & (truth <= upper)
    lengths = upper - lower
    finite = residuals[np.isfinite(residuals)]
    if finite.size == 0:
        raise EmptyInputError("no finite residuals to build a quantile curve")
    probs = np.arange(1, QUANTILE_GRID_POINTS + 1) / (QUANTILE_GRID_POINTS + 1)
    q_theory = ndtri(probs)
    q_sample = np.quantile(finite, probs)
    return CalibrationReport(
        residuals=np.sort(residuals),
        q_theory=q_theory,
        q_delta=q_sample - q_theory,
        levels=levels,
        coverage={lv: float(np.mean(c)) for lv, c in zip(levels, covered)},
        mean_length={lv: float(np.mean(ln)) for lv, ln in zip(levels, lengths)},
        median_length={lv: float(np.quantile(ln, 0.5))
                       for lv, ln in zip(levels, lengths)},
        n=len(cv.records),
        n_flagged=n_flagged,
    )
