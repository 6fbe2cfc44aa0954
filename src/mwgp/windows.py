"""Moving-window orchestration over a latitude/longitude grid.

A prediction grid is swept cell by cell.  At each cell the observations
inside a closed spatio-temporal window are gathered (per-year blocks
kept separate), covariance parameters are estimated for the requested
model variant, and per-year predictive distributions are produced at
the cell center.  Cells are independent tasks, so the sweep can run on
a process pool; results merge deterministically by cell index and are
bitwise identical across parallelism degrees and BLAS thread counts.
"""

from __future__ import annotations

import ctypes
import math
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .covariance import (
    KM_PER_DEG,
    RG_DEFAULT,
    CovParams,
    SpaceTimePoint,
    rg_corr_matrix,
    rg_corr_vector,
    wrap_dlon,
    wrap_lon,
)
from .errors import (
    FactorizationError,
    InsufficientDataError,
    InsufficientVarianceError,
    InvalidParameterError,
    MappingError,
    ModeFindingError,
)
from .gaussian import (
    MIN_OBS,
    FitReport,
    GaussianPredictive,
    YearBlock,
    fit_mle_gaussian,
    gaussian_interval,
    gaussian_system,
    holdout_predictions,
    ndtri,
    pooled_window_variance,
    predict_gaussian,
)
from .student import (
    StudentParams,
    fit_mle_student,
    nu_variance_factor,
    predict_student,
    student_cdf,
    student_interval,
)

DAYS_PER_MONTH = 365.25 / 12.0


def month_halfwidth_days(months: int) -> float:
    """Half-width in days of a window spanning ``months`` calendar months."""
    if months <= 0:
        raise InvalidParameterError(f"months must be positive, got {months}")
    return months * DAYS_PER_MONTH / 2.0


@dataclass(frozen=True)
class WindowSpec:
    """Closed moving-window half-widths and the minimum fit size.

    ``x_win`` applies to latitude and longitude alike (degrees);
    ``t_win`` is in days within the year.  Boundary observations
    (lag exactly equal to the half-width) are included.
    """

    x_win: float = 10.0
    t_win: float = month_halfwidth_days(3)
    min_obs: int = MIN_OBS

    def __post_init__(self):
        if not (np.isfinite(self.x_win) and self.x_win > 0.0):
            raise InvalidParameterError(f"x_win must be > 0, got {self.x_win}")
        if not (np.isfinite(self.t_win) and self.t_win >= 0.0):
            raise InvalidParameterError(f"t_win must be >= 0, got {self.t_win}")
        if self.min_obs < 1:
            raise InvalidParameterError(f"min_obs must be >= 1, got {self.min_obs}")


@dataclass(frozen=True)
class ModelVariant:
    """One row of the six-model study design: the model family that fits
    and predicts, and the temporal window length in months."""

    id: int
    family: ModelFamily
    months: int

    @property
    def mean_mode(self) -> str:
        """Mean-field treatment paired with the window length.

        One-month variants hold the mean fixed at its mid-window value;
        three-month variants use the time-varying mean reconstruction.
        """
        return "spatial" if self.months == 1 else "spatio-temporal"

    @property
    def t_win(self) -> float:
        return month_halfwidth_days(self.months)


def cell_key(lat: float, lon: float) -> tuple[float, float]:
    """Canonical dictionary key for a grid cell center."""
    return (round(float(lat), 6), round(float(wrap_lon(lon)), 6))


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    """Cell centers lo, lo + step, ... up to hi, read-only."""
    a = lo + step * np.arange(int(math.floor((hi - lo) / step + 1e-9)) + 1)
    a.flags.writeable = False
    return a


LAT_LIMIT = 80.0  # cells poleward of it are skipped: zonal geometry degenerates


@dataclass(frozen=True)
class GridSpec:
    """Rectangular prediction grid of cell centers.

    ``mask`` lists cell centers to exclude from computation (for
    example land cells); cells poleward of LAT_LIMIT are skipped.
    ``eval_time`` and ``eval_year`` fix the space-time slice that
    gridded outputs report.
    """

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float
    lat_step: float = 1.0
    lon_step: float = 1.0
    eval_time: float = 45.5
    eval_year: int = 0
    mask: frozenset = frozenset()

    def __post_init__(self):
        if not all(0.0 < s < math.inf for s in (self.lat_step, self.lon_step)):
            raise InvalidParameterError("grid steps must be finite and positive")
        if not all(map(math.isfinite, (self.lon_min, self.lon_max, self.eval_time))):
            raise InvalidParameterError("grid longitudes and eval_time must be finite")
        if self.lat_max < self.lat_min or self.lon_max < self.lon_min:
            raise InvalidParameterError("grid ranges must be nonempty")
        if not (-90.0 <= self.lat_min and self.lat_max <= 90.0):
            raise InvalidParameterError("grid latitudes outside [-90, 90]")
        norm = frozenset(cell_key(a, b) for a, b in self.mask)
        object.__setattr__(self, "mask", norm)

    @cached_property
    def lats(self) -> np.ndarray:
        return _axis(self.lat_min, self.lat_max, self.lat_step)

    @cached_property
    def lons(self) -> np.ndarray:
        return _axis(self.lon_min, self.lon_max, self.lon_step)

    @property
    def n_lat(self) -> int:
        return self.lats.shape[0]

    @property
    def n_lon(self) -> int:
        return self.lons.shape[0]

    def flat_index(self, i: int, j: int) -> int:
        return i * self.n_lon + j

    def center(self, i: int, j: int) -> tuple[float, float]:
        """(lat, lon) of cell (i, j)."""
        return float(self.lats[i]), float(self.lons[j])

    def cells(self):
        """Yield (i, j, lat, lon) for every unmasked, in-bounds cell."""
        lats = self.lats
        lons = self.lons
        for i, lat in enumerate(lats):
            if abs(lat) > LAT_LIMIT:
                continue
            for j, lon in enumerate(lons):
                if cell_key(lat, lon) in self.mask:
                    continue
                yield i, j, float(lat), float(lon)


@dataclass(frozen=True)
class ReferenceParams:
    """Fixed-shape baseline covariance with a plug-in variance.

    The process variance is the windowed empirical variance deflated
    by (1 + noise/signal); the nugget is tied to it through the fixed
    noise-to-signal ratio.
    """

    phi_hat: float

    def __post_init__(self):
        if not (np.isfinite(self.phi_hat) and self.phi_hat > 0.0):
            raise InvalidParameterError(f"phi_hat must be > 0, got {self.phi_hat}")

    @property
    def phi(self) -> float:
        return self.phi_hat

    @property
    def sigma2(self) -> float:
        return RG_DEFAULT.noise_signal_ratio * self.phi_hat


@dataclass(frozen=True)
class CellPrediction:
    """Predictive summary for one year at one cell center."""

    year: int
    mean: float
    variance: float
    lower: float
    upper: float
    variance_ratio: float
    n_obs: int


@dataclass
class CellFit:
    """The one record of a mapped cell: its status, the size of its
    window, the parameters and fit report, the per-year predictions.

    Wall time is diagnostic only and excluded from equality and repr so
    that determinism checks compare numeric payloads.
    """

    status: str
    n_obs: int
    params: CovParams | StudentParams | ReferenceParams | None = None
    report: FitReport | None = None
    predictions: tuple[CellPrediction, ...] = ()
    message: str = ""
    wall_time: float = field(default=0.0, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def prediction_for(self, year: int) -> CellPrediction | None:
        for p in self.predictions:
            if p.year == year:
                return p
        return None


@dataclass
class GridField:
    """Mapped field: (i, j) to the CellFit of every computed cell.

    Masked or out-of-bounds cells are absent.  Failed cells are
    present with an explanatory status and carry no fabricated values.
    """

    grid: GridSpec
    variant_id: int
    cells: dict[tuple[int, int], CellFit] = field(default_factory=dict)

    @property
    def status_counts(self) -> Counter:
        return Counter(c.status for c in self.cells.values())

    def ordered(self) -> list[tuple[tuple[int, int], CellFit]]:
        """((i, j), record) of every cell in ascending flat index."""
        return sorted(self.cells.items(),
                      key=lambda item: self.grid.flat_index(*item[0]))


def nearest_cell_index(lat: float, lon: float, cell_lat, cell_lon) -> int:
    """Index of the nearest cell in degree metric, ties to the first; cells
    listed in ascending flat index break ties to the lower one."""
    return int(np.argmin((cell_lat - lat) ** 2 + wrap_dlon(cell_lon - lon) ** 2))


def select_window(data, center: SpaceTimePoint, spec: WindowSpec) -> list[YearBlock]:
    """Closed-window neighborhood selection, preserving year grouping.

    Longitude lags wrap across the antimeridian.  The time window is
    applied within each year separately (same calendar window every
    year).  Empty per-year subsets are kept so that downstream
    prediction can fall back to the prior for data-free years.
    """
    return [block.subset(window_rows(block, center, spec)) for block in data]


def window_rows(block: YearBlock, center: SpaceTimePoint,
                spec: WindowSpec) -> np.ndarray:
    """Ascending indices of the block's observations inside the closed
    window.  |lat - c| <= x_win keeps one run of ``block.by_lat``, so only
    a slice padded far beyond the rounding of lat - c is tested."""
    order, lat, lon, t = block.by_lat
    c = center.lat
    pad = spec.x_win + 1e-9 * (90.0 + abs(c) + spec.x_win)
    lo, hi = lat.searchsorted(c - pad), lat.searchsorted(c + pad, "right")
    rows = lo + np.flatnonzero((np.abs(lat[lo:hi] - c) <= spec.x_win)
                               & (np.abs(t[lo:hi] - center.t) <= spec.t_win))
    rows = rows[np.abs(wrap_dlon(lon[rows] - center.lon)) <= spec.x_win]
    return np.sort(order[rows])


def _unit(ratio) -> float:
    return min(max(float(ratio), 0.0), 1.0)


class ModelFamily:
    """Fit, predictive law, intervals, variance ratio and parameter names.

    Each ``ModelVariant`` holds one; no caller branches on the variant,
    the parameter type or the predictive type.  The variance ratio
    (post- to pre-data predictive variance) lies in [0, 1] and is
    exactly 1 without data.  ``predict_folds`` scores the
    cross-validation folds of one window: from one factor of it
    (kriging families) or fold by fold (Student).  ``kind`` names the
    predictive law in the CV record file.
    """

    kind = "gaussian"

    def intervals(self, preds, alpha):
        """Lower and upper bounds of every law in ``preds`` at every level of
        the array ``alpha``, each (alpha.size, len(preds)): one interval call
        on the stacked means and variances."""
        law = GaussianPredictive(np.array([p.mean for p in preds]),
                                 np.array([p.variance for p in preds]))
        return gaussian_interval(law, np.asarray(alpha)[:, None])

    def normal_score(self, pred, truth: float) -> tuple[float, bool]:
        """Standard-normal score of an observed value, and whether it is
        flagged: the standardized error.  A zero-variance prediction is
        flagged, and scores 0 on a hit and an infinity on a miss."""
        sd = math.sqrt(max(pred.variance, 0.0))
        err = truth - pred.mean
        if sd > 0.0:
            return err / sd, False
        return (0.0 if err == 0.0 else math.copysign(math.inf, err)), True

    def predict_folds(self, targets, block, removals, params) -> list:
        """Law of each target with the block rows ``removals[f]`` left out.

        One ``predict`` per fold on the reduced block; None where it
        raised a MappingError or LinAlgError.
        """
        preds = []
        for target, rem in zip(targets, removals):
            keep = np.ones(block.m, dtype=bool)
            keep[rem] = False
            try:
                preds.append(self.predict(target, block.subset(keep), params))
            except (MappingError, np.linalg.LinAlgError):
                preds.append(None)
        return preds


class KrigingFamily(ModelFamily):
    """A Gaussian law by kriging each window with a fitted covariance.

    A subclass gives its ``fit``, ``system(targets, block, params)``:
    the window's noisy covariance Sigma and, row f, target f's
    cross-covariance with it, and ``units(params)``: that system's
    (sill, prior variance, scale).  Predictive variances are scale
    times the system's, and the prior is scale * prior variance.
    """

    def predict(self, target, block, params):
        units = self.units(params)
        if block.m == 0:
            return GaussianPredictive(0.0, units[2] * units[1])
        Sigma, K_star = self.system([target], block, params)
        return predict_gaussian(Sigma, block.values, K_star[0], units, block.year)

    def predict_folds(self, targets, block, removals, params):
        """One factor of the window serves every fold, through
        ``holdout_predictions``; fold by fold where its Cholesky fails."""
        _, prior, scale = self.units(params)
        if block.m > 0:
            Sigma, K_star = self.system(targets, block, params)
            try:
                return [GaussianPredictive(p.mean, scale * p.variance)
                        for p in holdout_predictions(Sigma, block.values, K_star,
                                                     prior, removals)]
            except np.linalg.LinAlgError:
                pass
        return super().predict_folds(targets, block, removals, params)

    def variance_ratio(self, pred, params) -> float:
        _, prior, scale = self.units(params)
        return _unit(pred.variance / (scale * prior))


@dataclass(frozen=True)
class ReferenceFamily(KrigingFamily):
    """Fixed-shape reference covariance with a plug-in variance.

    Kriged in correlation space, unit diagonal plus the fixed
    noise-to-signal nugget, so the predictive mean is exactly invariant
    to the plug-in variance and only the variance rescales.  The fit is
    that variance: the pooled window variance estimates the total
    phi (1 + noise/signal), so it is deflated by the fixed ratio.
    """

    def fit(self, blocks, min_obs):
        return ReferenceParams(pooled_window_variance(blocks, min_obs)
                               / (1.0 + RG_DEFAULT.noise_signal_ratio)), None

    def system(self, targets, block, params):
        R = rg_corr_matrix(block.lat, block.lon)
        tgt = np.array([(t.lat, t.lon) for t in targets]).reshape(-1, 2, 1)  # columns
        return R + RG_DEFAULT.noise_signal_ratio * np.eye(block.m), rg_corr_vector(
            tgt[:, 0], tgt[:, 1], block.lat, block.lon)

    def units(self, params):
        return 1.0, 1.0 + RG_DEFAULT.noise_signal_ratio, params.phi_hat

    def param_values(self, params) -> dict:
        return {"phi": params.phi, "sigma2": params.sigma2}


@dataclass(frozen=True)
class GaussianFamily(KrigingFamily):
    """Locally fitted exponential kernel with a Gaussian nugget."""

    spatial: bool

    def fit(self, blocks, min_obs):
        return fit_mle_gaussian(blocks, min_obs=min_obs, spatial=self.spatial)

    def system(self, targets, block, params):
        return gaussian_system(targets, block, params, self.spatial)

    def units(self, params):
        return params.phi, params.phi + params.sigma2, 1.0

    def param_values(self, params) -> dict:
        names = ("phi", "theta_lat", "theta_lon", "sigma2")
        return {name: getattr(params, name)
                for name in names + (() if self.spatial else ("theta_t",))}


@dataclass(frozen=True)
class StudentFamily(ModelFamily):
    """Locally fitted exponential kernel with a Student-t nugget.

    Intervals come from the exact predictive law, a latent normal plus
    scaled t noise, and draw no random numbers.  Without a second moment
    the variance ratio is the latent one, f_var/phi.
    """

    spatial: bool
    kind = "student"

    def fit(self, blocks, min_obs):
        return fit_mle_student(blocks, min_obs=min_obs, spatial=self.spatial)

    def predict(self, target, block, params):
        return predict_student(target, block, params, spatial=self.spatial)

    def intervals(self, preds, alpha):
        """One interval call per law: each has a quadrature rule of its own."""
        bounds = np.array([student_interval(p, alpha) for p in preds])
        return bounds[:, 0].T, bounds[:, 1].T

    def normal_score(self, pred, truth: float) -> tuple[float, bool]:
        """The exact probability integral transform through the normal
        quantile function; flagged where it rounds to 0 or 1."""
        z = ndtri(student_cdf(pred, truth))
        return z, not math.isfinite(z)

    def variance_ratio(self, pred, params) -> float:
        if params.nu > 2.0:
            nug = params.cov.sigma2 * nu_variance_factor(params.nu)
            return _unit((pred.f_var + nug) / (params.cov.phi + nug))
        return _unit(pred.f_var / params.cov.phi)

    def param_values(self, params) -> dict:
        return {**GaussianFamily(self.spatial).param_values(params.cov),
                "nu": params.nu}


VARIANTS: dict[int, ModelVariant] = {
    1: ModelVariant(1, ReferenceFamily(), 1),
    2: ModelVariant(2, GaussianFamily(spatial=True), 1),
    3: ModelVariant(3, StudentFamily(spatial=True), 1),
    4: ModelVariant(4, GaussianFamily(spatial=True), 3),
    5: ModelVariant(5, GaussianFamily(spatial=False), 3),
    6: ModelVariant(6, StudentFamily(spatial=False), 3),
}


def get_variant(variant_id: int) -> ModelVariant:
    try:
        vid = int(variant_id)
        if vid != float(variant_id):  # refuse to truncate 2.5 to variant 2
            raise ValueError(variant_id)
        return VARIANTS[vid]
    except (KeyError, ValueError, TypeError):
        raise InvalidParameterError(f"unknown model variant {variant_id!r}") from None


def correlation_at_lag(params: CovParams, dlat: float = 0.0, dlon: float = 0.0,
                       dt: float = 0.0, total_normalization: bool = True,
                       spatial: bool = False):
    """Fitted correlation at a space-time lag.

    By default normalized by the total variance phi + sigma^2, so the
    zero-lag value is the signal fraction phi/(phi+sigma2); with
    ``total_normalization`` off the process correlation exp(-d) is
    returned.  Accepts scalar or array lags.
    """
    d2 = (np.asarray(dlat, dtype=float) / params.theta_lat) ** 2 \
        + (np.asarray(dlon, dtype=float) / params.theta_lon) ** 2
    if not spatial:
        d2 = d2 + (np.asarray(dt, dtype=float) / params.theta_t) ** 2
    corr = np.exp(-np.sqrt(d2))
    if total_normalization:
        corr = corr * (params.phi / (params.phi + params.sigma2))
    if np.ndim(corr) == 0:
        return float(corr)
    return corr


def zonal_km_to_degrees(km: float, lat: float) -> float:
    """Zonal kilometers converted to longitude degrees at a latitude."""
    c = math.cos(math.radians(lat))
    if c <= 1e-12:  # cos(90 deg) is not exactly zero in floating point
        raise InvalidParameterError(f"no zonal extent at latitude {lat}")
    return km / (KM_PER_DEG * c)


_FIT_ERRORS = {
    InsufficientDataError: "insufficient_data",
    InsufficientVarianceError: "no_variance",
    FactorizationError: "factorization_failed",
    ModeFindingError: "mode_finding_failed",
}


def _status_for(exc: Exception) -> str:
    for etype, status in _FIT_ERRORS.items():
        if isinstance(exc, etype):
            return status
    return "error"


def _predict_cell(family, center, windowed, params, alpha):
    """Per-year predictions at the cell center: the family's law of each
    block, the bounds of every year from one ``family.intervals`` call,
    then the variance ratio."""
    preds = [family.predict(center, block, params) for block in windowed]
    lower, upper = family.intervals(preds, np.array([alpha]))
    return tuple(
        CellPrediction(block.year, pred.mean, pred.variance, float(lo), float(hi),
                       family.variance_ratio(pred, params), block.m)
        for block, pred, lo, hi in zip(windowed, preds, lower[0], upper[0]))


def fit_grid_point(data, center: SpaceTimePoint, variant: ModelVariant,
                   spec: WindowSpec, alpha: float = 0.32) -> CellFit:
    """Fit one grid cell and predict every year at the cell center.

    The one place a cell's record is decided.  The family's fit admits
    the window against ``spec.min_obs``.  Every MappingError or
    LinAlgError becomes a status with the window's size, so a grid
    sweep does not abort because one window is degenerate, too small or
    holds a NaN; an ``error`` cell's message names the exception type.
    Programming errors raise.  Reference-variant cells skip maximum
    likelihood and use the fixed-shape covariance with the windowed
    plug-in variance.
    """
    windowed = select_window(data, center, spec)
    n_obs = sum(b.m for b in windowed)
    try:
        params, report = variant.family.fit(windowed, spec.min_obs)
        preds = _predict_cell(variant.family, center, windowed, params, alpha)
    except (MappingError, np.linalg.LinAlgError) as exc:
        status = _status_for(exc)
        message = f"{type(exc).__name__}: {exc}" if status == "error" else str(exc)
        return CellFit(status, n_obs, message=message)
    return CellFit("ok", n_obs, params=params, report=report, predictions=preds)


def _blas_thread_controls():
    """(get, set) thread-count functions of each loaded OpenBLAS copy.

    numpy and scipy wheels each bundle one; other BLAS builds give none.
    """
    controls = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({ln.split()[-1] for ln in fh
                            if "openblas" in ln.lower()})
        for lib in map(ctypes.CDLL, paths):
            for name in ("scipy_openblas_%s_num_threads64_",
                         "openblas_%s_num_threads64_",
                         "scipy_openblas_%s_num_threads",
                         "openblas_%s_num_threads"):
                if hasattr(lib, name % "get"):
                    controls.append((getattr(lib, name % "get"),
                                     getattr(lib, name % "set")))
                    break
    except OSError:
        pass
    return controls


@contextmanager
def single_blas_thread():
    """Run the body with every loaded OpenBLAS at one thread, then restore.

    Threaded OpenBLAS takes other code paths (blocked Cholesky, split
    reductions), so fits would otherwise depend on the thread count; one
    thread per process also keeps a worker pool from oversubscribing.
    """
    saved = [(set_, get()) for get, set_ in _blas_thread_controls()]
    try:
        for set_, _ in saved:
            set_(1)
        yield
    finally:
        for set_, n in saved:
            set_(n)


_PAYLOAD = None


def _init_worker(payload):
    global _PAYLOAD
    _PAYLOAD = payload


def _init_pool_worker(payload):
    # A forked worker inherits the parent's setting; a spawned one does not.
    for _, set_ in _blas_thread_controls():
        set_(1)
    _init_worker(payload)


def _run_cell(task):
    """Fit one cell from the worker-global payload and time the call."""
    i, j, lat, lon = task
    data, variant, spec, alpha, eval_time = _PAYLOAD
    center = SpaceTimePoint(lat, lon, eval_time)
    start = time.perf_counter()
    fit = fit_grid_point(data, center, variant, spec, alpha)
    fit.wall_time = time.perf_counter() - start
    return (i, j), fit


def map_grid(data, grid: GridSpec, variant: ModelVariant, spec: WindowSpec,
             alpha: float = 0.32, n_workers: int = 1,
             fallback_nearest: bool = False) -> GridField:
    """Sweep the grid, fitting every unmasked cell independently.

    The numeric output is bitwise independent of ``n_workers``, of the
    BLAS thread count and of task scheduling: each cell is a
    deterministic function of its window, fitted with OpenBLAS at one
    thread, no cell draws random numbers, and results merge by cell
    index.  Per-cell wall times are recorded for diagnostics only.
    """
    tasks = list(grid.cells())
    payload = (data, variant, spec, alpha, grid.eval_time)
    with single_blas_thread():
        if n_workers <= 1 or len(tasks) <= 1:
            _init_worker(payload)
            results = [_run_cell(t) for t in tasks]
        else:
            chunk = max(1, len(tasks) // (4 * n_workers))
            with ProcessPoolExecutor(max_workers=n_workers,
                                     initializer=_init_pool_worker,
                                     initargs=(payload,)) as ex:
                results = list(ex.map(_run_cell, tasks, chunksize=chunk))
        field_ = GridField(grid, variant.id, dict(results))
        if fallback_nearest:
            _apply_nearest_fallback(field_, data, variant, spec, alpha)
    return field_


def _apply_nearest_fallback(field_: GridField, data, variant, spec,
                            alpha) -> None:
    """Borrow parameters from the nearest fitted cell for failed cells.

    Predictions are recomputed through the sweep's own step with the
    donor's parameters and the failed cell's own window; no refit is
    attempted, so the borrowed record has no FitReport.  Ties break to
    the lower flat index.  Cells skipped for lack of data stay skipped,
    and a cell whose prediction fails keeps its status.
    """
    grid = field_.grid
    cells = field_.ordered()
    donors = [(ij, fit) for ij, fit in cells if fit.ok]
    if not donors:
        return
    lat, lon = np.array([grid.center(*ij) for ij, _ in donors]).T
    for ij, fit in cells:
        if fit.ok or fit.status == "insufficient_data":
            continue
        center = SpaceTimePoint(*grid.center(*ij), grid.eval_time)
        (di, dj), donor = donors[nearest_cell_index(center.lat, center.lon, lat, lon)]
        try:
            preds = _predict_cell(variant.family, center,
                                  select_window(data, center, spec),
                                  donor.params, alpha)
        except (MappingError, np.linalg.LinAlgError) as exc:
            fit.message += f"; fallback failed: {exc}"
            continue
        field_.cells[ij] = CellFit(
            "fallback", fit.n_obs, params=donor.params, predictions=preds,
            message=f"parameters borrowed from cell ({di}, {dj})",
            wall_time=fit.wall_time)
