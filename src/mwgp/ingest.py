"""Profile ingestion, vertical interpolation, and mean-field handling.

The canonical input is a profile CSV (one row per profile level, rows
of a profile contiguous and pressure-ascending).  Profiles are
linearly interpolated to a single pressure level, a local weighted
regression mean field is estimated on the mapping grid, and residuals
are grouped into per-year blocks for the moving-window fits.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .covariance import rg_distances, wrap_dlon, wrap_lon
from .errors import (
    InsufficientDataError,
    InvalidParameterError,
    SchemaError,
)
from .gaussian import YearBlock
from .windows import GridSpec, cell_key

PROFILE_HEADER = ["source_id", "lat", "lon", "year", "day", "pressure_db", "temp_c"]
MEAN_GRID_HEADER = ["lat", "lon", "mean_c"]
MEAN_COEF_HEADER = ["lat", "lon", "coef_name", "coef_value"]
MASK_HEADER = ["lat", "lon"]

FLOAT_FMT = "%.17g"

SPATIAL_COEF_NAMES = ("intercept", "dlat", "dlon", "dlat2", "dlon2", "dlat_dlon")


@dataclass(frozen=True)
class ProfileRecord:
    """One vertical profile: metadata plus ascending (pressure, value) levels."""

    source_id: str
    lat: float
    lon: float
    year: int
    day: float
    levels: tuple

    def __post_init__(self):
        if not (-90.0 <= self.lat <= 90.0):
            raise InvalidParameterError(
                f"profile latitude outside [-90, 90]: {self.lat}")
        object.__setattr__(self, "lon", float(wrap_lon(self.lon)))
        levels = tuple((float(p), float(v)) for p, v in self.levels)
        if not levels:
            raise InvalidParameterError("profile needs at least one level")
        pressures = [p for p, _ in levels]
        if any(b <= a for a, b in zip(pressures, pressures[1:])):
            raise InvalidParameterError("profile pressures must strictly increase")
        object.__setattr__(self, "levels", levels)

    @property
    def pressures(self) -> np.ndarray:
        return np.array([p for p, _ in self.levels])

    @property
    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.levels])


@dataclass(frozen=True)
class LevelObs:
    """A profile reduced to a single pressure level."""

    source_id: str
    lat: float
    lon: float
    year: int
    day: float
    value: float


def _parse_float(text: str, name: str, line_number: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise SchemaError(f"field {name} is not a number: {text!r}",
                          line_number) from None
    if not math.isfinite(value):
        raise SchemaError(f"field {name} is not finite: {text!r}", line_number)
    return value


def _parse_int(text: str, name: str, line_number: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise SchemaError(f"field {name} is not an integer: {text!r}",
                          line_number) from None


def _check_header(row, expected, line_number=1):
    got = [c.strip() for c in row]
    if got != expected:
        raise SchemaError(
            f"expected header {','.join(expected)}, got {','.join(got)}",
            line_number)


def parse_profiles(path) -> list[ProfileRecord]:
    """Read the profile CSV; strict schema, line-numbered rejections.

    A profile is a maximal run of rows sharing (source_id, lat, lon,
    year, day); its pressures must strictly increase and a profile key
    must not reappear after its run ends.  A zero-byte file parses to
    an empty list.
    """
    records: list[ProfileRecord] = []
    seen_keys = set()
    current_key = None
    current_meta = None
    current_levels: list[tuple] = []
    start_line = 0

    def flush():
        if current_key is None:
            return
        try:
            records.append(ProfileRecord(*current_meta, tuple(current_levels)))
        except InvalidParameterError as exc:
            raise SchemaError(str(exc), start_line) from None
        seen_keys.add(current_key)

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for line_number, row in enumerate(reader, start=1):
            if line_number == 1:
                _check_header(row, PROFILE_HEADER)
                continue
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(PROFILE_HEADER):
                raise SchemaError(
                    f"expected {len(PROFILE_HEADER)} fields, got {len(row)}",
                    line_number)
            sid = row[0].strip()
            if not sid:
                raise SchemaError("empty source_id", line_number)
            lat = _parse_float(row[1], "lat", line_number)
            lon = _parse_float(row[2], "lon", line_number)
            year = _parse_int(row[3], "year", line_number)
            day = _parse_float(row[4], "day", line_number)
            pressure = _parse_float(row[5], "pressure_db", line_number)
            value = _parse_float(row[6], "temp_c", line_number)
            key = (sid, lat, lon, year, day)
            if key != current_key:
                flush()
                if key in seen_keys:
                    raise SchemaError(
                        "profile rows are not contiguous for "
                        f"source_id {sid!r}", line_number)
                current_key = key
                current_meta = (sid, lat, lon, year, day)
                current_levels = []
                start_line = line_number
            if current_levels and pressure <= current_levels[-1][0]:
                raise SchemaError(
                    f"pressure not strictly increasing ({pressure} after "
                    f"{current_levels[-1][0]})", line_number)
            current_levels.append((pressure, value))
    flush()
    return records


def write_profiles(records, path) -> None:
    """Serialize profiles in the canonical CSV schema (round-trip exact)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PROFILE_HEADER)
        for rec in records:
            for pressure, value in rec.levels:
                writer.writerow([
                    rec.source_id,
                    FLOAT_FMT % rec.lat,
                    FLOAT_FMT % rec.lon,
                    str(rec.year),
                    FLOAT_FMT % rec.day,
                    FLOAT_FMT % pressure,
                    FLOAT_FMT % value,
                ])


def interpolate_to_pressure(profile: ProfileRecord, level: float) -> float | None:
    """Linear vertical interpolation; None outside the sampled range.

    An exact node match returns the recorded value; no extrapolation.
    """
    if not level > 0.0:
        raise InvalidParameterError(f"pressure level must be > 0, got {level}")
    pressures = profile.pressures
    if level < pressures[0] or level > pressures[-1]:
        return None
    return float(np.interp(level, pressures, profile.values))


def profiles_to_level(records, level: float) -> list[LevelObs]:
    """Reduce each profile to one observation at a pressure level.

    Profiles not sampling the level are dropped.
    """
    out = []
    for rec in records:
        value = interpolate_to_pressure(rec, level)
        if value is not None:
            out.append(LevelObs(rec.source_id, rec.lat, rec.lon,
                                rec.year, rec.day, value))
    return out


def records_to_blocks(obs) -> list[YearBlock]:
    """Group level observations into per-year blocks (years ascending)."""
    by_year: dict[int, list[LevelObs]] = {}
    for o in obs:
        by_year.setdefault(o.year, []).append(o)
    blocks = []
    for year in sorted(by_year):
        group = by_year[year]
        blocks.append(YearBlock(
            year,
            np.array([o.lat for o in group]),
            np.array([o.lon for o in group]),
            np.array([o.day for o in group]),
            np.array([o.value for o in group]),
            np.array([o.source_id for o in group]),
        ))
    return blocks


@dataclass(frozen=True)
class MeanFieldConfig:
    """Local weighted-regression mean settings.

    ``n_neighbors`` observations nearest to each cell are fit with
    Gaussian distance weights of scale ``weight_scale_km``; the basis
    holds an intercept, first/second-order terms in (lat, lon), and
    ``n_harmonics`` annual harmonic pairs.
    """

    n_neighbors: int = 300
    weight_scale_km: float = 500.0
    n_harmonics: int = 6

    def __post_init__(self):
        if self.n_neighbors < 1:
            raise InvalidParameterError("n_neighbors must be >= 1")
        if not self.weight_scale_km > 0.0:
            raise InvalidParameterError("weight_scale_km must be > 0")
        if self.n_harmonics < 0:
            raise InvalidParameterError("n_harmonics must be >= 0")


def coef_names(n_harmonics: int) -> list[str]:
    names = list(SPATIAL_COEF_NAMES)
    for k in range(1, n_harmonics + 1):
        names.append(f"sin{k}")
        names.append(f"cos{k}")
    return names


def _basis(dlat, dlon, t, n_harmonics: int) -> np.ndarray:
    dlat = np.asarray(dlat, dtype=float)
    cols = [np.ones_like(dlat), dlat, dlon, dlat ** 2, dlon ** 2, dlat * dlon]
    omega = 2.0 * math.pi / 365.25
    for k in range(1, n_harmonics + 1):
        cols.append(np.sin(omega * k * t))
        cols.append(np.cos(omega * k * t))
    return np.column_stack(cols)


def _harmonic_sum(coefs: np.ndarray, t: float, n_harmonics: int) -> float:
    omega = 2.0 * math.pi / 365.25
    total = 0.0
    for k in range(1, n_harmonics + 1):
        s, c = coefs[4 + 2 * k], coefs[5 + 2 * k]
        total += s * math.sin(omega * k * t) + c * math.cos(omega * k * t)
    return total


@dataclass
class MeanField:
    """Per-cell mean regression coefficients on the mapping grid.

    ``coefs`` may be full regression vectors or single-entry arrays
    (a precomputed gridded mean with no time dependence).  Cells whose
    design was rank-deficient and needed a ridge are flagged.
    """

    grid: GridSpec
    coefs: dict
    n_harmonics: int
    pressure: float | None = None
    ridge_cells: set = field(default_factory=set)

    def nearest_cell(self, lat: float, lon: float) -> tuple[int, int]:
        i = int(np.clip(round((lat - self.grid.lat_min) / self.grid.lat_step),
                        0, self.grid.n_lat - 1))
        j = int(np.clip(round((wrap_lon(lon) - self.grid.lon_min) / self.grid.lon_step),
                        0, self.grid.n_lon - 1))
        return i, j

    def evaluate(self, i: int, j: int, t: float | None = None) -> float:
        """Mean at the cell center; harmonics included when t is given."""
        beta = self.coefs[(i, j)]
        value = float(beta[0])
        if t is not None and beta.shape[0] > len(SPATIAL_COEF_NAMES):
            value += _harmonic_sum(beta, t, self.n_harmonics)
        return value

    def evaluate_at(self, lat: float, lon: float, t: float | None = None) -> float:
        """Mean at an off-center location via the cell's full basis."""
        i, j = self.nearest_cell(lat, lon)
        beta = self.coefs[(i, j)]
        if beta.shape[0] == 1:
            return float(beta[0])
        clat = self.grid.lats[i]
        clon = self.grid.lons[j]
        row = _basis(lat - clat, float(wrap_dlon(lon - clon)),
                     0.0 if t is None else t, self.n_harmonics)[0]
        if t is None:
            row[len(SPATIAL_COEF_NAMES):] = 0.0
        return float(row @ beta)


MEAN_RIDGE = 1e-8  # rank-deficient designs: relative to mean diagonal + 1


def estimate_mean_field(obs, grid: GridSpec,
                        config: MeanFieldConfig = MeanFieldConfig()) -> MeanField:
    """Weighted local least squares of the mean basis at every cell.

    Each cell is fit to its ``n_neighbors`` nearest observations under
    the plain (non-elongated) great-circle-style distance, weighted by
    exp(-(d/L)^2).  Rank-deficient designs fall back to a scale-free
    ridge and flag the cell.
    """
    if len(obs) < config.n_neighbors:
        raise InsufficientDataError(
            f"mean field needs >= {config.n_neighbors} observations, "
            f"got {len(obs)}")
    lat = np.array([o.lat for o in obs])
    lon = np.array([o.lon for o in obs])
    t = np.array([o.day for o in obs])
    y = np.array([o.value for o in obs])
    ncols = len(SPATIAL_COEF_NAMES) + 2 * config.n_harmonics
    coefs = {}
    ridge_cells = set()
    for i, j, clat, clon in grid.cells():
        d = rg_distances(clat, clon, lat, lon, tropic=False)
        idx = np.argsort(d, kind="stable")[:config.n_neighbors]
        w = np.exp(-((d[idx] / config.weight_scale_km) ** 2))
        X = _basis(lat[idx] - clat, wrap_dlon(lon[idx] - clon), t[idx],
                   config.n_harmonics)
        sw = np.sqrt(w)
        yn = y[idx]
        beta, _, rank, _ = np.linalg.lstsq(sw[:, None] * X, sw * yn, rcond=None)
        if rank < ncols:
            A = (X * w[:, None]).T @ X
            lam = MEAN_RIDGE * (np.trace(A) / ncols + 1.0)
            beta = np.linalg.solve(A + lam * np.eye(ncols), (X * w[:, None]).T @ yn)
            ridge_cells.add((i, j))
        coefs[(i, j)] = beta
    return MeanField(grid, coefs, config.n_harmonics, ridge_cells=ridge_cells)


def subtract_mean(obs, mean: MeanField, mode: str = "spatio-temporal",
                  eval_time: float | None = None):
    """Residualize observations against the mean field.

    The mean is evaluated at each observation's own location through
    the nearest cell's full local basis.  Spatial mode evaluates the
    seasonal part at a fixed ``eval_time`` (constant over the window);
    spatio-temporal mode at each observation's own time.  Observations
    whose nearest cell has no mean are excluded.  Returns (per-year
    residual blocks, number excluded).
    """
    if mode not in ("spatial", "spatio-temporal"):
        raise InvalidParameterError(f"unknown mean mode {mode!r}")
    if mode == "spatial" and eval_time is None:
        raise InvalidParameterError("spatial mean mode requires eval_time")
    kept = []
    n_excluded = 0
    for o in obs:
        ij = mean.nearest_cell(o.lat, o.lon)
        if ij not in mean.coefs:
            n_excluded += 1
            continue
        t = eval_time if mode == "spatial" else o.day
        resid = o.value - mean.evaluate_at(o.lat, o.lon, t)
        kept.append(LevelObs(o.source_id, o.lat, o.lon, o.year, o.day, resid))
    return records_to_blocks(kept), n_excluded


def load_mask(path) -> frozenset:
    """Read the excluded-cell mask CSV into canonical cell keys."""
    cells = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for line_number, row in enumerate(reader, start=1):
            if line_number == 1:
                _check_header(row, MASK_HEADER)
                continue
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 2:
                raise SchemaError(f"expected 2 fields, got {len(row)}",
                                  line_number)
            lat = _parse_float(row[0], "lat", line_number)
            lon = _parse_float(row[1], "lon", line_number)
            cells.add(cell_key(lat, lon))
    return frozenset(cells)


def apply_filters(records, time_window=None, mask=frozenset(),
                  cell_size: float = 1.0) -> list:
    """Keep records inside the calendar window and outside masked cells.

    ``time_window`` is a closed (first day, last day) interval applied
    within each year.  Each mask entry excludes the cell_size box
    centered on it (closed bounds).
    """
    if time_window is not None:
        lo, hi = time_window
        if hi < lo:
            raise InvalidParameterError("time window end precedes start")
    half = cell_size / 2.0
    mask_arr = np.array(sorted(mask)) if mask else None
    out = []
    for rec in records:
        if time_window is not None and not (lo <= rec.day <= hi):
            continue
        if mask_arr is not None:
            inside = (np.abs(rec.lat - mask_arr[:, 0]) <= half) & \
                (np.abs(wrap_dlon(rec.lon - mask_arr[:, 1])) <= half)
            if bool(np.any(inside)):
                continue
        out.append(rec)
    return out


def write_mean_field(mean: MeanField, path) -> None:
    """Serialize a mean field in coefficient form."""
    names = coef_names(mean.n_harmonics)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MEAN_COEF_HEADER)
        for (i, j) in sorted(mean.coefs):
            beta = mean.coefs[(i, j)]
            lat = mean.grid.lats[i]
            lon = mean.grid.lons[j]
            row_names = names if beta.shape[0] > 1 else ["intercept"]
            for name, value in zip(row_names, beta):
                writer.writerow([FLOAT_FMT % lat, FLOAT_FMT % lon,
                                 name, FLOAT_FMT % value])


def write_mean_field_gridded(mean: MeanField, path,
                             eval_time: float | None = None) -> None:
    """Serialize the mean evaluated per cell at a fixed time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MEAN_GRID_HEADER)
        for (i, j) in sorted(mean.coefs):
            lat = mean.grid.lats[i]
            lon = mean.grid.lons[j]
            writer.writerow([FLOAT_FMT % lat, FLOAT_FMT % lon,
                             FLOAT_FMT % mean.evaluate(i, j, eval_time)])


def _cell_for(grid: GridSpec, lat: float, lon: float, line_number: int):
    lats = grid.lats
    lons = grid.lons
    i = int(np.argmin(np.abs(lats - lat)))
    j = int(np.argmin(np.abs(wrap_dlon(lons - lon))))
    if abs(lats[i] - lat) > 1e-6 or abs(wrap_dlon(lons[j] - lon)) > 1e-6:
        raise SchemaError(f"({lat}, {lon}) is not a grid cell center",
                          line_number)
    return i, j


def read_mean_field(path, grid: GridSpec) -> MeanField:
    """Load a mean field in either gridded or coefficient form."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise SchemaError("empty mean-field file", 1)
    header = [c.strip() for c in rows[0]]
    if header == MEAN_GRID_HEADER:
        coefs = {}
        for k, row in enumerate(rows[1:], start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 3:
                raise SchemaError(f"expected 3 fields, got {len(row)}", k)
            lat = _parse_float(row[0], "lat", k)
            lon = _parse_float(row[1], "lon", k)
            value = _parse_float(row[2], "mean_c", k)
            coefs[_cell_for(grid, lat, lon, k)] = np.array([value])
        return MeanField(grid, coefs, n_harmonics=0)
    if header == MEAN_COEF_HEADER:
        by_cell: dict = {}
        max_harmonic = 0
        for k, row in enumerate(rows[1:], start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 4:
                raise SchemaError(f"expected 4 fields, got {len(row)}", k)
            lat = _parse_float(row[0], "lat", k)
            lon = _parse_float(row[1], "lon", k)
            name = row[2].strip()
            value = _parse_float(row[3], "coef_value", k)
            ij = _cell_for(grid, lat, lon, k)
            by_cell.setdefault(ij, {})[name] = value
            if name[:3] in ("sin", "cos"):
                try:
                    max_harmonic = max(max_harmonic, int(name[3:]))
                except ValueError:
                    raise SchemaError(f"unknown coefficient {name!r}", k) from None
            elif name not in SPATIAL_COEF_NAMES:
                raise SchemaError(f"unknown coefficient {name!r}", k)
        names = coef_names(max_harmonic)
        coefs = {}
        for ij, mapping in by_cell.items():
            coefs[ij] = np.array([mapping.get(name, 0.0) for name in names])
        return MeanField(grid, coefs, n_harmonics=max_harmonic)
    raise SchemaError(f"unrecognized mean-field header {','.join(header)}", 1)
