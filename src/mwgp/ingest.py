"""Profile ingestion, vertical interpolation, and mean-field handling.

The canonical input is a profile CSV (one row per profile level, rows
of a profile contiguous and pressure-ascending).  Profiles are
linearly interpolated to a single pressure level and grouped into
per-year ``YearBlock`` columns, the one observation type from there
on.  A local weighted-regression mean field is estimated on the
mapping grid from those blocks, or read from a file on its own
lattice, and ``subtract_mean`` turns the blocks into residual blocks
for the moving-window fits, one pass per block and nearest mean cell.
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


def _parse_float(text: str, name: str, line_number: int,
                 finite: bool = True) -> float:
    try:
        value = float(text)
    except ValueError:
        raise SchemaError(f"field {name} is not a number: {text!r}",
                          line_number) from None
    if finite and not math.isfinite(value):
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


def _data_rows(rows, n_fields: int, start: int = 2):
    """(line number, row) for each non-blank row, which must have n_fields."""
    for line_number, row in enumerate(rows, start=start):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != n_fields:
            raise SchemaError(f"expected {n_fields} fields, got {len(row)}",
                              line_number)
        yield line_number, row


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
        header = next(reader, None)
        if header is None:
            return records
        _check_header(header, PROFILE_HEADER)
        for line_number, row in _data_rows(reader, len(PROFILE_HEADER)):
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


def profiles_to_level(records, level: float) -> list[YearBlock]:
    """Reduce each profile to one observation at a pressure level.

    Profiles not sampling the level are dropped.  Observations are
    grouped into per-year blocks, years ascending and rows within a
    year in input order, with their source ids.
    """
    by_year: dict[int, list] = {}
    for rec in records:
        value = interpolate_to_pressure(rec, level)
        if value is not None:
            by_year.setdefault(rec.year, []).append(
                (rec.lat, rec.lon, rec.day, value, rec.source_id))
    return [YearBlock(year, *map(np.array, zip(*by_year[year])))
            for year in sorted(by_year)]


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

    def nearest_cell(self, lat, lon):
        """Indices (i, j) of the grid cells nearest each location, clipped."""
        g = self.grid
        i = np.clip(np.rint((lat - g.lat_min) / g.lat_step), 0, g.n_lat - 1)
        j = np.clip(np.rint((wrap_lon(lon) - g.lon_min) / g.lon_step),
                    0, g.n_lon - 1)
        return i.astype(int), j.astype(int)

    def evaluate(self, i: int, j: int, t: float | None = None) -> float:
        """Mean at the cell center; harmonics included when t is given."""
        beta = self.coefs[(i, j)]
        value = float(beta[0])
        if t is not None and beta.shape[0] > len(SPATIAL_COEF_NAMES):
            value += _harmonic_sum(beta, t, self.n_harmonics)
        return value

    def evaluate_at(self, lat, lon, t=None) -> np.ndarray:
        """Mean at off-center locations via each nearest cell's full basis.

        One pass per distinct nearest cell, which must hold a mean; each
        row is its own dot product with the cell's coefficients.  The
        seasonal part is left out when ``t`` is None.
        """
        lat, lon = np.atleast_1d(lat, lon)
        seasonal = t is not None
        t = np.broadcast_to(t if seasonal else 0.0, lat.shape)
        lats, lons = self.grid.lats, self.grid.lons
        i, j = self.nearest_cell(lat, lon)
        flat = i * lons.size + j
        order = np.argsort(flat, kind="stable")
        cells, starts = np.unique(flat[order], return_index=True)
        out = np.empty(lat.shape)
        for cell, rows in zip(cells, np.split(order, starts[1:])):
            ci, cj = divmod(int(cell), lons.size)
            beta = self.coefs[(ci, cj)]
            if beta.shape[0] == 1:
                out[rows] = beta[0]
                continue
            X = _basis(lat[rows] - lats[ci], wrap_dlon(lon[rows] - lons[cj]),
                       t[rows], self.n_harmonics)
            if not seasonal:
                X[:, len(SPATIAL_COEF_NAMES):] = 0.0
            out[rows] = [x @ beta for x in X]
        return out


MEAN_RIDGE = 1e-8  # rank-deficient designs: relative to mean diagonal + 1


def estimate_mean_field(blocks, grid: GridSpec,
                        config: MeanFieldConfig = MeanFieldConfig()) -> MeanField:
    """Weighted local least squares of the mean basis at every cell.

    Each cell is fit to its ``n_neighbors`` nearest observations of the
    year blocks, taken in block order, under the plain (non-elongated)
    great-circle-style distance, weighted by exp(-(d/L)^2).
    Rank-deficient designs fall back to a scale-free ridge and flag
    the cell.
    """
    n_obs = sum(b.m for b in blocks)
    if n_obs < config.n_neighbors:
        raise InsufficientDataError(
            f"mean field needs >= {config.n_neighbors} observations, "
            f"got {n_obs}")
    lat, lon, t, y = (np.concatenate([getattr(b, name) for b in blocks])
                      for name in ("lat", "lon", "t", "values"))
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


def subtract_mean(blocks, mean: MeanField, mode: str = "spatio-temporal",
                  eval_time: float | None = None):
    """Residualize year blocks against the mean field.

    The mean is evaluated at each observation's own location through
    the nearest cell's full local basis.  Spatial mode evaluates the
    seasonal part at a fixed ``eval_time`` (constant over the window);
    spatio-temporal mode at each observation's own time.  Observations
    whose nearest cell has no mean are excluded, and a year left empty
    yields no block.  Returns (residual blocks, number excluded).
    """
    if mode not in ("spatial", "spatio-temporal"):
        raise InvalidParameterError(f"unknown mean mode {mode!r}")
    if mode == "spatial" and eval_time is None:
        raise InvalidParameterError("spatial mean mode requires eval_time")
    has_mean = np.zeros((mean.grid.n_lat, mean.grid.n_lon), dtype=bool)
    for ij in mean.coefs:
        has_mean[ij] = True
    out = []
    n_excluded = 0
    for block in blocks:
        keep = has_mean[mean.nearest_cell(block.lat, block.lon)]
        n_excluded += block.m - int(np.count_nonzero(keep))
        if not keep.any():
            continue
        kept = block.subset(keep)
        t = eval_time if mode == "spatial" else kept.t
        kept.values = kept.values - mean.evaluate_at(kept.lat, kept.lon, t)
        out.append(kept)
    return out, n_excluded


def load_mask(path) -> frozenset:
    """Read the excluded-cell mask CSV into canonical cell keys."""
    cells = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is not None:
            _check_header(header, MASK_HEADER)
        for line_number, row in _data_rows(reader, len(MASK_HEADER)):
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


def read_mean_field(path) -> MeanField:
    """Load a mean field in either gridded or coefficient form.

    The grid is the file's own lattice: it spans the cell centers in the
    file, and each step is the smallest spacing between distinct center
    coordinates (1 for a single row or column, where no step changes
    the nearest cell).  It may differ from the prediction grid.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise SchemaError("empty mean-field file", 1)
    header = [c.strip() for c in rows[0]]
    if header not in (MEAN_GRID_HEADER, MEAN_COEF_HEADER):
        raise SchemaError(
            f"unrecognized mean-field header {','.join(header)}", 1)
    entries = []  # (line number, lat, lon, coefficient name, value)
    max_harmonic = 0
    for k, row in _data_rows(rows[1:], len(header)):
        name = row[2].strip() if header == MEAN_COEF_HEADER else "intercept"
        if name[:3] in ("sin", "cos"):
            try:
                max_harmonic = max(max_harmonic, int(name[3:]))
            except ValueError:
                raise SchemaError(f"unknown coefficient {name!r}", k) from None
        elif name not in SPATIAL_COEF_NAMES:
            raise SchemaError(f"unknown coefficient {name!r}", k)
        entries.append((k, _parse_float(row[0], "lat", k),
                        _parse_float(row[1], "lon", k), name,
                        _parse_float(row[-1], header[-1], k)))
    if not entries:
        raise SchemaError("mean-field file has no cells")
    lats = sorted({e[1] for e in entries})
    lons = sorted({e[2] for e in entries})
    grid = GridSpec(lats[0], lats[-1], lons[0], lons[-1],
                    min(np.diff(lats), default=1.0),
                    min(np.diff(lons), default=1.0))
    by_cell: dict = {}
    for k, lat, lon, name, value in entries:
        by_cell.setdefault(_cell_for(grid, lat, lon, k), {})[name] = value
    names = (coef_names(max_harmonic) if header == MEAN_COEF_HEADER
             else ["intercept"])
    coefs = {ij: np.array([c.get(name, 0.0) for name in names])
             for ij, c in by_cell.items()}
    return MeanField(grid, coefs, n_harmonics=max_harmonic)
