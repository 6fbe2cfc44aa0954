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
import os
import warnings
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, compress, count, islice, repeat
from operator import ne

import numpy as np

from .covariance import KM_PER_DEG, rg_distances, wrap_dlon, wrap_lon
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
CHUNK_ROWS = 8192  # profile CSV rows converted per pass

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


@dataclass(eq=False)
class ProfileTable(Sequence):
    """Profiles as columns, a sequence of ``ProfileRecord`` built on demand.

    Per profile: source_ids (a list), lat, wrapped lon, year and day;
    profile k's levels are rows offsets[k]:offsets[k + 1] of pressure
    and value.
    """

    source_ids: list
    lat: np.ndarray
    lon: np.ndarray
    year: np.ndarray
    day: np.ndarray
    offsets: np.ndarray
    pressure: np.ndarray
    value: np.ndarray

    def __len__(self) -> int:
        return len(self.source_ids)

    def __getitem__(self, k) -> ProfileRecord:
        k = range(len(self))[k]
        rows = slice(self.offsets[k], self.offsets[k + 1])
        return ProfileRecord(
            self.source_ids[k], float(self.lat[k]), float(self.lon[k]),
            int(self.year[k]), float(self.day[k]),
            tuple(zip(self.pressure[rows].tolist(), self.value[rows].tolist())))

    def subset(self, keep) -> "ProfileTable":
        """The profiles where the boolean array ``keep`` holds, in order."""
        counts = np.diff(self.offsets)
        rows = np.repeat(keep, counts)
        return ProfileTable(
            list(compress(self.source_ids, keep)), self.lat[keep], self.lon[keep],
            self.year[keep], self.day[keep], np.cumsum(np.r_[0, counts[keep]]),
            self.pressure[rows], self.value[rows])


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
        return int(np.int64(int(text)))
    except (ValueError, OverflowError):
        raise SchemaError(f"field {name} is not an integer: {text!r}",
                          line_number) from None


@contextmanager
def open_text(path):
    """``path`` opened as UTF-8 text with its line endings kept, as the
    csv module reads it.  A byte that is not UTF-8 raises SchemaError at
    its physical line."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise SchemaError(
                f"byte 0x{exc.object[exc.start]:02x} is not UTF-8 "
                f"({exc.reason})", _undecodable_line(path)) from None


def _undecodable_line(path) -> int | None:
    """The first physical line that is not UTF-8.  A line ending is ASCII
    and never part of a multi-byte character, so lines decode alone."""
    with open(path, "rb") as fh:
        for line_number, line in enumerate(fh.read().splitlines(), start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return line_number
    return None


def csv_rows(lines, start: int = 1):
    """The csv module's rows of ``lines``, whose first is physical line
    ``start``.  A csv.Error (a field over the csv field size limit)
    raises SchemaError at the line the reader had reached."""
    reader = csv.reader(lines)
    try:
        yield from reader
    except csv.Error as exc:
        raise SchemaError(str(exc), start + reader.line_num - 1) from None


def _check_header(path, row, *headers):
    """The one of ``headers`` that ``row``, line 1 of ``path``, matches
    field by field once stripped; SchemaError at line 1 otherwise (a
    ``row`` of None is an empty file)."""
    got = [c.strip() for c in row or ()]
    if got not in headers:
        raise SchemaError(
            f"{path}: expected header {' or '.join(map(','.join, headers))}, "
            f"got {','.join(got) or 'nothing'}", 1)
    return got


def _data_rows(rows, n_fields: int, start: int = 2):
    """(line number, row) for each non-blank row, which must have n_fields."""
    for line_number, row in enumerate(rows, start=start):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != n_fields:
            raise SchemaError(f"expected {n_fields} fields, got {len(row)}",
                              line_number)
        yield line_number, row


def write_table(path, header, rows) -> None:
    """Write a CSV table: the header row, then ``rows``.  A float cell
    (np.float64 included) is written at FLOAT_FMT, so it reads back bit
    for bit; None is an empty cell; any other cell is written by str."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([FLOAT_FMT % c if isinstance(c, float) else c
                          for c in row] for row in rows)


@contextmanager
def read_table(path, *headers):
    """Read a CSV table whose line 1 is one of ``headers``: the header it
    matches, and an iterator of (line number, row) over the non-blank
    rows, each with that header's field count.  Rows are read as they
    are asked for, so a caller's fault in one comes before a field-count
    or csv fault of a later row."""
    with open_text(path) as fh:
        rows = csv_rows(fh)
        header = _check_header(path, next(rows, None), *headers)
        yield header, _data_rows(rows, len(header))


def _columns(rows, start: int):
    """Columns and line numbers of a chunk's non-blank rows, the first
    at line ``start``; ValueError or OverflowError at a row-level fault."""
    filled = [any(map(str.strip, row)) for row in rows]
    rows = list(compress(rows, filled))
    if set(map(len, rows)) - {len(PROFILE_HEADER)}:
        raise ValueError("field count")
    cols = list(zip(*rows)) or [()] * len(PROFILE_HEADER)
    sids = list(map(str.strip, cols[0]))
    lat, lon, day, pressure, value = (np.fromiter(
        map(float, cols[c]), float, len(rows)) for c in (1, 2, 4, 5, 6))
    if not all(sids) or not np.isfinite([lat, lon, day, pressure, value]).all():
        raise ValueError("empty or non-finite field")
    return (sids, lat, lon, np.fromiter(map(int, cols[3]), np.int64, len(rows)),
            day, pressure, value, np.flatnonzero(filled) + start)


def _chunk(rows, start: int, fault: SchemaError | None = None):
    """``_columns`` cut before the first row a row-by-row check rejects,
    plus that check's SchemaError (``fault``, met after the last row,
    for a clean chunk)."""
    try:
        return (*_columns(rows, start), fault)
    except (ValueError, OverflowError):
        pass
    try:
        for n, row in _data_rows(rows, len(PROFILE_HEADER), start):
            if not row[0].strip():
                raise SchemaError("empty source_id", n)
            for text, name in zip(row[1:], PROFILE_HEADER[1:]):
                (_parse_int if name == "year" else _parse_float)(text, name, n)
    except SchemaError as exc:
        return (*_columns(rows[:exc.line_number - start], start), exc)


def _csv_chunk(lines, fh, start: int):
    """``_chunk`` of the CHUNK_ROWS csv rows that begin with text
    ``lines`` and go on in ``fh``; a csv.Error ends them early as the
    chunk's fault."""
    rows, fault = [], None
    try:
        # CHUNK_ROWS rows span at least the lines given, so the csv
        # reader uses them all and leaves fh at a row boundary.
        rows.extend(islice(csv_rows(chain(lines, fh), start), CHUNK_ROWS))
    except SchemaError as exc:
        fault = exc
    return _chunk(rows, start, fault)


def _plain_chunk(lines, start: int):
    """``_chunk`` of a plain chunk's text lines by numpy's C reader; None
    for a chunk that is not plain or that the C reader rejects.

    A plain chunk has exactly six commas on every line (so no blank
    line), no line longer than the csv field limit, no quote (a quoted
    field may span lines) and no \\x1c-\\x1f, which the C reader strips
    as whitespace around a number and float/int reject.  On the rest
    the C reader accepts a subset of what float/int accept (it rejects
    underscores and non-ASCII digits) and converts it with the same
    routine, so its columns are the row path's, bit for bit.  A warning
    (older numpy parses "1.0" as an int64 with a DeprecationWarning)
    counts as a rejection.
    """
    text = "".join(lines)
    commas = set(map(str.count, lines, repeat(",")))
    if (commas != {len(PROFILE_HEADER) - 1}
            or max(map(len, lines)) > csv.field_size_limit()
            or any(c in text for c in '"\x1c\x1d\x1e\x1f')):
        return None
    sids = [line.partition(",")[0].strip() for line in lines]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = np.loadtxt(lines, delimiter=",", comments=None,
                           usecols=(1, 2, 4, 5, 6), ndmin=2)
            year = np.loadtxt(lines, np.int64, delimiter=",", comments=None,
                              usecols=3, ndmin=1)
    except (ValueError, Warning):
        return None
    if not all(sids) or not np.isfinite(x).all():
        return None
    lat, lon, day, pressure, value = x.T
    return (sids, lat, lon, year, day, pressure, value,
            start + np.arange(len(lines)), None)


def parse_profiles(path) -> ProfileTable:
    """Read the profile CSV; strict schema, line-numbered rejections.

    A profile is a maximal run of rows sharing (source_id, lat, lon,
    year, day); its pressures must strictly increase and a profile key
    must not reappear after its run ends.  Rows stream in chunks of
    CHUNK_ROWS rows: a plain chunk is converted by numpy's C reader
    (``_plain_chunk``), any other by the csv module and Python's
    float/int column by column (``_csv_chunk``), with equal doubles.
    The fault a row-by-row reader meets first is raised; it meets a
    latitude outside [-90, 90], named at the profile's first line,
    where the profile ends.  A zero-byte file gives an empty table.
    """
    chunks = [_chunk([], 2)]
    with open_text(path) as fh:
        for header in islice(csv_rows(fh), 1):
            _check_header(path, header, PROFILE_HEADER)
        chunk_lines = count(2, CHUNK_ROWS)
        while chunks[-1][-1] is None and (
                text := list(islice(fh, CHUNK_ROWS))):
            start = next(chunk_lines)
            chunks.append(_plain_chunk(text, start) or _csv_chunk(text, fh, start))
    sids = [s for c in chunks for s in c[0]]
    lat, lon, year, day, pressure, value, lines = (
        np.concatenate([c[k] for c in chunks]) for k in range(1, 8))
    new = np.ones(len(sids), dtype=bool)  # a profile starts: the key changes
    new[1:] = list(map(ne, sids[1:], sids[:-1]))
    for c in (lat, lon, year, day):
        new[1:] |= c[1:] != c[:-1]
    starts = np.flatnonzero(new)
    first, ids = lines[starts].tolist() + [math.inf], [sids[k] for k in starts]
    seen: dict = {}
    keys = zip(ids, *(c[starts].tolist() for c in (lat, lon, year, day)))
    dup = [k for k, key in enumerate(keys) if seen.setdefault(key, k) != k]
    bad_p = np.flatnonzero(~new & (pressure <= np.r_[0.0, pressure[:-1]]))
    # (line a row-by-row reader meets the fault at, order on that line, fault)
    faults = [(f.line_number, 0, f) for f in [chunks[-1][-1]] if f] + [
        (first[k + 1], 1, SchemaError(f"profile latitude outside [-90, 90]: "
                                      f"{lat[starts[k]]}", first[k]))
        for k in np.flatnonzero(np.abs(lat[starts]) > 90.0)[:1]] + [
        (first[k], 2, SchemaError("profile rows are not contiguous for "
                                  f"source_id {ids[k]!r}", first[k]))
        for k in dup[:1]] + [
        (lines[i], 3, SchemaError(f"pressure not strictly increasing "
                                  f"({pressure[i]} after {pressure[i - 1]})",
                                  int(lines[i]))) for i in bad_p[:1]]
    if faults:
        raise min(faults, key=lambda f: f[:2])[2]
    return ProfileTable(ids, lat[starts], wrap_lon(lon[starts]), year[starts],
                        day[starts], np.append(starts, new.size), pressure,
                        value)


def write_profiles(blocks, pressure: float, path) -> None:
    """Write year blocks as one-level profiles at ``pressure`` in the
    canonical CSV schema (round-trip exact), one row per observation.
    Rows of a block without source ids are numbered obs0000000, ... by
    their row in the file."""
    rows = []
    for b in blocks:
        sids = (b.source_ids.tolist() if b.source_ids is not None else
                [f"obs{k:07d}" for k in range(len(rows), len(rows) + b.m)])
        rows += zip(sids, b.lat.tolist(), b.lon.tolist(), repeat(int(b.year)),
                    b.t.tolist(), repeat(float(pressure)), b.values.tolist())
    write_table(path, PROFILE_HEADER, rows)


def profiles_to_level(table: ProfileTable, level: float) -> list[YearBlock]:
    """Reduce each profile to one observation at a pressure level.

    Linear in pressure and bitwise equal to ``np.interp``: an exact node
    gives its value, else (v[j+1] - v[j]) / (p[j+1] - p[j]) * (level -
    p[j]) + v[j].  Profiles not spanning the level are dropped.  Blocks
    come per year, ascending, rows in input order, with source ids.
    """
    if not level > 0.0:
        raise InvalidParameterError(f"pressure level must be > 0, got {level}")
    p, v, off = table.pressure, table.value, table.offsets
    n_below = np.diff(np.r_[0, np.cumsum(p <= level)][off])
    spans = (n_below > 0) & (p[off[1:] - 1] >= level)
    j = (off[:-1] + n_below - 1)[spans]
    out, lin = v[j], p[j] != level
    j = j[lin]
    out[lin] = (v[j + 1] - v[j]) / (p[j + 1] - p[j]) * (level - p[j]) + v[j]
    idx = np.flatnonzero(spans)
    blocks = []
    for year in np.unique(table.year[idx]):
        sel = table.year[idx] == year
        rows = idx[sel]
        blocks.append(YearBlock(
            int(year), table.lat[rows], table.lon[rows], table.day[rows],
            out[sel], np.array([table.source_ids[k] for k in rows])))
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


def _nearest_rows(lat, lon, centers, k: int):
    """(rows, distances) of the k observations nearest each (clat, clon),
    as the stable sort of ``rg_distances(..., tropic=False)`` to every row
    would give them, from a latitude band [clat - h, clat + h].  The band
    holds when the excluded rows next to it have |(clat - lat) * KM_PER_DEG|
    > d_k, its k-th distance, as hypot(a, b) >= |a|; else h doubles.  h
    starts from 1.25 times the previous d_k, the first from every row."""
    order = np.argsort(lat, kind="stable")
    slat, slon = lat[order], lon[order]
    n, dk = lat.size, math.inf
    for clat, clon in centers:
        h = 1.25 * dk / KM_PER_DEG
        while True:
            lo, hi = slat.searchsorted(clat - h), slat.searchsorted(clat + h, "right")
            if hi - lo >= k:
                d = rg_distances(clat, clon, slat[lo:hi], slon[lo:hi],
                                 tropic=False)
                dk = np.partition(d, k - 1)[k - 1]
                if ((lo == 0 or abs((clat - slat[lo - 1]) * KM_PER_DEG) > dk)
                        and (hi == n or abs((clat - slat[hi]) * KM_PER_DEG) > dk)):
                    break
            h = max(2.0 * h, 1e-6)
        near = np.flatnonzero(d <= dk)
        near = near[np.lexsort((order[lo:hi][near], d[near]))[:k]]
        yield order[lo + near], d[near]


MEAN_RIDGE = 1e-8  # rank-deficient designs: relative to mean diagonal + 1


def estimate_mean_field(blocks, grid: GridSpec,
                        config: MeanFieldConfig = MeanFieldConfig()) -> MeanField:
    """Weighted local least squares of the mean basis at every cell.

    Each cell is fit to its ``n_neighbors`` nearest observations of the
    year blocks (``_nearest_rows``) under the plain (non-elongated)
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
    cells = list(grid.cells())
    nearest = _nearest_rows(lat, lon, [c[2:] for c in cells], config.n_neighbors)
    for (i, j, clat, clon), (idx, d) in zip(cells, nearest):
        w = np.exp(-((d / config.weight_scale_km) ** 2))
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
    """Read the excluded-cell mask CSV into canonical cell keys; a
    zero-byte file masks no cells."""
    if os.path.getsize(path) == 0:
        return frozenset()
    with read_table(path, MASK_HEADER) as (_, rows):
        return frozenset(cell_key(_parse_float(row[0], "lat", k),
                                  _parse_float(row[1], "lon", k))
                         for k, row in rows)


def apply_filters(table: ProfileTable, time_window=None, mask=frozenset(),
                  cell_size: float = 1.0) -> ProfileTable:
    """Keep profiles inside the calendar window and outside masked cells.

    ``time_window`` is a closed (first day, last day) interval applied
    within each year.  Each mask entry excludes the cell_size box
    centered on it (closed bounds).
    """
    keep = np.ones(len(table), dtype=bool)
    if time_window is not None:
        lo, hi = time_window
        if hi < lo:
            raise InvalidParameterError("time window end precedes start")
        keep &= (lo <= table.day) & (table.day <= hi)
    half = cell_size / 2.0
    for mask_lat, mask_lon in mask:
        keep &= ~((np.abs(table.lat - mask_lat) <= half)
                  & (np.abs(wrap_dlon(table.lon - mask_lon)) <= half))
    return table.subset(keep)


def write_mean_field(mean: MeanField, path) -> None:
    """Serialize a mean field in coefficient form."""
    names = coef_names(mean.n_harmonics)
    write_table(path, MEAN_COEF_HEADER, (
        (mean.grid.lats[i], mean.grid.lons[j], name, value)
        for (i, j), beta in sorted(mean.coefs.items())
        for name, value in zip(names if beta.shape[0] > 1 else ["intercept"],
                               beta)))


def write_mean_field_gridded(mean: MeanField, path,
                             eval_time: float | None = None) -> None:
    """Serialize the mean evaluated per cell at a fixed time."""
    write_table(path, MEAN_GRID_HEADER, (
        (mean.grid.lats[i], mean.grid.lons[j], mean.evaluate(i, j, eval_time))
        for (i, j) in sorted(mean.coefs)))


def read_mean_field(path) -> MeanField:
    """Load a mean field in either gridded or coefficient form.

    The grid is the file's own lattice: it spans the cell centers in the
    file, and each step is the smallest spacing between distinct center
    coordinates (1 for a single row or column, where no step changes
    the nearest cell).  It may differ from the prediction grid.
    """
    entries = []  # (line number, lat, lon, coefficient name, value)
    max_harmonic = 0
    with read_table(path, MEAN_GRID_HEADER, MEAN_COEF_HEADER) as (header, rows):
        for k, row in rows:
            name = row[2].strip() if header == MEAN_COEF_HEADER else "intercept"
            if name[:3] in ("sin", "cos"):
                try:
                    max_harmonic = max(max_harmonic, int(name[3:]))
                except ValueError:
                    raise SchemaError(f"unknown coefficient {name!r}",
                                      k) from None
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
    # Distinct coordinates resolved at once: first nearest center, -1 off grid.
    ulat, ulon = np.array(lats), np.array(lons)
    i = np.abs(grid.lats - ulat[:, None]).argmin(1)
    j = np.abs(wrap_dlon(grid.lons - ulon[:, None])).argmin(1)
    i_of = dict(zip(lats, np.where(
        np.abs(grid.lats[i] - ulat) > 1e-6, -1, i).tolist()))
    j_of = dict(zip(lons, np.where(
        np.abs(wrap_dlon(grid.lons[j] - ulon)) > 1e-6, -1, j).tolist()))
    by_cell: dict = {}
    for k, lat, lon, name, value in entries:
        ij = i_of[lat], j_of[lon]
        if min(ij) < 0:
            raise SchemaError(f"({lat}, {lon}) is not a grid cell center", k)
        by_cell.setdefault(ij, {})[name] = value
    names = (coef_names(max_harmonic) if header == MEAN_COEF_HEADER
             else ["intercept"])
    coefs = {ij: np.array([c.get(name, 0.0) for name in names])
             for ij, c in by_cell.items()}
    return MeanField(grid, coefs, n_harmonics=max_harmonic)
