"""Distance metrics and covariance kernels for local space-time kriging.

Two kernel families live here:

* an anisotropic exponential kernel on (lat, lon, time) lags with one
  range per axis, used by the locally fitted models, and
* the fixed Roemmich-Gilson (RG) style climatology kernel, a two-scale
  Gaussian + exponential mixture on great-circle-ish kilometre
  distances, used by the reference model.

Positions are in raw degrees, time in days; no great-circle correction
is applied to the anisotropic kernel (the fitted ranges absorb the
local metric).  Longitude differences are always wrapped across the
antimeridian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, InvalidParameterError

# Meridional kilometres per degree of latitude used by the RG metric.
KM_PER_DEG = 111.2


def wrap_lon(lon):
    """Normalize longitudes to [-180, 180)."""
    return (np.asarray(lon, dtype=float) + 180.0) % 360.0 - 180.0


def wrap_dlon(dlon):
    """Wrap longitude differences to (-180, 180]."""
    # Python's modulo with a negative modulus lands in (-360, 0], which
    # shifts back to the half-open interval that keeps +180 (not -180).
    return (np.asarray(dlon, dtype=float) - 180.0) % -360.0 + 180.0


@dataclass(frozen=True)
class SpaceTimePoint:
    """A (latitude, longitude, day) location.

    Longitude is normalized into [-180, 180) on construction; ``t`` is
    a real day offset within the year (0.0 = Jan 1, 00:00).
    """

    lat: float
    lon: float
    t: float = 0.0

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise InvalidParameterError(f"latitude {self.lat} outside [-90, 90]")
        object.__setattr__(self, "lat", float(self.lat))
        object.__setattr__(self, "lon", float(wrap_lon(self.lon)))
        object.__setattr__(self, "t", float(self.t))


def as_point_array(points) -> np.ndarray:
    """Coerce points to an (m, 3) float array of (lat, lon, t) rows.

    Accepts a sequence of SpaceTimePoint, a single SpaceTimePoint, or
    an array-like of shape (m, 3) / (3,).  Longitudes are normalized.
    """
    if isinstance(points, SpaceTimePoint):
        return np.array([[points.lat, points.lon, points.t]])
    if isinstance(points, (list, tuple)) and points and isinstance(points[0], SpaceTimePoint):
        return np.array([[p.lat, p.lon, p.t] for p in points])
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        if arr.size == 0:
            arr = arr.reshape(0, 3)
        elif arr.size != 3:
            raise InvalidParameterError("a point needs exactly (lat, lon, t)")
        else:
            arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise InvalidParameterError(f"expected (m, 3) point array, got {arr.shape}")
    arr = arr.copy()
    arr[:, 1] = wrap_lon(arr[:, 1])
    return arr


@dataclass(frozen=True)
class CovParams:
    """Anisotropic exponential kernel parameters plus nugget variance.

    phi        GP sill (variance at zero lag)
    theta_lat  latitude range, degrees
    theta_lon  longitude range, degrees
    theta_t    temporal range, days
    sigma2     nugget variance; zero is permitted only for test setups
    """

    phi: float
    theta_lat: float
    theta_lon: float
    theta_t: float
    sigma2: float

    def __post_init__(self):
        for name in ("phi", "theta_lat", "theta_lon", "theta_t"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise InvalidParameterError(f"{name} must be positive, got {v}")
        if not (np.isfinite(self.sigma2) and self.sigma2 >= 0.0):
            raise InvalidParameterError(f"sigma2 must be >= 0, got {self.sigma2}")


@dataclass(frozen=True)
class RGCovConfig:
    """Shape constants of the RG-style reference covariance."""

    gauss_weight: float = 0.77
    exp_weight: float = 0.23
    gauss_scale_km: float = 140.0
    exp_scale_km: float = 1111.0
    noise_signal_ratio: float = 0.15


RG_DEFAULT = RGCovConfig()


def cross_sq_lags(tgt: np.ndarray, pts: np.ndarray):
    """Squared lags (dlat2, dlon2, dt2) from each row of ``tgt`` to each
    row of ``pts``, each (len(tgt), len(pts))."""
    dlat = tgt[:, 0, None] - pts[:, 0]
    dlon = wrap_dlon(tgt[:, 1, None] - pts[:, 1])
    dt = tgt[:, 2, None] - pts[:, 2]
    return dlat * dlat, dlon * dlon, dt * dt


def scaled_distance(sq_lags, params: CovParams, spatial: bool = False) -> np.ndarray:
    """Anisotropic distance from precomputed squared lags."""
    dlat2, dlon2, dt2 = sq_lags
    d2 = dlat2 / params.theta_lat**2 + dlon2 / params.theta_lon**2
    if not spatial:
        d2 = d2 + dt2 / params.theta_t**2
    return np.sqrt(d2)


def cov_matrix(points, params: CovParams, spatial: bool = False) -> np.ndarray:
    """GP covariance matrix over ``points`` (no nugget on the diagonal).

    The diagonal is exactly phi; assembly never adds jitter, any ridge
    policy belongs to the factorization site.
    """
    pts = as_point_array(points)
    if pts.shape[0] == 0:
        raise EmptyInputError("cov_matrix needs at least one point")
    K = params.phi * np.exp(-scaled_distance(cross_sq_lags(pts, pts), params, spatial))
    np.fill_diagonal(K, params.phi)
    return K


def cross_cov_vector(targets, points, params: CovParams, spatial: bool = False) -> np.ndarray:
    """Covariances between each of ``targets`` (one point included) and
    each of ``points``, (F, m)."""
    pts = as_point_array(points)
    if pts.shape[0] == 0:
        raise EmptyInputError("cross_cov_vector needs at least one point")
    d = scaled_distance(cross_sq_lags(as_point_array(targets), pts), params, spatial)
    return params.phi * np.exp(-d)


# ---------------------------------------------------------------------------
# RG-style reference covariance
# ---------------------------------------------------------------------------


def rg_tropic_factor(lat):
    """Latitude weight applied to zonal kilometre distances.

    1 poleward of 20 degrees; inside the tropics it shrinks linearly
    from 1 at |lat| = 20 down to 1/8 at the equator, stretching the
    effective zonal correlation scale there.
    """
    alat = np.abs(np.asarray(lat, dtype=float))
    out = np.where(alat > 20.0, 1.0, 0.125 + (7.0 / 160.0) * alat)
    return float(out) if out.ndim == 0 else out


def rg_distances(lat0, lon0, lats, lons, tropic: bool = True) -> np.ndarray:
    """RG kilometre distances between broadcast-compatible positions.

    Flat-earth metric: meridional km from KM_PER_DEG, zonal km scaled
    by cos(midpoint latitude) and, when ``tropic``, by the tropic
    factor at the midpoint latitude.
    """
    lat0, lon0, lats, lons = (np.asarray(v, dtype=float)
                              for v in (lat0, lon0, lats, lons))
    dlat_km = (lat0 - lats) * KM_PER_DEG
    midlat = 0.5 * (lat0 + lats)
    dlon_km = wrap_dlon(lon0 - lons) * KM_PER_DEG * np.cos(np.radians(midlat))
    a = rg_tropic_factor(midlat) if tropic else 1.0
    return np.hypot(dlat_km, a * dlon_km)


def rg_shape(d_km) -> np.ndarray:
    """Unit-variance RG correlation at kilometre distance ``d_km``."""
    d = np.asarray(d_km, dtype=float)
    c = RG_DEFAULT
    g = c.gauss_weight * np.exp(-((d / c.gauss_scale_km) ** 2))
    e = c.exp_weight * np.exp(-d / c.exp_scale_km)
    return g + e


def rg_corr_matrix(lats, lons, tropic: bool = True) -> np.ndarray:
    """Pairwise unit-variance RG correlation matrix (diagonal exactly 1)."""
    lats = np.asarray(lats, float)
    lons = np.asarray(lons, float)
    R = rg_shape(rg_distances(lats[:, None], lons[:, None], lats[None, :],
                              lons[None, :], tropic))
    np.fill_diagonal(R, 1.0)
    return R


def rg_corr_vector(lat0, lon0, lats, lons, tropic: bool = True) -> np.ndarray:
    """RG correlations from (lat0, lon0) to arrays of locations."""
    return rg_shape(rg_distances(lat0, wrap_lon(lon0), lats, lons, tropic))
