"""Shared fixtures and brute-force oracles for the test suite.

The oracles here deliberately use the most transparent formulation
available (explicit inverses, dense log-determinants, naive sums, one
point pair or one fold at a time) so that agreement with the library
is evidence, not circularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import linalg as sla
from scipy import optimize, stats
from scipy.linalg.lapack import dpotri, dpotrs
from scipy.special import ndtr, ndtri, stdtrit

from mwgp.covariance import (
    KM_PER_DEG,
    RG_DEFAULT,
    CovParams,
    SpaceTimePoint,
    as_point_array,
    cov_matrix,
    cross_cov_vector,
    cross_sq_lags,
    rg_corr_matrix,
    rg_corr_vector,
    rg_distances,
    rg_tropic_factor,
    scaled_distance,
    wrap_dlon,
    wrap_lon,
)
from mwgp.errors import (
    FactorizationError,
    InputError,
    InsufficientDataError,
    InsufficientVarianceError,
    InvalidParameterError,
    MappingError,
    SchemaError,
)
from mwgp.gaussian import (
    LBFGS_OPTIONS,
    LOG_2PI,
    PENALTY,
    GaussianPredictive,
    YearBlock,
    _Prepared,
    _decode,
    _encode,
    _kernel_grad,
    _spd_inverse,
    chol_spd,
    holdout_predictions,
)
from mwgp.ingest import (
    PROFILE_HEADER,
    ProfileRecord,
    ProfileTable,
    _check_header,
    _data_rows,
    _parse_float,
    _parse_int,
    csv_rows,
    write_table,
)
from mwgp.student import (
    HALF_WIDTH_MAX_ITER,
    HALF_WIDTH_RTOL,
    StudentParams,
    StudentPredictive,
    _laplace,
    _scale_mixture,
)
from mwgp.validation import (
    CVRecord,
    CVResult,
    _usable_cells,
)
from mwgp.windows import ReferenceParams

# Canonical parameter set used across modules when the exact values
# are immaterial; chosen so no two scales coincide.
PARAMS = CovParams(phi=1.3, theta_lat=2.0, theta_lon=4.0, theta_t=7.0,
                   sigma2=0.4)


def random_block(rng, m, year=0, lat_span=6.0, lon_span=6.0, t_span=40.0,
                 value_scale=1.0, source_ids=None):
    """A YearBlock with uniform scatter; values are iid noise."""
    return YearBlock(
        year,
        rng.uniform(-lat_span, lat_span, m),
        rng.uniform(-lon_span, lon_span, m),
        rng.uniform(0.0, t_span, m),
        value_scale * rng.standard_normal(m),
        source_ids,
    )


def dense_mvn_loglik(y, cov):
    """Multivariate-normal log-density at zero mean by explicit inverse.

    Deliberately the naive formula (inverse + determinant), nothing
    shared with the library implementation.
    """
    y = np.asarray(y, dtype=float)
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    quad = y @ np.linalg.inv(cov) @ y
    return -0.5 * (logdet + quad + y.size * np.log(2.0 * np.pi))


def explicit_conditional(target: SpaceTimePoint, block: YearBlock,
                         params: CovParams, spatial=False):
    """Conditional-Gaussian mean/variance for y* by explicit inverse."""
    K = cov_matrix(block.points, params, spatial)
    A = K + params.sigma2 * np.eye(block.m)
    k = cross_cov_vector(target, block.points, params, spatial)[0]
    A_inv = np.linalg.inv(A)
    mean = k @ A_inv @ block.values
    var = params.phi + params.sigma2 - k @ A_inv @ k
    return float(mean), float(var)


def gauss_loglik(blocks, params: CovParams, spatial: bool = False) -> float:
    """Sum of year-block Gaussian log-likelihoods, by ``packed_nll``.

    Empty blocks contribute exactly zero.
    """
    if sum(b.m for b in blocks) == 0:
        return 0.0
    return -float(packed_nll(_encode(params, spatial), PackedLags(blocks, spatial), False))


def laplace_loglik(blocks, params: StudentParams, spatial: bool = False) -> float:
    """Laplace-approximate log marginal likelihood, summed over blocks.

    Empty blocks contribute exactly zero.  The value is the Student fit
    objective's, bit for bit.
    """
    return _laplace(blocks, _Prepared(blocks, spatial), params, False)[0]


def profiled_point(params: CovParams, spatial: bool = False) -> np.ndarray:
    """The profiled objective's z = (log theta_k..., log tau) at ``params``."""
    x = _encode(params, spatial)
    return np.append(x[1:-1], x[-1] - x[0])


def full_point(z: np.ndarray, phi: float) -> np.ndarray:
    """The full objective's x = (log phi, log theta_k..., log tau phi) at z."""
    return np.concatenate([[math.log(phi)], z[:-1], [z[-1] + math.log(phi)]])


def cross_cov_loop(targets, pts: np.ndarray, params: CovParams,
                   spatial: bool = False) -> np.ndarray:
    """Oracle for ``cross_cov_vector`` on many targets: one row per target."""
    rows = []
    for t in targets:
        dlat, dlon, dt = t.lat - pts[:, 0], wrap_dlon(t.lon - pts[:, 1]), t.t - pts[:, 2]
        d = scaled_distance((dlat * dlat, dlon * dlon, dt * dt), params, spatial)
        rows.append(params.phi * np.exp(-d))
    return np.array(rows).reshape(len(rows), pts.shape[0])


def rg_corr_loop(targets, block: YearBlock) -> np.ndarray:
    """Oracle for the reference family's cross-correlations: one
    ``rg_corr_vector`` call per target."""
    return np.array([rg_corr_vector(t.lat, t.lon, block.lat, block.lon)
                     for t in targets]).reshape(len(targets), block.m)


class GroupedLags:
    """Full per-block squared-lag matrices, grouped by identical geometry.

    Blocks that share the exact same (lat, lon, t) arrays share one
    covariance factorization per evaluation of ``grouped_nll``.
    """

    def __init__(self, blocks, spatial: bool):
        self.spatial = spatial
        self.groups = []  # (sq_lags, [(block_index, y), ...])
        for idx, b in enumerate(blocks):
            if b.m == 0:
                continue
            pts = b.points
            for g in self.groups:
                ref = g["pts"]
                if ref.shape == pts.shape and np.array_equal(ref, pts):
                    g["ys"].append((idx, b.values))
                    break
            else:
                self.groups.append({"pts": pts, "sq_lags": cross_sq_lags(pts, pts),
                                    "ys": [(idx, b.values)], "year": b.year})
        self.n_obs = sum(b.m for b in blocks)


def assemble_group(group, params: CovParams, spatial: bool):
    """(D, E, K, Sigma) of one geometry group, as full matrices."""
    D = scaled_distance(group["sq_lags"], params, spatial)
    E = np.exp(-D)
    K = params.phi * E
    Sigma = K + params.sigma2 * np.eye(K.shape[0])
    return D, E, K, Sigma


def grouped_nll(x, prepared: GroupedLags, template: CovParams, want_grad: bool):
    """Oracle for the full-parameter Gaussian objective at
    x = (log phi, log theta_k..., log sigma2): full matrices, raw-parameter
    gradient.

    Same value and log-parameter gradient, computed from full m x m lag
    matrices and the raw-scale derivative d Sigma / d theta = K D' / theta^3,
    then chained to log-parameters.
    """
    spatial = prepared.spatial
    try:
        params = _decode(x, template, spatial)
    except InvalidParameterError:
        return (PENALTY, np.zeros_like(x)) if want_grad else PENALTY
    phi, tlat, tlon, tt, s2 = (params.phi, params.theta_lat, params.theta_lon,
                               params.theta_t, params.sigma2)
    ll = 0.0
    g = np.zeros(5)  # d ll / d (phi, tlat, tlon, tt, s2), raw scale
    for group in prepared.groups:
        D, E, K, Sigma = assemble_group(group, params, spatial)
        m = K.shape[0]
        L = chol_spd(Sigma, phi, group["year"])
        logdet = 2.0 * np.sum(np.log(np.diag(L)))
        nb = len(group["ys"])
        quad = 0.0
        A = np.zeros_like(K)
        for _, y in group["ys"]:
            alpha = sla.cho_solve((L, True), y, check_finite=False)
            quad += float(y @ alpha)
            A += np.outer(alpha, alpha)
        ll += -0.5 * (nb * logdet + quad + nb * m * LOG_2PI)
        if want_grad:
            M = A - nb * _spd_inverse(L)   # sum_b (alpha alpha' - Sigma^-1)
            g[0] += 0.5 * float(np.sum(M * E))
            R = M * K
            Dsafe = np.where(D > 0.0, D, 1.0)
            ranges = (tlat, tlon) if spatial else (tlat, tlon, tt)
            for k, (theta, sq) in enumerate(zip(ranges, group["sq_lags"]), 1):
                g[k] += 0.5 / theta**3 * float(np.sum(R * sq / Dsafe))
            g[4] += 0.5 * float(np.trace(M))
    if not want_grad:
        return -ll
    glog = g * np.array([phi, tlat, tlon, tt, s2])
    if spatial:
        glog = glog[[0, 1, 2, 4]]
    return -ll, -glog


class PackedLags:
    """``gaussian._Prepared`` without its buffers: the packed pairs alone.

    ``blocks`` holds each nonempty block's (year, rows, cols, flat,
    pairs, obs): lower-triangle indices, their column-major flat index
    in the block's own m x m matrix, and slices of the pairs and values.
    """

    def __init__(self, blocks, spatial: bool):
        self.spatial = spatial
        n_ranges = 2 if spatial else 3
        self.blocks, lags, values = [], [np.empty((n_ranges, 0))], [np.empty(0)]
        p = n = 0
        for b in blocks:
            if b.m == 0:
                continue
            cols, rows = np.triu_indices(b.m, 1)
            d = b.points[rows] - b.points[cols]
            d[:, 1] = wrap_dlon(d[:, 1])
            lags.append((d * d)[:, :n_ranges].T)
            values.append(b.values)
            self.blocks.append((b.year, rows, cols, rows + b.m * cols,
                                slice(p, p + rows.size), slice(n, n + b.m)))
            p, n = p + rows.size, n + b.m
        self.lags, self.values = np.hstack(lags), np.concatenate(values)


def packed_nll(x, prepared: PackedLags, want_grad: bool):
    """Oracle for the full-parameter Gaussian objective at
    x = (log phi, log theta_k..., log sigma2): packed pairs, a fresh
    Sigma per block, its inverse gathered block by block."""
    with np.errstate(over="ignore"):
        v = np.exp(np.append(x, -2.0 * x[1:-1]))
    if not (np.all(np.isfinite(v)) and v[0] > 0.0):
        return (PENALTY, np.zeros_like(x)) if want_grad else PENALTY
    phi, s2, inv2 = float(v[0]), float(v[x.size - 1]), v[x.size:]
    with np.errstate(over="ignore"):
        D = np.sqrt(inv2 @ prepared.lags)
    E = np.exp(-D)
    K = phi * E
    ll = diag = 0.0
    W = np.empty_like(E) if want_grad else None
    for year, rows, cols, flat, pairs, obs in prepared.blocks:
        y = prepared.values[obs]
        m = y.size
        Sigma = np.empty(m * m)
        Sigma[flat] = K[pairs]
        Sigma[::m + 1] = phi + s2
        L = chol_spd(Sigma.reshape(m, m, order="F"), phi, year)
        alpha = dpotrs(L, y, lower=1)[0]
        ll -= float(np.sum(np.log(L.diagonal()))) + 0.5 * (
            float(y @ alpha) + m * LOG_2PI)
        if want_grad:
            inv, info = dpotri(L, lower=1, overwrite_c=1)
            if info != 0:
                raise FactorizationError(f"dpotri failed with info={info}", year)
            w = W[pairs]
            np.multiply(alpha[rows], alpha[cols], out=w)
            w -= inv.reshape(-1, order="F")[flat]
            diag += float(alpha @ alpha - inv.trace())
    if not want_grad:
        return -ll
    g_phi, g_theta = _kernel_grad(prepared, W, D, E, inv2, phi, 0.5 * diag)
    return -ll, -np.hstack([g_phi, g_theta, 0.5 * s2 * diag])


def lbfgsb_minimize(fun, x0, bounds=None):
    """Oracle for ``gaussian.lbfgsb``: scipy's ``minimize`` with the same options."""
    return optimize.minimize(fun, x0, jac=True, method="L-BFGS-B",
                             bounds=None if bounds is None else list(zip(*bounds)),
                             options=LBFGS_OPTIONS)


def scalar_laplace_loglik(y, phi, sigma, nu):
    """Laplace approximation to log p(y) for one t-noise observation.

    The model is y = f + sigma * T with f ~ N(0, phi) and T a standard
    t with nu degrees of freedom.  With h(f) = log t(y - f) + log N(f)
    the exact log-joint and f_hat its *global* maximiser, the value is
    h(f_hat) + log(2 pi) / 2 - log(-h''(f_hat)) / 2.

    Brute force throughout, nothing shared with the library: scipy
    log-densities, a dense grid over [min(0, y), max(0, y)] (every
    stationary point lies there, since outside it the prior and the
    likelihood pull the same way), a bounded Brent refinement between
    the best grid point's neighbours, and a central second difference
    for the curvature.
    """
    sd = math.sqrt(phi)

    def log_joint(f):
        return (stats.t.logpdf(y - f, nu, scale=sigma)
                + stats.norm.logpdf(f, 0.0, sd))

    lo, hi = min(0.0, y), max(0.0, y)
    pad = 0.01 * (hi - lo) + 0.01 * min(sigma, sd)
    grid = np.linspace(lo - pad, hi + pad, 4001)
    i = int(np.argmax(log_joint(grid)))
    assert 0 < i < grid.size - 1
    res = optimize.minimize_scalar(
        lambda f: -log_joint(f), bounds=(grid[i - 1], grid[i + 1]),
        method="bounded", options={"xatol": 1e-12 * (1.0 + abs(y))})
    f_hat = float(res.x)
    h = 1e-4 * min(sigma, sd)
    curv = -(log_joint(f_hat + h) - 2.0 * log_joint(f_hat)
             + log_joint(f_hat - h)) / (h * h)
    assert curv > 0.0
    return float(log_joint(f_hat) + 0.5 * math.log(2.0 * math.pi)
                 - 0.5 * math.log(curv))


def t_log_gamma_ratio(nu):
    """log Gamma((nu + 1) / 2) - log Gamma(nu / 2), sharing nothing with the library.

    The math.lgamma difference below nu = 100.  From there, where that
    difference cancels, the asymptotic series 1/2 log a - 1/(8a) +
    1/(192 a^3) - 1/(640 a^5) + 17/(14336 a^7) in a = nu / 2, whose
    relative error is below 1e-16 for a >= 50.
    """
    if nu < 100.0:
        return math.lgamma(0.5 * (nu + 1.0)) - math.lgamma(0.5 * nu)
    a = 0.5 * nu
    return (0.5 * math.log(a) - 1.0 / (8.0 * a) + 1.0 / (192.0 * a**3)
            - 1.0 / (640.0 * a**5) + 17.0 / (14336.0 * a**7))


def _sq_lags_pair(p1, p2):
    a1 = as_point_array(p1)[0]
    a2 = as_point_array(p2)[0]
    dlat = a1[0] - a2[0]
    dlon = float(wrap_dlon(a1[1] - a2[1]))
    dt = a1[2] - a2[2]
    return dlat * dlat, dlon * dlon, dt * dt


def anisotropic_distance(p1, p2, params: CovParams, spatial=False) -> float:
    """Scaled Euclidean lag between two points, one pair at a time.

    Each axis lag is divided by its range; with ``spatial`` the time
    term is dropped entirely.
    """
    dlat2, dlon2, dt2 = _sq_lags_pair(p1, p2)
    d2 = dlat2 / params.theta_lat**2 + dlon2 / params.theta_lon**2
    if not spatial:
        d2 += dt2 / params.theta_t**2
    return math.sqrt(d2)


def exp_cov(p1, p2, params: CovParams, spatial=False) -> float:
    """Scalar exponential covariance phi * exp(-d); never the nugget."""
    return params.phi * math.exp(-anisotropic_distance(p1, p2, params, spatial))


def _latlon(x) -> tuple[float, float]:
    """(lat, lon) of a location given as a pair, triple, or point."""
    if isinstance(x, SpaceTimePoint):
        return x.lat, x.lon
    arr = np.asarray(x, dtype=float).ravel()
    if arr.size not in (2, 3):
        raise InvalidParameterError(
            "a location needs (lat, lon) or (lat, lon, t)")
    return float(arr[0]), float(wrap_lon(arr[1]))


def rg_distance(x1, x2, tropic=True) -> float:
    """Scalar RG kilometre distance between two locations.

    Flat-earth metric: meridional km from KM_PER_DEG, zonal km scaled
    by cos(midpoint latitude) and, when ``tropic``, by the tropic
    factor at the midpoint latitude.
    """
    lat1, lon1 = _latlon(x1)
    lat2, lon2 = _latlon(x2)
    mid = 0.5 * (lat1 + lat2)
    dlat_km = (lat1 - lat2) * KM_PER_DEG
    dlon_km = float(wrap_dlon(lon1 - lon2)) * KM_PER_DEG * math.cos(math.radians(mid))
    a = rg_tropic_factor(mid) if tropic else 1.0
    return math.hypot(dlat_km, a * dlon_km)


def rg_cov(x1, x2, phi_hat, tropic=True) -> float:
    """Scalar RG covariance between two locations with plug-in variance."""
    if not (np.isfinite(phi_hat) and phi_hat > 0.0):
        raise InvalidParameterError(f"phi_hat must be positive, got {phi_hat}")
    d = rg_distance(x1, x2, tropic)
    c = RG_DEFAULT
    return phi_hat * (c.gauss_weight * math.exp(-(d / c.gauss_scale_km) ** 2)
                      + c.exp_weight * math.exp(-d / c.exp_scale_km))


def reference_prior_var(params) -> float:
    """The reference law's variance with no data, phi_hat (1 + ratio)."""
    return params.phi_hat * (1.0 + RG_DEFAULT.noise_signal_ratio)


def predict_reference_oracle(target: SpaceTimePoint, block: YearBlock,
                             params) -> GaussianPredictive:
    """Reference-covariance kriging for one year, as its own routine.

    Correlation space (unit diagonal plus the fixed noise-to-signal
    nugget), a plain Cholesky, the variance rescaled by phi_hat.
    """
    ratio = RG_DEFAULT.noise_signal_ratio
    if block.m == 0:
        return GaussianPredictive(0.0, reference_prior_var(params))
    A = rg_corr_matrix(block.lat, block.lon) + ratio * np.eye(block.m)
    L = sla.cholesky(A, lower=True, check_finite=False)
    r_star = rg_corr_vector(target.lat, target.lon, block.lat, block.lon)
    alpha = sla.cho_solve((L, True), block.values, check_finite=False)
    w = sla.solve_triangular(L, r_star, lower=True, check_finite=False)
    corr_var = 1.0 + ratio - float(w @ w)
    return GaussianPredictive(float(r_star @ alpha),
                              params.phi_hat * min(max(corr_var, 0.0), 1.0 + ratio))


def predict_gaussian_oracle(target: SpaceTimePoint, block: YearBlock,
                            params: CovParams, spatial=False) -> GaussianPredictive:
    """Gaussian-nugget kriging for one year, kernel built in place.

    The prior without data; the variance clamped into [0, phi + sigma2].
    """
    prior_var = params.phi + params.sigma2
    if block.m == 0:
        return GaussianPredictive(0.0, prior_var)
    K = cov_matrix(block.points, params, spatial)
    L = chol_spd(K + params.sigma2 * np.eye(block.m), params.phi, block.year)
    alpha = sla.cho_solve((L, True), block.values, check_finite=False)
    k_star = cross_cov_vector(target, block.points, params, spatial)[0]
    w = sla.solve_triangular(L, k_star, lower=True, check_finite=False)
    var = min(max(prior_var - float(w @ w), 0.0), prior_var)
    return GaussianPredictive(float(k_star @ alpha), var)


def per_fold_oracle(predict, targets, block, removals, params) -> list:
    """``predict`` once per fold on the block without ``removals[f]``;
    None where it raised a MappingError or LinAlgError."""
    preds = []
    for target, rem in zip(targets, removals):
        keep = np.ones(block.m, dtype=bool)
        keep[rem] = False
        try:
            preds.append(predict(target, block.subset(keep), params))
        except (MappingError, np.linalg.LinAlgError):
            preds.append(None)
    return preds


def reference_folds_oracle(targets, block, removals, params) -> list:
    """Reference folds from one correlation-space factor, per fold on failure."""
    if block.m > 0:
        ratio = RG_DEFAULT.noise_signal_ratio
        A = rg_corr_matrix(block.lat, block.lon) + ratio * np.eye(block.m)
        r_star = rg_corr_loop(targets, block)
        try:
            preds = holdout_predictions(A, block.values, r_star, 1.0 + ratio,
                                        removals)
            return [GaussianPredictive(p.mean, params.phi_hat * p.variance)
                    for p in preds]
        except np.linalg.LinAlgError:
            pass
    return per_fold_oracle(predict_reference_oracle, targets, block, removals,
                           params)


def gaussian_folds_oracle(targets, block, removals, params,
                          spatial=False) -> list:
    """Gaussian-nugget folds from one factor, per fold on failure."""
    if block.m > 0:
        pts = block.points
        Sigma = cov_matrix(pts, params, spatial) + params.sigma2 * np.eye(block.m)
        k_star = cross_cov_loop(targets, pts, params, spatial)
        try:
            return holdout_predictions(Sigma, block.values, k_star,
                                       params.phi + params.sigma2, removals)
        except np.linalg.LinAlgError:
            pass
    return per_fold_oracle(
        lambda t, b, p: predict_gaussian_oracle(t, b, p, spatial),
        targets, block, removals, params)


def profile_table(records) -> ProfileTable:
    """The ``ProfileTable`` holding ``records``, in order."""
    recs = list(records)
    levels = np.array([lv for r in recs for lv in r.levels]).reshape(-1, 2)
    return ProfileTable([r.source_id for r in recs], *(np.array(
        [getattr(r, a) for r in recs], np.int64 if a == "year" else float)
        for a in ("lat", "lon", "year", "day")),
        np.cumsum([0] + [len(r.levels) for r in recs]), *levels.T)


def write_profile_records(records, path) -> None:
    """Write ``ProfileRecord``s, one row per level, in the profile schema."""
    write_table(path, PROFILE_HEADER, (
        (rec.source_id, rec.lat, rec.lon, rec.year, rec.day, pressure, value)
        for rec in records for pressure, value in rec.levels))


def level_obs_to_profiles(blocks, pressure: float) -> list[ProfileRecord]:
    """One single-level ``ProfileRecord`` per block observation, numbering
    rows without source ids by their position: the record path that
    ``simulate`` wrote through before ``write_profiles`` took blocks."""
    records = []
    for block in blocks:
        for k in range(block.m):
            sid = (str(block.source_ids[k]) if block.source_ids is not None
                   else f"obs{len(records):07d}")
            records.append(ProfileRecord(
                sid, float(block.lat[k]), float(block.lon[k]), int(block.year),
                float(block.t[k]), ((pressure, float(block.values[k])),)))
    return records


def degenerate_variance_oracle(values: np.ndarray, var: float) -> bool:
    """True when a sample variance is at or below the squared rounding
    level of the data magnitude."""
    scale = float(np.mean(np.square(values))) if values.size else 0.0
    eps = float(np.finfo(float).eps)
    return var <= (8.0 * eps) ** 2 * max(scale, np.finfo(float).tiny)


def pooled_variance_oracle(blocks) -> float:
    """The pooled window variance as it was before it took ``min_obs``."""
    values = [b.values for b in blocks if b.m > 0]
    total = sum(v.shape[0] for v in values)
    if total < 2:
        raise InsufficientDataError(
            f"variance estimate needs >= 2 observations, got {total}")
    values = np.concatenate(values)
    var = float(np.var(values, ddof=1))
    if var <= 0.0 or degenerate_variance_oracle(values, var):
        raise InsufficientVarianceError("window values are numerically constant")
    return var


def check_window_oracle(blocks, min_obs: int) -> int:
    """The kriging fits' own window check: the count, then identical values."""
    n_obs = sum(b.m for b in blocks)
    if n_obs < min_obs:
        raise InsufficientDataError(
            f"{n_obs} observations < required minimum {min_obs}")
    values = np.concatenate([b.values for b in blocks if b.m > 0])
    if float(np.ptp(values)) == 0.0:
        raise InsufficientVarianceError("all window values identical")
    return n_obs


def admission_chain_oracle(blocks, min_obs: int, reference: bool):
    """(outcome, variance) of a window under the checks that one admission
    function replaced: ``fit_grid_point``'s count gate, then, for the
    fitted families, ``check_window``, then the pooled variance, and the
    first parameters built from it (``ReferenceParams`` for the reference
    family, the default start otherwise).  The outcome is a cell status,
    an exception type that raises out of the cell, or "admitted" with
    the variance."""
    if sum(b.m for b in blocks) < min_obs:
        return "insufficient_data", None
    try:
        if not reference:
            check_window_oracle(blocks, min_obs)
        var = pooled_variance_oracle(blocks)
        if reference:
            ReferenceParams(var / (1.0 + RG_DEFAULT.noise_signal_ratio))
        else:
            CovParams(0.5 * var, 5.0, 5.0, 5.0, 0.5 * var)
    except InsufficientDataError:
        return "insufficient_data", None
    except InsufficientVarianceError:
        return "no_variance", None
    except InvalidParameterError:
        return InvalidParameterError, None
    return "admitted", var


@dataclass(frozen=True)
class HeldOut:
    """One held-out observation with its position in the dataset."""

    year_pos: int
    obs_index: int
    year: int
    source_id: str | None
    lat: float
    lon: float
    day: float
    value: float


def held_out(blocks, year_pos: int, obs_index: int) -> HeldOut:
    b = blocks[year_pos]
    sid = None if b.source_ids is None else str(b.source_ids[obs_index])
    return HeldOut(year_pos, obs_index, b.year, sid,
                   float(b.lat[obs_index]), float(b.lon[obs_index]),
                   float(b.t[obs_index]), float(b.values[obs_index]))


def loo_partition(blocks):
    """Leave-one-observation-out folds: (held-out, remaining blocks).

    Only the held observation is removed from its year.
    """
    for year_pos, block in enumerate(blocks):
        for obs_index in range(block.m):
            keep = np.ones(block.m, dtype=bool)
            keep[obs_index] = False
            remaining = list(blocks)
            remaining[year_pos] = block.subset(keep)
            yield held_out(blocks, year_pos, obs_index), remaining


def lofo_partition(blocks):
    """Leave-one-float-out folds: the held source leaves every year."""
    for block in blocks:
        if block.source_ids is None:
            raise InputError("track-level holdout requires source_ids")
    for year_pos, block in enumerate(blocks):
        for obs_index in range(block.m):
            sid = block.source_ids[obs_index]
            remaining = [b.subset(b.source_ids != sid) for b in blocks]
            yield held_out(blocks, year_pos, obs_index), remaining


def run_cv_per_fold(data, grid, field_, variant, spec, scheme="looo",
                    eval_filter=None, radius_steps=2.0) -> CVResult:
    """Cross-validation one fold at a time: the oracle for ``run_cv``.

    Every held-out observation gets its own window with the fold's
    removal applied, then one ``family.predict`` call, so each fold
    rebuilds its kernel and factorizes it afresh.
    """
    if scheme not in ("looo", "lofo"):
        raise InvalidParameterError(f"unknown cv scheme {scheme!r}")
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
        for obs_index in range(block.m):
            o = held_out(data, year_pos, obs_index)
            if eval_filter is not None and not (f_lo <= o.day <= f_hi):
                continue
            if lookup is None:
                result.n_skipped += 1
                continue
            cells, clat, clon = lookup
            cflat = [grid.flat_index(*ij) for ij, _, _, _ in cells]
            ci = nearest_cell_lexsort(o.lat, o.lon, clat, clon, cflat)
            ij, params, lat, lon = cells[ci]
            d = math.hypot(lat - o.lat, float(wrap_dlon(lon - o.lon)))
            if d > cap:
                result.n_skipped += 1
                continue
            center = SpaceTimePoint(lat, lon, grid.eval_time)
            wmask = window_mask(block, center, spec)
            if scheme == "looo":
                wmask[obs_index] = False
            else:
                wmask &= block.source_ids != o.source_id
            target = SpaceTimePoint(o.lat, o.lon, o.day)
            try:
                pred = family.predict(target, block.subset(wmask), params)
            except (MappingError, np.linalg.LinAlgError):
                result.n_failed += 1
                continue
            result.records.append(CVRecord(
                year_pos, obs_index, o.year, o.source_id, o.lat, o.lon,
                o.day, o.value, pred, variant.id, ij))
    return result


def stdtrit_half_width(pred: StudentPredictive, alpha) -> np.ndarray:
    """Half-widths of the central (1 - alpha) intervals, Newton started
    from max(sd z(1 - alpha), s t(1 - alpha), 0) with scipy's t quantile.

    The oracle for the library's normal-quantile start: the same rule and
    steps, a start nearer the root.
    """
    a = np.asarray(alpha, dtype=float)
    tau, w = _scale_mixture(pred)
    h = np.maximum(np.maximum(math.sqrt(pred.f_var) * ndtri(1.0 - a),
                              pred.scale * stdtrit(pred.dof, 1.0 - a)), 0.0)
    for _ in range(HALF_WIDTH_MAX_ITER):
        r = h[..., None] / tau
        gap = a / 2.0 - np.sum(w * ndtr(-r), axis=-1)
        dens = np.sum(w * np.exp(-0.5 * r * r) / tau, axis=-1) / math.sqrt(2.0 * math.pi)
        step = gap / dens
        h = h - step
        if np.all(np.abs(step) <= HALF_WIDTH_RTOL * h):
            break
    return h


def deviation_sample(pred: StudentPredictive, n_samples: int,
                     seed: int) -> np.ndarray:
    """Seeded draws of (observation - f_mean) under the Student predictive law.

    The Monte Carlo oracle for the library's quadrature law.  Draw
    order: latent normals first, then the inverse-CDF t uniforms.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n_samples)
    u = rng.random(n_samples)
    t = stdtrit(pred.dof, u)
    t[u == 0.0] = -math.inf  # stdtrit(dof, 0) is +inf; the 0-quantile is -inf
    return math.sqrt(pred.f_var) * z + pred.scale * t


def subtract_mean_loop(blocks, mean, mode="spatio-temporal", eval_time=None):
    """Residualize one observation at a time, then regroup by year.

    The per-observation oracle for ``ingest.subtract_mean``: Python
    rounding for the nearest cell, an explicit basis row with ``math``
    harmonics, and one dot product per observation.  Returns (blocks,
    number excluded); a year with nothing kept has no block.
    """
    g = mean.grid
    omega = 2.0 * math.pi / 365.25
    by_year, n_excluded = {}, 0
    for b in blocks:
        for k in range(b.m):
            lat, lon, day = float(b.lat[k]), float(b.lon[k]), float(b.t[k])
            i = min(max(round((lat - g.lat_min) / g.lat_step), 0), g.n_lat - 1)
            j = min(max(round((float(wrap_lon(lon)) - g.lon_min) / g.lon_step),
                        0), g.n_lon - 1)
            beta = mean.coefs.get((i, j))
            if beta is None:
                n_excluded += 1
                continue
            t = eval_time if mode == "spatial" else day
            dlat = lat - g.lats[i]
            dlon = float(wrap_dlon(lon - g.lons[j]))
            row = [1.0, dlat, dlon, dlat * dlat, dlon * dlon, dlat * dlon]
            for h in range(1, mean.n_harmonics + 1):
                row += [math.sin(omega * h * t), math.cos(omega * h * t)]
            mu = float(beta[0]) if beta.shape[0] == 1 else float(np.dot(row, beta))
            by_year.setdefault(b.year, []).append(
                (lat, lon, day, b.values[k] - mu, b.source_ids[k]))
    return ([YearBlock(year, *map(np.array, zip(*rows)))
             for year, rows in sorted(by_year.items())], n_excluded)


def parse_profiles_rows(path) -> list[ProfileRecord]:
    """Read the profile CSV one row at a time into ``ProfileRecord``s.

    The row-parser oracle for the columnar ``ingest.parse_profiles``: a
    profile is flushed (and its latitude checked) when the next key
    starts or the file ends, and the first fault met raises.
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
        reader = csv_rows(fh)
        header = next(reader, None)
        if header is None:
            return records
        _check_header(path, header, PROFILE_HEADER)
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


def interpolate_to_pressure(profile: ProfileRecord, level: float) -> float | None:
    """Linear vertical interpolation by ``np.interp``; None outside the range."""
    if not level > 0.0:
        raise InvalidParameterError(f"pressure level must be > 0, got {level}")
    pressures = np.array([p for p, _ in profile.levels])
    if level < pressures[0] or level > pressures[-1]:
        return None
    return float(np.interp(level, pressures,
                           np.array([v for _, v in profile.levels])))


def profiles_to_level_loop(records, level: float) -> list[YearBlock]:
    """Per-record oracle for ``ingest.profiles_to_level``."""
    by_year: dict[int, list] = {}
    for rec in records:
        value = interpolate_to_pressure(rec, level)
        if value is not None:
            by_year.setdefault(rec.year, []).append(
                (rec.lat, rec.lon, rec.day, value, rec.source_id))
    return [YearBlock(year, *map(np.array, zip(*by_year[year])))
            for year in sorted(by_year)]


def apply_filters_loop(records, time_window=None, mask=frozenset(),
                       cell_size: float = 1.0) -> list:
    """Per-record oracle for ``ingest.apply_filters``."""
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


def nearest_argsort(d, k: int) -> np.ndarray:
    """The k smallest distances' indices, nearest first, ties to the
    lower index: the stable full sort's prefix."""
    return np.argsort(d, kind="stable")[:k]


def nearest_rows_scan(lat, lon, centers, k: int):
    """Oracle for ``ingest._nearest_rows``: distances from each center to
    every row, then the stable full sort's prefix."""
    for clat, clon in centers:
        d = rg_distances(clat, clon, lat, lon, tropic=False)
        rows = nearest_argsort(d, k)
        yield rows, d[rows]


def window_mask(block: YearBlock, center: SpaceTimePoint, spec) -> np.ndarray:
    """The closed-window predicate over every row of the block."""
    return ((np.abs(block.lat - center.lat) <= spec.x_win)
            & (np.abs(wrap_dlon(block.lon - center.lon)) <= spec.x_win)
            & (np.abs(block.t - center.t) <= spec.t_win))


def window_rows_scan(block: YearBlock, center: SpaceTimePoint,
                     spec) -> np.ndarray:
    """Oracle for ``windows.window_rows``: the predicate over the whole block."""
    return np.flatnonzero(window_mask(block, center, spec))


def nearest_cell_lexsort(lat: float, lon: float, cell_lat, cell_lon,
                         flat) -> int:
    """Oracle for ``windows.nearest_cell_index``: the nearest cell in
    degree metric, ties to the lower flat index by a full lexsort."""
    d2 = (cell_lat - lat) ** 2 + wrap_dlon(cell_lon - lon) ** 2
    return int(np.lexsort((flat, d2))[0])


def cell_for_scan(grid, lat: float, lon: float):
    """Oracle for the mean-field reader's center lookup: the first
    nearest grid index on each axis, or None off the lattice (1e-6)."""
    i = int(np.argmin(np.abs(grid.lats - lat)))
    j = int(np.argmin(np.abs(wrap_dlon(grid.lons - lon))))
    if abs(grid.lats[i] - lat) > 1e-6 or abs(wrap_dlon(grid.lons[j] - lon)) > 1e-6:
        return None
    return i, j


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
