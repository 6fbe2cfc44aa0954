"""Exact inference for the Gaussian-nugget local GP model.

The model: within a window, each year's residuals are an independent
draw of a zero-mean GP with the anisotropic exponential kernel, plus
iid Gaussian noise.  The log-likelihood is the sum of independent
multivariate-normal log-densities over year blocks; all solves go
through Cholesky factorizations, never explicit inverses of the full
system (the inverse is formed only where the gradient's trace term
genuinely needs it).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy

from .covariance import (
    CovParams,
    cov_matrix,
    cross_cov_vector,
    wrap_dlon,
    wrap_lon,
)
from .errors import (
    FactorizationError,
    InputError,
    InsufficientDataError,
    InsufficientVarianceError,
    InvalidParameterError,
)

LOG_2PI = math.log(2.0 * math.pi)
PENALTY = 1e12  # objective at points whose exp transform over- or underflows


def _scipy_ext(package: str, name: str):
    """scipy's compiled module ``scipy.<package>.<name>``, without its package.

    Each package's ``__init__`` imports ``scipy._lib._array_api``, which
    pulls in numpy.f2py, numpy.testing, numpy.ma and more: about half of
    a process's start-up.  The compiled cores used here (LAPACK, the
    special-function ufuncs, L-BFGS-B) need none of it.  The module is
    found in the package's directory and registered under its real
    name, so a later import of the package reuses it.
    """
    full = f"scipy.{package}.{name}"
    if full not in sys.modules:
        where = os.path.join(scipy.__path__[0], package)
        spec = importlib.machinery.PathFinder.find_spec(full, [where])
        if spec is None:
            raise ImportError(f"scipy's compiled {name} is not in {where}", name=full)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[full] = module
    return sys.modules[full]


_flapack = _scipy_ext("linalg", "_flapack")
dpotrf, dpotri, dpotrs, dtrtrs = (_flapack.dpotrf, _flapack.dpotri,
                                  _flapack.dpotrs, _flapack.dtrtrs)


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor with a zeroed upper triangle, the LAPACK call
    of ``scipy.linalg.cholesky``; LinAlgError where ``a`` is not positive
    definite."""
    L, info = dpotrf(a, lower=1, clean=1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    return L


# Cephes' ndtri (S. L. Moshier): the rational approximations of the normal
# quantile for |p - 1/2| <= 1/2 - exp(-2), then in z = 1/sqrt(-2 log p) for
# z above 1/8 and below it.  Each list runs from the leading coefficient;
# a Q list's monic leading 1 is implied.
_NDTRI_EXPM2 = 0.13533528323661269189  # exp(-2)
_NDTRI_S2PI = 2.50662827463100050242   # sqrt(2 pi)
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
             -5.66762857469070293439E1, 1.39312609387279679503E1,
             -1.23916583867381258016E0)
_NDTRI_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
             8.63602421390890590575E1, -2.25462687854119370527E2,
             2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
             5.71628192246421288162E1, 4.40805073893200834700E1,
             1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2,
             -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
             4.13172038254672030440E1, 1.50425385692907503408E1,
             2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
             3.93881025292474443415E0, 1.33303460815807542389E0,
             2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6,
             6.23974539184983293730E-9)
_NDTRI_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
             1.37702099489081330271E0, 2.16236993594496635890E-1,
             1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _ratio(x: float, p, q) -> float:
    """x p(x) / q(x), q monic, in Cephes' order: Horner's rule for each
    polynomial (polevl, p1evl), then x p(x), then the quotient."""
    num, den = p[0], x + q[0]
    for c in p[1:]:
        num = num * x + c
    for c in q[1:]:
        den = den * x + c
    return x * num / den


def _ndtri(p: float) -> float:
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    if p < 0.0 or p > 1.0:
        return math.nan
    upper = p > 1.0 - _NDTRI_EXPM2
    y = 1.0 - p if upper else p
    if y > _NDTRI_EXPM2:
        y -= 0.5
        y2 = y * y
        return (y + y * _ratio(y2, _NDTRI_P0, _NDTRI_Q0)) * _NDTRI_S2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    coef = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = x - math.log(x) / x - _ratio(z, *coef)
    return x if upper else -x


def ndtri(p):
    """Standard normal quantile, to the bit ``scipy.special.ndtri``.

    A float for a scalar ``p``, else an array of its shape; -inf at 0,
    inf at 1 and nan outside [0, 1].
    """
    p = np.asarray(p, dtype=float)
    if p.ndim == 0:
        return _ndtri(float(p))
    return np.fromiter(map(_ndtri, p.ravel().tolist()), float, p.size).reshape(p.shape)


@dataclass
class YearBlock:
    """One year's worth of mean-subtracted observations.

    Arrays all share length m (possibly zero).  ``source_ids`` is
    optional; float-level operations (LOFO) require it.
    """

    year: int
    lat: np.ndarray
    lon: np.ndarray
    t: np.ndarray
    values: np.ndarray
    source_ids: np.ndarray | None = None

    def __post_init__(self):
        self.lat = np.asarray(self.lat, dtype=float)
        self.lon = wrap_lon(np.asarray(self.lon, dtype=float))
        self.t = np.asarray(self.t, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        m = self.lat.shape[0]
        for name in ("lon", "t", "values"):
            if getattr(self, name).shape != (m,):
                raise InputError(f"YearBlock field {name} length mismatch")
        if np.any(np.abs(self.lat) > 90.0):
            raise InvalidParameterError("YearBlock latitude outside [-90, 90]")
        if self.source_ids is not None:
            self.source_ids = np.asarray(self.source_ids)
            if self.source_ids.shape != (m,):
                raise InputError("YearBlock source_ids length mismatch")

    @property
    def m(self) -> int:
        return self.lat.shape[0]

    @cached_property
    def by_lat(self) -> tuple:
        """(order, lat, lon, t) in stable latitude order, once per block."""
        order = np.argsort(self.lat, kind="stable")
        return order, self.lat[order], self.lon[order], self.t[order]

    @property
    def points(self) -> np.ndarray:
        """(m, 3) array of (lat, lon, t) rows."""
        return np.column_stack([self.lat, self.lon, self.t])

    def subset(self, mask) -> "YearBlock":
        mask = np.asarray(mask)
        sid = self.source_ids[mask] if self.source_ids is not None else None
        return YearBlock(self.year, self.lat[mask], self.lon[mask],
                         self.t[mask], self.values[mask], sid)


@dataclass(frozen=True)
class GaussianPredictive:
    """Predictive distribution for a new observation (noise included)."""

    mean: float
    variance: float


@dataclass
class FitReport:
    """Outcome summary of a maximum-likelihood fit (a Gaussian fit's grad_norm
    is over log theta and log tau; its n_evals counts the closing phi_hat one)."""

    loglik: float
    grad_norm: float
    n_iter: int
    n_evals: int
    converged: bool
    message: str
    n_obs: int
    n_mode_failures: int = 0


MIN_OBS = 20     # fewest window observations a fit accepts by default
LBFGS_OPTIONS = {"maxiter": 200, "gtol": 1e-6, "ftol": 1e-9, "maxcor": 20}
RIDGE = 1e-10    # relative to the scale, applied only on chol failure
RIDGE_GROWTH = 100.0
RIDGE_TRIES = 4


def chol_spd(mat: np.ndarray, scale: float,
             year_index: int | None = None) -> np.ndarray:
    """Lower Cholesky factor, escalating a ridge only on failure.

    Only the lower triangle of ``mat`` is read.  The ridge starts at
    RIDGE * scale and grows by RIDGE_GROWTH per retry; after
    RIDGE_TRIES failures a FactorizationError is raised carrying the
    offending year index.
    """
    L, info = dpotrf(mat, lower=1)
    ridge = RIDGE * scale
    for _ in range(RIDGE_TRIES):
        if info == 0:
            return L
        ridged = mat.copy()
        ridged[np.diag_indices_from(mat)] += ridge
        L, info = dpotrf(ridged, lower=1, overwrite_a=1)
        ridge *= RIDGE_GROWTH
    if info == 0:
        return L
    raise FactorizationError("covariance factorization failed", year_index)


def _spd_inverse(L: np.ndarray) -> np.ndarray:
    """Full symmetric inverse from a lower Cholesky factor.

    dpotri leaves the upper triangle as it was, so it is overwritten from
    the lower one in place: the result stays in dpotri's Fortran order,
    which the products of ``holdout_predictions`` round by.
    """
    inv, info = dpotri(L, lower=1)
    if info != 0:
        raise FactorizationError(f"dpotri failed with info={info}")
    upper = np.triu_indices_from(inv, 1)
    inv[upper] = inv.T[upper]
    return inv


class _Prepared:
    """Every nonempty year block's point pairs i > j, packed, and the
    Gaussian objective's buffers.

    ``lags`` is (n_ranges, P): row k holds the squared lat, lon [, t]
    lags of all pairs, block after block, each block's column by
    column.  ``blocks`` holds each block's (year, pairs, obs, Sigma):
    its slices of the pairs and of ``values``, which concatenates the
    blocks' values, and its m x m matrix, an F-ordered view into the
    flat ``sigma``.  ``flat`` and ``diag`` place the pairs and the
    diagonals in ``sigma``; ``rows`` and ``cols`` place the pairs'
    points in ``values`` and in ``alpha``.  ``_nll`` leaves its sill
    MLE in ``phi_hat``.
    """

    def __init__(self, blocks, spatial: bool):
        self.spatial = spatial
        n_ranges = 2 if spatial else 3
        self.sigma = np.empty(sum(b.m * b.m for b in blocks))
        self.blocks, lags, values = [], [np.empty((n_ranges, 0))], [np.empty(0)]
        idx = [[np.empty(0, dtype=np.intp)] for _ in range(4)]
        p = n = s = 0
        for b in blocks:
            if b.m == 0:
                continue
            m = b.m
            cols, rows = np.triu_indices(m, 1)  # column by column, as Sigma is stored
            d = b.points[rows] - b.points[cols]
            d[:, 1] = wrap_dlon(d[:, 1])
            lags.append((d * d)[:, :n_ranges].T)
            values.append(b.values)
            for out, new in zip(idx, (s + rows + m * cols, s + (m + 1) * np.arange(m),
                                      n + rows, n + cols)):
                out.append(new)
            self.blocks.append((b.year, slice(p, p + rows.size), slice(n, n + m),
                                self.sigma[s:s + m * m].reshape(m, m, order="F")))
            p, n, s = p + rows.size, n + m, s + m * m
        self.lags, self.values = np.hstack(lags), np.concatenate(values)
        self.flat, self.diag, self.rows, self.cols = map(np.concatenate, idx)
        self.alpha = np.empty(n)
        self.n_obs = n


def _lag_kernel(prepared: _Prepared, inv2: np.ndarray):
    """(D, E) on the packed pairs: D = sqrt(sum_k lag_k / theta_k^2), E = exp(-D).

    ``inv2`` holds the theta_k^-2.  A vanishing range sends D to inf
    and E to 0, its limit; the caller ignores its overflow.
    """
    D = np.sqrt(inv2 @ prepared.lags)
    return D, np.exp(-D)


def _range_grad(prepared: _Prepared, WE: np.ndarray, D: np.ndarray,
                inv2: np.ndarray) -> np.ndarray:
    """Gradient wrt log theta_k of sum_ij G_ij E_ij, G held fixed.

    ``WE`` holds (G_ij + G_ji) E_ij on the packed pairs and is
    overwritten; the gradient is theta_k^-2 lag_k.(WE / D).
    """
    np.divide(WE, D, out=WE, where=D > 0.0)
    return inv2 * (prepared.lags @ WE)


def _kernel_grad(prepared: _Prepared, W: np.ndarray, D: np.ndarray,
                 E: np.ndarray, inv2: np.ndarray, phi: float, diag: float):
    """Gradient wrt (log phi, log theta_k) of sum_ij G_ij K_ij, G held fixed.

    ``W`` holds G_ij + G_ji on the packed pairs and is overwritten;
    ``diag`` is the trace of G.  With K = phi E off the diagonal and phi
    on it, d/d log phi is phi (W.E + diag) and d/d log theta_k is
    phi theta_k^-2 lag_k.(W E / D).
    """
    W *= E
    g_phi = phi * (float(np.sum(W)) + diag)
    return g_phi, phi * _range_grad(prepared, W, D, inv2)  # phi * inv2 alone may overflow


def _nll(z: np.ndarray, prepared: _Prepared, want_grad: bool):
    """Profiled negative loglik (and gradient) at z = (log theta_k..., log tau).

    Per block C = R(theta) + tau I, tau = sigma2 / phi, and alpha = C^-1 y;
    the sill's MLE phi_hat = sum y'alpha / n goes to ``prepared.phi_hat``.
    The gradient is GPML 5.4.1's W . dC / 2, W = alpha alpha' / phi_hat - C^-1,
    on the packed pairs; each C, then its inverse, lives in ``prepared.sigma``.
    PENALTY, with a zero gradient, where exp(z) or a theta^-2 overflows or
    y'C^-1 y is not positive.
    """
    penalty = (PENALTY, np.zeros_like(z)) if want_grad else PENALTY
    with np.errstate(over="ignore"):
        v = np.exp(np.append(z, -2.0 * z[:-1]))
        if not np.all(np.isfinite(v)):
            return penalty
        D, E = _lag_kernel(prepared, v[z.size:])
    tau, inv2 = float(v[z.size - 1]), v[z.size:]
    sigma, alpha = prepared.sigma, prepared.alpha
    sigma[prepared.flat] = E
    sigma[prepared.diag] = 1.0 + tau
    half_logdet = Q = trace = 0.0
    for year, _, obs, C in prepared.blocks:
        y, a = prepared.values[obs], alpha[obs]
        L = chol_spd(C, 1.0, year)
        a[:] = dpotrs(L, y, lower=1)[0]
        half_logdet += float(np.sum(np.log(L.diagonal())))
        Q += float(y @ a)
        if want_grad:
            inv, info = dpotri(L, lower=1, overwrite_c=1)
            if info != 0:
                raise FactorizationError(f"dpotri failed with info={info}", year)
            C[...] = inv
            trace += float(inv.trace())
    if not Q > 0.0:
        return penalty
    prepared.phi_hat = phi = Q / prepared.n_obs
    f = half_logdet + 0.5 * prepared.n_obs * (math.log(phi) + 1.0 + LOG_2PI)
    if not want_grad:
        return f
    W = alpha[prepared.rows] * (alpha / phi)[prepared.cols] - sigma[prepared.flat]
    W *= E
    g = np.empty(z.size)
    g[:-1] = _range_grad(prepared, W, D, inv2)
    g[-1] = tau * (0.5 * (float(alpha @ alpha) / phi - trace))
    return f, np.negative(g, out=g)


setulb = _scipy_ext("optimize", "_lbfgsb").setulb
# scipy.optimize._lbfgsb_py's tables for setulb's task codes.
STATUS_MESSAGES = {0: "START", 1: "NEW_X", 2: "RESTART", 3: "FG",
                   4: "CONVERGENCE", 5: "STOP", 6: "WARNING", 7: "ERROR",
                   8: "ABNORMAL"}
TASK_MESSAGES = {
    0: "", 301: "", 302: "",
    401: "NORM OF PROJECTED GRADIENT <= PGTOL",
    402: "RELATIVE REDUCTION OF F <= FACTR*EPSMCH",
    501: "CPU EXCEEDING THE TIME LIMIT",
    502: "TOTAL NO. OF F,G EVALUATIONS EXCEEDS LIMIT",
    503: "PROJECTED GRADIENT IS SUFFICIENTLY SMALL",
    504: "TOTAL NO. OF ITERATIONS REACHED LIMIT",
    505: "CALLBACK REQUESTED HALT",
    601: "ROUNDING ERRORS PREVENT PROGRESS",
    602: "STP = STPMAX",
    603: "STP = STPMIN",
    604: "XTOL TEST SATISFIED",
    701: "NO FEASIBLE SOLUTION",
    702: "FACTR < 0",
    703: "FTOL < 0",
    704: "GTOL < 0",
    705: "XTOL < 0",
    706: "STP < STPMIN",
    707: "STP > STPMAX",
    708: "STPMIN < 0",
    709: "STPMAX < STPMIN",
    710: "INITIAL G >= 0",
    711: "M <= 0",
    712: "N <= 0",
    713: "INVALID NBD",
}


def lbfgsb(fun, x0: np.ndarray, bounds=None):
    """Minimize ``fun(x) -> (f, g)`` by L-BFGS-B with LBFGS_OPTIONS.

    Drives scipy's reverse-communication core as ``minimize`` does, to
    the bit, with ``maxls`` 20 and, given ``bounds`` = (lo, hi), x0
    clipped into the box.  A request for the point evaluated last
    reuses its (f, g), so ``nfev`` counts distinct evaluations.  ``fun``
    must not modify x.  Returns (x, f, g, nit, nfev, success, message).
    """
    n, m = x0.size, LBFGS_OPTIONS["maxcor"]
    lo, hi = (np.zeros(n), np.zeros(n)) if bounds is None else bounds
    x = np.array(x0, dtype=float) if bounds is None else np.clip(x0, lo, hi)
    nbd = np.full(n, 0 if bounds is None else 2, dtype=np.int32)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa, task, lsave, ln_task = (np.zeros(k, dtype=np.int32) for k in (3 * n, 2, 4, 2))
    isave, dsave = np.zeros(44, dtype=np.int32), np.zeros(29)
    factr = LBFGS_OPTIONS["ftol"] / np.finfo(float).eps
    f, g, x_eval, nit, nfev = 0.0, np.zeros(n), None, 0, 0
    while True:
        setulb(m, x, lo, hi, nbd, f, g, factr, LBFGS_OPTIONS["gtol"], wa, iwa,
               task, lsave, isave, dsave, 20, ln_task)
        if task[0] == 3:  # f and g wanted at x
            if x_eval is None or not np.array_equal(x, x_eval):
                x_eval = x.copy()
                f, g = fun(x_eval)
                nfev += 1
        elif task[0] == 1:  # a new iterate
            nit += 1
            if nit >= LBFGS_OPTIONS["maxiter"]:
                task[:] = 5, 504
        else:
            break
    message = f"{STATUS_MESSAGES[task[0]]}: {TASK_MESSAGES[task[1]]}"
    return x, f, g, nit, nfev, bool(task[0] == 4), message


def _encode(params: CovParams, spatial: bool) -> np.ndarray:
    if spatial:
        return np.log([params.phi, params.theta_lat, params.theta_lon, params.sigma2])
    return np.log([params.phi, params.theta_lat, params.theta_lon,
                   params.theta_t, params.sigma2])


def _decode(x: np.ndarray, template: CovParams, spatial: bool) -> CovParams:
    with np.errstate(over="ignore"):  # inf is rejected by CovParams
        v = np.exp(x)
    if spatial:
        return CovParams(*v[:3], template.theta_t, v[3])
    return CovParams(*v)


def pooled_window_variance(blocks, min_obs: int = 2) -> float:
    """Admit a window for a fit: the unbiased variance pooled over all its
    values.  Raises InsufficientDataError below max(min_obs, 2)
    observations, and InsufficientVarianceError where the variance is at
    most the squared rounding level of the data magnitude, the noise
    that cancellation leaves of nearly identical values."""
    values = [b.values for b in blocks if b.m > 0]
    n_obs, least = sum(v.shape[0] for v in values), max(min_obs, 2)
    if n_obs < least:
        raise InsufficientDataError(
            f"{n_obs} observations < required minimum {least}")
    values = np.concatenate(values)
    var = float(np.var(values, ddof=1))
    scale = max(float(np.mean(np.square(values))), np.finfo(float).tiny)
    if var <= (8.0 * float(np.finfo(float).eps)) ** 2 * scale:
        raise InsufficientVarianceError("window values are numerically constant")
    return var


def default_init(var: float) -> CovParams:
    """Half the window's pooled variance to each of GP sill and nugget;
    5 deg / 5 d ranges."""
    return CovParams(phi=0.5 * var, theta_lat=5.0, theta_lon=5.0,
                     theta_t=5.0, sigma2=0.5 * var)


def fit_mle_gaussian(blocks, init: CovParams | None = None,
                     min_obs: int = MIN_OBS,
                     spatial: bool = False) -> tuple[CovParams, FitReport]:
    """Maximum-likelihood fit of the Gaussian-nugget model.

    L-BFGS-B with analytic gradients on ``_nll``'s log ranges and
    log tau = log sigma2 / phi, then phi_hat from one more evaluation at
    the returned point, after ``pooled_window_variance`` admits the
    window.  With ``spatial`` the time range is carried through from
    ``init``.  Non-convergence is flagged in the report; the best
    iterate is still returned.
    """
    var = pooled_window_variance(blocks, min_obs)
    prepared = _Prepared(blocks, spatial)
    if init is None:
        init = default_init(var)
    x0 = _encode(init, spatial)
    z, _, g, nit, nfev, success, message = lbfgsb(
        lambda z: _nll(z, prepared, True), np.append(x0[1:-1], x0[-1] - x0[0]))
    f = _nll(z, prepared, False)  # not the last line-search trial's phi_hat
    if f >= PENALTY:
        raise InvalidParameterError("Gaussian fit ended where the objective overflows")
    unit = _decode(np.append(0.0, z), init, spatial)  # phi 1, sigma2 tau
    report = FitReport(loglik=-float(f), grad_norm=float(np.max(np.abs(g))),
                       n_iter=nit, n_evals=nfev + 1, converged=success,
                       message=message, n_obs=prepared.n_obs)
    return replace(unit, phi=prepared.phi_hat,
                   sigma2=unit.sigma2 * prepared.phi_hat), report


def gaussian_system(targets, block: YearBlock, params: CovParams,
                    spatial: bool = False):
    """(Sigma, K_star): the block's noisy covariance and, row f, target f's
    cross-covariance with the block."""
    pts = block.points
    Sigma = cov_matrix(pts, params, spatial) + params.sigma2 * np.eye(block.m)
    return Sigma, cross_cov_vector(targets, pts, params, spatial)


def predict_gaussian(Sigma: np.ndarray, y: np.ndarray, k_star: np.ndarray,
                     units, year_index: int | None = None) -> GaussianPredictive:
    """Kriging law of a new noisy observation from its system.

    ``Sigma`` is the window's noisy covariance, ``y`` its values and
    ``k_star`` the target's cross-covariance with it, in ``units`` =
    (sill, prior, scale): the factor's ridge is relative to the sill,
    and the variance is scale * (prior - k*' Sigma^-1 k*), clamped into
    [0, prior] against roundoff.
    """
    sill, prior, scale = units
    L = chol_spd(Sigma, sill, year_index)
    alpha = dpotrs(L, y, lower=1)[0]
    w = dtrtrs(L, k_star, lower=1)[0]
    return GaussianPredictive(float(k_star @ alpha),
                              scale * min(max(prior - float(w @ w), 0.0), prior))


def holdout_predictions(Sigma: np.ndarray, y: np.ndarray, K_star: np.ndarray,
                        prior_var: float, removals) -> list[GaussianPredictive]:
    """Kriging of many targets from one window, each fold leaving part out.

    Row f of ``K_star`` is target f's cross-covariance with the window
    of noisy covariance ``Sigma``; fold f drops the window points
    ``removals[f]`` (R).  One factor serves every fold: with P = Sigma^-1,
    a = P y and k the row zeroed on R, the mean is k'a - (Pk)_R' P_RR^-1 a_R
    and the variance prior_var - k'Pk + (Pk)_R' P_RR^-1 (Pk)_R, clamped
    into [0, prior_var].  LinAlgError when Sigma's plain Cholesky fails.
    """
    P = _spd_inverse(cholesky(Sigma))
    K_star = K_star.copy()
    for f, rem in enumerate(removals):
        K_star[f, rem] = 0.0
    a = P @ y
    B = K_star @ P                       # row f is (P k_f)'
    mean = K_star @ a
    var = prior_var - np.einsum("fi,fi->f", B, K_star)
    one = [f for f, rem in enumerate(removals) if len(rem) == 1]
    i = np.array([removals[f][0] for f in one], dtype=int)
    mean[one] -= B[one, i] * a[i] / P[i, i]  # Dubrule's leave-one-out identity
    var[one] += B[one, i] ** 2 / P[i, i]
    for f in (f for f, rem in enumerate(removals) if len(rem) > 1):
        rem, b = removals[f], B[f, removals[f]]
        c = np.linalg.solve(P[np.ix_(rem, rem)], np.column_stack([a[rem], b]))
        mean[f] -= b @ c[:, 0]
        var[f] += b @ c[:, 1]
    var = np.minimum(np.maximum(var, 0.0), prior_var)
    return [GaussianPredictive(float(m), float(v)) for m, v in zip(mean, var)]


def gaussian_interval(pred: GaussianPredictive, alpha):
    """Central (1 - alpha) predictive interval.

    ``alpha`` may be an array, and so may the law's mean and variance;
    the bounds then broadcast to their shapes.
    """
    a = np.asarray(alpha, dtype=float)
    if not np.all((a > 0.0) & (a < 1.0)):
        raise InvalidParameterError(f"alpha must lie in (0, 1), got {alpha}")
    half = ndtri(1.0 - a / 2.0) * np.sqrt(np.maximum(pred.variance, 0.0))
    if half.ndim == 0:
        half = float(half)
    return pred.mean - half, pred.mean + half
