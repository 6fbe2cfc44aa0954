"""Laplace-approximated inference for the Student-t nugget model.

Same GP layer as the Gaussian model, but the observation noise is a
scaled Student-t, which makes the marginal likelihood intractable.
Per year block we find the posterior mode of the latent GP values by a
damped Newton iteration and use the Laplace approximation both for the
marginal likelihood and for prediction.

The t log-density is not concave in f, so the negative Hessian W of
the data term can go negative in the tails.  The damped Newton steps
and the predictive-variance correction use W floored at zero (which
keeps the inner system positive definite and makes heavily outlying
observations drop out of the variance correction); the likelihood's
curvature term and one last exact Newton step use the raw W, which is
the classic Laplace approximation, valid at a strict local maximum.

All mode-dependent algebra tracks the pair (f, a = K^-1 f) so that no
solve against K alone — often near-singular for close points — is
ever performed.  Each mode search starts from the Gaussian-limit
smoother only.  Above nu = 40 the t log-normalizer comes from
Stirling's series, so it keeps full precision as nu grows.

The fit runs L-BFGS-B on the Gaussian fit's log-parameters plus
log(nu - 1), each held to within LOG_BAND of the window's default
start, so every point it can reach decodes and evaluates without
overflow.  Its gradient is analytic (Rasmussen & Williams 2006, GPML
5.5.1), through the LU of I + K W_raw that gives the log-determinant.
The Gaussian-fit start is clipped into the box, and the final iterate
itself is returned.

A new observation is f_mean + sd Z + s T, a Gaussian scale mixture.
Its CDF (the PIT) and its central intervals come from one fixed
quadrature rule over the mixing variable, so they are exact to
rounding and draw no random numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .covariance import CovParams, cov_matrix, cross_cov_vector
from .errors import InputError, InvalidParameterError, ModeFindingError
from .gaussian import (
    LOG_2PI,
    MIN_OBS,
    PENALTY,
    FitReport,
    YearBlock,
    _decode,
    _encode,
    _kernel_grad,
    _lag_kernel,
    _Prepared,
    _scipy_ext,
    lbfgsb,
    chol_spd,
    cholesky,
    default_init,
    dpotrs,
    dtrtrs,
    fit_mle_gaussian,
    ndtri,
    pooled_window_variance,
)

_flapack = _scipy_ext("linalg", "_flapack")
dgetrf, dgetrs = _flapack.dgetrf, _flapack.dgetrs
_ufuncs = _scipy_ext("special", "_special_ufuncs")
# scipy.special's digamma and ndtr are these ufuncs, and its
# polygamma(1, x) is zeta(2, x), the Hurwitz zeta function
digamma, ndtr, _zeta = _ufuncs.psi, _ufuncs.ndtr, _ufuncs._zeta

MODE_MAX_ITER = 60
NEWTON_DECREMENT_TOL = 1e-13  # mode search stops at lambda^2 <= this * (1 + |Psi|)
STUDENT_INIT_NU = 5.0
LOG_BAND = 20.0          # fit box half-width around the default start, log units
LAW_STEP = 0.1           # trapezoid step of the predictive law, standardized log G
LAW_SPAN = (-30.0, 8.0)  # standardized log-G range of that rule
HALF_WIDTH_RTOL = 1e-12  # relative Newton step at which a half-width is final
HALF_WIDTH_MAX_ITER = 100


@dataclass(frozen=True)
class StudentParams:
    """Covariance parameters plus the t-noise degrees of freedom.

    ``cov.sigma2`` is the square of the t scale (not the noise
    variance, which is sigma2 * nu / (nu - 2) when nu > 2).
    """

    cov: CovParams
    nu: float

    def __post_init__(self):
        if not (np.isfinite(self.nu) and self.nu > 1.0):
            raise InvalidParameterError(f"nu must exceed 1, got {self.nu}")


@dataclass(frozen=True)
class StudentPredictive:
    """Latent-mean predictive plus the noise law for a new observation.

    The predictive observation is f + scale * T with f ~ N(f_mean,
    f_var) and T a standard t with ``dof`` degrees of freedom.
    """

    f_mean: float
    f_var: float
    scale: float
    dof: float

    @property
    def mean(self) -> float:
        return self.f_mean

    @property
    def variance(self) -> float:
        """Observation variance; infinite without a second moment."""
        if self.dof > 2.0:
            return self.f_var + self.scale ** 2 * nu_variance_factor(self.dof)
        return math.inf


@dataclass
class LaplaceState:
    """Converged mode-finding state for one year block."""

    f_hat: np.ndarray
    w: np.ndarray          # floored curvature, used by Newton / prediction
    w_raw: np.ndarray      # unfloored curvature, used by the likelihood
    a: np.ndarray          # K^-1 f_hat, tracked without solving against K
    psi: float             # data term + prior quadratic at the mode
    log_q: float           # Laplace marginal log-likelihood contribution
    lu: tuple              # dgetrf factors (lu, piv) of I + K W_raw
    grad_norm: float
    iterations: int


def nu_variance_factor(nu: float) -> float:
    """Variance of a unit-scale t relative to its squared scale (nu > 2)."""
    if nu <= 2.0:
        raise InvalidParameterError(f"t variance undefined for nu={nu}")
    return nu / (nu - 2.0)


def _t_log_const(sigma: float, nu: float) -> float:
    """log[Gamma((nu+1)/2) / (Gamma(nu/2) sqrt(nu pi) sigma)], to ~1e-14 relative.

    From nu = 40 the two log-gammas come from Stirling's series, whose
    log nu terms cancel in closed form: a plain lgamma difference loses
    about 1e-16 * nu * log(nu) to cancellation (0.06 at nu = 2.4e13).
    """
    if nu < 40.0:
        c = (math.lgamma(0.5 * (nu + 1.0)) - math.lgamma(0.5 * nu)
             - 0.5 * math.log(nu * math.pi))
    else:
        x = 0.5 * nu
        # Binet's function log Gamma(z) - (z - 1/2) log z + z - log(2 pi)/2
        binet = [r * (1 / 12 - r * r * (1 / 360 - r * r * (1 / 1260 - r * r / 1680)))
                 for r in (1.0 / (x + 0.5), 1.0 / x)]
        c = x * math.log1p(0.5 / x) - 0.5 - 0.5 * LOG_2PI + binet[0] - binet[1]
    return c - math.log(sigma)


def _t_log_const_dnu(nu: float) -> float:
    """d/dnu of _t_log_const, each branch differentiated as written."""
    if nu < 40.0:
        return 0.5 * (digamma(0.5 * (nu + 1.0)) - digamma(0.5 * nu)) - 0.5 / nu
    x = 0.5 * nu
    dbinet = [-r * r * (1 / 12 - r * r * (1 / 120 - r * r * (1 / 252 - r * r / 240)))
              for r in (1.0 / (x + 0.5), 1.0 / x)]
    return 0.5 * (math.log1p(0.5 / x) - 0.5 / (x + 0.5) + dbinet[0] - dbinet[1])


def _t_loglik(resid: np.ndarray, sigma: float, nu: float) -> float:
    z2 = resid * resid / (nu * sigma * sigma)
    return resid.size * _t_log_const(sigma, nu) - 0.5 * (nu + 1.0) * float(
        np.sum(np.log1p(z2)))

def _t_grad(resid: np.ndarray, sigma: float, nu: float) -> np.ndarray:
    # d/df log t(y - f): (nu+1) r / (nu sigma^2 + r^2)
    return (nu + 1.0) * resid / (nu * sigma * sigma + resid * resid)


def _t_w_raw(resid: np.ndarray, sigma: float, nu: float) -> np.ndarray:
    # -d^2/df^2 log t(y - f); negative where |r| > sigma sqrt(nu)
    s2nu = nu * sigma * sigma
    r2 = resid * resid
    return (nu + 1.0) * (s2nu - r2) / (s2nu + r2) ** 2


def _newton(y: np.ndarray, K: np.ndarray, sigma: float, nu: float,
            f: np.ndarray, a: np.ndarray):
    """Damped Newton ascent on Psi(f) = log p(y|f) - f'K^-1 f / 2.

    Returns (f, a, psi, grad_norm, iterations, converged).  The pair
    (f, a) always satisfies f = K a, so Psi and its gradient need no
    solve against K.  It stops on the Newton decrement grad' df, which
    stays scale-free where large W puts a gradient target below roundoff.
    """
    psi = _t_loglik(y - f, sigma, nu) - 0.5 * float(f @ a)
    for it in range(MODE_MAX_ITER):
        g = _t_grad(y - f, sigma, nu)
        grad = g - a
        gn = float(np.linalg.norm(grad))
        w = np.maximum(_t_w_raw(y - f, sigma, nu), 0.0)
        sw = np.sqrt(w)
        B = np.eye(y.size) + sw[:, None] * K * sw[None, :]
        LB = cholesky(B)
        b = w * f + g
        c = dpotrs(LB, sw * (K @ b), lower=1)[0]
        a_new = b - sw * c
        f_new = K @ a_new
        df, da = f_new - f, a_new - a
        if float(grad @ df) <= NEWTON_DECREMENT_TOL * (1.0 + abs(psi)):
            return f, a, psi, gn, it, True
        step = 1.0
        for _ in range(30):
            f_try = f + step * df
            a_try = a + step * da
            psi_try = _t_loglik(y - f_try, sigma, nu) - 0.5 * float(f_try @ a_try)
            if psi_try > psi:
                f, a, psi = f_try, a_try, psi_try
                break
            step *= 0.5
        else:
            return f, a, psi, gn, it, False
    gn = float(np.linalg.norm(_t_grad(y - f, sigma, nu) - a))
    return f, a, psi, gn, MODE_MAX_ITER, False


def find_mode(block: YearBlock, params: StudentParams,
              spatial: bool = False, K: np.ndarray | None = None) -> LaplaceState:
    """Posterior mode of the latent GP values for one year block.

    Starts from the Gaussian-limit smoother (variance-matched nugget).
    ``K`` is the block's prior covariance, built here when not given.
    Raises ModeFindingError with the search's diagnostics if the Newton
    decrement does not reach its target, or if I + K W_raw has no
    positive determinant at the mode.
    """
    if block.m == 0:
        raise InputError("find_mode needs at least one observation")
    y = block.values
    cov = params.cov
    sigma = math.sqrt(cov.sigma2)
    nu = params.nu
    if K is None:
        K = cov_matrix(block.points, cov, spatial)
    m = block.m

    # Gaussian-limit start: kriging smoother with the t noise variance
    # (capped for nu near/below 2 where it blows up).
    ratio = nu / (nu - 2.0) if nu > 2.2 else 10.0
    s2 = cov.sigma2 * ratio
    L = chol_spd(K + s2 * np.eye(m), cov.phi, block.year)
    a_gauss = dpotrs(L, y, lower=1)[0]
    f, a, psi, gn, it, ok = _newton(y, K, sigma, nu, K @ a_gauss, a_gauss)
    diags = {"grad_norm": gn, "psi": psi, "iterations": it}
    if not ok:
        raise ModeFindingError("Newton mode search did not converge",
                               diagnostics=diags, year_index=block.year)

    for polish in (True, False):
        w_raw = _t_w_raw(y - f, sigma, nu)
        lu, piv, _ = dgetrf(np.eye(m) + K * w_raw[None, :])
        if not polish or w_raw.min() >= 0.0:
            break
        # Floored steps converge only linearly where W_raw < 0; one exact
        # Newton step, (df, da) = (A^-1 K grad, A^-T grad), finishes.
        grad = _t_grad(y - f, sigma, nu) - a
        f_new = f + dgetrs(lu, piv, K @ grad)[0]
        a_new = a + dgetrs(lu, piv, grad, trans=1)[0]
        psi_new = _t_loglik(y - f_new, sigma, nu) - 0.5 * float(f_new @ a_new)
        if psi_new < psi:
            break
        f, a, psi = f_new, a_new, psi_new
        gn = float(np.linalg.norm(_t_grad(y - f, sigma, nu) - a))
    if (-1) ** np.count_nonzero(piv != np.arange(m)) * np.prod(np.sign(np.diag(lu))) <= 0:
        raise ModeFindingError(
            "indefinite Laplace curvature at the returned mode",
            diagnostics=diags, year_index=block.year)
    log_q = psi - 0.5 * float(np.sum(np.log(np.abs(np.diag(lu)))))
    return LaplaceState(f_hat=f, w=np.maximum(w_raw, 0.0), w_raw=w_raw, a=a,
                        psi=psi, log_q=log_q, lu=(lu, piv), grad_norm=gn, iterations=it)


def _laplace(blocks, prepared: _Prepared, params: StudentParams, want_grad: bool):
    """Laplace log marginal likelihood and, with ``want_grad``, its gradient.

    The gradient is in the fit's coordinates (log phi, log ranges,
    log sigma2, log(nu - 1)).  Per block, with A = I + K W_raw, C = A^-1 K,
    R = W - W C W, s2 = -diag(C) dW/df / 2 and u = A^-T s2, a kernel
    parameter adds sum((a a'/2 + sym(u a') - R/2) * dK) and a noise
    parameter sum(d log p) - diag(C) . dW / 2 + s2' C dg, at fixed f.
    """
    spatial = prepared.spatial
    cov, nu = params.cov, params.nu
    s = nu * cov.sigma2
    ranges = (cov.theta_lat, cov.theta_lon, cov.theta_t)[:2 if spatial else 3]
    inv2 = np.array(ranges) ** -2.0
    with np.errstate(over="ignore"):
        D, E = _lag_kernel(prepared, inv2)
    total = diag = 0.0
    grad = np.zeros(inv2.size + 3)
    W = np.empty_like(E)
    nonempty = [b for b in blocks if b.m > 0]
    for block, (_, pairs, obs, _) in zip(nonempty, prepared.blocks):
        rows, cols = prepared.rows[pairs] - obs.start, prepared.cols[pairs] - obs.start
        K = np.empty((block.m, block.m))
        K[rows, cols] = K[cols, rows] = cov.phi * E[pairs]
        np.fill_diagonal(K, cov.phi)
        state = find_mode(block, params, spatial, K)
        total += state.log_q
        if not want_grad:
            continue
        a, w = state.a, state.w_raw
        r = block.values - state.f_hat
        den = s + r * r
        C = dgetrs(*state.lu, K)[0]
        dC = np.diag(C)
        s2 = dC * (nu + 1.0) * r * (r * r - 3.0 * s) / den ** 3
        u = dgetrs(*state.lu, s2, trans=1)[0]
        M = np.outer(a, 0.5 * a + u) + 0.5 * (w[:, None] * C * w[None, :] - np.diag(w))
        W[pairs] = M[rows, cols] + M[cols, rows]
        diag += float(np.trace(M))
        # (d log p, dW, dg) at fixed f through s = nu sigma2, for
        # log sigma2 and then for nu, whose chain factor is nu - 1
        dW_ds = (nu + 1.0) * (3.0 * r * r - s) / den ** 3
        dg_ds = -(nu + 1.0) * r / den ** 2
        z = r * r / den
        dlp = [0.5 * (nu + 1.0) * z - 0.5, _t_log_const_dnu(nu)
               - 0.5 * np.log1p(r * r / s) + 0.5 * (nu + 1.0) / nu * z]
        dW = np.array([s * dW_ds, w / (nu + 1.0) + cov.sigma2 * dW_ds])
        dg = np.array([s * dg_ds, r / den + cov.sigma2 * dg_ds])
        grad[-2:] += [1.0, nu - 1.0] * (np.sum(dlp, axis=1) - 0.5 * dW @ dC + dg @ (K @ u))
    if want_grad:
        grad[0], grad[1:-2] = _kernel_grad(prepared, W, D, E, inv2, cov.phi, diag)
    return total, grad


def _encode_student(params: StudentParams, spatial: bool) -> np.ndarray:
    return np.append(_encode(params.cov, spatial), math.log(params.nu - 1.0))


def _decode_student(x: np.ndarray, template: CovParams, spatial: bool) -> StudentParams:
    return StudentParams(_decode(x[:-1], template, spatial), 1.0 + math.exp(x[-1]))


def fit_mle_student(blocks, init: StudentParams | None = None,
                    min_obs: int = MIN_OBS,
                    spatial: bool = False) -> tuple[StudentParams, FitReport]:
    """Maximize the Laplace-approximate likelihood.

    ``pooled_window_variance`` admits the window, and its variance serves
    both the default start and the scale floor below.  L-BFGS-B on
    (log phi, log ranges, log sigma2, log(nu - 1)) with the analytic
    Laplace gradient, each coordinate bounded to within LOG_BAND of the
    window's default start (``default_init`` at nu = STUDENT_INIT_NU).
    When no init is given the covariance initialization comes from a
    Gaussian-nugget fit, with the t scale chosen to variance-match the
    fitted Gaussian nugget at the initial nu; the start is clipped into
    the box.  The final iterate is returned, and the report's message
    names any parameter it leaves on a bound.  Raises ModeFindingError
    if the fit ends at a point whose mode search failed.
    """
    var = pooled_window_variance(blocks, min_obs)
    nu0 = STUDENT_INIT_NU
    if init is None:
        gfit, _ = fit_mle_gaussian(blocks, min_obs=min_obs, spatial=spatial)
        # A near-interpolating Gaussian fit (sigma2 ~ 0) would hand the
        # mode search an un-evaluable start; floor the initial scale at
        # a small fraction of the data variance and let the optimizer
        # shrink it again from an evaluable point.
        s2 = max(gfit.sigma2, 1e-3 * var) / nu_variance_factor(nu0)
        init = StudentParams(replace(gfit, sigma2=s2), nu0)
    center = _encode_student(StudentParams(default_init(var), nu0), spatial)
    lo, hi = center - LOG_BAND, center + LOG_BAND

    prepared = _Prepared(blocks, spatial)
    failures = [0]

    def objective(x):
        try:
            value, grad = _laplace(blocks, prepared,
                                   _decode_student(x, init.cov, spatial), True)
        except (ModeFindingError, np.linalg.LinAlgError):
            failures[0] += 1
            return PENALTY, np.zeros_like(x)
        return -value, -grad

    x, f, g, nit, nfev, success, message = lbfgsb(
        objective, _encode_student(init, spatial), (lo, hi))
    if f >= PENALTY:
        raise ModeFindingError("Student fit ended where the mode search fails",
                               diagnostics={"n_failures": failures[0]})
    names = ["phi", "theta_lat", "theta_lon", "theta_t", "sigma2", "nu"]
    if spatial:
        names.remove("theta_t")
    for side, hit in (("lower", x <= lo), ("upper", x >= hi)):
        if hit.any():
            message += f"; at {side} bound: " + ", ".join(
                n for n, h in zip(names, hit) if h)
    report = FitReport(loglik=-float(f), grad_norm=float(np.max(np.abs(g))),
                       n_iter=nit, n_evals=nfev, converged=success,
                       message=message, n_obs=prepared.n_obs,
                       n_mode_failures=failures[0])
    return _decode_student(x, init.cov, spatial), report


def predict_student(target, block: YearBlock, params: StudentParams,
                    spatial: bool = False) -> StudentPredictive:
    """Laplace predictive for a new observation location.

    The latent mean is k*' K^-1 f_hat; the variance correction uses
    the floored curvature, so observations whose curvature was floored
    to zero drop out of it.  An empty block yields the prior.
    """
    cov = params.cov
    if block.m == 0:
        return StudentPredictive(0.0, cov.phi, math.sqrt(cov.sigma2), params.nu)
    K = cov_matrix(block.points, cov, spatial)
    state = find_mode(block, params, spatial, K)
    k_star = cross_cov_vector(target, block.points, cov, spatial)[0]
    f_mean = float(k_star @ state.a)
    sw = np.sqrt(state.w)
    B = np.eye(block.m) + sw[:, None] * K * sw[None, :]
    LB = cholesky(B)
    v = dtrtrs(LB, sw * k_star, lower=1)[0]
    f_var = cov.phi - float(v @ v)
    f_var = min(max(f_var, 0.0), cov.phi)
    return StudentPredictive(f_mean, f_var, math.sqrt(cov.sigma2), params.nu)


def _scale_mixture(pred: StudentPredictive) -> tuple[np.ndarray, np.ndarray]:
    """Scales tau_k and weights w_k with Y - f_mean ~ sum_k w_k N(0, tau_k^2).

    A unit t is Z'/sqrt(G) with G ~ Gamma(nu/2, rate nu/2), so given G
    the deviation sd Z + s T is normal with variance sd^2 + s^2/G.  The
    rule is a trapezoid in u = log G, whose density is proportional to
    exp(nu/2 (u - e^u)), standardized by its mean and sd.
    """
    k = 0.5 * pred.dof
    v = LAW_SPAN[0] + LAW_STEP * np.arange(round(np.ptp(LAW_SPAN) / LAW_STEP) + 1)
    u = digamma(k) - math.log(k) + math.sqrt(_zeta(2.0, k)) * v
    log_w = -k * (np.expm1(u) - u)  # u - e^u + 1, no cancellation as u -> 0
    w = np.exp(log_w - log_w.max())
    return np.sqrt(pred.f_var + pred.scale ** 2 * np.exp(-u)), w / w.sum()


def student_cdf(pred: StudentPredictive, x: float) -> float:
    """P(Y <= x) under the predictive law: the PIT of an observed x."""
    tau, w = _scale_mixture(pred)
    return float(np.sum(w * ndtr((x - pred.f_mean) / tau)))


def student_interval(pred: StudentPredictive, alpha):
    """Central (1 - alpha) predictive interval, symmetric about f_mean.

    ``alpha`` may be an array; the bounds are then arrays of its shape.
    The half-width h solves P(Y - f_mean <= -h) = alpha/2 by Newton
    steps on all levels at once.  They start from the lower bound
    max(sd z, s z, 0), z = z(1 - alpha) the normal quantile: P(|X + Y| > c)
    >= P(|X| > c)/2 for independent symmetric X, Y, and the t quantile
    t(1 - alpha) is at least z, a t variable being a scale mixture
    Z/sqrt(G) with Phi(x sqrt(g)) concave in g.  The tail mass being
    convex in h, the steps rise monotonically to the root without
    overshooting.
    """
    a = np.asarray(alpha, dtype=float)
    if not np.all((a > 0.0) & (a < 1.0)):
        raise InvalidParameterError(f"alpha must lie in (0, 1), got {alpha}")
    tau, w = _scale_mixture(pred)
    z = ndtri(1.0 - a)
    h = np.maximum(np.maximum(math.sqrt(pred.f_var) * z, pred.scale * z), 0.0)
    for _ in range(HALF_WIDTH_MAX_ITER):
        r = h[..., None] / tau
        gap = a / 2.0 - np.sum(w * ndtr(-r), axis=-1)
        dens = np.sum(w * np.exp(-0.5 * r * r) / tau, axis=-1) / math.sqrt(2.0 * math.pi)
        step = gap / dens
        h = h - step
        if np.all(np.abs(step) <= HALF_WIDTH_RTOL * h):
            break
    if a.ndim == 0:
        h = float(h)
    return pred.f_mean - h, pred.f_mean + h
