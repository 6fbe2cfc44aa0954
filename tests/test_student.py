"""Student-nugget Laplace inference tests.

The heavy-tail likelihood has no closed form, so the oracles are a
bounded 1-D optimizer (mode), adaptive quadrature (marginal likelihood
and PIT), and the analytic Gaussian limit at huge degrees of freedom.
"""

import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, linalg as sla, optimize, special, stats
from scipy.special import ndtri, stdtrit

import mwgp.student
from mwgp.covariance import CovParams, SpaceTimePoint, cov_matrix, cross_cov_vector
from mwgp.errors import InsufficientDataError, InvalidParameterError, ModeFindingError
from mwgp.gaussian import (
    PENALTY,
    YearBlock,
    _Prepared,
    default_init,
    pooled_window_variance,
)
from mwgp.student import (
    LOG_BAND,
    STUDENT_INIT_NU,
    StudentParams,
    StudentPredictive,
    find_mode,
    fit_mle_student,
    _decode_student,
    _laplace,
    _encode_student,
    _t_log_const,
    nu_variance_factor,
    predict_student,
    student_cdf,
    student_interval,
)
from mwgp.validation import DEFAULT_LEVELS, simulate_field
from mwgp.windows import GaussianFamily, single_blas_thread

from conftest import (
    deviation_sample,
    gauss_loglik,
    laplace_loglik,
    random_block,
    stdtrit_half_width,
    t_log_gamma_ratio,
)

SP = StudentParams(CovParams(1.0, 2.0, 3.0, 6.0, 0.5), nu=4.0)


def scalar_block(y, lat=0.0, lon=0.0, t=0.0):
    return YearBlock(0, [lat], [lon], [t], [y])


def quad_marginal_loglik(y, phi, sigma, nu):
    """log p(y) for m=1 by adaptive quadrature over the latent value."""
    prior_sd = math.sqrt(phi)

    def integrand(f):
        return stats.norm.pdf(f, 0.0, prior_sd) * \
            stats.t.pdf((y - f) / sigma, nu) / sigma

    val, err = integrate.quad(integrand, -12 * prior_sd, 12 * prior_sd,
                              limit=400, epsabs=1e-13, epsrel=1e-11)
    assert err < 1e-9 * val
    return math.log(val)


def scalar_mode_oracle(y, phi, sigma, nu):
    """Bounded 1-D maximization of the scalar posterior log-density."""

    def neg_psi(f):
        return -(stats.t.logpdf((y - f) / sigma, nu) - math.log(sigma)
                 - 0.5 * f * f / phi)

    res = optimize.minimize_scalar(neg_psi, bounds=(-abs(y) - 10, abs(y) + 10),
                                   method="bounded",
                                   options={"xatol": 1e-10})
    return res.x


class TestStudentParams:
    def test_nu_must_exceed_one(self):
        with pytest.raises(InvalidParameterError):
            StudentParams(SP.cov, 1.0)
        with pytest.raises(InvalidParameterError):
            StudentParams(SP.cov, 0.5)

    def test_variance_factor(self):
        assert nu_variance_factor(4.0) == pytest.approx(2.0)
        with pytest.raises(InvalidParameterError):
            nu_variance_factor(2.0)


class TestFindMode:
    def test_zero_data_zero_mode(self, rng):
        block = random_block(rng, 6, value_scale=0.0)
        state = find_mode(block, SP)
        np.testing.assert_allclose(state.f_hat, 0.0, atol=1e-10)

    def test_scalar_mode_matches_bounded_search(self):
        sigma = math.sqrt(SP.cov.sigma2)
        for y in (-3.0, -0.7, 0.4, 1.9, 6.0):
            state = find_mode(scalar_block(y), SP)
            oracle = scalar_mode_oracle(y, SP.cov.phi, sigma, SP.nu)
            assert abs(state.f_hat[0] - oracle) < 1e-6

    def test_gradient_norm_small(self, rng):
        block = random_block(rng, 8)
        state = find_mode(block, SP)
        assert state.grad_norm < 1e-8 * block.m

    def test_gaussian_limit_matches_smoother(self, rng):
        params = StudentParams(SP.cov, 1e6)
        block = random_block(rng, 7)
        state = find_mode(block, params)
        K = cov_matrix(block.points, params.cov)
        expected = K @ np.linalg.solve(K + params.cov.sigma2 * np.eye(7),
                                       block.values)
        np.testing.assert_allclose(state.f_hat, expected, rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_near_interpolating_mode_is_found(self, seed):
        # sigma ~ 0.007 and nu on the fit's upper bound: W ~ 1e4 puts a
        # per-observation gradient target below roundoff, while the
        # Newton decrement still sees the mode.
        cov = CovParams(1.0, 3.0, 5.0, 5.0, 5e-5)
        rng = np.random.default_rng(seed)
        locs = np.column_stack([rng.uniform(-6, 6, 40), rng.uniform(-6, 6, 40),
                                rng.uniform(0, 60, 40)])
        block = simulate_field(cov, locs, 1, seed=seed)[0]
        state = find_mode(block, StudentParams(cov, 1.9e9))
        K = cov_matrix(block.points, cov)
        smoother = K @ np.linalg.solve(K + cov.sigma2 * np.eye(40), block.values)
        assert np.linalg.norm(state.f_hat - smoother) <= \
            1e-10 * np.linalg.norm(smoother)

    def test_outlier_curvature_floored(self):
        heavy = StudentParams(CovParams(1.0, 2.0, 3.0, 6.0, 0.5), nu=3.0)
        block = YearBlock(0, [0.0, 40.0], [0.0, 60.0], [0.0, 0.0], [0.5, 50.0])
        state = find_mode(block, heavy)
        assert np.all(state.w >= 0.0)
        assert state.w_raw[1] < 0.0
        assert state.w[1] == 0.0


class TestLaplaceLoglik:
    def test_additive_over_years(self, rng):
        a = random_block(rng, 5, year=0)
        b = random_block(rng, 6, year=1)
        total = laplace_loglik([a, b], SP)
        assert total == pytest.approx(
            laplace_loglik([a], SP) + laplace_loglik([b], SP), rel=1e-10)

    def test_gaussian_limit_matches_exact_likelihood(self, rng):
        params = StudentParams(SP.cov, 1e6)
        block = random_block(rng, 8)
        approx = laplace_loglik([block], params)
        matched = CovParams(SP.cov.phi, SP.cov.theta_lat, SP.cov.theta_lon,
                            SP.cov.theta_t,
                            SP.cov.sigma2 * nu_variance_factor(1e6))
        exact = gauss_loglik([block], matched)
        assert abs(approx - exact) < 1e-4 * abs(exact)

    def test_quadrature_error_shrinks_with_nu(self):
        # The Laplace form has an O(1/nu) intrinsic error against exact
        # quadrature at heavy tails; check the measured envelope and its
        # decay rather than pretending the approximation is exact.
        y, phi, sigma2 = 1.2, 1.0, 0.5
        sigma = math.sqrt(sigma2)
        errors = {}
        for nu in (2.0, 8.0, 128.0):
            params = StudentParams(CovParams(phi, 2.0, 3.0, 6.0, sigma2), nu)
            approx = laplace_loglik([scalar_block(y)], params)
            exact = quad_marginal_loglik(y, phi, sigma, nu)
            errors[nu] = abs(approx - exact) / abs(exact)
        assert errors[2.0] < 0.25
        assert errors[128.0] < 2e-2
        assert errors[128.0] < errors[2.0] / 3.0


class TestLaplaceGradient:
    """The analytic gradient against central differences of laplace_loglik."""

    @pytest.mark.parametrize("spatial", [True, False])
    @pytest.mark.parametrize("nu", [1.5, 3.0, 8.0, 60.0, 1e4, 1e7])
    def test_matches_central_differences(self, spatial, nu):
        params = StudentParams(CovParams(1.0, 2.0, 3.0, 6.0, 0.3), nu)
        x = _encode_student(params, spatial)
        h = 1e-4
        negative_w = 0
        for seed in range(4):
            rng = np.random.default_rng(seed)
            blocks = [random_block(rng, 15, year=0), random_block(rng, 12, year=1)]
            blocks[0].values[3] += 8.0  # an outlier
            _, grad = _laplace(blocks, _Prepared(blocks, spatial), params, True)
            fd = np.empty_like(x)
            for i in range(x.size):
                step = h * np.eye(x.size)[i]
                up, down = (laplace_loglik(blocks, _decode_student(x + d, params.cov,
                                                                   spatial), spatial)
                            for d in (step, -step))
                fd[i] = (up - down) / (2.0 * h)
            assert np.max(np.abs(grad - fd)) <= 1e-5 * np.max(np.abs(grad))
            negative_w += sum(int(np.sum(find_mode(b, params, spatial).w_raw < 0.0))
                              for b in blocks)
        assert (negative_w > 0) == (nu <= 8.0)


class TestTNormalizer:
    @pytest.mark.parametrize("nu", [1.5, 3.0, 30.0, 1e3, 1e6, 1e9, 1e12, 1e15])
    def test_matches_the_log_gamma_oracle(self, nu):
        oracle = t_log_gamma_ratio(nu) - 0.5 * math.log(nu * math.pi) - math.log(2.0)
        assert _t_log_const(2.0, nu) == pytest.approx(oracle, rel=1e-12, abs=0.0)


class TestFitMleStudent:
    @pytest.fixture(autouse=True, scope="class")
    def _one_blas_thread(self):
        # The fits factor year blocks of up to 200 points; a threaded BLAS
        # oversubscribes the cores when other processes hold them, so
        # these run at one thread, as map_grid and run_cv run fits.
        with single_blas_thread():
            yield

    def test_insufficient_data(self, rng):
        with pytest.raises(InsufficientDataError):
            fit_mle_student([random_block(rng, 4)])

    def test_ascent_over_initialization(self):
        truth = StudentParams(CovParams(1.0, 3.0, 5.0, 5.0, 0.3), nu=4.0)
        rng = np.random.default_rng(5)
        locs = np.column_stack([rng.uniform(-6, 6, 80), rng.uniform(-6, 6, 80),
                                rng.uniform(0, 60, 80)])
        blocks = simulate_field(truth, locs, 2, seed=5)
        init = StudentParams(CovParams(0.8, 4.0, 4.0, 6.0, 0.25), nu=6.0)
        fitted, report = fit_mle_student(blocks, init)
        assert laplace_loglik(blocks, fitted) >= \
            laplace_loglik(blocks, init) - 1e-6
        assert report.loglik == laplace_loglik(blocks, fitted)

    def test_gaussian_data_pushes_nu_high(self):
        # On Gaussian data the heavy-tail parameter should run to the
        # Gaussian limit; check a majority of small replicates.
        truth = CovParams(1.0, 3.0, 5.0, 5.0, 0.3)
        high = 0
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            locs = np.column_stack([rng.uniform(-6, 6, 100),
                                    rng.uniform(-6, 6, 100),
                                    rng.uniform(0, 60, 100)])
            blocks = simulate_field(truth, locs, 2, seed=seed)
            fitted, _ = fit_mle_student(blocks)
            if fitted.nu > 20.0:
                high += 1
        assert high >= 2

    def test_moderate_heavy_tail_recovery(self):
        # The degrees of freedom are identified only when the nugget
        # carries a solid share of the variance (the Laplace surface is
        # biased toward the Gaussian limit by about 1/nu per
        # observation, so a weak tail signal drowns); this design keeps
        # sigma2 = phi and dense sampling, where recovery is sharp.
        truth = StudentParams(CovParams(1.0, 3.0, 5.0, 5.0, 1.0), nu=4.0)
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            locs = np.column_stack([rng.uniform(-3, 3, 200),
                                    rng.uniform(-3, 3, 200),
                                    rng.uniform(0, 91, 200)])
            blocks = simulate_field(truth, locs, 4, seed=seed)
            fitted, _ = fit_mle_student(blocks)
            assert 2.5 < fitted.nu < 10.0
            assert 0.3 < fitted.cov.phi < 2.5

    @staticmethod
    def _spied_fit(monkeypatch, alter=None, blocks=None, init=None):
        """Seeded fit with the L-BFGS-B result spied on: (res, fitted, report).

        ``res`` is the driver's (x, f, g, nit, nfev, success, message);
        ``alter`` may return a changed one.  Without ``blocks``, a
        spatial fit on a seeded Student field.
        """
        seen = {}

        def spy(*args, **kwargs):
            res = real(*args, **kwargs)
            if alter is not None:
                res = alter(res)
            seen["res"] = res
            return res

        real = mwgp.student.lbfgsb
        monkeypatch.setattr(mwgp.student, "lbfgsb", spy)
        spatial = blocks is None
        if spatial:
            truth = StudentParams(CovParams(1.0, 3.0, 5.0, 5.0, 0.5), nu=4.0)
            rng = np.random.default_rng(5)
            locs = np.column_stack([rng.uniform(-6, 6, 40), rng.uniform(-6, 6, 40),
                                    rng.uniform(0, 60, 40)])
            blocks = simulate_field(truth, locs, 2, seed=5, spatial=True)
        fitted, report = fit_mle_student(blocks, init, spatial=spatial)
        return seen["res"], fitted, report

    def test_converged_when_scipy_succeeds(self, monkeypatch):
        res, _, report = self._spied_fit(monkeypatch)
        *_, success, message = res
        assert success
        assert report.converged
        assert report.message == message

    def test_ending_on_the_penalty_raises(self, monkeypatch):
        def strand(res):
            return (res[0], PENALTY) + res[2:]

        with pytest.raises(ModeFindingError):
            self._spied_fit(monkeypatch, strand)

    def test_a_parameter_left_on_a_bound_is_named(self, monkeypatch):
        # Every observation shares one longitude, so the likelihood
        # ignores theta_lon; a start beyond the box is clipped onto its
        # upper bound and stays there.  The fit also runs to the
        # Gaussian limit, nu's upper bound, with sigma2 ~ 1.5e-7.
        truth = StudentParams(CovParams(1.0, 3.0, 5.0, 5.0, 0.5), nu=4.0)
        rng = np.random.default_rng(3)
        locs = np.column_stack([rng.uniform(-6, 6, 40), np.full(40, 2.0),
                                rng.uniform(0, 60, 40)])
        blocks = simulate_field(truth, locs, 2, seed=3)
        init = StudentParams(replace(truth.cov, theta_lon=5.0 * math.exp(30.0)), 4.0)
        res, fitted, report = self._spied_fit(monkeypatch, blocks=blocks, init=init)
        *_, success, message = res
        assert report.message == message + "; at upper bound: theta_lon, nu"
        assert report.converged == success
        start = default_init(pooled_window_variance(blocks))
        hi = math.log(start.theta_lon) + LOG_BAND
        assert fitted.cov.theta_lon == math.exp(hi)

    def test_gaussian_data_fit_stays_inside_the_box(self):
        # The design of test_gaussian_data_pushes_nu_high: nu runs toward
        # the Gaussian limit, where the unbounded fit overflowed.
        truth = CovParams(1.0, 3.0, 5.0, 5.0, 0.3)
        rng = np.random.default_rng(0)
        locs = np.column_stack([rng.uniform(-6, 6, 100), rng.uniform(-6, 6, 100),
                                rng.uniform(0, 60, 100)])
        blocks = simulate_field(truth, locs, 2, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fitted, report = fit_mle_student(blocks)
        assert report.n_mode_failures == 0
        assert abs(math.log(fitted.nu - 1.0)
                   - math.log(STUDENT_INIT_NU - 1.0)) < LOG_BAND
        assert report.loglik == laplace_loglik(blocks, fitted)

    @pytest.mark.parametrize("spatial", [True, False])
    def test_every_box_corner_evaluates_without_warnings(self, spatial):
        # Each corner either scores finitely, with a finite gradient, or
        # fails its mode search cleanly; none under- or overflows.
        block = random_block(np.random.default_rng(11), 30)
        template = default_init(pooled_window_variance([block]))
        center = _encode_student(StudentParams(template, STUDENT_INIT_NU), spatial)
        finite = 0
        for signs in itertools.product((-1.0, 1.0), repeat=center.size):
            params = _decode_student(center + LOG_BAND * np.array(signs),
                                     template, spatial)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    value, grad = _laplace([block], _Prepared([block], spatial),
                                           params, True)
                except ModeFindingError:
                    continue
            assert math.isfinite(value) and np.all(np.isfinite(grad))
            assert value == laplace_loglik([block], params, spatial)
            finite += 1
        assert finite >= 2 ** center.size - 2

    @pytest.mark.slow
    def test_full_scale_recovery_study(self):
        # nu-hat lands in [2.5, 8] for at least 80% of 20 seeds at the
        # full design size (true nu = 4, 500 obs x 10 years), in the
        # noise-dominated regime where the tail is identified.
        truth = StudentParams(CovParams(1.0, 3.0, 5.0, 5.0, 1.0), nu=4.0)
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            locs = np.column_stack([rng.uniform(-10, 10, 500),
                                    rng.uniform(-10, 10, 500),
                                    rng.uniform(0, 91, 500)])
            blocks = simulate_field(truth, locs, 10, seed=1000 + seed)
            fitted, _ = fit_mle_student(blocks)
            if 2.5 <= fitted.nu <= 8.0:
                hits += 1
        assert hits >= 16


class TestPredictStudent:
    def test_zero_data_zero_latent_mean(self, rng):
        block = random_block(rng, 5, value_scale=0.0)
        pred = predict_student(SpaceTimePoint(0, 0, 0), block, SP)
        assert pred.f_mean == pytest.approx(0.0, abs=1e-10)

    def test_empty_block_prior(self):
        empty = YearBlock(0, [], [], [], [])
        pred = predict_student(SpaceTimePoint(0, 0, 0), empty, SP)
        assert (pred.f_mean, pred.f_var) == (0.0, SP.cov.phi)
        assert pred.scale == pytest.approx(math.sqrt(SP.cov.sigma2))
        assert pred.dof == SP.nu

    def test_gaussian_limit_matches_kriging_mean(self, rng):
        params = StudentParams(SP.cov, 1e6)
        block = random_block(rng, 7)
        target = SpaceTimePoint(0.5, -0.7, 20.0)
        pred = predict_student(target, block, params)
        krig = GaussianFamily(False).predict(target, block, params.cov)
        assert abs(pred.f_mean - krig.mean) < 1e-4 * max(1.0, abs(krig.mean))

    def test_far_target_prior_limit(self, rng):
        block = random_block(rng, 6)
        far = SpaceTimePoint(70.0, 150.0, 0.0)
        pred = predict_student(far, block, SP)
        assert abs(pred.f_mean) < 1e-8
        assert pred.f_var == pytest.approx(SP.cov.phi, rel=1e-8)

    def test_floored_observation_drops_from_variance(self):
        heavy = StudentParams(CovParams(1.0, 2.0, 3.0, 6.0, 0.5), nu=3.0)
        block = YearBlock(0, [0.0, 40.0], [0.0, 60.0], [0.0, 0.0], [0.5, 50.0])
        state = find_mode(block, heavy)
        assert state.w[1] == 0.0 and state.w[0] > 0.0
        target = SpaceTimePoint(0.3, 0.2, 1.0)
        pred = predict_student(target, block, heavy)
        # oracle: with the floored row dropped, the correction reduces
        # to the single remaining observation
        K = cov_matrix(block.points, heavy.cov)
        k = cross_cov_vector(target, block.points, heavy.cov)[0]
        expected = heavy.cov.phi - k[0] ** 2 / (K[0, 0] + 1.0 / state.w[0])
        assert pred.f_var == pytest.approx(expected, rel=1e-10)


class TestStudentInterval:
    PRED = StudentPredictive(f_mean=0.7, f_var=0.4, scale=0.8, dof=4.0)

    def test_midpoint_exact(self):
        lo, hi = student_interval(self.PRED, 0.1)
        assert 0.5 * (lo + hi) == pytest.approx(self.PRED.f_mean, abs=1e-12)

    def test_gaussian_limit_halfwidth(self):
        pred = StudentPredictive(0.0, 0.0, 1.0, 1e6)
        lo, hi = student_interval(pred, 0.05)
        assert 0.5 * (hi - lo) == pytest.approx(1.96, abs=0.03)

    def test_deterministic_given_seed(self):
        assert student_interval(self.PRED, 0.2) == \
            student_interval(self.PRED, 0.2)

    def test_nesting_at_common_seed(self):
        lo_90, hi_90 = student_interval(self.PRED, 0.10)
        lo_50, hi_50 = student_interval(self.PRED, 0.50)
        assert lo_90 <= lo_50 and hi_50 <= hi_90

    def test_halfwidth_nonincreasing_in_dof(self):
        widths = []
        for nu in (2.0, 5.0, 50.0):
            pred = StudentPredictive(0.0, 0.3, 1.0, nu)
            lo, hi = student_interval(pred, 0.05)
            widths.append(hi - lo)
        assert widths[0] >= widths[1] >= widths[2]

    def test_alpha_validated(self):
        with pytest.raises(InvalidParameterError):
            student_interval(self.PRED, 1.2)

    def test_array_of_levels_matches_one_call_per_level(self):
        alphas = np.array([0.5, 0.32, 0.1, 0.01])
        lower, upper = student_interval(self.PRED, alphas)
        for a, lo, hi in zip(alphas, lower, upper):
            assert (lo, hi) == student_interval(self.PRED, float(a))


class TestScipySources:
    """The special functions and LAPACK calls, to the bit scipy's."""

    def test_digamma_and_ndtr_are_scipys_ufuncs(self):
        assert mwgp.student.digamma is special.digamma
        assert mwgp.student.ndtr is special.ndtr

    def test_zeta_is_the_trigamma(self):
        k = np.concatenate([0.5 * np.geomspace(1.0 + 1e-9, 1e9, 20_000),
                            [0.505, 0.75, 1.0, 2.0, 15.0, 5e5]])
        trigamma = special.polygamma(1, k)
        np.testing.assert_array_equal(mwgp.student._zeta(2.0, k).view(np.int64),
                                      trigamma.view(np.int64))
        for x in k[::500]:
            assert mwgp.student._zeta(2.0, float(x)) == special.polygamma(1, float(x))

    @pytest.mark.parametrize("m", [48, 120, 260])
    def test_lu_solve_call_sites(self, m):
        rng = np.random.default_rng(m)
        K = cov_matrix(rng.uniform(-5.0, 5.0, (m, 3)), SP.cov)
        A = np.eye(m) + K * rng.uniform(-0.2, 1.0, m)[None, :]
        lu, piv, info = mwgp.student.dgetrf(A)
        assert info == 0
        for b in (rng.standard_normal(m), K):
            for trans in (0, 1):
                expected = sla.lu_solve((lu, piv), b, trans=trans, check_finite=False)
                np.testing.assert_array_equal(
                    mwgp.student.dgetrs(lu, piv, b, trans=trans)[0].view(np.int64),
                    expected.view(np.int64))


HALF_WIDTH_LAWS = [StudentPredictive(0.3, f_var, 0.7, dof)
                   for dof in (1.01, 1.5, 2.0, 4.0, 30.0, 1e6)
                   for f_var in (0.0, 1e-6, 40.0)]


class TestHalfWidthStart:
    """The normal-quantile Newton start against scipy's t-quantile start."""

    ALPHAS = 1.0 - np.array(DEFAULT_LEVELS)

    @pytest.mark.parametrize("pred", HALF_WIDTH_LAWS)
    def test_within_4_ulps_of_the_stdtrit_start(self, pred):
        half = half_widths(pred, self.ALPHAS)
        oracle = stdtrit_half_width(pred, self.ALPHAS)
        assert np.all(np.abs(half - oracle) <= 4.0 * np.spacing(oracle))

    @pytest.mark.parametrize("pred", HALF_WIDTH_LAWS)
    def test_start_is_below_the_root(self, monkeypatch, pred):
        monkeypatch.setattr(mwgp.student, "HALF_WIDTH_MAX_ITER", 0)  # h = the start
        start = half_widths(pred, self.ALPHAS)
        assert np.all(start >= 0.0)
        assert np.all(start <= stdtrit_half_width(pred, self.ALPHAS))


class TestStudentPit:
    PRED = StudentPredictive(f_mean=0.4, f_var=0.5, scale=0.7, dof=5.0)

    def test_median_at_mean(self):
        assert student_cdf(self.PRED, self.PRED.f_mean) == \
            pytest.approx(0.5, abs=0.01)

    def test_far_left_tail(self):
        sd = math.sqrt(self.PRED.f_var + self.PRED.scale ** 2
                       * nu_variance_factor(self.PRED.dof))
        assert 0.0 <= student_cdf(self.PRED, self.PRED.f_mean - 1e3 * sd) < 1e-15

    def test_monotone_in_value(self):
        values = np.linspace(-3.0, 4.0, 15)
        pits = [student_cdf(self.PRED, v) for v in values]
        assert all(a <= b for a, b in zip(pits, pits[1:]))

    def test_deterministic_given_seed(self):
        assert student_cdf(self.PRED, 1.0) == student_cdf(self.PRED, 1.0)

    def test_quadrature_oracle(self):
        pred = self.PRED

        def exact_pit(v):
            def integrand(z):
                return stats.norm.pdf(z, pred.f_mean, math.sqrt(pred.f_var)) \
                    * stats.t.cdf((v - z) / pred.scale, pred.dof)
            val, err = integrate.quad(integrand, pred.f_mean - 10,
                                      pred.f_mean + 10, limit=200)
            assert err < 1e-8
            return val

        for v in (-1.0, 0.2, 0.4, 1.5, 3.0):
            assert student_cdf(pred, v) == pytest.approx(exact_pit(v), abs=0.005)


LAW_DOF = (1.05, 2.05, 3.0, 5.0, 30.0, 1e3, 1e6)
LAW_SD_RATIOS = (0.0, 0.02, 0.3, 1.0, 1.5, 5.0, 50.0)  # sd / s
LAW_ALPHAS = 1.0 - np.array([0.5, 0.68, 0.8, 0.9, 0.95, 0.99])


def law_grid(scale=0.7):
    for nu in LAW_DOF:
        for ratio in LAW_SD_RATIOS:
            yield StudentPredictive(0.3, (ratio * scale) ** 2, scale, nu)


def quadrature_cdf(pred, x):
    """P(Y <= x) by adaptive quadrature over the latent normal."""
    sd = math.sqrt(pred.f_var)
    d = x - pred.f_mean
    if sd == 0.0:
        return float(stats.t.cdf(d / pred.scale, pred.dof))
    kink = [d / sd] if abs(d / sd) < 40.0 else None
    val, err = integrate.quad(
        lambda z: stats.norm.pdf(z) * stats.t.cdf((d - sd * z) / pred.scale, pred.dof),
        -40.0, 40.0, points=kink, limit=500, epsabs=1e-14, epsrel=1e-12)
    assert err < 1e-11
    return val


def half_widths(pred, alphas=LAW_ALPHAS):
    lower, upper = student_interval(pred, alphas)
    return 0.5 * (upper - lower)


class TestPredictiveLaw:
    """The scale-mixture rule against quadrature, itself and Monte Carlo."""

    def test_cdf_matches_quadrature(self):
        worst = 0.0
        for pred in law_grid():
            width = math.sqrt(pred.f_var) + pred.scale
            for k in (-20.0, -3.0, -1.0, -0.2, 0.0, 0.5, 2.0, 8.0):
                x = pred.f_mean + k * width
                worst = max(worst, abs(student_cdf(pred, x) - quadrature_cdf(pred, x)))
        assert worst <= 1e-9

    def test_converged_in_the_step(self, monkeypatch):
        preds = list(law_grid())
        xs = [p.f_mean - 1.3 * (math.sqrt(p.f_var) + p.scale) for p in preds]
        cdf = [student_cdf(p, x) for p, x in zip(preds, xs)]
        half = [half_widths(p) for p in preds]
        monkeypatch.setattr(mwgp.student, "LAW_STEP", 0.5 * mwgp.student.LAW_STEP)
        for p, x, c, h in zip(preds, xs, cdf, half):
            assert abs(student_cdf(p, x) - c) <= 1e-8
            np.testing.assert_allclose(half_widths(p), h, rtol=1e-8, atol=0.0)

    def test_half_widths_solve_the_cdf(self):
        for pred in law_grid():
            for a, h in zip(LAW_ALPHAS, half_widths(pred)):
                assert student_cdf(pred, pred.f_mean - h) == \
                    pytest.approx(a / 2.0, rel=1e-12)

    def test_reference_half_width(self):
        lo, hi = student_interval(StudentPredictive(0.0, 0.3, 0.5, 3.0), 0.32)
        assert hi == pytest.approx(0.842872, abs=5e-7)

    def test_no_latent_variance_is_the_scaled_t(self):
        for nu in LAW_DOF:
            pred = StudentPredictive(1.0, 0.0, 0.6, nu)
            expected = pred.scale * stdtrit(nu, 1.0 - LAW_ALPHAS / 2.0)
            np.testing.assert_allclose(half_widths(pred), expected, rtol=1e-10)

    def test_huge_dof_is_the_gaussian_interval(self):
        for f_var in (0.0, 0.3, 4.0):
            pred = StudentPredictive(-2.0, f_var, 0.8, 1e12)
            expected = math.sqrt(f_var + 0.64) * ndtri(1.0 - LAW_ALPHAS / 2.0)
            np.testing.assert_allclose(half_widths(pred), expected, rtol=1e-8)

    def test_monte_carlo_oracle(self):
        # 10^7 draws in ten seeded chunks: every interval's coverage and
        # every PIT value lies within 4 binomial standard errors.
        n_chunk, n_chunks = 1_000_000, 10
        n = n_chunk * n_chunks
        for pred in (StudentPredictive(0.7, 0.3, 0.5, 3.0),
                     StudentPredictive(0.0, 0.02, 0.9, 1.5)):
            half = half_widths(pred)
            xs = pred.f_mean + np.array([-2.0, -0.5, 0.3, 1.5])
            inside = np.zeros(half.size)
            below = np.zeros(xs.size)
            for k in range(n_chunks):
                dev = deviation_sample(pred, n_chunk, seed=1000 + k)
                inside += np.sum(np.abs(dev)[:, None] <= half, axis=0)
                below += np.sum(pred.f_mean + dev[:, None] <= xs, axis=0)
            for p_hat, p in zip(inside / n, 1.0 - LAW_ALPHAS):
                assert abs(p_hat - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)
            for p_hat, x in zip(below / n, xs):
                p = student_cdf(pred, x)
                assert abs(p_hat - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)
