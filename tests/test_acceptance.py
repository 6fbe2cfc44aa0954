"""Acceptance gate: eleven end-to-end checks of the package's core claims.

Each test prints exactly one PASS/FAIL line (written straight to the
terminal, bypassing capture) with the measured quantities, and then
asserts the documented thresholds.  Oracles are brute force: dense
multivariate-normal densities by explicit inverse, explicit
conditional-Gaussian formulas, a grid-and-Brent scalar Laplace
approximation, and adaptive quadrature.
"""

import math
import time

import numpy as np
from scipy import integrate, stats
from scipy.linalg import block_diag

from mwgp.covariance import (
    RG_DEFAULT,
    CovParams,
    SpaceTimePoint,
    cov_matrix,
    rg_corr_vector,
    rg_shape,
    rg_tropic_factor,
)
from mwgp import gaussian
from mwgp.gaussian import YearBlock, fit_mle_gaussian, pooled_window_variance
from mwgp.student import (
    StudentParams,
    find_mode,
    predict_student,
)
from mwgp.validation import (
    calibration,
    point_metrics,
    run_cv,
    simulate_field,
    synthetic_float_blocks,
)
from mwgp.windows import (
    VARIANTS,
    GaussianFamily,
    GridSpec,
    ReferenceFamily,
    WindowSpec,
    map_grid,
    single_blas_thread,
)

from conftest import (
    dense_mvn_loglik,
    explicit_conditional,
    gauss_loglik,
    laplace_loglik,
    profiled_point,
    rg_cov,
    scalar_laplace_loglik,
)


def announce(capsys, index, ok, name, detail):
    with capsys.disabled():
        print(f"\n[{index:>2}/11] {'PASS' if ok else 'FAIL'} {name}: {detail}")


def random_instance(rng, max_m=6):
    """A small multi-year dataset with random covariance parameters."""
    params = CovParams(
        phi=float(rng.uniform(0.3, 3.0)),
        theta_lat=float(rng.uniform(0.5, 6.0)),
        theta_lon=float(rng.uniform(0.5, 8.0)),
        theta_t=float(rng.uniform(1.0, 10.0)),
        sigma2=float(rng.uniform(0.05, 1.0)),
    )
    m_total = int(rng.integers(1, max_m + 1))
    n_years = int(rng.integers(1, 4))
    split = rng.multinomial(m_total, np.full(n_years, 1.0 / n_years))
    blocks = []
    for year, m in enumerate(split):
        m = int(m)
        blocks.append(YearBlock(
            year,
            rng.uniform(-4.0, 4.0, m),
            rng.uniform(-4.0, 4.0, m),
            rng.uniform(20.0, 70.0, m),
            rng.standard_normal(m) * math.sqrt(params.phi + params.sigma2),
        ))
    return params, blocks


def test_01_likelihood_matches_dense_mvn(capsys):
    """Windowed Gaussian log-likelihood vs a brute-force dense MVN."""
    rng = np.random.default_rng(np.random.SeedSequence([1]))
    start = time.perf_counter()
    worst = 0.0
    for case in range(50):
        params, blocks = random_instance(rng)
        spatial = case % 2 == 0
        got = gauss_loglik(blocks, params, spatial=spatial)
        covs = [cov_matrix(b.points, params, spatial)
                + params.sigma2 * np.eye(b.m) for b in blocks if b.m > 0]
        y = np.concatenate([b.values for b in blocks if b.m > 0])
        want = dense_mvn_loglik(y, block_diag(*covs))
        worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 1.0
    announce(capsys, 1, ok, "likelihood vs dense MVN",
             f"max rel err {worst:.2e} over 50 cases, {elapsed:.2f}s")
    assert worst < 1e-8
    assert elapsed < 1.0


def test_02_prediction_matches_explicit_conditional(capsys):
    """Kriging predictive vs the explicit conditional-Gaussian formula."""
    rng = np.random.default_rng(np.random.SeedSequence([1]))
    worst = 0.0
    for case in range(50):
        params, blocks = random_instance(rng)
        spatial = case % 2 == 0
        block = next((b for b in blocks if b.m > 0), None)
        target = SpaceTimePoint(float(rng.uniform(-2, 2)),
                                float(rng.uniform(-2, 2)),
                                float(rng.uniform(20, 70)))
        pred = GaussianFamily(spatial).predict(target, block, params)
        mean, var = explicit_conditional(target, block, params, spatial)
        worst = max(worst,
                    abs(pred.mean - mean) / max(abs(mean), 1e-10),
                    abs(pred.variance - var) / var)
    ok = worst < 1e-8
    announce(capsys, 2, ok, "prediction vs explicit conditional",
             f"max rel err {worst:.2e} over 50 cases")
    assert worst < 1e-8


def test_03_parameter_recovery(capsys):
    """Median MLE over 20 seeds recovers every parameter within 15%."""
    true = CovParams(1.0, 3.0, 5.0, 5.0, 0.3)
    start = time.perf_counter()
    estimates = []
    for seed in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([3, seed]))
        locs = np.column_stack([rng.uniform(-10, 10, 500),
                                rng.uniform(-10, 10, 500),
                                rng.uniform(0.0, 91.0, 500)])
        blocks = simulate_field(true, locs, 10, seed=1000 + seed)
        fitted, _ = fit_mle_gaussian(blocks)
        estimates.append([fitted.phi, fitted.theta_lat, fitted.theta_lon,
                          fitted.theta_t, fitted.sigma2])
    med = np.median(np.array(estimates), axis=0)
    truth = np.array([true.phi, true.theta_lat, true.theta_lon,
                      true.theta_t, true.sigma2])
    rel = np.abs(med - truth) / truth
    elapsed = time.perf_counter() - start
    ok = bool(np.all(rel <= 0.15)) and elapsed < 600.0
    announce(capsys, 3, ok, "parameter recovery",
             "median rel err (phi,th_lat,th_lon,th_t,sig2) = "
             + "/".join(f"{r:.1%}" for r in rel) + f", {elapsed:.0f}s")
    assert np.all(rel <= 0.15), rel
    assert elapsed < 600.0


def scalar_marginal_loglik(y, phi, sigma, nu):
    """log p(y) for one observation by adaptive quadrature over the latent."""
    sd = math.sqrt(phi)

    def integrand(f):
        return stats.norm.pdf(f, 0.0, sd) * stats.t.pdf((y - f) / sigma, nu) / sigma

    # The Gaussian factor kills the integrand beyond ~10 prior sds of
    # either the origin or the observation.
    half = 10.0 * sd + abs(y)
    val, _ = integrate.quad(integrand, -half, half, points=[0.0, y],
                            limit=200)
    return math.log(val)


def test_04_laplace_vs_quadrature_single_observation(capsys):
    """Scalar Laplace marginal vs a brute-force Laplace oracle and quadrature.

    Implementation: on every draw, at the draw's heavy-tailed nu and at
    nu = 1e6, ``laplace_loglik`` equals ``scalar_laplace_loglik`` (global
    mode by grid and Brent, curvature by central difference, scipy
    densities) to 1e-6 relative.  About one draw in twelve has
    |y - f_hat| > sigma sqrt(nu), where the raw curvature is negative, so
    the raw-versus-floored W in the log-determinant is exercised.

    Approximation: the Laplace form is exact only in the Gaussian limit;
    for one heavy-tailed observation its error against quadrature is
    O(1/nu), about 0.15/0.10/0.04 at nu = 2/4/10 on these draws.  So the
    1e-3 agreement with quadrature is asserted at nu = 1e6 on the same
    (phi, sigma2, y), and the worst error must fall strictly as nu goes
    2 -> 4 -> 10 -> 1e6.
    """
    rng = np.random.default_rng(np.random.SeedSequence([4]))
    start = time.perf_counter()
    nus = (2.0, 4.0, 10.0, 1e6)
    worst_quad = dict.fromkeys(nus, 0.0)
    worst_oracle = 0.0
    for case in range(100):
        nu = nus[case % 3]
        phi = float(rng.uniform(0.5, 2.0))
        sigma2 = float(rng.uniform(0.1, 1.0))
        sigma = math.sqrt(sigma2)
        y = float(math.sqrt(phi) * rng.standard_normal()
                  + sigma * rng.standard_t(nu))
        block = YearBlock(0, np.zeros(1), np.zeros(1), np.full(1, 45.0),
                          np.array([y]))
        for dof in (nu, 1e6):
            params = StudentParams(CovParams(phi, 3.0, 5.0, 5.0, sigma2), dof)
            got = laplace_loglik([block], params)
            oracle = scalar_laplace_loglik(y, phi, sigma, dof)
            exact = scalar_marginal_loglik(y, phi, sigma, dof)
            worst_oracle = max(worst_oracle, abs(got - oracle) / abs(oracle))
            worst_quad[dof] = max(worst_quad[dof],
                                  abs(got - exact) / abs(exact))
    elapsed = time.perf_counter() - start
    decays = all(worst_quad[a] > worst_quad[b] for a, b in zip(nus, nus[1:]))
    ok = (worst_oracle <= 1e-6 and worst_quad[1e6] < 1e-3 and decays
          and elapsed < 30.0)
    announce(capsys, 4, ok, "Laplace vs oracle and quadrature at m=1",
             f"max rel err vs Laplace oracle {worst_oracle:.1e}; "
             "vs quadrature nu=2/4/10/1e6 = "
             + "/".join(f"{worst_quad[n]:.1e}" for n in nus)
             + f", {elapsed:.1f}s")
    assert worst_oracle <= 1e-6, worst_oracle
    assert worst_quad[1e6] < 1e-3, worst_quad
    assert decays, worst_quad
    assert elapsed < 30.0


def test_05_student_gaussian_limit(capsys):
    """At nu=1e6 the Student machinery collapses onto the Gaussian one."""
    rng = np.random.default_rng(np.random.SeedSequence([5]))
    worst = 0.0
    for _ in range(20):
        params, blocks = random_instance(rng, max_m=8)
        block = next((b for b in blocks if b.m > 0), None)
        sp = StudentParams(params, 1e6)
        target = SpaceTimePoint(float(rng.uniform(-2, 2)),
                                float(rng.uniform(-2, 2)),
                                float(rng.uniform(20, 70)))
        # Posterior mode vs the Gaussian latent conditional mean.
        K = cov_matrix(block.points, params)
        smoother = K @ np.linalg.solve(
            K + params.sigma2 * np.eye(block.m), block.values)
        mode = find_mode(block, sp).f_hat
        worst = max(worst, float(np.linalg.norm(mode - smoother)
                                 / max(np.linalg.norm(smoother), 1e-10)))
        # Marginal likelihood.
        ll_s = laplace_loglik([block], sp)
        ll_g = gauss_loglik([block], params)
        worst = max(worst, abs(ll_s - ll_g) / abs(ll_g))
        # Predictive mean.
        ps = predict_student(target, block, sp)
        pg = GaussianFamily(False).predict(target, block, params)
        worst = max(worst, abs(ps.f_mean - pg.mean) / max(abs(pg.mean), 1e-10))
    ok = worst < 1e-4
    announce(capsys, 5, ok, "Gaussian limit at nu=1e6",
             f"max rel diff {worst:.2e} over 20 instances")
    assert worst < 1e-4


def merge_year_blocks(per_year):
    out = []
    for year in sorted(per_year):
        parts = per_year[year]
        ids = None
        if parts[0].source_ids is not None:
            ids = np.concatenate([p.source_ids for p in parts])
        out.append(YearBlock(
            year,
            np.concatenate([p.lat for p in parts]),
            np.concatenate([p.lon for p in parts]),
            np.concatenate([p.t for p in parts]),
            np.concatenate([p.values for p in parts]),
            ids,
        ))
    return out


def test_06_loo_calibration_ten_thousand_folds(capsys):
    """Well-specified simulation: 95% coverage and residual normality.

    25 disjoint windows with 400 observations each give exactly 10^4
    leave-one-out folds after per-cell fitting.
    """
    true = CovParams(1.0, 3.0, 5.0, 5.0, 0.5)
    grid = GridSpec(-60.0, 60.0, -100.0, 100.0, lat_step=30.0, lon_step=50.0)
    spec = WindowSpec(10.0, 15.21875)
    start = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence([6]))
    per_year = {}
    for k, (_, _, clat, clon) in enumerate(grid.cells()):
        locs = np.column_stack([
            rng.uniform(clat - 8.0, clat + 8.0, 200),
            rng.uniform(clon - 8.0, clon + 8.0, 200),
            rng.uniform(31.0, 60.0, 200)])
        for b in simulate_field(true, locs, 2, seed=7000 + k, spatial=True):
            per_year.setdefault(b.year, []).append(b)
    data = merge_year_blocks(per_year)
    field_ = map_grid(data, grid, VARIANTS[2], spec)
    cv = run_cv(data, grid, field_, VARIANTS[2], spec, "looo",
                radius_steps=1.0)
    elapsed = time.perf_counter() - start
    assert len(cv.records) == 10_000 and cv.n_skipped == 0
    z = np.array([(r.truth - r.pred.mean) / math.sqrt(r.pred.variance)
                  for r in cv.records])
    cov95 = float(np.mean(np.abs(z) < stats.norm.ppf(0.975)))
    ks = stats.kstest(z, "norm").statistic
    crit = stats.kstwobign.isf(0.01) / math.sqrt(z.size)
    ok = 0.93 <= cov95 <= 0.97 and ks < crit and elapsed < 900.0
    announce(capsys, 6, ok, "calibration over 10^4 LOOO folds",
             f"coverage95 {cov95:.4f}, KS {ks:.4f} (1% critical {crit:.4f}), "
             f"{elapsed:.0f}s")
    assert 0.93 <= cov95 <= 0.97
    assert ks < crit
    assert elapsed < 900.0


def test_07_student_calibration_advantage(capsys):
    """With nu=3 noise the Student model is better calibrated at 68%."""
    true = StudentParams(CovParams(1.0, 3.0, 5.0, 5.0, 1.0), 3.0)
    grid = GridSpec(0.0, 0.0, 0.0, 0.0)
    spec = WindowSpec(10.0, 15.21875)
    start = time.perf_counter()
    wins = 0
    for seed in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([7, seed]))
        locs = np.column_stack([rng.uniform(-8, 8, 120),
                                rng.uniform(-8, 8, 120),
                                rng.uniform(31.0, 60.0, 120)])
        data = simulate_field(true, locs, 2, seed=900 + seed, spatial=True)
        coverage = {}
        for vid in (3, 2):
            field_ = map_grid(data, grid, VARIANTS[vid], spec)
            cv = run_cv(data, grid, field_, VARIANTS[vid], spec, "looo",
                        radius_steps=20.0)
            assert len(cv.records) == 240
            coverage[vid] = calibration(cv, levels=(0.68,)).coverage[0.68]
        wins += abs(coverage[3] - 0.68) < abs(coverage[2] - 0.68)
    elapsed = time.perf_counter() - start
    ok = wins >= 15
    announce(capsys, 7, ok, "Student calibration advantage at nu=3",
             f"Student closer to 68% nominal in {wins}/20 seeds, {elapsed:.0f}s")
    assert wins >= 15


def test_08_lofo_harder_than_looo(capsys):
    """Held-out-track error exceeds held-out-observation error."""
    true = CovParams(1.0, 3.0, 5.0, 5.0, 0.3)
    grid = GridSpec(0.0, 0.0, 0.0, 0.0)
    spec = WindowSpec(10.0, 15.21875)
    start = time.perf_counter()
    wins = 0
    deltas = []
    for seed in range(20):
        data = synthetic_float_blocks(
            true, 6, 8, 2, seed=seed,
            lat_range=(-7.0, 7.0), lon_range=(-7.0, 7.0),
            t_range=(31.0, 60.0), drift_deg=0.3, spatial=True)
        field_ = map_grid(data, grid, VARIANTS[2], spec)
        looo = run_cv(data, grid, field_, VARIANTS[2], spec, "looo",
                      radius_steps=20.0)
        lofo = run_cv(data, grid, field_, VARIANTS[2], spec, "lofo",
                      radius_steps=20.0)
        assert len(looo.records) == 96 and lofo.n_skipped == 0
        delta = point_metrics(lofo).rmse - point_metrics(looo).rmse
        wins += delta > 0
        deltas.append(delta)
    elapsed = time.perf_counter() - start
    ok = wins >= 18
    announce(capsys, 8, ok, "LOFO harder than LOOO",
             f"LOFO RMSE larger in {wins}/20 seeds "
             f"(median gap {np.median(deltas):+.3f}), {elapsed:.0f}s")
    assert wins >= 18


def test_09_map_bitwise_deterministic_across_workers(capsys):
    """A 30x30 map is bitwise identical for 1, 4, and 8 workers."""
    true = CovParams(1.0, 3.0, 5.0, 5.0, 0.3)
    grid = GridSpec(-14.5, 14.5, -14.5, 14.5)
    spec = WindowSpec(2.0, 15.21875)
    rng = np.random.default_rng(np.random.SeedSequence([9]))
    locs = np.column_stack([rng.uniform(-16.5, 16.5, 3000),
                            rng.uniform(-16.5, 16.5, 3000),
                            rng.uniform(31.0, 60.0, 3000)])
    data = simulate_field(true, locs, 1, seed=4040, spatial=True)
    start = time.perf_counter()
    fields = {w: map_grid(data, grid, VARIANTS[2], spec, n_workers=w)
              for w in (1, 4, 8)}
    elapsed = time.perf_counter() - start
    same = (fields[1].cells == fields[4].cells
            and fields[4].cells == fields[8].cells)
    n_ok = fields[1].status_counts["ok"]
    ok = same and len(fields[1].cells) == 900 and elapsed < 300.0
    announce(capsys, 9, ok, "bitwise determinism across workers",
             f"900 cells ({n_ok} fitted), 1==4=={8 if same else 'DIFFERS'}, "
             f"{elapsed:.0f}s")
    assert same
    assert len(fields[1].cells) == 900
    assert elapsed < 300.0


def test_10_reference_covariance_constants(capsys):
    """Fixed constants of the reference covariance reproduce exactly."""
    checks = [
        rg_tropic_factor(0.0) == 0.125,
        rg_tropic_factor(10.0) == 0.5625,
        rg_tropic_factor(-10.0) == 0.5625,
        rg_tropic_factor(20.0) == 1.0,
        rg_tropic_factor(35.0) == 1.0,
        rg_tropic_factor(-90.0) == 1.0,
        RG_DEFAULT.gauss_weight == 0.77,
        RG_DEFAULT.exp_weight == 0.23,
        RG_DEFAULT.gauss_weight + RG_DEFAULT.exp_weight == 1.0,
        RG_DEFAULT.gauss_scale_km == 140.0,
        RG_DEFAULT.exp_scale_km == 1111.0,
        RG_DEFAULT.noise_signal_ratio == 0.15,
        rg_cov((3.0, 4.0), (3.0, 4.0), 1.7) == 1.7,
        rg_corr_vector(3.0, 4.0, [3.0], [4.0])[0] == 1.0,
    ]
    # Variance divisor 1.15: the plug-in process variance is the pooled
    # window variance divided by exactly 1 + 0.15.
    blocks = [YearBlock(0, np.zeros(2), np.zeros(2), np.full(2, 45.0),
                        np.array([-1.0, 1.0]))]
    checks.append(pooled_window_variance(blocks) == 2.0)
    checks.append(ReferenceFamily().fit(blocks, 2)[0].phi_hat == 2.0 / 1.15)
    # Shape value at d = 140 km against scalar arithmetic (zonal
    # displacement at 50N, outside the tropics, chosen to land at
    # exactly one Gaussian scale length).
    want = 0.77 * math.exp(-1.0) + 0.23 * math.exp(-140.0 / 1111.0)
    dlon = 140.0 / (111.2 * math.cos(math.radians(50.0)))
    got = rg_cov((50.0, 0.0), (50.0, dlon), 1.0)
    checks.append(abs(got - want) / want < 1e-9)
    got = rg_corr_vector(50.0, 0.0, [50.0], [dlon])[0]
    checks.append(abs(got - want) / want < 1e-9)
    # Off the Gaussian scale, where dropping its square would show.
    for d in (70.0, 280.0):
        want_d = 0.77 * math.exp(-(d / 140.0) ** 2) + 0.23 * math.exp(-d / 1111.0)
        checks.append(abs(rg_shape(d) - want_d) / want_d < 1e-12)
    checks.append(abs(want - 0.4861) < 1e-4)
    ok = all(checks)
    announce(capsys, 10, ok, "reference covariance constants",
             f"{sum(checks)}/{len(checks)} exact identities hold")
    assert all(checks), checks


def test_11_fit_cost_scales_like_dense_factorization(capsys):
    """Per-evaluation fit cost grows between quadratic and quartic.

    Each likelihood evaluation is dominated by a dense Cholesky, so
    doubling the window from 100 to 200 to 400 observations should
    multiply the per-evaluation time by roughly 8 each step.  The
    bound is applied to the full 100-to-400 span (between 4^2=16 and
    16^2=256), which keeps the check robust to constant per-call
    overhead at the small end; each single doubling must still fall in
    a loose superlinear band.  Each size times the fit's objective
    (``gaussian._nll`` with its gradient) at one fixed point, the true
    ranges and noise-to-sill ratio, and keeps the least process CPU
    time of many evaluations: CPU time leaves out the time this process
    waits while others run, and the minimum leaves out evaluations
    slowed by them.  It runs at one BLAS thread, as map_grid and run_cv
    run fits: a second thread's CPU time is counted in some processes
    and not in others.
    """
    true = CovParams(1.0, 3.0, 5.0, 5.0, 0.3)
    z = profiled_point(true)
    start = time.perf_counter()
    per_eval = {}
    for m in (100, 200, 400):
        rng = np.random.default_rng(np.random.SeedSequence([11, m]))
        locs = np.column_stack([rng.uniform(-10, 10, m),
                                rng.uniform(-10, 10, m),
                                rng.uniform(0.0, 91.0, m)])
        prepared = gaussian._Prepared(simulate_field(true, locs, 1, seed=50),
                                      spatial=False)
        best = float("inf")
        with single_blas_thread():
            for _ in range(50):
                t0 = time.process_time()
                gaussian._nll(z, prepared, want_grad=True)
                best = min(best, time.process_time() - t0)
        per_eval[m] = best
    elapsed = time.perf_counter() - start
    r1 = per_eval[200] / per_eval[100]
    r2 = per_eval[400] / per_eval[200]
    overall = per_eval[400] / per_eval[100]
    ok = 16.0 <= overall <= 256.0 and 2.0 <= r1 <= 32.0 and 2.0 <= r2 <= 32.0
    announce(capsys, 11, ok, "fit cost scaling",
             f"per-eval x{r1:.1f} then x{r2:.1f} per doubling "
             f"(x{overall:.1f} overall, cubic ideal x64), {elapsed:.0f}s")
    assert 16.0 <= overall <= 256.0, overall
    assert 2.0 <= r1 <= 32.0 and 2.0 <= r2 <= 32.0, (r1, r2)
