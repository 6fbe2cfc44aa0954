"""Gaussian-nugget likelihood, fitting, and kriging tests."""

import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st
from scipy import linalg as sla
from scipy import special
from scipy.optimize import _lbfgsb_py

from mwgp.covariance import CovParams, SpaceTimePoint
from mwgp.errors import (
    FactorizationError,
    InsufficientDataError,
    InsufficientVarianceError,
    InvalidParameterError,
)
import mwgp.gaussian
from mwgp.gaussian import (
    LBFGS_OPTIONS,
    LOG_2PI,
    PENALTY,
    STATUS_MESSAGES,
    TASK_MESSAGES,
    GaussianPredictive,
    YearBlock,
    _encode,
    _nll,
    _Prepared,
    _scipy_ext,
    _spd_inverse,
    chol_spd,
    cholesky,
    default_init,
    dpotrs,
    dtrtrs,
    fit_mle_gaussian,
    gaussian_interval,
    lbfgsb,
    ndtri,
    pooled_window_variance,
)
from mwgp.validation import simulate_field
from mwgp.windows import GaussianFamily

from conftest import (
    PARAMS,
    GroupedLags,
    PackedLags,
    dense_mvn_loglik,
    explicit_conditional,
    full_point,
    gauss_loglik,
    grouped_nll,
    lbfgsb_minimize,
    packed_nll,
    profiled_point,
    random_block,
)


krige = GaussianFamily(spatial=False).predict  # kriging law of one target


def synth_blocks(params, m, n_years, seed, span=6.0):
    rng = np.random.default_rng(seed)
    locs = np.column_stack([rng.uniform(-span, span, m),
                            rng.uniform(-span, span, m),
                            rng.uniform(0.0, 60.0, m)])
    return simulate_field(params, locs, n_years, seed)


class TestGaussLoglik:
    def test_scalar_zero_observation(self):
        block = YearBlock(0, [0.0], [0.0], [0.0], [0.0])
        expected = -0.5 * (math.log(PARAMS.phi + PARAMS.sigma2)
                           + math.log(2.0 * math.pi))
        assert gauss_loglik([block], PARAMS) == pytest.approx(expected, rel=1e-12)

    def test_additive_over_years(self, rng):
        a = random_block(rng, 5, year=0)
        b = random_block(rng, 7, year=1)
        total = gauss_loglik([a, b], PARAMS)
        assert total == pytest.approx(
            gauss_loglik([a], PARAMS) + gauss_loglik([b], PARAMS), rel=1e-12)

    def test_empty_block_contributes_zero(self, rng):
        a = random_block(rng, 4)
        empty = YearBlock(1, [], [], [], [])
        assert gauss_loglik([a, empty], PARAMS) == \
            pytest.approx(gauss_loglik([a], PARAMS), rel=1e-14)

    def test_dense_mvn_oracle(self, rng):
        from mwgp.covariance import cov_matrix
        for _ in range(25):
            m = int(rng.integers(1, 7))
            block = random_block(rng, m)
            cov = cov_matrix(block.points, PARAMS) + PARAMS.sigma2 * np.eye(m)
            expected = dense_mvn_loglik(block.values, cov)
            got = gauss_loglik([block], PARAMS)
            assert abs(got - expected) <= 1e-8 * abs(expected)

    def test_invariant_to_observation_order(self, rng):
        block = random_block(rng, 9)
        perm = rng.permutation(9)
        shuffled = YearBlock(0, block.lat[perm], block.lon[perm],
                             block.t[perm], block.values[perm])
        assert gauss_loglik([shuffled], PARAMS) == \
            pytest.approx(gauss_loglik([block], PARAMS), rel=1e-10)

    def test_invariant_to_year_order(self, rng):
        blocks = [random_block(rng, 5, year=y) for y in range(3)]
        assert gauss_loglik(list(reversed(blocks)), PARAMS) == \
            pytest.approx(gauss_loglik(blocks, PARAMS), rel=1e-12)


class TestCholSpd:
    def test_gram_identity(self, rng):
        A = rng.standard_normal((6, 6))
        spd = A @ A.T + 6 * np.eye(6)
        L = chol_spd(spd, scale=1.0)
        np.testing.assert_allclose(L @ L.T, spd, rtol=1e-10, atol=1e-10)

    def test_failure_reported(self):
        # Eigenvalue -1: the escalating ridge tops out at 1e-4 * scale.
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(FactorizationError):
            chol_spd(bad, scale=1.0)


def assert_envelope(z, prepared, oracle):
    """The profiled objective at z against ``oracle``, the full-parameter
    objective's (value, gradient), at x = (log phi_hat, log theta,
    log tau phi_hat): equal values, equal range and log tau / log sigma2
    partials, and a zero partial along the sill direction (log phi and
    log sigma2 together)."""
    val, grad = _nll(z, prepared, want_grad=True)
    phi_hat = prepared.phi_hat
    assert _nll(z, prepared, want_grad=False) == val
    assert prepared.phi_hat == phi_hat
    ref, ref_grad = oracle(full_point(z, phi_hat))
    scale = max(np.max(np.abs(ref_grad)), 1e-3 * abs(ref))  # ref_grad is 0 at m = 1
    assert abs(val - ref) <= 1e-12 * abs(ref)
    assert np.max(np.abs(grad[:-1] - ref_grad[1:-1])) <= 1e-10 * scale
    assert abs(grad[-1] - ref_grad[-1]) <= 1e-10 * scale
    assert abs(ref_grad[0] + ref_grad[-1]) <= 1e-10 * scale


class TestNll:
    @pytest.mark.parametrize("spatial", [False, True])
    @pytest.mark.parametrize("axis", [0, -1])  # log theta_lat, log tau
    def test_overflowing_point_is_penalized_silently(self, rng, spatial, axis):
        # A line-search step to log theta or log tau = 800 overflows
        # exp; the objective backs the optimizer off instead of raising
        # or warning.
        block = random_block(rng, 12)
        z = profiled_point(PARAMS, spatial)
        z[axis] = 800.0
        prepared = _Prepared([block], spatial)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val, grad = _nll(z, prepared, want_grad=True)
            assert _nll(z, prepared, want_grad=False) == PENALTY
        assert val == PENALTY
        np.testing.assert_array_equal(grad, np.zeros_like(z))

    @pytest.mark.parametrize("log_theta", [-240.0, -300.0])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_vanishing_range_keeps_gradient_finite(self, rng, axis, log_theta):
        # theta**3 overflows 0.5 / theta**3 at log theta = -240 and
        # underflows to zero at -300, while the lag sum it scales is 0.
        block = random_block(rng, 12)
        z = profiled_point(PARAMS)
        z[axis] = log_theta
        prepared = _Prepared([block], False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val, grad = _nll(z, prepared, want_grad=True)
        assert np.isfinite(val) and val != PENALTY
        assert np.all(np.isfinite(grad))
        assert grad[axis] == 0.0

    @pytest.mark.parametrize("spatial", [False, True])
    def test_extreme_ranges_evaluate_silently(self, rng, spatial):
        # At log theta = -400 theta^-2 overflows and the point scores
        # PENALTY; at +400 it underflows to 0 and the axis drops out.
        block = random_block(rng, 12)
        prepared = _Prepared([block], spatial)
        for axis in range(2 if spatial else 3):
            for log_theta in (-400.0, 400.0):
                z = profiled_point(PARAMS, spatial)
                z[axis] = log_theta
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    val, grad = _nll(z, prepared, want_grad=True)
                if log_theta < 0.0:
                    assert val == PENALTY
                    np.testing.assert_array_equal(grad, np.zeros_like(z))
                else:
                    assert np.isfinite(val) and val != PENALTY
                    assert np.all(np.isfinite(grad)) and grad[axis] == 0.0

    def test_zero_quadratic_form_is_penalized(self):
        # All values zero: Q = 0 has no sill estimate.
        block = YearBlock(0, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [0.0, 0.0])
        prepared = _Prepared([block], False)
        val, grad = _nll(profiled_point(PARAMS), prepared, want_grad=True)
        assert val == PENALTY
        np.testing.assert_array_equal(grad, np.zeros(4))


class TestNllOracle:
    """The profiled objective against the full-matrix, grouped
    full-parameter objective, through the envelope identities."""

    # Block sizes per case; "again" repeats block 0's geometry with new values.
    CASES = [(9,), (1,), (0, 7), (5, 1, 0, 12), (14, "again"),
             (6, 0, "again", 3), (2, 2, 2, 2), (1, 1, 0, 0)]

    @staticmethod
    def blocks_for(case, rng, duplicate):
        blocks = []
        for year, size in enumerate(case):
            if size == "again":
                b0 = blocks[0]
                blocks.append(YearBlock(year, b0.lat, b0.lon, b0.t,
                                        rng.standard_normal(b0.m)))
                continue
            b = random_block(rng, size, year=year)
            if duplicate and b.m >= 3:  # a repeated position within the year
                b.lat[2], b.lon[2], b.t[2] = b.lat[0], b.lon[0], b.t[0]
            blocks.append(b)
        return blocks

    @pytest.mark.parametrize("spatial", [False, True])
    @pytest.mark.parametrize("duplicate", [False, True])
    def test_envelope_identities_against_grouped_oracle(self, spatial, duplicate):
        rng = np.random.default_rng([31, spatial, duplicate])
        for case in self.CASES:
            blocks = self.blocks_for(case, rng, duplicate)
            for _ in range(5):
                z = profiled_point(PARAMS, spatial) + rng.uniform(-1.5, 1.5, 3 if spatial else 4)
                assert_envelope(z, _Prepared(blocks, spatial), lambda x: grouped_nll(
                    x, GroupedLags(blocks, spatial), PARAMS, True))

    def test_single_point_profile_is_flat_in_tau(self):
        # One observation: C = 1 + tau, phi_hat = y^2 / (1 + tau), so
        # the value is (log y^2 + 1 + log 2 pi) / 2 at every tau.
        block = YearBlock(0, [1.0], [2.0], [3.0], [0.7])
        prepared = _Prepared([block], False)
        for log_tau in (-3.0, 0.0, 2.5):
            val, grad = _nll(np.array([0.5, 1.0, 1.5, log_tau]), prepared, True)
            assert val == pytest.approx(0.5 * (math.log(0.49) + 1.0 + LOG_2PI), rel=1e-14)
            assert np.max(np.abs(grad)) <= 1e-15
            assert prepared.phi_hat == pytest.approx(0.49 / (1.0 + math.exp(log_tau)),
                                                     rel=1e-14)


class TestNllBuffers:
    """The objective on its reused buffers: to the bit as on fresh ones,
    and by the envelope identities against the unbuffered oracle."""

    @staticmethod
    def assert_same(z, prepared, blocks, spatial):
        val, grad = _nll(z, prepared, want_grad=True)
        fresh, fresh_grad = _nll(z, _Prepared(blocks, spatial), want_grad=True)
        assert np.float64(val).tobytes() == np.float64(fresh).tobytes()
        assert grad.tobytes() == fresh_grad.tobytes()
        assert _nll(z, prepared, want_grad=False) == val
        return val

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_equals_fresh_buffers_and_oracle(self, data):
        # One to three year blocks, one of them empty, on a quarter-degree
        # lattice so positions can repeat; several points evaluated in
        # turn on one set of buffers, a PENALTY point among them.
        spatial = data.draw(st.booleans())
        sizes = data.draw(st.lists(st.integers(1, 12), max_size=2))
        sizes.insert(data.draw(st.integers(0, len(sizes))), 0)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        blocks = [YearBlock(year, rng.integers(-8, 9, m) / 4.0, rng.integers(-8, 9, m) / 4.0,
                            rng.integers(0, 5, m) * 10.0, rng.standard_normal(m))
                  for year, m in enumerate(sizes)]
        prepared = _Prepared(blocks, spatial)
        center = profiled_point(PARAMS, spatial)
        penalized = data.draw(st.integers(0, 3))
        for k in range(4):
            z = center + rng.uniform(-2.0, 2.0, center.size)
            if k == penalized:
                z[-1] = 800.0
            if self.assert_same(z, prepared, blocks, spatial) != PENALTY:
                assert_envelope(z, prepared, lambda x: packed_nll(
                    x, PackedLags(blocks, spatial), True))

    @pytest.mark.parametrize("spatial", [False, True])
    def test_ridged_block(self, monkeypatch, spatial):
        # Points 0 and 1 coincide and C_00 = 1 + tau = 1 + e^-60 / 4
        # rounds to 1, so the plain Cholesky meets a zero pivot and
        # chol_spd retries with its ridge; the second block factors
        # plainly.  The oracle's Sigma = phi_hat C rounds to a pivot of
        # either sign, so the value is checked at phi = 1 instead, where
        # the oracle factors C itself: the profile is the full nll there
        # plus n (log phi_hat + 1 - phi_hat) / 2.
        rng = np.random.default_rng(7)
        ridged = random_block(rng, 9)
        ridged.lat[1], ridged.lon[1], ridged.t[1] = ridged.lat[0], ridged.lon[0], ridged.t[0]
        blocks = [ridged, YearBlock(1, [], [], [], []), random_block(rng, 6, year=2)]
        z = profiled_point(replace(PARAMS, phi=4.0, sigma2=math.exp(-60.0)), spatial)
        calls = []
        real = mwgp.gaussian.dpotrf

        def counted(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(mwgp.gaussian, "dpotrf", counted)
        prepared = _Prepared(blocks, spatial)
        _nll(profiled_point(PARAMS, spatial), prepared, want_grad=True)
        assert len(calls) == 2  # one plain factorization per nonempty block
        del calls[:]
        val = self.assert_same(z, prepared, blocks, spatial)
        nll_1 = packed_nll(full_point(z, 1.0), PackedLags(blocks, spatial), False)
        n, phi_hat = prepared.n_obs, prepared.phi_hat
        # The ridge leaves Q = n phi_hat large, so nll_1 sets the rounding.
        assert abs(val - nll_1 - 0.5 * n * (math.log(phi_hat) + 1.0 - phi_hat)) \
            <= 1e-12 * abs(nll_1)
        assert len(calls) > 2 * 4  # the ridge retried, in each of the four calls


class TestLbfgsb:
    """The L-BFGS-B driver against scipy's ``minimize``, to the bit."""

    @staticmethod
    def windows():
        """(objective, x0) of Gaussian windows: two year blocks of 30-60 points."""
        out = []
        for seed, spatial in ((3, False), (4, True), (5, False)):
            rng = np.random.default_rng(seed)
            blocks = [random_block(rng, int(rng.integers(30, 61)), year=y) for y in (0, 1)]
            prepared = _Prepared(blocks, spatial)
            init = default_init(pooled_window_variance(blocks))
            out.append((lambda z, p=prepared: _nll(z, p, True),
                        profiled_point(init, spatial)))
        blocks = synth_blocks(CovParams(1.0, 3.0, 5.0, 5.0, 0.3), 46, 2, seed=11)
        prepared = _Prepared(blocks, False)
        init = default_init(pooled_window_variance(blocks))
        out.append((lambda z: _nll(z, prepared, True), profiled_point(init)))
        return out

    @staticmethod
    def assert_as_minimize(fun, x0, bounds=None):
        """Run both; return the driver's result and its objective's calls."""
        calls = []

        def counted(x):
            calls.append(x.copy())
            return fun(x)

        start = x0.copy()
        out = lbfgsb(counted, x0, bounds)
        x, f, g, nit, nfev, success, message = out
        res = lbfgsb_minimize(fun, x0, bounds)
        assert x.tobytes() == res.x.tobytes()
        assert np.float64(f).tobytes() == np.float64(res.fun).tobytes()
        assert g.tobytes() == res.jac.tobytes()
        assert (nit, nfev, success, message) == (res.nit, res.nfev, res.success, res.message)
        assert nfev == len(calls)
        assert x0.tobytes() == start.tobytes()
        return out, calls

    @pytest.mark.parametrize("half", [None, 20.0, 3.0])
    def test_equals_minimize(self, half):
        for fun, x0 in self.windows():
            bounds = None if half is None else (x0 - half, x0 + half)
            (_, _, _, _, _, success, _), _ = self.assert_as_minimize(fun, x0, bounds)
            assert success

    def test_start_outside_the_box_is_clipped(self):
        for fun, x0 in self.windows():
            shift = np.zeros_like(x0)
            shift[0], shift[-1] = 4.0, -4.0
            bounds = (x0 + shift - 3.0, x0 + shift + 3.0)
            _, calls = self.assert_as_minimize(fun, x0, bounds)
            assert calls[0].tobytes() == np.clip(x0, *bounds).tobytes()

    def test_maxiter_stop(self, monkeypatch):
        monkeypatch.setitem(LBFGS_OPTIONS, "maxiter", 3)
        for fun, x0 in self.windows():
            (_, _, _, nit, _, success, message), _ = self.assert_as_minimize(fun, x0)
            assert (nit, success) == (3, False)
            assert message == "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"

    def test_penalty_on_part_of_a_line_search(self):
        # Beyond a ceiling on the coordinate that the free fit raises
        # most, the objective scores PENALTY with a zero gradient, as
        # _nll does where exp overflows; the line search backs off and
        # the fit ends below the ceiling.
        for fun, x0 in self.windows():
            k = int(np.argmax(lbfgsb(fun, x0)[0] - x0))
            top = x0[k] + 0.05

            def capped(x, fun=fun, k=k, top=top):
                return (PENALTY, np.zeros_like(x)) if x[k] > top else fun(x)

            (_, f, _, _, _, _, _), calls = self.assert_as_minimize(capped, x0)
            assert any(x[k] > top for x in calls)
            assert f < PENALTY


# Fits, predictions, intervals and a tiny map in a fresh interpreter.
# argv[1] imports scipy's linalg, special and optimize packages "first"
# (before the package), "after" it (before any fit), or "never".
# Prints each result's repr (exact for floats), the map's prediction
# digest, whether the three packages ended up loaded, and, with them
# imported last, whether each drives the compiled module the package
# loaded.
LOADER_SCRIPT = """
import hashlib, pathlib, sys, tempfile
PACKAGES = ("scipy.linalg", "scipy.special", "scipy.optimize")
def import_packages():
    import scipy.linalg, scipy.optimize, scipy.special
if sys.argv[1] == "first":
    import_packages()
import numpy as np
from mwgp.cli import main
from mwgp.covariance import CovParams, SpaceTimePoint
from mwgp.gaussian import (GaussianPredictive, fit_mle_gaussian,
                           gaussian_interval, holdout_predictions,
                           predict_gaussian, gaussian_system)
from mwgp.student import fit_mle_student, predict_student, student_interval
from mwgp.validation import DEFAULT_LEVELS, simulate_field
if sys.argv[1] == "after":
    import_packages()

rng = np.random.default_rng(5)
locs = np.column_stack([rng.uniform(-6, 6, 40), rng.uniform(-6, 6, 40),
                        rng.uniform(0, 60, 40)])
blocks = simulate_field(CovParams(1.0, 3.0, 5.0, 5.0, 0.3), locs, 2, 5)
alphas = 1.0 - np.array(DEFAULT_LEVELS)
gfit, _ = fit_mle_gaussian(blocks)
sfit, _ = fit_mle_student(blocks)
target = SpaceTimePoint(0.5, -0.5, 30.0)
Sigma, K_star = gaussian_system([target], blocks[0], gfit)
gpred = predict_gaussian(Sigma, blocks[0].values, K_star[0],
                         (gfit.phi, gfit.phi + gfit.sigma2, 1.0))
spred = predict_student(target, blocks[0], sfit)
for value in (gfit, sfit, gpred, spred,
              holdout_predictions(Sigma, blocks[0].values, np.repeat(K_star, 2, 0),
                                  gfit.phi + gfit.sigma2, [[3], [4, 7]]),
              [b.tolist() for b in gaussian_interval(gpred, alphas)],
              [b.tolist() for b in student_interval(spred, alphas)]):
    print(repr(value))
with tempfile.TemporaryDirectory() as tmp:
    assert main(["simulate", "--out", f"{tmp}/sim", "--seed", "5",
                 "--set", "sim_m=60", "--set", "sim_years=2"]) == 0
    assert main(["map", "--profiles", f"{tmp}/sim/profiles.csv",
                 "--variant", "2", "--out", f"{tmp}/map",
                 "--set", "lat_min=0", "--set", "lat_max=1",
                 "--set", "lon_min=0", "--set", "lon_max=0"]) == 0
    print(hashlib.sha256(pathlib.Path(tmp, "map", "prediction.csv")
                         .read_bytes()).hexdigest())
print([name in sys.modules for name in PACKAGES])
import_packages()
import mwgp.gaussian, mwgp.student, scipy.linalg.lapack, scipy.optimize._lbfgsb_py
print([scipy.optimize._lbfgsb_py._lbfgsb.setulb is mwgp.gaussian.setulb,
       scipy.linalg.lapack.dpotrf is mwgp.gaussian.dpotrf,
       scipy.linalg.lapack.dgetrs is mwgp.student.dgetrs,
       scipy.special.digamma is mwgp.student.digamma,
       scipy.special.ndtr is mwgp.student.ndtr])
"""
N_RESULTS = 8  # the lines before the loaded flags


def run_loader_script(mode: str) -> list[str]:
    src = os.path.dirname(os.path.dirname(mwgp.gaussian.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", LOADER_SCRIPT, mode], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


@pytest.fixture(scope="module")
def loader_runs():
    return {mode: run_loader_script(mode) for mode in ("never", "first", "after")}


class TestScipyExtLoader:
    """scipy's compiled cores are loaded without their packages."""

    def test_package_runs_without_the_scipy_packages(self, loader_runs):
        assert loader_runs["never"][N_RESULTS:] == ["[False, False, False]",
                                                    "[True, True, True, True, True]"]

    @pytest.mark.parametrize("mode", ["first", "after"])
    def test_results_equal_whenever_the_packages_are_imported(self, loader_runs, mode):
        runs = loader_runs[mode]
        assert runs[N_RESULTS:] == ["[True, True, True]",
                                    "[True, True, True, True, True]"]
        assert runs[:N_RESULTS] == loader_runs["never"][:N_RESULTS]

    def test_message_tables_are_scipys(self):
        assert STATUS_MESSAGES == _lbfgsb_py.status_messages
        assert TASK_MESSAGES == _lbfgsb_py.task_messages

    @pytest.mark.parametrize("package, name", [("optimize", "_lbfgsb"),
                                               ("linalg", "_flapack"),
                                               ("special", "_special_ufuncs")])
    def test_changed_scipy_layout_names_the_directory(self, monkeypatch, tmp_path,
                                                      package, name):
        monkeypatch.delitem(sys.modules, f"scipy.{package}.{name}")
        monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
        with pytest.raises(ImportError, match=re.escape(str(tmp_path / package))):
            _scipy_ext(package, name)

    def test_registered_module_is_reused(self):
        assert _scipy_ext("linalg", "_flapack") is sys.modules["scipy.linalg._flapack"]
        assert mwgp.gaussian.dpotrf is sla.lapack.dpotrf


def assert_bitwise(actual, expected):
    """Equal to the bit, NaN matching NaN."""
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    np.testing.assert_array_equal(actual[~nan].view(np.int64),
                                  expected[~nan].view(np.int64))


def ndtri_points() -> np.ndarray:
    """Probabilities over all three branches of Cephes' ndtri, both tails,
    the branch edges and the special values."""
    rng = np.random.default_rng(11)
    expm2, expm32 = math.exp(-2.0), math.exp(-32.0)
    eps = np.finfo(float).eps
    edges = [expm2, 1.0 - expm2, expm32, 1.0 - expm32, 0.5]
    edges += [np.nextafter(e, d) for e in edges for d in (0.0, 1.0)]
    return np.concatenate([
        rng.uniform(expm2, 1.0 - expm2, 40_000),            # central
        np.exp(-rng.uniform(2.0, 32.0, 25_000)),           # lower tail, z < 8
        np.exp(-rng.uniform(32.0, 744.0, 25_000)),         # lower tail, z >= 8
        1.0 - np.exp(-rng.uniform(2.0, 36.0, 20_000)),     # upper tail
        1.0 - eps / 2.0 * np.arange(1, 300),               # upper tail, z >= 8
        edges, [0.0, 1.0, 5e-324, 2.2e-308, -1e-300, -0.5, 1.5, 1.0 + eps,
                np.inf, -np.inf, np.nan]])


class TestScipySources:
    """The package's own sources of scipy functions, to the bit."""

    def test_ndtri_array(self):
        p = ndtri_points()
        assert p.size >= 100_000
        assert_bitwise(ndtri(p), special.ndtri(p))
        grid = p[:p.size // 3 * 3].reshape(3, -1)
        assert_bitwise(ndtri(grid), special.ndtri(grid))

    def test_ndtri_scalar(self):
        p = ndtri_points()[::40].tolist() + [0.0, 1.0, -0.5, 1.5, math.nan]
        for x in p:
            value = ndtri(x)
            assert type(value) is float
            assert_bitwise(value, special.ndtri(x))
        assert_bitwise(ndtri(np.float64(0.3)), special.ndtri(0.3))

    @pytest.mark.parametrize("m", [48, 120, 260])
    def test_lapack_call_sites(self, m):
        rng = np.random.default_rng(m)
        X = rng.standard_normal((m, m))
        A = X @ X.T / m + 0.05 * np.eye(m)
        L = cholesky(A)
        assert_bitwise(L, sla.cholesky(A, lower=True, check_finite=False))
        for b in (rng.standard_normal(m), rng.standard_normal((m, 3))):
            assert_bitwise(dpotrs(L, b, lower=1)[0],
                           sla.cho_solve((L, True), b, check_finite=False))
            assert_bitwise(dtrtrs(L, b, lower=1)[0],
                           sla.solve_triangular(L, b, lower=True, check_finite=False))

    def test_cholesky_of_non_pd_raises_linalg_error(self):
        A = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(np.linalg.LinAlgError, match="2-th leading minor"):
            cholesky(A)
        with pytest.raises(np.linalg.LinAlgError):
            sla.cholesky(A, lower=True, check_finite=False)

    def test_spd_inverse_reads_the_lower_triangle_alone(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 30))
        A = X @ X.T / 30 + 0.1 * np.eye(30)
        L = cholesky(A)
        dirty = L + np.triu(rng.standard_normal((30, 30)), 1)
        assert_bitwise(_spd_inverse(dirty), _spd_inverse(L))
        np.testing.assert_allclose(_spd_inverse(L), np.linalg.inv(A), rtol=1e-9, atol=1e-9)

    def test_spd_inverse_keeps_dpotri_layout(self):
        # Kriging products round by the operand's memory order, so the
        # inverse is the zero-upper factor's dpotri result, mirrored, in
        # dpotri's Fortran order: a C-ordered copy moves CV predictions.
        rng = np.random.default_rng(4)
        X = rng.standard_normal((40, 40))
        A = X @ X.T / 40 + 0.1 * np.eye(40)
        inv = sla.lapack.dpotri(sla.cholesky(A, lower=True), lower=1)[0]
        P = _spd_inverse(cholesky(A))
        assert P.flags.f_contiguous
        assert_bitwise(P, inv + np.tril(inv, -1).T)
        y = rng.standard_normal(40)
        assert_bitwise(P @ y, (inv + np.tril(inv, -1).T) @ y)


class TestFitMleGaussian:
    def test_insufficient_data(self, rng):
        block = random_block(rng, 5)
        with pytest.raises(InsufficientDataError):
            fit_mle_gaussian([block])

    def test_degenerate_values_rejected(self):
        rng = np.random.default_rng(0)
        block = YearBlock(0, rng.uniform(-3, 3, 25), rng.uniform(-3, 3, 25),
                          rng.uniform(0, 30, 25), np.full(25, 2.5))
        with pytest.raises(InsufficientVarianceError):
            fit_mle_gaussian([block])

    def test_ascent_from_default_init(self):
        params = CovParams(1.0, 3.0, 5.0, 5.0, 0.3)
        blocks = synth_blocks(params, 60, 2, seed=11)
        init = default_init(pooled_window_variance(blocks))
        fitted, report = fit_mle_gaussian(blocks, init)
        assert gauss_loglik(blocks, fitted) >= gauss_loglik(blocks, init) - 1e-6
        assert report.loglik == pytest.approx(gauss_loglik(blocks, fitted),
                                              rel=1e-9)

    def test_gradient_small_at_optimum(self):
        params = CovParams(1.0, 3.0, 5.0, 5.0, 0.3)
        blocks = synth_blocks(params, 80, 2, seed=3)
        fitted, report = fit_mle_gaussian(blocks)
        base = gauss_loglik(blocks, fitted)
        # central finite differences on the log-parameters
        eps = 1e-5
        grads = []
        for name in ("phi", "theta_lat", "theta_lon", "theta_t", "sigma2"):
            hi = {name: getattr(fitted, name) * math.exp(eps)}
            lo = {name: getattr(fitted, name) * math.exp(-eps)}
            from dataclasses import replace
            up = gauss_loglik(blocks, replace(fitted, **hi))
            dn = gauss_loglik(blocks, replace(fitted, **lo))
            grads.append((up - dn) / (2 * eps))
        assert np.max(np.abs(grads)) < 1e-3 * abs(base)

    @pytest.mark.parametrize("seed,spatial", [(3, False), (7, True), (11, False), (12, True)])
    def test_sill_is_the_closed_form(self, seed, spatial):
        # At the returned params the full objective is stationary along
        # the sill direction (phi and sigma2 scaled together), as it is
        # exactly at phi_hat = y'C^-1 y / n and not merely to the
        # optimizer's tolerance; the loglik is the full model's.
        blocks = synth_blocks(CovParams(1.0, 3.0, 5.0, 5.0, 0.3), 60, 2, seed=seed)
        fitted, report = fit_mle_gaussian(blocks, spatial=spatial)
        ll, grad = packed_nll(_encode(fitted, spatial), PackedLags(blocks, spatial), True)
        assert abs(grad[0] + grad[-1]) <= 1e-8 * abs(ll)
        assert report.loglik == pytest.approx(gauss_loglik(blocks, fitted, spatial), rel=1e-12)
        assert report.grad_norm == pytest.approx(
            np.max(np.abs(grad[1:])), rel=1e-6, abs=1e-9 * abs(ll))

    def test_bitwise_reproducible(self):
        params = CovParams(1.0, 3.0, 5.0, 5.0, 0.3)
        blocks = synth_blocks(params, 60, 2, seed=7)
        f1, _ = fit_mle_gaussian(blocks)
        f2, _ = fit_mle_gaussian(blocks)
        assert f1 == f2

    def test_moderate_recovery_sanity(self):
        # Light version of the full recovery study: one seed, loose
        # factor-of-2 bands, just to catch gross estimator breakage.
        params = CovParams(1.0, 3.0, 5.0, 5.0, 0.3)
        blocks = synth_blocks(params, 250, 6, seed=1)
        fitted, report = fit_mle_gaussian(blocks)
        assert report.converged
        for name in ("phi", "theta_lat", "theta_lon", "theta_t", "sigma2"):
            ratio = getattr(fitted, name) / getattr(params, name)
            assert 0.5 < ratio < 2.0, f"{name} off by {ratio}"


class TestPredictGaussian:
    def test_prior_for_empty_block(self):
        empty = YearBlock(0, [], [], [], [])
        pred = krige(SpaceTimePoint(0, 0, 0), empty, PARAMS)
        assert pred.mean == 0.0
        assert pred.variance == pytest.approx(PARAMS.phi + PARAMS.sigma2)

    def test_single_coincident_observation(self):
        y1 = 1.7
        block = YearBlock(0, [2.0], [3.0], [4.0], [y1])
        pred = krige(SpaceTimePoint(2.0, 3.0, 4.0), block, PARAMS)
        tot = PARAMS.phi + PARAMS.sigma2
        assert pred.mean == pytest.approx(PARAMS.phi / tot * y1, rel=1e-12)
        assert pred.variance == pytest.approx(tot - PARAMS.phi ** 2 / tot,
                                              rel=1e-12)

    def test_zero_nugget_interpolates_exactly(self):
        params = CovParams(1.3, 2.0, 4.0, 7.0, 0.0)
        block = YearBlock(0, [1.0, -2.0], [0.5, 3.0], [10.0, 20.0], [0.7, -0.4])
        pred = krige(SpaceTimePoint(1.0, 0.5, 10.0), block, params)
        assert pred.mean == pytest.approx(0.7, rel=1e-9)
        assert pred.variance == pytest.approx(0.0, abs=1e-9)

    def test_conditional_gaussian_oracle(self, rng):
        for _ in range(25):
            m = int(rng.integers(1, 7))
            block = random_block(rng, m)
            target = SpaceTimePoint(rng.uniform(-6, 6), rng.uniform(-6, 6),
                                    rng.uniform(0, 40))
            mean, var = explicit_conditional(target, block, PARAMS)
            pred = krige(target, block, PARAMS)
            assert abs(pred.mean - mean) <= 1e-8 * max(1.0, abs(mean))
            assert abs(pred.variance - var) <= 1e-8 * max(1.0, abs(var))

    def test_variance_bounds(self, rng):
        for _ in range(10):
            block = random_block(rng, int(rng.integers(1, 9)))
            target = SpaceTimePoint(rng.uniform(-6, 6), rng.uniform(-6, 6),
                                    rng.uniform(0, 40))
            pred = krige(target, block, PARAMS)
            assert 0.0 <= pred.variance <= PARAMS.phi + PARAMS.sigma2 + 1e-12

    def test_extra_observation_never_inflates_variance(self, rng):
        for _ in range(10):
            block = random_block(rng, 6)
            target = SpaceTimePoint(rng.uniform(-4, 4), rng.uniform(-4, 4),
                                    rng.uniform(0, 40))
            smaller = block.subset(np.arange(6) < 5)
            v_small = krige(target, smaller, PARAMS).variance
            v_full = krige(target, block, PARAMS).variance
            assert v_full <= v_small + 1e-10


class TestGaussianInterval:
    def test_standard_normal_quantile(self):
        lo, hi = gaussian_interval(GaussianPredictive(0.0, 1.0), 0.05)
        assert hi == pytest.approx(1.959964, abs=1e-5)
        assert lo == pytest.approx(-hi)

    def test_degenerate_variance(self):
        lo, hi = gaussian_interval(GaussianPredictive(2.0, 0.0), 0.1)
        assert lo == hi == 2.0

    def test_width_scales_with_sd(self):
        w1 = np.diff(gaussian_interval(GaussianPredictive(0, 1.0), 0.05))[0]
        w4 = np.diff(gaussian_interval(GaussianPredictive(0, 4.0), 0.05))[0]
        assert w4 == pytest.approx(2.0 * w1, rel=1e-12)

    @given(st.floats(0.01, 0.5), st.floats(0.01, 0.5))
    def test_nesting(self, a1, a2):
        wide, narrow = sorted((a1, a2))
        pred = GaussianPredictive(0.3, 2.0)
        lo_w, hi_w = gaussian_interval(pred, wide)
        lo_n, hi_n = gaussian_interval(pred, narrow)
        assert lo_w <= lo_n + 1e-12 and hi_n <= hi_w + 1e-12

    def test_array_alpha_matches_scalar_calls(self):
        pred = GaussianPredictive(0.3, 2.0)
        alphas = np.array([0.5, 0.1, 0.01])
        lower, upper = gaussian_interval(pred, alphas)
        assert lower.shape == upper.shape == (3,)
        for a, lo, hi in zip(alphas, lower, upper):
            assert gaussian_interval(pred, float(a)) == (lo, hi)
        assert all(type(b) is float for b in gaussian_interval(pred, 0.1))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5, [0.1, 1.0]])
    def test_alpha_validated(self, alpha):
        with pytest.raises(InvalidParameterError):
            gaussian_interval(GaussianPredictive(0, 1), alpha)
