"""Kernel, distance, and fixed-shape covariance tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mwgp.covariance import (
    KM_PER_DEG,
    CovParams,
    RG_DEFAULT,
    SpaceTimePoint,
    as_point_array,
    cov_matrix,
    cross_cov_vector,
    cross_sq_lags,
    rg_corr_matrix,
    rg_corr_vector,
    rg_distances,
    rg_shape,
    rg_tropic_factor,
    scaled_distance,
    wrap_dlon,
    wrap_lon,
)
from mwgp.errors import EmptyInputError, InvalidParameterError

from mwgp.gaussian import YearBlock, gaussian_system
from mwgp.windows import ReferenceFamily

from conftest import (
    PARAMS,
    anisotropic_distance,
    cross_cov_loop,
    exp_cov,
    rg_corr_loop,
    rg_cov,
    rg_distance,
)

finite_lats = st.floats(-90.0, 90.0)
finite_lons = st.floats(-1000.0, 1000.0, allow_nan=False)
days = st.floats(0.0, 366.0)


def pt(lat=0.0, lon=0.0, t=0.0):
    return SpaceTimePoint(lat, lon, t)


def lib_rg_distance(x1, x2, tropic=True):
    """The library's vector RG distance for one pair of (lat, lon)."""
    return float(rg_distances(x1[0], x1[1], [x2[0]], [x2[1]], tropic)[0])


def lib_rg_corr(x1, x2, tropic=True):
    """The library's RG correlation for one pair of (lat, lon)."""
    return float(rg_corr_vector(x1[0], x1[1], [x2[0]], [x2[1]],
                                tropic=tropic)[0])


def rg_shape_by_hand(d):
    return 0.77 * math.exp(-(d / 140.0) ** 2) + 0.23 * math.exp(-d / 1111.0)


class TestWrapping:
    @given(finite_lons)
    def test_wrap_lon_range(self, lon):
        assert -180.0 <= wrap_lon(lon) < 180.0

    @given(finite_lons)
    def test_wrap_lon_period(self, lon):
        assert wrap_lon(lon + 360.0) == pytest.approx(wrap_lon(lon), abs=1e-9)

    @given(st.floats(-720.0, 720.0))
    def test_wrap_dlon_range(self, d):
        assert -180.0 < wrap_dlon(d) <= 180.0

    @given(st.floats(-300.0, 300.0))
    def test_wrap_dlon_preserves_magnitude_mod_circle(self, d):
        w = wrap_dlon(d)
        assert math.isclose(math.cos(math.radians(w)),
                            math.cos(math.radians(d)), abs_tol=1e-12)

    def test_antimeridian_shortcut(self):
        assert wrap_dlon(-179.5 - 179.5) == pytest.approx(1.0)


class TestSpaceTimePoint:
    def test_lon_normalized(self):
        assert pt(0.0, 190.0).lon == pytest.approx(-170.0)

    def test_lat_validated(self):
        with pytest.raises(InvalidParameterError):
            pt(95.0, 0.0)

    def test_point_array_shape(self):
        arr = as_point_array([pt(1, 2, 3), pt(4, 5, 6)])
        assert arr.shape == (2, 3)
        np.testing.assert_allclose(arr[1], [4, 5, 6])


class TestCovParams:
    def test_positive_fields_required(self):
        with pytest.raises(InvalidParameterError):
            CovParams(-1.0, 1.0, 1.0, 1.0, 0.1)
        with pytest.raises(InvalidParameterError):
            CovParams(1.0, 0.0, 1.0, 1.0, 0.1)

    def test_zero_nugget_permitted(self):
        assert CovParams(1.0, 1.0, 1.0, 1.0, 0.0).sigma2 == 0.0


class TestAnisotropicDistance:
    def test_identity(self):
        p = pt(3.0, 4.0, 5.0)
        assert anisotropic_distance(p, p, PARAMS) == 0.0

    def test_unit_normalization(self):
        d = anisotropic_distance(pt(PARAMS.theta_lat, 0, 0), pt(0, 0, 0), PARAMS)
        assert d == pytest.approx(1.0)

    def test_three_four_five(self):
        p1 = pt(3.0 * PARAMS.theta_lat, 4.0 * PARAMS.theta_lon, 0.0)
        d = anisotropic_distance(p1, pt(0, 0, 0), PARAMS)
        assert d == pytest.approx(5.0)

    @given(finite_lats, finite_lons, days, finite_lats, finite_lons, days)
    def test_symmetry(self, la1, lo1, t1, la2, lo2, t2):
        p1, p2 = pt(la1, lo1, t1), pt(la2, lo2, t2)
        assert anisotropic_distance(p1, p2, PARAMS) == pytest.approx(
            anisotropic_distance(p2, p1, PARAMS), rel=1e-12, abs=1e-12)

    def test_spatial_mode_drops_time(self):
        p1, p2 = pt(1.0, 2.0, 0.0), pt(0.5, 1.0, 300.0)
        p2_same_t = pt(0.5, 1.0, 0.0)
        assert anisotropic_distance(p1, p2, PARAMS, spatial=True) == \
            pytest.approx(anisotropic_distance(p1, p2_same_t, PARAMS))

    def test_spatial_matches_space_time_at_zero_time_lag(self):
        p1, p2 = pt(1.0, 2.0, 17.0), pt(-0.5, 1.0, 17.0)
        assert anisotropic_distance(p1, p2, PARAMS, spatial=True) == \
            pytest.approx(anisotropic_distance(p1, p2, PARAMS))

    def test_longitude_lag_wraps(self):
        d = anisotropic_distance(pt(0, 179.0), pt(0, -179.0), PARAMS)
        assert d == pytest.approx(2.0 / PARAMS.theta_lon)

    @pytest.mark.parametrize("spatial", [False, True])
    def test_library_matches_pairwise_oracle(self, rng, spatial):
        pts = [pt(rng.uniform(-60, 60), rng.uniform(-180, 180),
                  rng.uniform(0, 365)) for _ in range(8)]
        target = pt(3.0 * PARAMS.theta_lat, 179.5, 17.0)
        d = scaled_distance(cross_sq_lags(as_point_array(target), as_point_array(pts)),
                            PARAMS, spatial)[0]
        expected = [anisotropic_distance(target, p, PARAMS, spatial)
                    for p in pts]
        np.testing.assert_allclose(d, expected, rtol=1e-12)


class TestExpCov:
    def test_zero_lag_is_phi(self):
        p = pt(1.0, 1.0, 1.0)
        assert exp_cov(p, p, PARAMS) == pytest.approx(PARAMS.phi)

    def test_unit_distance(self):
        p1 = pt(PARAMS.theta_lat, 0, 0)
        assert exp_cov(p1, pt(0, 0, 0), PARAMS) == \
            pytest.approx(PARAMS.phi * math.exp(-1.0))

    def test_far_limit(self):
        assert exp_cov(pt(80, 0, 0), pt(-80, 179, 365), PARAMS) < 1e-12

    def test_never_includes_nugget(self):
        p = pt(0, 0, 0)
        loud = CovParams(PARAMS.phi, PARAMS.theta_lat, PARAMS.theta_lon,
                         PARAMS.theta_t, 100.0)
        assert exp_cov(p, p, loud) == pytest.approx(PARAMS.phi)


@st.composite
def point_lists(draw, max_size=20):
    n = draw(st.integers(1, max_size))
    pts = [pt(draw(st.floats(-60, 60)), draw(st.floats(-30, 30)),
              draw(st.floats(0, 90))) for _ in range(n)]
    return pts


class TestCovMatrix:
    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            cov_matrix([], PARAMS)

    def test_single_point(self):
        K = cov_matrix([pt(1, 2, 3)], PARAMS)
        np.testing.assert_allclose(K, [[PARAMS.phi]])

    def test_coincident_pair_singular(self):
        p = pt(0, 0, 0)
        K = cov_matrix([p, p], PARAMS)
        np.testing.assert_allclose(K, PARAMS.phi * np.ones((2, 2)))

    @given(point_lists())
    @settings(max_examples=40, deadline=None)
    def test_symmetric_with_phi_diagonal(self, pts):
        K = cov_matrix(pts, PARAMS)
        np.testing.assert_allclose(K, K.T, rtol=1e-12)
        np.testing.assert_allclose(np.diag(K), PARAMS.phi)

    @given(point_lists())
    @settings(max_examples=40, deadline=None)
    def test_nugget_added_matrix_positive_definite(self, pts):
        K = cov_matrix(pts, PARAMS) + PARAMS.sigma2 * np.eye(len(pts))
        assert np.linalg.eigvalsh(K).min() > 0.0

    def test_zero_lag_dominates(self):
        pts = [pt(i * 0.7, -i * 0.3, i * 2.0) for i in range(8)]
        K = cov_matrix(pts, PARAMS)
        assert np.all(np.abs(K) <= PARAMS.phi + 1e-12)

    def test_monotone_decay_each_axis(self):
        base = pt(0, 0, 0)
        for axis in range(3):
            lags = [0.5, 1.0, 2.0, 4.0]
            vals = []
            for lag in lags:
                coords = [0.0, 0.0, 0.0]
                coords[axis] = lag
                vals.append(exp_cov(base, pt(*coords), PARAMS))
            assert all(a > b for a, b in zip(vals, vals[1:]))


class TestCrossCovVector:
    def test_matches_pairwise_kernel(self, rng):
        pts = [pt(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, 30))
               for _ in range(6)]
        target = pt(0.3, -0.2, 10.0)
        vec = cross_cov_vector(target, pts, PARAMS)[0]
        expected = [exp_cov(target, p, PARAMS) for p in pts]
        np.testing.assert_allclose(vec, expected, rtol=1e-12)

    def test_coincident_first_entry(self):
        pts = [pt(1, 1, 1), pt(5, 5, 5)]
        vec = cross_cov_vector(pt(1, 1, 1), pts, PARAMS)[0]
        assert vec[0] == pytest.approx(PARAMS.phi)

    def test_distance_zero_and_one(self):
        pts = [pt(0, 0, 0), pt(PARAMS.theta_lat, 0, 0)]
        vec = cross_cov_vector(pt(0, 0, 0), pts, PARAMS)[0]
        np.testing.assert_allclose(
            vec, [PARAMS.phi, PARAMS.phi * math.exp(-1.0)], rtol=1e-12)


class TestCrossRows:
    """Every target's row in one broadcast, to the bit as one target at a time."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(23)
        for k in range(40):
            m, n_targets = (int(v) for v in rng.integers(1, 601 if k % 4 == 0 else 40, 2))
            if k % 10 == 0:
                n_targets = 0 if k == 0 else 1
            lon0 = rng.choice([0.0, 179.0])  # half the cases straddle the antimeridian
            block = YearBlock(0, rng.uniform(-60, 60, m), lon0 + rng.uniform(-9, 9, m),
                              rng.uniform(0, 91, m), rng.standard_normal(m))
            targets = [SpaceTimePoint(lat, lon, t) for lat, lon, t in zip(
                rng.uniform(-60, 60, n_targets), lon0 + rng.uniform(-9, 9, n_targets),
                rng.uniform(0, 91, n_targets))]
            yield k % 2 == 1, block, targets

    def test_gaussian_system_equals_loop(self):
        for spatial, block, targets in self.cases():
            _, K_star = gaussian_system(targets, block, PARAMS, spatial)
            assert K_star.shape == (len(targets), block.m)
            np.testing.assert_array_equal(
                K_star, cross_cov_loop(targets, block.points, PARAMS, spatial))

    def test_reference_system_equals_loop(self):
        for _, block, targets in self.cases():
            _, R_star = ReferenceFamily().system(targets, block, None)
            assert R_star.shape == (len(targets), block.m)
            np.testing.assert_array_equal(R_star, rg_corr_loop(targets, block))


class TestTropicFactor:
    def test_equator(self):
        assert rg_tropic_factor(0.0) == pytest.approx(0.125)

    def test_boundary_continuity(self):
        assert rg_tropic_factor(20.0) == pytest.approx(1.0)
        assert rg_tropic_factor(20.0 + 1e-9) == 1.0

    def test_mid_tropics(self):
        assert rg_tropic_factor(10.0) == pytest.approx(0.5625)

    def test_symmetric_in_hemisphere(self):
        assert rg_tropic_factor(-10.0) == rg_tropic_factor(10.0)

    def test_exact_closed_form(self):
        for lat in (0.0, 4.0, 10.0, 16.0, 19.0):
            assert rg_tropic_factor(lat) == 1.0 / 8.0 + (7.0 / 160.0) * lat


class TestRgDistance:
    def test_identity(self):
        assert rg_distance((10.0, 20.0), (10.0, 20.0)) == 0.0
        assert lib_rg_distance((10.0, 20.0), (10.0, 20.0)) == 0.0

    def test_one_degree_meridional(self):
        d = rg_distance((0.0, 0.0), (1.0, 0.0))
        assert d == pytest.approx(KM_PER_DEG, rel=1e-12)
        assert lib_rg_distance((0.0, 0.0), (1.0, 0.0)) == \
            pytest.approx(KM_PER_DEG, rel=1e-12)
        # sanity against a spherical arc length (R=6371 km): within 2%
        arc = 6371.0 * math.radians(1.0)
        assert abs(d - arc) / arc < 0.02

    def test_equator_zonal_with_tropic_factor(self):
        for dist in (rg_distance, lib_rg_distance):
            d = dist((0.0, 0.0), (0.0, 1.0))
            assert d == pytest.approx(0.125 * KM_PER_DEG, rel=1e-9)

    def test_tropic_factor_toggle(self):
        for dist in (rg_distance, lib_rg_distance):
            d_plain = dist((0.0, 0.0), (0.0, 1.0), tropic=False)
            assert d_plain == pytest.approx(KM_PER_DEG, rel=1e-9)

    def test_midpoint_latitude_convention(self):
        # zonal lag at lat 60: cos is taken at the midpoint latitude
        expected = 2.0 * KM_PER_DEG * math.cos(math.radians(60.0))
        for dist in (rg_distance, lib_rg_distance):
            d = dist((60.0, 0.0), (60.0, 2.0), tropic=False)
            assert d == pytest.approx(expected, rel=1e-9)

    def test_vector_form_matches_scalar(self, rng):
        lats = rng.uniform(-40, 40, 12)
        lons = rng.uniform(-170, 170, 12)
        for tropic in (True, False):
            vec = rg_distances(5.0, 10.0, lats, lons, tropic)
            corr = rg_corr_vector(5.0, 10.0, lats, lons, tropic=tropic)
            R = rg_corr_matrix(np.append(lats, 5.0), np.append(lons, 10.0),
                               tropic=tropic)
            for k in range(12):
                there = (lats[k], lons[k])
                assert vec[k] == pytest.approx(
                    rg_distance((5.0, 10.0), there, tropic), rel=1e-12)
                want = rg_cov((5.0, 10.0), there, 1.0, tropic=tropic)
                assert corr[k] == pytest.approx(want, rel=1e-12)
                assert R[12, k] == pytest.approx(want, rel=1e-12)


class TestRgCov:
    def test_config_constants(self):
        cfg = RG_DEFAULT
        assert (cfg.gauss_weight, cfg.exp_weight) == (0.77, 0.23)
        assert (cfg.gauss_scale_km, cfg.exp_scale_km) == (140.0, 1111.0)
        assert cfg.noise_signal_ratio == 0.15
        assert cfg.gauss_weight + cfg.exp_weight == 1.0

    def test_zero_distance(self):
        assert rg_cov((3.0, 4.0), (3.0, 4.0), 2.5) == pytest.approx(2.5)
        assert lib_rg_corr((3.0, 4.0), (3.0, 4.0)) == 1.0
        assert rg_shape(0.0) == 1.0

    def test_named_distance_value(self):
        # place two points exactly 140 km apart meridionally
        dlat = 140.0 / KM_PER_DEG
        val = rg_cov((0.0, 0.0), (dlat, 0.0), 1.0)
        expected = 0.77 * math.exp(-1.0) + 0.23 * math.exp(-140.0 / 1111.0)
        assert val == pytest.approx(expected, rel=1e-12)
        assert lib_rg_corr((0.0, 0.0), (dlat, 0.0)) == \
            pytest.approx(expected, rel=1e-12)
        assert rg_shape(140.0) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(0.4861, abs=2e-4)

    def test_shape_against_closed_form_off_the_gaussian_scale(self):
        # At d = 140 km the Gaussian term is exp(-1) with or without its
        # square, so check distances on both sides of that scale too.
        d = np.array([35.0, 70.0, 280.0, 555.5, 1111.0, 2500.0])
        np.testing.assert_allclose(
            rg_shape(d), [rg_shape_by_hand(x) for x in d], rtol=1e-14)

    def test_shape_function_far_limit(self):
        assert rg_shape(np.array([1e7]))[0] < 1e-12

    def test_phi_hat_validated(self):
        with pytest.raises(InvalidParameterError):
            rg_cov((0, 0), (1, 1), -1.0)

    def test_zero_distance_invariant_to_tropic_toggle(self):
        a = rg_cov((10.0, 5.0), (10.0, 5.0), 1.0, tropic=True)
        b = rg_cov((10.0, 5.0), (10.0, 5.0), 1.0, tropic=False)
        assert a == b == 1.0
        assert lib_rg_corr((10.0, 5.0), (10.0, 5.0), tropic=True) == 1.0
        assert lib_rg_corr((10.0, 5.0), (10.0, 5.0), tropic=False) == 1.0

    def test_corr_matrix_and_vector_consistent(self, rng):
        lats = rng.uniform(-30, 30, 7)
        lons = rng.uniform(-40, 40, 7)
        R = rg_corr_matrix(lats, lons)
        np.testing.assert_allclose(R, R.T, rtol=1e-12)
        np.testing.assert_allclose(np.diag(R), 1.0)
        r = rg_corr_vector(lats[0], lons[0], lats, lons)
        np.testing.assert_allclose(r, R[0], rtol=1e-12)


class TestSimulatedCovarianceOracle:
    def test_sample_covariance_matches_kernel(self):
        # Five nearby points so every kernel entry is well away from 0;
        # 2000 independent yearly draws; seed frozen after checking the
        # estimator's spread across seeds (entrywise error ~5-14%).
        from mwgp.validation import simulate_field

        rng = np.random.default_rng(99)
        locs = np.column_stack([rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5),
                                rng.uniform(44.0, 47.0, 5)])
        params = CovParams(2.0, 3.0, 5.0, 5.0, 0.0)
        blocks = simulate_field(params, locs, n_years=2000, seed=4)
        draws = np.stack([b.values for b in blocks])
        sample = np.cov(draws.T)
        K = cov_matrix(locs, params)
        assert np.abs(K).min() > 0.5
        rel = np.abs(sample - K) / np.abs(K)
        assert rel.max() < 0.10
