"""Tests for the moving-window grid engine.

Covers window selection geometry, the model-variant registry, the
fixed-shape reference predictor, lag-correlation summaries, seeding,
and the grid sweep (including its parallel determinism and the
nearest-cell parameter fallback).
"""

import dataclasses
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mwgp.gaussian
import mwgp.student
import mwgp.windows
from mwgp.covariance import KM_PER_DEG, CovParams, SpaceTimePoint
from mwgp.errors import (
    InsufficientDataError,
    InsufficientVarianceError,
    FactorizationError,
    InvalidParameterError,
    MappingError,
)
from mwgp.gaussian import (
    GaussianPredictive,
    YearBlock,
    fit_mle_gaussian,
    gaussian_interval,
    pooled_window_variance,
)
from mwgp.student import (
    StudentParams,
    StudentPredictive,
    fit_mle_student,
    nu_variance_factor,
    predict_student,
    student_interval,
)
from mwgp.validation import simulate_field
from mwgp.windows import (
    VARIANTS,
    CellPrediction,
    GaussianFamily,
    GridSpec,
    ModelVariant,
    ReferenceFamily,
    ReferenceParams,
    StudentFamily,
    WindowSpec,
    cell_key,
    correlation_at_lag,
    fit_grid_point,
    get_variant,
    _blas_thread_controls,
    map_grid,
    month_halfwidth_days,
    select_window,
    single_blas_thread,
    window_rows,
    zonal_km_to_degrees,
)

from conftest import (
    admission_chain_oracle,
    exp_cov,
    gaussian_folds_oracle,
    predict_gaussian_oracle,
    predict_reference_oracle,
    reference_folds_oracle,
    reference_prior_var,
    window_rows_scan,
)

TRUE = CovParams(1.0, 3.0, 5.0, 5.0, 0.3)


def gp_blocks(m=35, n_years=1, seed=7, span=6.0, t_center=45.5, t_half=8.0):
    """Simulated observation blocks scattered around the origin."""
    rng = np.random.default_rng(seed)
    lat = rng.uniform(-span, span, m)
    lon = rng.uniform(-span, span, m)
    t = rng.uniform(t_center - t_half, t_center + t_half, m)
    locs = [SpaceTimePoint(a, b, c) for a, b, c in zip(lat, lon, t)]
    return simulate_field(TRUE, locs, n_years, seed=seed + 1)


class TestMonthHalfwidth:
    def test_one_month_exact(self):
        assert month_halfwidth_days(1) == 15.21875

    def test_three_months_exact(self):
        assert month_halfwidth_days(3) == 45.65625

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidParameterError):
            month_halfwidth_days(0)
        with pytest.raises(InvalidParameterError):
            month_halfwidth_days(-2)


class TestWindowSpec:
    def test_defaults(self):
        spec = WindowSpec()
        assert spec.x_win == 10.0
        assert spec.t_win == 45.65625
        assert spec.min_obs == 20

    def test_zero_time_window_allowed(self):
        assert WindowSpec(t_win=0.0).t_win == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"x_win": 0.0}, {"x_win": -1.0}, {"x_win": math.nan},
        {"t_win": -0.5}, {"min_obs": 0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            WindowSpec(**kwargs)


class TestVariantRegistry:
    def test_six_variants_with_matching_ids(self):
        assert sorted(VARIANTS) == [1, 2, 3, 4, 5, 6]
        for vid, variant in VARIANTS.items():
            assert variant.id == vid

    @pytest.mark.parametrize("vid,family,kind,months,mean_mode", [
        (1, ReferenceFamily(), "gaussian", 1, "spatial"),
        (2, GaussianFamily(spatial=True), "gaussian", 1, "spatial"),
        (3, StudentFamily(spatial=True), "student", 1, "spatial"),
        (4, GaussianFamily(spatial=True), "gaussian", 3, "spatio-temporal"),
        (5, GaussianFamily(spatial=False), "gaussian", 3, "spatio-temporal"),
        (6, StudentFamily(spatial=False), "student", 3, "spatio-temporal"),
    ], ids=str)
    def test_design_table(self, vid, family, kind, months, mean_mode):
        v = VARIANTS[vid]
        assert v.family == family
        assert v.family.kind == kind
        assert v.months == months
        assert v.mean_mode == mean_mode
        assert v.t_win == month_halfwidth_days(months)

    def test_a_variant_is_its_family_and_window_length(self):
        assert [f.name for f in dataclasses.fields(ModelVariant)] == \
            ["id", "family", "months"]

    def test_get_variant_accepts_int_like(self):
        assert get_variant(5) is VARIANTS[5]
        assert get_variant("3") is VARIANTS[3]

    @pytest.mark.parametrize("bad", [0, 7, -1, "x", None, 2.5])
    def test_get_variant_rejects_unknown(self, bad):
        with pytest.raises(InvalidParameterError):
            get_variant(bad)


class TestCellKey:
    def test_rounds_to_micro_degrees(self):
        assert cell_key(1.0000004, 20.0) == (1.0, 20.0)

    def test_wraps_longitude(self):
        assert cell_key(10.0, 190.0) == (10.0, -170.0)
        assert cell_key(10.0, -180.0) == (10.0, -180.0)
        assert cell_key(10.0, 180.0) == (10.0, -180.0)


class TestGridSpec:
    def test_global_one_degree_axes(self):
        g = GridSpec(-79.5, 79.5, -179.5, 179.5)
        assert g.n_lat == 160
        assert g.n_lon == 360
        assert g.lats[0] == -79.5 and g.lats[-1] == 79.5
        assert g.lons[0] == -179.5 and g.lons[-1] == 179.5

    def test_flat_index_row_major(self):
        g = GridSpec(-79.5, 79.5, -179.5, 179.5)
        assert g.flat_index(0, 0) == 0
        assert g.flat_index(2, 3) == 2 * 360 + 3
        assert g.flat_index(159, 359) == 160 * 360 - 1

    def test_fractional_step(self):
        g = GridSpec(0.0, 1.0, 0.0, 1.0, lat_step=0.5, lon_step=0.25)
        np.testing.assert_allclose(g.lats, [0.0, 0.5, 1.0])
        assert g.n_lon == 5

    @pytest.mark.parametrize("kwargs", [
        {"lat_step": 0.0}, {"lon_step": -1.0},
        {"lat_min": 2.0, "lat_max": 1.0},
        {"lat_min": -95.0},
        {"lat_max": 91.0},
        {"lat_step": math.nan}, {"lon_step": math.inf},
        {"lat_min": math.nan}, {"lat_max": math.inf},
        {"lon_min": math.nan}, {"lon_max": math.nan},
        {"lon_min": -math.inf}, {"lon_max": math.inf},
        {"eval_time": math.nan}, {"eval_time": math.inf},
    ])
    def test_invalid_geometry_rejected(self, kwargs):
        base = dict(lat_min=0.0, lat_max=1.0, lon_min=0.0, lon_max=1.0)
        base.update(kwargs)
        with pytest.raises(InvalidParameterError):
            GridSpec(**base)

    def test_cells_row_major_order(self):
        g = GridSpec(0.0, 1.0, 10.0, 11.0)
        assert list(g.cells()) == [
            (0, 0, 0.0, 10.0), (0, 1, 0.0, 11.0),
            (1, 0, 1.0, 10.0), (1, 1, 1.0, 11.0),
        ]

    def test_cells_skip_high_latitudes(self):
        g = GridSpec(78.5, 81.5, 0.0, 0.0)
        lats = [lat for _, _, lat, _ in g.cells()]
        assert lats == [78.5, 79.5]

    def test_mask_is_normalized_like_cell_keys(self):
        # A mask entry with an unwrapped longitude and sub-micro-degree
        # noise still suppresses the matching cell.
        g = GridSpec(0.0, 2.0, 0.0, 2.0, mask={(1.0000004, 361.0)})
        cells = list(g.cells())
        assert len(cells) == 8
        assert (1.0, 1.0) not in {(lat, lon) for _, _, lat, lon in cells}

    def test_mask_everything_yields_no_cells(self):
        g = GridSpec(0.0, 1.0, 0.0, 1.0,
                     mask={(a, b) for a in (0.0, 1.0) for b in (0.0, 1.0)})
        assert list(g.cells()) == []


def tracked_block(year=0, seed=5, m=80):
    rng = np.random.default_rng(seed)
    return YearBlock(
        year,
        rng.uniform(-15.0, 15.0, m),
        rng.uniform(-180.0, 180.0, m),
        rng.uniform(0.0, 91.0, m),
        rng.normal(size=m),
        source_ids=np.arange(m),
    )


class TestSelectWindow:
    CENTER = SpaceTimePoint(0.0, 0.0, 45.5)

    def test_boundary_latitude_included(self):
        block = YearBlock(0, np.array([10.0, 10.000001]), np.zeros(2),
                          np.full(2, 45.5), np.zeros(2))
        out = select_window([block], self.CENTER, WindowSpec(10.0, 20.0))
        assert out[0].m == 1
        assert out[0].lat[0] == 10.0

    def test_boundary_time_included(self):
        spec = WindowSpec(10.0, 15.21875)
        block = YearBlock(0, np.zeros(2), np.zeros(2),
                          np.array([60.71875, 60.71876]), np.zeros(2))
        out = select_window([block], self.CENTER, spec)
        assert out[0].m == 1
        assert out[0].t[0] == 60.71875

    def test_longitude_wraps_across_antimeridian(self):
        center = SpaceTimePoint(0.0, 179.5, 45.5)
        block = YearBlock(0, np.zeros(3),
                          np.array([-179.5, -170.6, 168.0]),
                          np.full(3, 45.5), np.arange(3.0))
        out = select_window([block], center, WindowSpec(10.0, 20.0))
        assert out[0].m == 2
        assert set(out[0].values) == {0.0, 1.0}

    def test_time_window_applies_per_year(self):
        blocks = [
            YearBlock(0, np.zeros(2), np.zeros(2),
                      np.array([45.0, 120.0]), np.array([1.0, 2.0])),
            YearBlock(1, np.zeros(1), np.zeros(1),
                      np.array([119.0]), np.array([3.0])),
        ]
        out = select_window(blocks, self.CENTER, WindowSpec(10.0, 15.21875))
        assert [b.year for b in out] == [0, 1]
        assert out[0].m == 1 and out[0].values[0] == 1.0
        assert out[1].m == 0  # empty year kept, not dropped

    @given(
        w1=st.floats(0.5, 12.0), w2=st.floats(0.5, 12.0),
        t1=st.floats(0.0, 40.0), t2=st.floats(0.0, 40.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_growing_windows_never_drop_observations(self, w1, w2, t1, t2):
        block = tracked_block()
        small = WindowSpec(min(w1, w2), min(t1, t2))
        big = WindowSpec(max(w1, w2), max(t1, t2))
        kept_small = set(select_window([block], self.CENTER, small)[0].source_ids)
        kept_big = set(select_window([block], self.CENTER, big)[0].source_ids)
        assert kept_small <= kept_big


class TestWindowRows:
    """The latitude-sorted slice against the predicate over every row."""

    @staticmethod
    def assert_equals_scan(block, center, spec):
        got = window_rows(block, center, spec)
        want = window_rows_scan(block, center, spec)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        kept = select_window([block], center, spec)[0]
        for name in ("lat", "lon", "t", "values"):
            assert getattr(kept, name).tobytes() == \
                getattr(block.subset(want), name).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_full_scan(self, data):
        # Quarter-degree lattice positions (duplicates, rows exactly at
        # |dlat| = x_win and at |dlon| = x_win across the antimeridian),
        # data at the poles, empty blocks.
        m = data.draw(st.integers(0, 40))
        pos = st.integers(-360, 360).map(lambda v: v / 4.0)
        lons = st.one_of(st.sampled_from([-180.0, 177.5, 180.0]),
                         st.integers(-720, 719).map(lambda v: v / 4.0))
        lat = data.draw(st.lists(pos, min_size=m, max_size=m))
        lon = data.draw(st.lists(lons, min_size=m, max_size=m))
        t = data.draw(st.lists(st.integers(0, 8).map(lambda v: 40.0 + v),
                               min_size=m, max_size=m))
        block = YearBlock(0, lat, lon, t, np.arange(float(m)), np.arange(m))
        spec = WindowSpec(data.draw(st.sampled_from([0.25, 2.5, 10.0, 200.0])),
                          data.draw(st.sampled_from([0.0, 2.0, 15.21875])))
        for _ in range(5):
            center = SpaceTimePoint(data.draw(pos), data.draw(lons),
                                    data.draw(st.sampled_from([41.0, 44.0])))
            self.assert_equals_scan(block, center, spec)

    def test_rows_just_beyond_the_rounded_band_edge(self):
        # c + x_win and c - x_win round, and |lat - c| rounds again: some
        # latitudes one or two ulps outside [c - x_win, c + x_win] (as
        # computed) are still inside the window; the slice must keep them.
        lats, centers = [], []
        for c in np.arange(-89.9, 90.0, 0.7):
            for x in (0.1, 0.3, 2.5, 7.3, 10.0):
                for edge, away in ((c + x, math.inf), (c - x, -math.inf)):
                    step = np.nextafter(edge, away)
                    for lat in (step, np.nextafter(step, away)):
                        if abs(lat) <= 90.0 and abs(lat - c) <= x:
                            lats.append(lat)
                            centers.append((c, x))
        assert len(lats) > 20
        block = YearBlock(0, lats, np.zeros(len(lats)),
                          np.full(len(lats), 45.5), np.zeros(len(lats)))
        for c, x in centers:
            center = SpaceTimePoint(float(c), 0.0, 45.5)
            self.assert_equals_scan(block, center, WindowSpec(x, 1.0))

    def test_empty_block_gives_no_rows(self):
        block = YearBlock(0, [], [], [], [])
        rows = window_rows(block, SpaceTimePoint(0.0, 0.0, 45.5), WindowSpec())
        assert rows.shape == (0,)
        assert select_window([block], SpaceTimePoint(0.0, 0.0, 45.5),
                             WindowSpec())[0].m == 0

    def test_latitude_order_is_computed_once_per_block(self):
        block = tracked_block()
        order = block.by_lat
        select_window([block], SpaceTimePoint(1.0, 2.0, 45.5), WindowSpec())
        assert block.by_lat is order
        np.testing.assert_array_equal(
            order[0], np.argsort(block.lat, kind="stable"))


class TestPooledVariance:
    def test_two_point_example(self):
        block = YearBlock(0, np.zeros(2), np.zeros(2), np.zeros(2),
                          np.array([-1.0, 1.0]))
        assert pooled_window_variance([block]) == 2.0
        assert ReferenceFamily().fit([block], 1)[0].phi_hat == 2.0 / 1.15

    def test_pools_across_years_with_single_denominator(self):
        blocks = [
            YearBlock(0, np.zeros(2), np.zeros(2), np.zeros(2),
                      np.array([0.0, 0.0])),
            YearBlock(1, np.zeros(2), np.zeros(2), np.zeros(2),
                      np.array([2.0, 2.0])),
        ]
        # var([0,0,2,2], ddof=1) = 4/3, not the mean of per-year variances.
        assert pooled_window_variance(blocks) == pytest.approx(4.0 / 3.0,
                                                               rel=1e-15)

    def test_fewer_than_two_observations_rejected(self):
        block = YearBlock(0, np.zeros(1), np.zeros(1), np.zeros(1),
                          np.array([3.0]))
        with pytest.raises(InsufficientDataError):
            pooled_window_variance([block])

    def test_constant_values_reject_plugin_variance(self):
        block = YearBlock(0, np.zeros(4), np.zeros(4), np.zeros(4),
                          np.full(4, 0.7))
        with pytest.raises(InsufficientVarianceError):
            ReferenceFamily().fit([block], 1)


class TestReferenceParams:
    def test_derived_quantities(self):
        p = ReferenceParams(2.0)
        assert p.phi == 2.0
        assert p.sigma2 == pytest.approx(0.3, rel=1e-15)

    def test_positive_variance_required(self):
        with pytest.raises(InvalidParameterError):
            ReferenceParams(0.0)


class TestReferencePrediction:
    TARGET = SpaceTimePoint(10.0, 20.0, 45.5)

    def coincident_block(self, value=1.5):
        return YearBlock(0, np.array([self.TARGET.lat]),
                         np.array([self.TARGET.lon]),
                         np.array([self.TARGET.t]), np.array([value]))

    def test_no_data_returns_prior(self):
        empty = YearBlock(0, np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0))
        pred = ReferenceFamily().predict(self.TARGET, empty, ReferenceParams(2.0))
        assert pred.mean == 0.0
        assert pred.variance == pytest.approx(2.3, rel=1e-15)

    def test_single_coincident_observation_closed_form(self):
        rho = 0.15
        phi_hat = 2.0
        pred = ReferenceFamily().predict(self.TARGET, self.coincident_block(1.5),
                                         ReferenceParams(phi_hat))
        assert pred.mean == pytest.approx(1.5 / (1.0 + rho), rel=1e-12)
        expected_var = phi_hat * ((1.0 + rho) - 1.0 / (1.0 + rho))
        assert pred.variance == pytest.approx(expected_var, rel=1e-12)

    def test_single_coincident_variance_ratio_closed_form(self):
        # sigma2 (phi + sigma2) + phi sigma2, normalized by (phi + sigma2)^2,
        # with the nugget tied to the plug-in variance by the fixed ratio.
        phi_hat = 2.0
        params = ReferenceParams(phi_hat)
        pred = ReferenceFamily().predict(self.TARGET, self.coincident_block(),
                                         params)
        phi, s2 = params.phi, params.sigma2
        expected = (s2 * (phi + s2) + phi * s2) / (phi + s2) ** 2
        assert ReferenceFamily().variance_ratio(pred, params) == \
            pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.3225 / 1.3225, rel=1e-15)

    def test_mean_is_bitwise_invariant_to_plugin_variance(self):
        rng = np.random.default_rng(12)
        block = YearBlock(0, 10.0 + rng.uniform(-3, 3, 8),
                          20.0 + rng.uniform(-3, 3, 8),
                          np.full(8, 45.5), rng.normal(size=8))
        a = ReferenceFamily().predict(self.TARGET, block, ReferenceParams(0.7))
        b = ReferenceFamily().predict(self.TARGET, block, ReferenceParams(123.4))
        assert a.mean == b.mean
        # Variances rescale exactly with the plug-in variance.
        assert b.variance / a.variance == pytest.approx(123.4 / 0.7,
                                                        rel=1e-12)

    def test_variance_between_zero_and_prior(self):
        rng = np.random.default_rng(3)
        block = YearBlock(0, 10.0 + rng.uniform(-3, 3, 15),
                          20.0 + rng.uniform(-3, 3, 15),
                          np.full(15, 45.5), rng.normal(size=15))
        params = ReferenceParams(1.7)
        pred = ReferenceFamily().predict(self.TARGET, block, params)
        assert 0.0 < pred.variance < reference_prior_var(params)


def law_bits(pred):
    """The exact bits of a Gaussian law, None for a failed fold."""
    return None if pred is None else struct.pack("<dd", pred.mean, pred.variance)


def outcome(fn, *args):
    """The bits ``fn`` returns, or the type of the error it raises."""
    try:
        out = fn(*args)
    except (MappingError, np.linalg.LinAlgError) as exc:
        return type(exc)
    return [law_bits(p) for p in out] if isinstance(out, list) else law_bits(out)


class TestKrigingOracles:
    """The reference and Gaussian families against the routines the
    shared kriging path replaced, bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_predict_and_folds_equal_the_oracles(self, data):
        # Blocks of 0 to 12 rows, some coincident, nuggets from 0 up;
        # targets on and off the data; folds removing nothing, one row
        # or several.
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        m = data.draw(st.integers(0, 12))
        pts = np.column_stack([10.0 + rng.uniform(-3, 3, m),
                               20.0 + rng.uniform(-3, 3, m),
                               rng.uniform(30.0, 60.0, m)])
        n_dup = data.draw(st.integers(0, m))
        pts[:n_dup] = pts[m - n_dup:] if m else pts[:0]
        block = YearBlock(0, *pts.T, rng.normal(size=m))
        sigma2 = data.draw(st.one_of(st.just(0.0),
                                     st.floats(-9.0, 0.5).map(lambda e: 10.0 ** e)))
        params = CovParams(1.3, 2.0, 4.0, 7.0, sigma2)
        targets = [SpaceTimePoint(*(block.points[k] if k < m
                                    else (10.0 + rng.uniform(-4, 4),
                                          20.0 + rng.uniform(-4, 4), 45.5)))
                   for k in rng.integers(0, m + 3, size=4)]
        removals = [np.sort(rng.choice(m, size=min(m, size), replace=False))
                    for size in data.draw(st.lists(st.integers(0, 3),
                                                   min_size=4, max_size=4))]
        ref = ReferenceParams(float(rng.uniform(0.1, 5.0)))
        for target in targets:
            assert outcome(ReferenceFamily().predict, target, block, ref) == \
                outcome(predict_reference_oracle, target, block, ref)
        assert outcome(ReferenceFamily().predict_folds, targets, block,
                       removals, ref) == \
            outcome(reference_folds_oracle, targets, block, removals, ref)
        for spatial in (True, False):
            family = GaussianFamily(spatial)
            for target in targets:
                assert outcome(family.predict, target, block, params) == \
                    outcome(predict_gaussian_oracle, target, block, params,
                            spatial)
            assert outcome(family.predict_folds, targets, block, removals,
                           params) == \
                outcome(gaussian_folds_oracle, targets, block, removals,
                        params, spatial)

    @pytest.mark.parametrize("spatial", [True, False])
    def test_failed_window_factor_runs_the_per_fold_path(self, spatial):
        # No nugget and a duplicated row: the plain Cholesky of the window
        # fails, so each fold is predicted on its own reduced block.
        rng = np.random.default_rng(5)
        pts = np.column_stack([rng.uniform(-2, 2, 9), rng.uniform(-2, 2, 9),
                               rng.uniform(40, 50, 9)])
        pts[0] = pts[1]
        block = YearBlock(0, *pts.T, rng.normal(size=9))
        params = CovParams(1.0, 3.0, 5.0, 5.0, 0.0)
        Sigma = GaussianFamily(spatial).system([], block, params)[0]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(Sigma)
        targets = [SpaceTimePoint(*block.points[k]) for k in (0, 3, 5)]
        removals = [np.array([0]), np.array([3]), np.array([1, 5])]
        got = GaussianFamily(spatial).predict_folds(targets, block, removals,
                                                    params)
        assert [law_bits(p) for p in got] == [law_bits(p) for p in
                                              gaussian_folds_oracle(
                                                  targets, block, removals,
                                                  params, spatial)]
        assert all(p is not None for p in got)


class TestVarianceSummaries:
    REFERENCE = ReferenceFamily()
    GAUSSIAN = GaussianFamily(spatial=True)
    STUDENT = StudentFamily(spatial=True)

    def test_student_total_variance_with_second_moment(self):
        pred = StudentPredictive(0.0, 0.5, 0.7, 4.0)
        assert pred.variance == pytest.approx(0.5 + 0.49 * 2.0, rel=1e-15)
        assert pred.mean == pred.f_mean

    def test_student_total_variance_infinite_below_two_dof(self):
        assert math.isinf(StudentPredictive(0.0, 0.5, 0.7, 2.0).variance)

    def test_ratio_is_one_with_no_data(self):
        ref = ReferenceParams(2.0)
        assert self.REFERENCE.variance_ratio(
            GaussianPredictive(0.0, reference_prior_var(ref)), ref) == 1.0
        cov = CovParams(1.0, 2.0, 3.0, 4.0, 0.5)
        assert self.GAUSSIAN.variance_ratio(GaussianPredictive(0.0, 1.5),
                                            cov) == 1.0
        stu = StudentParams(cov, nu=4.0)
        assert self.STUDENT.variance_ratio(
            StudentPredictive(0.0, cov.phi, 1.0, 4.0), stu) == 1.0

    def test_gaussian_ratio(self):
        cov = CovParams(1.0, 2.0, 3.0, 4.0, 0.5)
        assert self.GAUSSIAN.variance_ratio(GaussianPredictive(0.0, 0.9),
                                            cov) == pytest.approx(0.6, rel=1e-15)

    def test_student_ratio_uses_inflated_nugget(self):
        cov = CovParams(1.0, 2.0, 3.0, 4.0, 0.5)
        stu = StudentParams(cov, nu=4.0)
        pred = StudentPredictive(0.0, 0.5, 0.6, 4.0)
        assert self.STUDENT.variance_ratio(pred, stu) == pytest.approx(
            (0.5 + 1.0) / (1.0 + 1.0), rel=1e-15)

    def test_student_ratio_without_second_moment_uses_latent_part(self):
        cov = CovParams(2.0, 2.0, 3.0, 4.0, 0.5)
        stu = StudentParams(cov, nu=1.5)
        assert self.STUDENT.variance_ratio(
            StudentPredictive(0.0, 0.5, 0.6, 1.5), stu) == \
            pytest.approx(0.25, rel=1e-15)

    def test_ratio_clamped_to_unit_interval(self):
        cov = CovParams(1.0, 2.0, 3.0, 4.0, 0.5)
        assert self.GAUSSIAN.variance_ratio(GaussianPredictive(0.0, 99.0),
                                            cov) == 1.0
        assert self.GAUSSIAN.variance_ratio(GaussianPredictive(0.0, -0.1),
                                            cov) == 0.0


class TestModelFamily:
    FAMILIES = {
        1: ReferenceFamily(),
        2: GaussianFamily(spatial=True),
        3: StudentFamily(spatial=True),
        4: GaussianFamily(spatial=True),
        5: GaussianFamily(spatial=False),
        6: StudentFamily(spatial=False),
    }
    CENTER = SpaceTimePoint(0.0, 0.0, 45.5)

    @pytest.mark.parametrize("vid", sorted(VARIANTS))
    def test_cell_prediction_is_the_direct_composition(self, vid):
        variant = VARIANTS[vid]
        assert variant.family == self.FAMILIES[vid]
        center, alpha = self.CENTER, 0.32
        spec = WindowSpec(10.0, variant.t_win, 20)
        data = gp_blocks(m=25, n_years=2, seed=19)
        fit = fit_grid_point(data, center, variant, spec, alpha=alpha)
        assert fit.ok

        windowed = select_window(data, center, spec)
        sp = vid in (2, 3, 4)
        if vid == 1:
            params = ReferenceParams(pooled_window_variance(windowed) / 1.15)
        elif vid in (2, 4, 5):
            params, _ = fit_mle_gaussian(windowed, min_obs=spec.min_obs,
                                         spatial=sp)
        else:
            params, _ = fit_mle_student(windowed, min_obs=spec.min_obs,
                                        spatial=sp)
        assert fit.params == params
        assert len(fit.predictions) == len(windowed) == 2
        for block, cell in zip(windowed, fit.predictions):
            if vid == 1:
                pred = ReferenceFamily().predict(center, block, params)
            elif vid in (2, 4, 5):
                pred = GaussianFamily(sp).predict(center, block, params)
            else:
                pred = predict_student(center, block, params, spatial=sp)
            if isinstance(pred, StudentPredictive):
                lower, upper = student_interval(pred, alpha)
                mean = pred.f_mean
                var = pred.f_var + pred.scale ** 2 * nu_variance_factor(pred.dof)
                assert params.nu > 2.0
                nug = params.cov.sigma2 * (params.nu / (params.nu - 2.0))
                ratio = (pred.f_var + nug) / (params.cov.phi + nug)
            else:
                lower, upper = gaussian_interval(pred, alpha)
                mean, var = pred.mean, pred.variance
                prior = (reference_prior_var(params) if vid == 1
                         else params.phi + params.sigma2)
                ratio = var / prior
            ratio = min(max(ratio, 0.0), 1.0)
            assert cell == CellPrediction(block.year, mean, var, lower, upper,
                                          ratio, block.m)

    def test_param_values_name_every_fitted_parameter(self):
        cov = CovParams(1.0, 2.0, 3.0, 4.0, 0.5)
        assert ReferenceFamily().param_values(ReferenceParams(2.0)) == {
            "phi": 2.0, "sigma2": 0.15 * 2.0}
        assert GaussianFamily(spatial=True).param_values(cov) == {
            "phi": 1.0, "theta_lat": 2.0, "theta_lon": 3.0, "sigma2": 0.5}
        assert StudentFamily(spatial=False).param_values(
            StudentParams(cov, 4.0)) == {
            "phi": 1.0, "theta_lat": 2.0, "theta_lon": 3.0, "theta_t": 4.0,
            "sigma2": 0.5, "nu": 4.0}


class TestCorrelationAtLag:
    PARAMS = CovParams(1.3, 2.0, 4.0, 7.0, 0.4)

    def test_zero_lag_is_signal_fraction(self):
        p = self.PARAMS
        assert correlation_at_lag(p) == pytest.approx(
            p.phi / (p.phi + p.sigma2), rel=1e-15)

    def test_zero_lag_without_nugget_is_one(self):
        p = CovParams(1.3, 2.0, 4.0, 7.0, 0.0)
        assert correlation_at_lag(p) == 1.0

    def test_unit_scaled_lag(self):
        p = self.PARAMS
        expected = (p.phi / (p.phi + p.sigma2)) * math.exp(-1.0)
        assert correlation_at_lag(p, dlat=p.theta_lat) == \
            pytest.approx(expected, rel=1e-14)

    def test_process_normalization_matches_covariance_kernel(self):
        p = self.PARAMS
        a = SpaceTimePoint(0.0, 0.0, 0.0)
        b = SpaceTimePoint(2.0, 3.0, 4.0)
        expected = exp_cov(a, b, p) / p.phi
        got = correlation_at_lag(p, dlat=2.0, dlon=3.0, dt=4.0,
                                 total_normalization=False)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_spatial_mode_ignores_time_lag(self):
        p = self.PARAMS
        with_dt = correlation_at_lag(p, dlat=1.0, dt=100.0, spatial=True)
        without = correlation_at_lag(p, dlat=1.0, spatial=True)
        assert with_dt == without

    def test_array_lags_preserve_shape(self):
        p = self.PARAMS
        dlats = np.array([0.0, 1.0, 2.0])
        out = correlation_at_lag(p, dlat=dlats)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(p.phi / (p.phi + p.sigma2), rel=1e-15)
        assert np.all(np.diff(out) < 0.0)


class TestZonalConversion:
    def test_equator(self):
        assert zonal_km_to_degrees(800.0, 0.0) == pytest.approx(
            800.0 / KM_PER_DEG, rel=1e-15)

    def test_sixty_degrees_doubles_the_span(self):
        assert zonal_km_to_degrees(800.0, 60.0) == pytest.approx(
            1600.0 / KM_PER_DEG, rel=1e-9)

    @pytest.mark.parametrize("lat", [90.0, -90.0, 100.0])
    def test_pole_rejected(self, lat):
        with pytest.raises(InvalidParameterError):
            zonal_km_to_degrees(800.0, lat)


class TestFitGridPoint:
    CENTER = SpaceTimePoint(0.0, 0.0, 45.5)
    SPEC = WindowSpec(10.0, month_halfwidth_days(1), 20)

    def test_empty_data_reports_insufficient(self):
        fit = fit_grid_point([], self.CENTER, VARIANTS[2], self.SPEC)
        assert fit.status == "insufficient_data"
        assert not fit.ok
        assert fit.n_obs == 0
        assert "minimum" in fit.message

    def test_data_outside_window_reports_insufficient(self):
        data = gp_blocks(m=30)
        center = SpaceTimePoint(50.0, 0.0, 45.5)
        fit = fit_grid_point(data, center, VARIANTS[2], self.SPEC)
        assert fit.status == "insufficient_data"

    def test_constant_values_report_no_variance(self):
        # Exactly equal values, and values whose sample variance is
        # rounding noise, leave every family without a variance.
        for spread in (0.0, 1e-17):
            block = YearBlock(0, np.linspace(-3, 3, 30), np.linspace(-3, 3, 30),
                              np.full(30, 45.5), 0.7 + spread * np.arange(30))
            for vid in (1, 2, 3):
                fit = fit_grid_point([block], self.CENTER, VARIANTS[vid],
                                     self.SPEC)
                assert fit.status == "no_variance"

    def test_fitted_cell_with_estimated_covariance(self):
        data = gp_blocks(m=35, seed=7)
        fit = fit_grid_point(data, self.CENTER, VARIANTS[2], self.SPEC)
        assert fit.ok
        assert isinstance(fit.params, CovParams)
        assert fit.report is not None and fit.report.n_obs == 35
        assert len(fit.predictions) == 1
        pred = fit.prediction_for(0)
        assert pred is not None and pred.year == 0
        assert pred.n_obs == 35
        assert pred.lower < pred.mean < pred.upper
        assert 0.0 < pred.variance
        assert 0.0 <= pred.variance_ratio <= 1.0
        assert fit.prediction_for(99) is None

    def test_reference_variant_skips_likelihood_fit(self):
        data = gp_blocks(m=35, seed=7)
        fit = fit_grid_point(data, self.CENTER, VARIANTS[1], self.SPEC)
        assert fit.ok
        assert isinstance(fit.params, ReferenceParams)
        assert fit.report is None
        pred = fit.prediction_for(0)
        assert pred.variance < reference_prior_var(fit.params)

    def test_student_variant_produces_student_fit(self):
        data = gp_blocks(m=25, seed=19)
        fit = fit_grid_point(data, self.CENTER, VARIANTS[3], self.SPEC)
        assert fit.ok
        assert isinstance(fit.params, StudentParams)
        pred = fit.prediction_for(0)
        assert pred.lower < pred.mean < pred.upper

    def test_year_without_windowed_data_predicts_prior(self):
        data = gp_blocks(m=35, seed=7)
        off_window = YearBlock(1, np.zeros(5), np.zeros(5),
                               np.full(5, 120.0), np.ones(5))
        fit = fit_grid_point(data + [off_window], self.CENTER, VARIANTS[2],
                             self.SPEC)
        assert fit.ok
        pred = fit.prediction_for(1)
        assert pred.n_obs == 0
        assert pred.mean == 0.0
        assert pred.variance == pytest.approx(
            fit.params.phi + fit.params.sigma2, rel=1e-15)
        assert pred.variance_ratio == 1.0


class _Admitted(Exception):
    """Raised at a kriging fit's default start, once the window is admitted."""


class TestAdmission:
    """One admission per window, ``pooled_window_variance``, called first
    by every family's fit, against the checks it replaced
    (``admission_chain_oracle``)."""

    CENTER = SpaceTimePoint(0.0, 0.0, 45.5)

    @pytest.fixture
    def admissions(self, monkeypatch):
        """The variance of every admission, in call order; None where it raised."""
        calls, admit = [], mwgp.gaussian.pooled_window_variance

        def spy(blocks, min_obs=2):
            calls.append(None)
            calls[-1] = admit(blocks, min_obs)
            return calls[-1]

        for module in (mwgp.windows, mwgp.gaussian, mwgp.student):
            monkeypatch.setattr(module, "pooled_window_variance", spy)
        return calls

    @staticmethod
    def random_window(rng):
        """Year blocks, some empty, of 0-30 observations at the cell center."""
        n = int(rng.integers(0, 4) if rng.random() < 0.3 else rng.integers(0, 31))
        kind = rng.choice(["normal", "identical", "floor", "huge", "tiny", "nan"])
        x = float(rng.standard_normal()) * 10.0 ** rng.choice(
            [-155.0, -150.0, rng.uniform(-3.0, 3.0), 150.0])
        if kind == "identical":
            values = np.full(n, x)
        elif kind == "floor":  # a spread of ulps around the rounding-noise bound
            s = int(rng.integers(4, 30))
            values = x + np.spacing(abs(x)) * rng.integers(-s, s + 1, n)
        else:
            scale = {"huge": 1e150, "tiny": 1e-150}.get(kind, 10.0 ** rng.uniform(-3, 3))
            values = scale * rng.standard_normal(n)
            if kind == "nan" and n:
                values[rng.integers(n)] = np.nan
        cuts = np.sort(rng.integers(0, n + 1, int(rng.integers(0, 3))))
        return [YearBlock(year, np.zeros(v.size), np.zeros(v.size),
                          np.full(v.size, 45.5), v)
                for year, v in enumerate(np.split(values, cuts))]

    def outcome(self, blocks, variant, min_obs):
        """The cell's status, or "admitted"; an InvalidParameterError, which
        the oracle raises, is an ``error`` cell of the window's size."""
        try:
            fit = fit_grid_point(blocks, self.CENTER, variant,
                                 WindowSpec(1.0, 1.0, min_obs))
        except _Admitted:
            return "admitted"
        assert fit.n_obs == sum(b.m for b in blocks)
        if fit.status == "error":
            assert fit.message.startswith("InvalidParameterError: ")
            return InvalidParameterError
        return "admitted" if fit.ok else fit.status

    def test_every_window_keeps_its_outcome(self, admissions, monkeypatch):
        def start(var):
            init(var)  # a NaN variance raises here, as before
            raise _Admitted

        init = mwgp.gaussian.default_init
        monkeypatch.setattr(mwgp.gaussian, "default_init", start)
        rng = np.random.default_rng(2718)
        seen = set()
        for _ in range(500):
            blocks = self.random_window(rng)
            min_obs = int(rng.integers(1, 3) if rng.random() < 0.3
                          else rng.integers(1, 26))
            n_obs = sum(b.m for b in blocks)
            for vid in (1, 2, 5, 6):
                want, var = admission_chain_oracle(blocks, min_obs, vid == 1)
                if (n_obs, min_obs, want) == (1, 1, "no_variance"):
                    want = "insufficient_data"  # the one status that moves
                del admissions[:]
                got = self.outcome(blocks, VARIANTS[vid], min_obs)
                assert got == want, (vid, min_obs, [b.values for b in blocks])
                seen.add(want)
                if want == "admitted":
                    assert len(admissions) == (2 if vid == 6 else 1)
                    assert {struct.pack("<d", v) for v in admissions} \
                        == {struct.pack("<d", var)}
        assert seen == {"admitted", "insufficient_data", "no_variance",
                        InvalidParameterError}

    @pytest.mark.parametrize("vid", sorted(VARIANTS))
    def test_one_observation_at_min_obs_one_is_insufficient(self, vid):
        # The fitted families reported no_variance here, from their
        # identical-values check; the reference family said
        # insufficient_data, as every family now does.
        block = YearBlock(0, np.zeros(1), np.zeros(1), np.full(1, 45.5),
                          np.array([0.7]))
        fit = fit_grid_point([block], self.CENTER, VARIANTS[vid],
                             WindowSpec(1.0, 1.0, 1))
        assert (fit.status, fit.n_obs) == ("insufficient_data", 1)
        assert fit.message == "1 observations < required minimum 2"
        before = "insufficient_data" if vid == 1 else "no_variance"
        assert admission_chain_oracle([block], 1, vid == 1)[0] == before

    def test_each_fit_admits_its_window_once_the_student_twice(self, admissions):
        blocks = gp_blocks(m=25, seed=19)
        for family, n in ((ReferenceFamily(), 1), (GaussianFamily(True), 1),
                          (StudentFamily(True), 2)):
            del admissions[:]
            family.fit(blocks, 20)
            assert admissions == [pooled_window_variance(blocks)] * n, family

    @pytest.mark.parametrize("vid", sorted(VARIANTS))
    def test_nan_window_is_an_error_cell(self, vid):
        # The NaN passes the admission; the parameters built on it raise an
        # InvalidParameterError, which fit_grid_point makes the cell's status.
        values = np.linspace(-1.0, 1.0, 30)
        values[7] = np.nan
        block = YearBlock(0, np.zeros(30), np.zeros(30), np.full(30, 45.5), values)
        fit = fit_grid_point([block], self.CENTER, VARIANTS[vid],
                             WindowSpec(1.0, 1.0, 20))
        assert (fit.status, fit.n_obs) == ("error", 30)
        assert fit.message.startswith("InvalidParameterError: ")
        assert (fit.params, fit.report, fit.predictions) == (None, None, ())

    def test_fit_grid_point_leaves_the_count_to_the_fit(self, admissions):
        fit = fit_grid_point(gp_blocks(m=5), self.CENTER, VARIANTS[2],
                             WindowSpec(10.0, month_halfwidth_days(1), 20))
        assert (fit.status, fit.n_obs) == ("insufficient_data", 5)
        assert admissions == [None]  # the fit's own admission raised


class TestMapGrid:
    SPEC = WindowSpec(10.0, month_halfwidth_days(1), 20)

    def test_statuses_reflect_data_coverage(self):
        data = gp_blocks(m=40, seed=21)
        grid = GridSpec(0.0, 30.0, 0.0, 0.0, lat_step=30.0, eval_time=45.5)
        field_ = map_grid(data, grid, VARIANTS[2],
                          WindowSpec(5.0, month_halfwidth_days(1), 20))
        assert field_.status_counts == {"ok": 1, "insufficient_data": 1}
        assert field_.cells[(0, 0)].ok
        assert not field_.cells[(1, 0)].ok

    def test_fully_masked_grid_is_empty(self):
        grid = GridSpec(0.0, 1.0, 0.0, 1.0,
                        mask={(a, b) for a in (0.0, 1.0) for b in (0.0, 1.0)})
        field_ = map_grid([], grid, VARIANTS[2], self.SPEC)
        assert field_.cells == {}
        assert field_.status_counts == {}
        assert field_.ordered() == []

    def test_parallel_sweep_is_bitwise_identical_to_serial(self):
        data = gp_blocks(m=35, seed=9)
        grid = GridSpec(-1.0, 1.0, -1.0, 1.0, eval_time=45.5)
        serial = map_grid(data, grid, VARIANTS[2], self.SPEC, n_workers=1)
        parallel = map_grid(data, grid, VARIANTS[2], self.SPEC, n_workers=2)
        assert len(serial.cells) == 9
        assert serial.status_counts["ok"] == 9
        assert serial.cells == parallel.cells  # wall time excluded from ==

    MAP_HASH_SCRIPT = """
import hashlib
import numpy as np
from mwgp.gaussian import YearBlock
from mwgp.windows import VARIANTS, GridSpec, WindowSpec, map_grid
rng = np.random.default_rng(5)
lat, lon = rng.uniform(-3, 3, 400), rng.uniform(-3, 3, 400)
t = rng.uniform(31.0, 60.0, 400)
vals = np.sin(lat) * np.cos(0.7 * lon) + 0.3 * rng.standard_normal(400)
field_ = map_grid([YearBlock(0, lat, lon, t, vals)], GridSpec(-1, 1, -1, 1),
                  VARIANTS[2], WindowSpec(2.0, 15.21875))
fits = sorted(field_.cells.items())
print(field_.status_counts["ok"], hashlib.sha256(repr(fits).encode()).hexdigest())
"""

    def test_map_is_bitwise_independent_of_blas_threads(self):
        # Threaded OpenBLAS changes the bits of this map unless map_grid
        # pins it.  The data are built without BLAS, and each setting
        # runs in a fresh interpreter because OpenBLAS reads the
        # variable when it loads.
        src = os.path.dirname(os.path.dirname(
            sys.modules["mwgp.windows"].__file__))
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p)
            outs.append(subprocess.run(
                [sys.executable, "-c", self.MAP_HASH_SCRIPT], env=env,
                capture_output=True, text=True, check=True).stdout)
        assert outs[0].split()[0] == "9"
        assert outs[0] == outs[1]

    def test_single_blas_thread_restores_thread_count(self):
        controls = _blas_thread_controls()
        before = [get() for get, _ in controls]
        with single_blas_thread():
            assert [get() for get, _ in controls] == [1] * len(controls)
        assert [get() for get, _ in controls] == before

    def test_ordered_results_follow_flat_index(self):
        data = gp_blocks(m=35, seed=9)
        grid = GridSpec(-1.0, 0.0, -1.0, 0.0, eval_time=45.5)
        field_ = map_grid(data, grid, VARIANTS[2], self.SPEC)
        flat = [grid.flat_index(*ij) for ij, _ in field_.ordered()]
        assert flat == sorted(flat)

    def fallback_setup(self):
        rng = np.random.default_rng(3)
        good = gp_blocks(m=30, seed=31, span=2.0)[0]
        m = 25
        block = YearBlock(
            0,
            np.concatenate([good.lat, rng.uniform(-2, 2, m)]),
            np.concatenate([good.lon, 30.0 + rng.uniform(-2, 2, m)]),
            np.concatenate([good.t, rng.uniform(40.0, 51.0, m)]),
            np.concatenate([good.values, np.full(m, 0.7)]),
        )
        grid = GridSpec(0.0, 0.0, 0.0, 30.0, lon_step=30.0, eval_time=45.5)
        spec = WindowSpec(5.0, month_halfwidth_days(1), 20)
        return [block], grid, spec

    def test_degenerate_cell_left_failed_without_fallback(self):
        data, grid, spec = self.fallback_setup()
        field_ = map_grid(data, grid, VARIANTS[2], spec)
        assert field_.status_counts == {"ok": 1, "no_variance": 1}

    def test_nearest_fallback_borrows_parameters(self):
        data, grid, spec = self.fallback_setup()
        field_ = map_grid(data, grid, VARIANTS[2], spec,
                          fallback_nearest=True)
        assert field_.status_counts == {"ok": 1, "fallback": 1}
        donor = field_.cells[(0, 0)]
        borrowed = field_.cells[(0, 1)]
        assert borrowed.params == donor.params
        assert "(0, 0)" in borrowed.message
        pred = borrowed.prediction_for(0)
        assert pred is not None
        assert math.isfinite(pred.mean) and pred.variance > 0.0

    def test_fallback_record_is_the_cells_own(self):
        # The borrowed record keeps its own window's size and the donor's
        # parameters, but no FitReport: no fit of its window succeeded.
        data, grid, spec = self.fallback_setup()
        failed = map_grid(data, grid, VARIANTS[2], spec).cells[(0, 1)]
        field_ = map_grid(data, grid, VARIANTS[2], spec, fallback_nearest=True)
        donor, borrowed = field_.cells[(0, 0)], field_.cells[(0, 1)]
        assert donor.report is not None
        assert (borrowed.status, borrowed.n_obs) == ("fallback", failed.n_obs)
        assert borrowed.n_obs == 25 != donor.n_obs
        assert borrowed.params == donor.params
        assert borrowed.report is None
        assert borrowed.message == "parameters borrowed from cell (0, 0)"
        assert [p.n_obs for p in borrowed.predictions] == [25]

    def test_fallback_that_fails_keeps_its_status(self, monkeypatch):
        data, grid, spec = self.fallback_setup()
        failed = map_grid(data, grid, VARIANTS[2], spec).cells[(0, 1)]
        predict = GaussianFamily.predict

        def broken(self, target, block, params):
            if target.lon > 15.0:  # only the failed cell's fallback
                raise FactorizationError("injected")
            return predict(self, target, block, params)

        monkeypatch.setattr(GaussianFamily, "predict", broken)
        field_ = map_grid(data, grid, VARIANTS[2], spec, fallback_nearest=True)
        cell = field_.cells[(0, 1)]
        assert field_.status_counts == {"ok": 1, "no_variance": 1}
        assert (cell.status, cell.n_obs) == ("no_variance", failed.n_obs)
        assert cell.message == failed.message + "; fallback failed: injected"
        assert (cell.params, cell.report, cell.predictions) == (None, None, ())

    def test_programming_error_in_fallback_raises(self, monkeypatch):
        data, grid, spec = self.fallback_setup()
        predict = GaussianFamily.predict

        def broken(self, target, block, params):
            if target.lon > 15.0:  # only the failed cell's fallback
                raise TypeError("injected")
            return predict(self, target, block, params)

        monkeypatch.setattr(GaussianFamily, "predict", broken)
        with pytest.raises(TypeError, match="injected"):
            map_grid(data, grid, VARIANTS[2], spec, fallback_nearest=True)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_programming_error_in_fit_raises(self, monkeypatch, n_workers):
        def broken(self, blocks, min_obs):
            raise TypeError("injected")

        monkeypatch.setattr(GaussianFamily, "fit", broken)
        data = gp_blocks(m=35, seed=9)
        grid = GridSpec(-1.0, 1.0, -1.0, 1.0, eval_time=45.5)
        with pytest.raises(TypeError, match="injected"):
            map_grid(data, grid, VARIANTS[2], self.SPEC, n_workers=n_workers)

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("cause", ["injected", "nan"])
    def test_invalid_parameter_in_fit_becomes_error_cells(self, monkeypatch,
                                                          n_workers, cause):
        # Each error cell keeps its window's size and the exception's type.
        data = gp_blocks(m=35, seed=9)
        if cause == "injected":
            def broken(self, blocks, min_obs):
                raise InvalidParameterError("injected")

            monkeypatch.setattr(GaussianFamily, "fit", broken)
        else:
            data[0].values[:] = np.nan
        grid = GridSpec(-1.0, 0.0, -1.0, 0.0, eval_time=45.5)
        field_ = map_grid(data, grid, VARIANTS[2], self.SPEC, n_workers=n_workers)
        assert field_.status_counts == {"error": 4}
        for (i, j), fit in field_.ordered():
            center = SpaceTimePoint(*grid.center(i, j), grid.eval_time)
            window = select_window(data, center, self.SPEC)
            assert fit.n_obs == sum(b.m for b in window) > 0
            assert fit.message.startswith("InvalidParameterError: ")
            if cause == "injected":
                assert fit.message == "InvalidParameterError: injected"

    def test_fallback_leaves_data_starved_cells_alone(self):
        data = gp_blocks(m=30, seed=31, span=2.0)
        grid = GridSpec(0.0, 0.0, 0.0, 40.0, lon_step=40.0, eval_time=45.5)
        spec = WindowSpec(5.0, month_halfwidth_days(1), 20)
        field_ = map_grid(data, grid, VARIANTS[2], spec,
                          fallback_nearest=True)
        assert field_.status_counts == {"ok": 1, "insufficient_data": 1}
