"""Tests for simulation oracles, holdout partitions, frozen-parameter
cross-validation, point metrics, and interval calibration."""

import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import mwgp.windows
from mwgp.covariance import CovParams, SpaceTimePoint, cov_matrix
from mwgp.errors import (
    EmptyInputError,
    InputError,
    InvalidParameterError,
)
from mwgp.gaussian import GaussianPredictive, YearBlock
from mwgp.student import StudentParams, StudentPredictive
from mwgp.validation import (
    DEFAULT_LEVELS,
    QUANTILE_GRID_POINTS,
    CVRecord,
    CVResult,
    calibration,
    nearest_cell_index,
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
    ReferenceParams,
    StudentFamily,
    WindowSpec,
    map_grid,
    month_halfwidth_days,
    window_rows,
)

from conftest import (
    lofo_partition,
    loo_partition,
    nearest_cell_lexsort,
    reference_prior_var,
    run_cv_per_fold,
)

TRUE = CovParams(1.0, 3.0, 5.0, 5.0, 0.3)


def scatter_locations(m, seed, span=6.0, t_lo=40.0, t_hi=51.0):
    rng = np.random.default_rng(seed)
    return [SpaceTimePoint(a, b, c) for a, b, c in zip(
        rng.uniform(-span, span, m), rng.uniform(-span, span, m),
        rng.uniform(t_lo, t_hi, m))]


class TestSimulateField:
    def test_deterministic_in_seed(self):
        locs = scatter_locations(20, 1)
        a = simulate_field(TRUE, locs, 3, seed=42)
        b = simulate_field(TRUE, locs, 3, seed=42)
        c = simulate_field(TRUE, locs, 3, seed=43)
        for ba, bb in zip(a, b):
            np.testing.assert_array_equal(ba.values, bb.values)
        assert not np.array_equal(a[0].values, c[0].values)

    def test_geometry_and_years(self):
        locs = scatter_locations(15, 2)
        blocks = simulate_field(TRUE, locs, 4, seed=0, start_year=2005)
        assert [b.year for b in blocks] == [2005, 2006, 2007, 2008]
        for b in blocks:
            assert b.m == 15
            np.testing.assert_array_equal(b.lat, [p.lat for p in locs])
            np.testing.assert_array_equal(b.lon, [p.lon for p in locs])
            np.testing.assert_array_equal(b.t, [p.t for p in locs])

    def test_years_are_independent_draws(self):
        locs = scatter_locations(15, 3)
        blocks = simulate_field(TRUE, locs, 2, seed=5)
        assert not np.array_equal(blocks[0].values, blocks[1].values)

    def test_requires_a_year(self):
        with pytest.raises(InvalidParameterError):
            simulate_field(TRUE, scatter_locations(5, 1), 0, seed=0)

    def test_total_variance_matches_parameters(self):
        # Widely spread points are nearly independent, so the pooled
        # sample variance should sit near phi + sigma2.
        locs = scatter_locations(300, 7, span=40.0)
        blocks = simulate_field(TRUE, locs, 2, seed=11)
        values = np.concatenate([b.values for b in blocks])
        v = np.var(values, ddof=1)
        assert 1.0 < v < 1.65  # truth 1.3

    def test_student_nugget_has_heavier_tails(self):
        # Make the nugget dominate so the tails isolate the noise law.
        cov = CovParams(1e-8, 3.0, 5.0, 5.0, 1.0)
        locs = scatter_locations(500, 9, span=40.0)
        gauss = simulate_field(cov, locs, 4, seed=13)
        student = simulate_field(StudentParams(cov, nu=3.0), locs, 4, seed=13)
        g = np.concatenate([b.values for b in gauss])
        s = np.concatenate([b.values for b in student])
        g_extreme = int(np.sum(np.abs(g) > 3.0))
        s_extreme = int(np.sum(np.abs(s) > 3.0))
        # 2000 draws: expect ~5 for the Gaussian, ~115 for t(3).
        assert g_extreme < 20
        assert s_extreme > 40

    def test_spatial_mode_ignores_time_coordinate(self):
        rng = np.random.default_rng(21)
        lats = rng.uniform(-5, 5, 12)
        lons = rng.uniform(-5, 5, 12)
        early = [SpaceTimePoint(a, b, 0.0) for a, b in zip(lats, lons)]
        late = [SpaceTimePoint(a, b, 50.0) for a, b in zip(lats, lons)]
        a = simulate_field(TRUE, early, 1, seed=3, spatial=True)
        b = simulate_field(TRUE, late, 1, seed=3, spatial=True)
        np.testing.assert_array_equal(a[0].values, b[0].values)


class TestSyntheticFloats:
    def test_rejects_unsupported_params(self):
        with pytest.raises(InvalidParameterError):
            synthetic_float_blocks((1.0, 3.0, 5.0, 5.0, 0.3), n_floats=2,
                                   profiles_per_float=3, n_years=1, seed=0)

    def test_shapes_and_ids(self):
        blocks = synthetic_float_blocks(TRUE, n_floats=4,
                                        profiles_per_float=5, n_years=2,
                                        seed=3)
        assert [b.year for b in blocks] == [0, 1]
        for b in blocks:
            assert b.m == 20
            assert b.source_ids is not None
            assert len(set(b.source_ids)) == 4
            counts = {sid: int(np.sum(b.source_ids == sid))
                      for sid in set(b.source_ids)}
            assert set(counts.values()) == {5}

    def test_profile_days_spread_over_range(self):
        blocks = synthetic_float_blocks(TRUE, n_floats=2,
                                        profiles_per_float=4, n_years=1,
                                        seed=3, t_range=(10.0, 70.0))
        days = sorted(set(blocks[0].t.tolist()))
        np.testing.assert_allclose(days, [10.0, 30.0, 50.0, 70.0])

    def test_tracks_drift_but_stay_clustered(self):
        blocks = synthetic_float_blocks(TRUE, n_floats=3,
                                        profiles_per_float=8, n_years=1,
                                        seed=5, drift_deg=0.4)
        b = blocks[0]
        for sid in set(b.source_ids):
            sel = b.source_ids == sid
            lat = b.lat[sel]
            assert np.ptp(lat) > 0.0  # the float moves
            assert np.ptp(lat) < 8.0  # but stays a local cluster

    def test_deterministic_in_seed(self):
        a = synthetic_float_blocks(TRUE, 3, 4, 2, seed=8)
        b = synthetic_float_blocks(TRUE, 3, 4, 2, seed=8)
        for ba, bb in zip(a, b):
            np.testing.assert_array_equal(ba.values, bb.values)
            np.testing.assert_array_equal(ba.lat, bb.lat)


def two_year_blocks():
    return [
        YearBlock(0, np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0]),
                  np.array([40.0, 45.0, 50.0]), np.array([0.1, 0.2, 0.3]),
                  np.array(["a", "a", "b"])),
        YearBlock(1, np.array([0.5, 1.5]), np.array([0.5, 1.5]),
                  np.array([42.0, 48.0]), np.array([0.4, 0.5]),
                  np.array(["b", "c"])),
    ]


class TestLeaveOneOut:
    def test_one_fold_per_observation(self):
        blocks = two_year_blocks()
        folds = list(loo_partition(blocks))
        assert len(folds) == 5
        held_values = sorted(h.value for h, _ in folds)
        assert held_values == [0.1, 0.2, 0.3, 0.4, 0.5]

    def test_only_held_observation_removed(self):
        blocks = two_year_blocks()
        held, remaining = list(loo_partition(blocks))[1]
        assert held.year_pos == 0 and held.obs_index == 1
        assert held.value == 0.2 and held.source_id == "a"
        assert held.lat == 1.0 and held.day == 45.0
        np.testing.assert_array_equal(remaining[0].values, [0.1, 0.3])
        np.testing.assert_array_equal(remaining[1].values, [0.4, 0.5])

    def test_source_id_optional(self):
        block = YearBlock(0, np.zeros(2), np.zeros(2), np.zeros(2),
                          np.array([1.0, 2.0]))
        held, _ = next(iter(loo_partition([block])))
        assert held.source_id is None


class TestLeaveOneFloatOut:
    def test_whole_track_removed_in_every_year(self):
        blocks = two_year_blocks()
        folds = list(lofo_partition(blocks))
        assert len(folds) == 5
        held, remaining = folds[2]  # source "b" in year 0
        assert held.source_id == "b"
        # Float "b" disappears from both years, not just the held year.
        np.testing.assert_array_equal(remaining[0].values, [0.1, 0.2])
        np.testing.assert_array_equal(remaining[1].values, [0.5])

    def test_track_holdout_is_stricter_than_observation_holdout(self):
        blocks = two_year_blocks()
        for (h_loo, r_loo), (h_lofo, r_lofo) in zip(loo_partition(blocks),
                                                    lofo_partition(blocks)):
            assert (h_loo.year_pos, h_loo.obs_index) == \
                (h_lofo.year_pos, h_lofo.obs_index)
            loo_kept = {v for b in r_loo for v in b.values}
            lofo_kept = {v for b in r_lofo for v in b.values}
            assert lofo_kept <= loo_kept

    def test_requires_source_ids(self):
        block = YearBlock(0, np.zeros(2), np.zeros(2), np.zeros(2),
                          np.array([1.0, 2.0]))
        with pytest.raises(InputError):
            list(lofo_partition([block]))


class TestNearestCellIndex:
    def test_picks_nearest(self):
        clat = np.array([0.0, 0.0, 5.0])
        clon = np.array([0.0, 2.0, 0.0])
        assert nearest_cell_index(0.0, 1.9, clat, clon) == 1

    def test_tie_breaks_to_lower_flat_index(self):
        # Cells come in ascending flat index, so the first is the lower.
        clat = np.array([0.0, 0.0])
        clon = np.array([0.0, 2.0])
        assert nearest_cell_index(0.0, 1.0, clat, clon) == 0

    def test_wraps_longitude(self):
        clat = np.array([0.0, 0.0])
        clon = np.array([-179.9, 179.0])
        assert nearest_cell_index(0.0, 179.9, clat, clon) == 0

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_lexsort_oracle_ties_included(self, data):
        # Usable cells of a small grid in ascending flat index, as
        # ``GridField.ordered()`` lists them; observations on the half-step
        # lattice sit at exact ties between two or four cells.
        grid = GridSpec(-3.0, 3.0, 177.0, 183.0)
        cells = [(i, j, lat, lon) for i, j, lat, lon in grid.cells()]
        keep = data.draw(st.lists(st.booleans(), min_size=len(cells),
                                  max_size=len(cells)))
        cells = [c for c, k in zip(cells, keep) if k] or cells[:1]
        clat = np.array([c[2] for c in cells])
        clon = np.array([c[3] for c in cells])
        flat = [grid.flat_index(c[0], c[1]) for c in cells]
        for _ in range(20):
            lat = data.draw(st.integers(-8, 8)) / 2.0
            lon = data.draw(st.integers(350, 370)) / 2.0
            assert nearest_cell_index(lat, lon, clat, clon) == \
                nearest_cell_lexsort(lat, lon, clat, clon, flat)


class TestRunCV:
    SPEC = WindowSpec(10.0, month_halfwidth_days(1), 20)
    GRID = GridSpec(-1.0, 1.0, -1.0, 1.0, eval_time=45.5)

    def mapped(self, m=40, n_years=3, seed=17, variant_id=2):
        # Keep observations within the nearest-cell radius cap of the
        # small grid so no fold is skipped by default.
        locs = scatter_locations(m, seed, span=2.5)
        data = simulate_field(TRUE, locs, n_years, seed=seed + 1)
        field_ = map_grid(data, self.GRID, VARIANTS[variant_id], self.SPEC)
        return data, field_

    def test_every_observation_scored_once(self):
        data, field_ = self.mapped()
        cv = run_cv(data, self.GRID, field_, VARIANTS[2], self.SPEC)
        total = sum(b.m for b in data)
        assert cv.scheme == "looo" and cv.variant_id == 2
        assert len(cv.records) == total
        assert cv.n_skipped == 0 and cv.n_failed == 0
        keys = {(r.year_pos, r.obs_index) for r in cv.records}
        assert len(keys) == total

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -1.0])
    def test_radius_must_be_finite_and_nonnegative(self, radius):
        data, field_ = self.mapped(m=25, n_years=1)
        with pytest.raises(InvalidParameterError):
            run_cv(data, self.GRID, field_, VARIANTS[2], self.SPEC,
                   radius_steps=radius)

    def test_errors_match_predictive_spread(self):
        data, field_ = self.mapped()
        cv = run_cv(data, self.GRID, field_, VARIANTS[2], self.SPEC)
        z = np.array([r.error / math.sqrt(r.pred.variance)
                      for r in cv.records])
        assert 0.7 < np.sqrt(np.mean(z ** 2)) < 1.4

    def test_programming_error_in_predict_raises(self, monkeypatch):
        data, field_ = self.mapped()

        def broken(self, targets, block, removals, params):
            raise TypeError("injected")

        monkeypatch.setattr(GaussianFamily, "predict_folds", broken)
        with pytest.raises(TypeError, match="injected"):
            run_cv(data, self.GRID, field_, VARIANTS[2], self.SPEC)

    def test_programming_error_in_student_predict_raises(self, monkeypatch):
        locs = scatter_locations(25, 43, span=4.0)
        data = simulate_field(StudentParams(TRUE, nu=4.0), locs, 1, seed=47)
        grid = GridSpec(0.0, 0.0, 0.0, 0.0, eval_time=45.5)
        field_ = map_grid(data, grid, VARIANTS[3], self.SPEC)
        assert field_.cells[(0, 0)].ok

        def broken(self, target, block, params):
            raise TypeError("injected")

        monkeypatch.setattr(StudentFamily, "predict", broken)
        with pytest.raises(TypeError, match="injected"):
            run_cv(data, grid, field_, VARIANTS[3], self.SPEC)

    CV_HASH_SCRIPT = """
import hashlib
import numpy as np
from mwgp.gaussian import YearBlock
from mwgp.validation import run_cv
from mwgp.windows import VARIANTS, GridSpec, WindowSpec, map_grid
rng = np.random.default_rng(5)
lat, lon = rng.uniform(-3, 3, 400), rng.uniform(-3, 3, 400)
t = rng.uniform(0.0, 91.0, 400)
vals = np.sin(lat) * np.cos(0.7 * lon + t / 30) + 0.3 * rng.standard_normal(400)
data = [YearBlock(0, lat, lon, t, vals)]
grid, spec = GridSpec(0, 0, 0, 0), WindowSpec(4.0, 45.65625)
field_ = map_grid(data, grid, VARIANTS[5], spec)
cv = run_cv(data, grid, field_, VARIANTS[5], spec, radius_steps=10.0)
print(len(cv.records), hashlib.sha256(repr(cv.records).encode()).hexdigest())
"""

    def test_records_are_bitwise_independent_of_blas_threads(self):
        # A 400-observation window: threaded OpenBLAS would change the
        # bits of the factorization and the multi-right-hand-side
        # products unless run_cv pins it.  Each setting runs in a fresh
        # interpreter because OpenBLAS reads the variable when it loads.
        src = os.path.dirname(os.path.dirname(
            sys.modules["mwgp.validation"].__file__))
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p)
            outs.append(subprocess.run(
                [sys.executable, "-c", self.CV_HASH_SCRIPT], env=env,
                capture_output=True, text=True, check=True).stdout)
        assert outs[0].split()[0] == "400"
        assert outs[0] == outs[1]

    def test_holdout_matches_manual_masked_prediction(self):
        locs = scatter_locations(25, 23, span=4.0)
        data = simulate_field(TRUE, locs, 1, seed=29)
        grid = GridSpec(0.0, 0.0, 0.0, 0.0, eval_time=45.5)
        field_ = map_grid(data, grid, VARIANTS[2], self.SPEC)
        params = field_.cells[(0, 0)].params
        cv = run_cv(data, grid, field_, VARIANTS[2], self.SPEC)
        block = data[0]
        for rec in cv.records:
            keep = np.ones(block.m, dtype=bool)
            keep[rec.obs_index] = False
            expected = VARIANTS[2].family.predict(
                SpaceTimePoint(rec.lat, rec.lon, rec.day),
                block.subset(keep), params)
            assert rec.pred.mean == pytest.approx(expected.mean, rel=1e-9, abs=0)
            assert rec.pred.variance == pytest.approx(expected.variance,
                                                      rel=1e-9, abs=0)

    def test_track_scheme_removes_whole_float_from_window(self):
        data = synthetic_float_blocks(TRUE, n_floats=8, profiles_per_float=6,
                                      n_years=1, seed=31,
                                      lat_range=(-1.5, 1.5),
                                      lon_range=(-1.5, 1.5),
                                      t_range=(35.0, 56.0))
        field_ = map_grid(data, self.GRID, VARIANTS[2], self.SPEC)
        looo = run_cv(data, self.GRID, field_, VARIANTS[2], self.SPEC,
                      scheme="looo")
        lofo = run_cv(data, self.GRID, field_, VARIANTS[2], self.SPEC,
                      scheme="lofo")
        # The same folds survive the radius cap under both schemes.
        assert [(r.year_pos, r.obs_index) for r in looo.records] == \
            [(r.year_pos, r.obs_index) for r in lofo.records]
        assert len(looo.records) >= 40
        diffs = [abs(a.pred.variance - b.pred.variance)
                 for a, b in zip(looo.records, lofo.records)]
        # Removing the rest of the track must change some predictions.
        assert max(diffs) > 0.0
        mean_var_looo = np.mean([r.pred.variance for r in looo.records])
        mean_var_lofo = np.mean([r.pred.variance for r in lofo.records])
        assert mean_var_lofo > mean_var_looo  # less nearby data kept

    def test_reference_variant_predictions(self):
        locs = scatter_locations(25, 37, span=4.0)
        data = simulate_field(TRUE, locs, 1, seed=41)
        grid = GridSpec(0.0, 0.0, 0.0, 0.0, eval_time=45.5)
        field_ = map_grid(data, grid, VARIANTS[1], self.SPEC)
        params = field_.cells[(0, 0)].params
        assert isinstance(params, ReferenceParams)
        cv = run_cv(data, grid, field_, VARIANTS[1], self.SPEC)
        rec = cv.records[0]
        block = data[0]
        keep = np.ones(block.m, dtype=bool)
        keep[rec.obs_index] = False
        expected = ReferenceFamily().predict(
            SpaceTimePoint(rec.lat, rec.lon, rec.day), block.subset(keep),
            params)
        assert rec.pred.mean == pytest.approx(expected.mean, rel=1e-9, abs=0)

    def test_student_variant_predictions(self):
        locs = scatter_locations(25, 43, span=4.0)
        data = simulate_field(StudentParams(TRUE, nu=4.0), locs, 1, seed=47)
        grid = GridSpec(0.0, 0.0, 0.0, 0.0, eval_time=45.5)
        field_ = map_grid(data, grid, VARIANTS[3], self.SPEC)
        assert field_.cells[(0, 0)].ok
        cv = run_cv(data, grid, field_, VARIANTS[3], self.SPEC)
        assert cv.records
        assert all(isinstance(r.pred, StudentPredictive) for r in cv.records)
        assert all(r.pred.dof > 1.0 for r in cv.records)

    def test_observations_far_from_fitted_cells_are_skipped(self):
        data, field_ = self.mapped()
        far = YearBlock(9, np.array([30.0]), np.array([0.0]),
                        np.array([45.5]), np.array([0.0]))
        cv = run_cv(data + [far], self.GRID, field_, VARIANTS[2], self.SPEC)
        assert cv.n_skipped == 1
        assert len(cv.records) == sum(b.m for b in data)

    def test_no_fitted_cells_skips_everything(self):
        data, _ = self.mapped(m=25, n_years=1)
        empty_grid = GridSpec(0.0, 0.0, 0.0, 0.0, mask={(0.0, 0.0)})
        empty_field = map_grid(data, empty_grid, VARIANTS[2], self.SPEC)
        cv = run_cv(data, empty_grid, empty_field, VARIANTS[2], self.SPEC)
        assert cv.records == []
        assert cv.n_skipped == sum(b.m for b in data)

    def test_eval_filter_restricts_scored_days(self):
        data, field_ = self.mapped()
        cv = run_cv(data, self.GRID, field_, VARIANTS[2], self.SPEC,
                    eval_filter=(44.0, 47.0))
        assert cv.records
        assert all(44.0 <= r.day <= 47.0 for r in cv.records)
        assert len(cv.records) < sum(b.m for b in data)
        assert cv.n_skipped == 0  # filtered folds are not "skipped"

    def test_scheme_validation(self):
        data, field_ = self.mapped(m=25, n_years=1)
        with pytest.raises(InvalidParameterError):
            run_cv(data, self.GRID, field_, VARIANTS[2], self.SPEC,
                   scheme="loo")

    def test_track_scheme_requires_ids(self):
        locs = scatter_locations(25, 3)
        data = simulate_field(TRUE, locs, 1, seed=5)
        field_ = map_grid(data, self.GRID, VARIANTS[2], self.SPEC)
        with pytest.raises(InputError):
            run_cv(data, self.GRID, field_, VARIANTS[2], self.SPEC,
                   scheme="lofo")


def assert_matches_oracle(cv, oracle, rel=1e-9):
    """Same folds in the same order; predictions within ``rel`` (0: exact)."""
    assert (cv.scheme, cv.variant_id, cv.n_skipped, cv.n_failed) == \
        (oracle.scheme, oracle.variant_id, oracle.n_skipped, oracle.n_failed)
    assert [replace(r, pred=None) for r in cv.records] == \
        [replace(r, pred=None) for r in oracle.records]
    for got, want in zip(cv.records, oracle.records):
        if rel == 0:
            assert got.pred == want.pred
            continue
        assert type(got.pred) is type(want.pred)
        assert got.pred.mean == pytest.approx(want.pred.mean, rel=rel, abs=0)
        assert got.pred.variance == pytest.approx(want.pred.variance,
                                                  rel=rel, abs=0)


class TestClosedFormCV:
    """``run_cv`` against the per-fold oracle ``run_cv_per_fold``."""

    GRID = GridSpec(-3.0, 3.0, -3.0, 3.0, lat_step=3.0, lon_step=3.0,
                    eval_time=45.5)
    SPEC3 = WindowSpec(4.0, month_halfwidth_days(3), 20)
    SPEC1 = WindowSpec(4.0, month_halfwidth_days(1), 10)

    def floats(self, seed, n_floats=12, per_float=8, n_years=2, params=TRUE,
               span=5.0):
        return synthetic_float_blocks(params, n_floats, per_float, n_years,
                                      seed=seed, lat_range=(-span, span),
                                      lon_range=(-span, span),
                                      t_range=(0.0, 91.0))

    def compare(self, data, grid, spec, variant_id, scheme, rel=1e-9,
                **kwargs):
        variant = VARIANTS[variant_id]
        field_ = map_grid(data, grid, variant, spec)
        assert field_.status_counts["ok"] >= 1
        cv = run_cv(data, grid, field_, variant, spec, scheme, **kwargs)
        oracle = run_cv_per_fold(data, grid, field_, variant, spec, scheme,
                                 **kwargs)
        assert_matches_oracle(cv, oracle, rel)
        return cv

    @pytest.mark.parametrize("scheme", ["looo", "lofo"])
    @pytest.mark.parametrize("variant_id", [1, 2, 5])
    def test_multi_cell_grid(self, variant_id, scheme):
        cv = self.compare(self.floats(51), self.GRID, self.SPEC3, variant_id,
                          scheme, radius_steps=1.0)
        assert len({r.cell for r in cv.records}) >= 4
        assert cv.n_skipped > 0

    @pytest.mark.parametrize("scheme", ["looo", "lofo"])
    @pytest.mark.parametrize("variant_id", [1, 2, 5])
    def test_eval_filter(self, variant_id, scheme):
        cv = self.compare(self.floats(53), self.GRID, self.SPEC3, variant_id,
                          scheme, eval_filter=(20.0, 60.0))
        assert cv.records and all(20.0 <= r.day <= 60.0 for r in cv.records)

    @pytest.mark.parametrize("scheme", ["looo", "lofo"])
    @pytest.mark.parametrize("variant_id", [1, 2, 5])
    def test_targets_outside_the_time_window(self, variant_id, scheme):
        data = self.floats(55, n_floats=16)
        cv = self.compare(data, self.GRID, self.SPEC1, variant_id, scheme)
        outside = [r for r in cv.records
                   if abs(r.day - self.GRID.eval_time) > self.SPEC1.t_win]
        assert len(outside) > len(cv.records) // 2

    @pytest.mark.parametrize("scheme", ["looo", "lofo"])
    @pytest.mark.parametrize("variant_id", [1, 2, 5])
    def test_fold_that_empties_the_window_gives_the_prior(self, variant_id,
                                                          scheme):
        data = self.floats(57, n_years=1)
        grid = GridSpec(0.0, 0.0, 0.0, 0.0, eval_time=45.5)
        variant = VARIANTS[variant_id]
        field_ = map_grid(data, grid, variant, self.SPEC3)
        params = field_.cells[(0, 0)].params
        # A later year with one float: its first profile is alone in the
        # window, its second lies outside it, at the first one's latitude
        # (some fits end at a latitude range far below a degree).
        lone = YearBlock(1, np.array([0.5, 0.5]), np.array([0.5, 4.5]),
                         np.array([45.0, 50.0]), np.array([0.3, -0.2]),
                         np.array(["z", "z"]))
        cv = run_cv(data + [lone], grid, field_, variant, self.SPEC3, scheme,
                    radius_steps=10.0)
        oracle = run_cv_per_fold(data + [lone], grid, field_, variant,
                                 self.SPEC3, scheme, radius_steps=10.0)
        assert_matches_oracle(cv, oracle)
        first, second = [r.pred for r in cv.records if r.year == 1]
        prior = reference_prior_var(params) if variant_id == 1 else \
            params.phi + params.sigma2
        emptied = [first, second] if scheme == "lofo" else [first]
        for pred in emptied:
            assert pred == GaussianPredictive(0.0, prior)
        if scheme == "looo":
            assert second.mean != 0.0  # predicted from the first profile

    @pytest.mark.parametrize("scheme", ["looo", "lofo"])
    def test_failed_factor_falls_back_to_per_fold(self, scheme):
        data = self.floats(59, n_years=1, span=2.0)
        grid = GridSpec(0.0, 0.0, 0.0, 0.0, eval_time=45.5)
        field_ = map_grid(data, grid, VARIANTS[2], self.SPEC3)
        # No nugget and a duplicated first point: the full window's
        # plain Cholesky meets an exactly zero pivot.
        field_.cells[(0, 0)].params = CovParams(1.0, 3.0, 5.0, 5.0, 0.0)
        b = data[0]
        dup = np.r_[0, np.arange(b.m)]
        ids = b.source_ids[dup].copy()
        ids[0] = "dup"
        data = [YearBlock(b.year, b.lat[dup], b.lon[dup], b.t[dup],
                          b.values[dup], ids)]
        window = data[0].subset(window_rows(
            data[0], SpaceTimePoint(0.0, 0.0, 45.5), self.SPEC3))
        Sigma = cov_matrix(window.points, field_.cells[(0, 0)].params)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(Sigma)
        cv = run_cv(data, grid, field_, VARIANTS[2], self.SPEC3, scheme,
                    radius_steps=10.0)
        oracle = run_cv_per_fold(data, grid, field_, VARIANTS[2], self.SPEC3,
                                 scheme, radius_steps=10.0)
        assert_matches_oracle(cv, oracle, rel=0)
        assert len(cv.records) + cv.n_failed == data[0].m

    @pytest.mark.parametrize("scheme", ["looo", "lofo"])
    @pytest.mark.parametrize("variant_id", [3, 6])
    def test_student_folds_are_the_per_fold_path(self, variant_id, scheme):
        data = self.floats(61, n_floats=5, per_float=6, n_years=1,
                           params=StudentParams(TRUE, nu=4.0), span=2.0)
        grid = GridSpec(0.0, 0.0, 0.0, 0.0, eval_time=45.5)
        self.compare(data, grid, self.SPEC3, variant_id, scheme, rel=0)


def make_result(truths, means=None, variance=1.0, variant_id=2):
    means = [0.0] * len(truths) if means is None else means
    records = [
        CVRecord(0, k, 0, None, 0.0, 0.0, 45.0, float(t),
                 GaussianPredictive(float(mu), variance), variant_id, (0, 0))
        for k, (t, mu) in enumerate(zip(truths, means))
    ]
    return CVResult("looo", variant_id, records)


class TestPointMetrics:
    def test_known_error_set(self):
        table = point_metrics(make_result([0.0, 3.0, 4.0]))
        assert table.rmse == pytest.approx(math.sqrt(25.0 / 3.0), rel=1e-15)
        assert table.mdae == 3.0
        assert table.q3ae == 3.5
        assert table.n == 3

    def test_quartile_interpolation(self):
        table = point_metrics(make_result([1.0, 2.0, 3.0, 4.0]))
        assert table.q3ae == pytest.approx(3.25, rel=1e-15)
        assert table.mdae == pytest.approx(2.5, rel=1e-15)

    def test_error_sign_irrelevant_for_absolute_metrics(self):
        a = point_metrics(make_result([1.0, -2.0, 3.0, -4.0]))
        b = point_metrics(make_result([1.0, 2.0, 3.0, 4.0]))
        assert (a.mdae, a.q3ae) == (b.mdae, b.q3ae)

    def test_permutation_invariance(self):
        a = point_metrics(make_result([4.0, 0.0, 3.0]))
        b = point_metrics(make_result([0.0, 3.0, 4.0]))
        assert (a.rmse, a.mdae, a.q3ae) == (b.rmse, b.mdae, b.q3ae)

    def test_improvement_over_baseline(self):
        better = make_result([1.0, -1.0, 1.0, -1.0])
        worse = make_result([2.0, -2.0, 2.0, -2.0])
        table = point_metrics(better, baseline=worse,
                              baseline_name="reference")
        assert table.baseline_name == "reference"
        assert table.improvement["rmse"] == pytest.approx(50.0, rel=1e-12)
        assert table.improvement["mdae"] == pytest.approx(50.0, rel=1e-12)

    def test_uses_mean_error_not_truth(self):
        table = point_metrics(make_result([5.0, 5.0], means=[4.0, 6.0]))
        assert table.rmse == pytest.approx(1.0, rel=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            point_metrics(CVResult("looo", 2))


def stratified_normal(n):
    return norm.ppf((np.arange(n) + 0.5) / n)


class TestCalibration:
    def test_unit_gaussian_predictions_are_calibrated(self):
        truths = stratified_normal(4000)
        report = calibration(make_result(truths))
        assert report.n == 4000 and report.n_flagged == 0
        for lv in DEFAULT_LEVELS:
            assert report.coverage[lv] == pytest.approx(lv, abs=0.01)
            z = norm.ppf(0.5 + lv / 2.0)
            assert report.mean_length[lv] == pytest.approx(2.0 * z, rel=1e-12)
            assert report.median_length[lv] == pytest.approx(2.0 * z,
                                                             rel=1e-12)
        assert np.max(np.abs(report.q_delta)) < 0.02

    def test_overconfident_intervals_undercover(self):
        # Predictive sd half the truth sd: the 95 % band covers with
        # probability 2 Phi(1.96/2) - 1, about 0.673.
        truths = stratified_normal(2000)
        report = calibration(make_result(truths, variance=0.25),
                             levels=(0.95,))
        expected = 2.0 * norm.cdf(norm.ppf(0.975) * 0.5 / 1.0) - 1.0
        assert expected == pytest.approx(0.6729, abs=5e-4)
        assert report.coverage[0.95] == pytest.approx(expected, abs=0.01)

    def test_residuals_are_sorted_standardized_errors(self):
        truths = np.array([0.5, -1.5, 1.0])
        report = calibration(make_result(truths, variance=4.0))
        np.testing.assert_allclose(report.residuals,
                                   np.sort(truths / 2.0), rtol=1e-15)

    def test_quantile_grid_shape_and_symmetry(self):
        report = calibration(make_result(stratified_normal(500)))
        assert report.q_theory.shape == (QUANTILE_GRID_POINTS,)
        assert report.q_delta.shape == (QUANTILE_GRID_POINTS,)
        assert report.q_theory[99] == 0.0  # middle grid point is the median
        assert report.q_theory[0] == pytest.approx(norm.ppf(1.0 / 200.0),
                                                   rel=1e-12)

    def test_coverage_monotone_in_level(self):
        truths = stratified_normal(400)
        report = calibration(make_result(truths))
        cov = [report.coverage[lv] for lv in DEFAULT_LEVELS]
        assert all(a <= b for a, b in zip(cov, cov[1:]))

    def test_level_validation(self):
        result = make_result([0.1, 0.2])
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(InvalidParameterError):
                calibration(result, levels=(bad,))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            calibration(CVResult("looo", 2))

    def test_zero_variance_predictions_are_flagged(self):
        result = make_result([1.0, 0.0], variance=0.0)
        report = calibration(result, levels=(0.5,))
        assert report.n_flagged == 2  # every degenerate prediction flagged
        assert math.isinf(report.residuals[-1])  # the miss, standardized
        assert report.residuals[0] == 0.0  # exact hit standardizes to zero
        assert report.coverage[0.5] == 0.5  # hit covered, miss not

    def student_result(self, n=400, seed=3, dof=5.0, f_var=0.5, scale=0.7):
        rng = np.random.default_rng(seed)
        truths = (math.sqrt(f_var) * rng.standard_normal(n)
                  + scale * rng.standard_t(dof, n))
        records = [
            CVRecord(0, k, 0, None, 0.0, 0.0, 45.0, float(t),
                     StudentPredictive(0.0, f_var, scale, dof), 3, (0, 0))
            for k, t in enumerate(truths)
        ]
        return CVResult("looo", 3, records)

    @pytest.mark.parametrize("name, expected", [
        pytest.param("gaussian_interval", [(2, 1)], id="gaussian_interval"),  # all records
        pytest.param("student_interval", [(2,)] * 20, id="student_interval")])  # one each
    def test_intervals_come_from_the_family(self, monkeypatch, name, expected):
        # The map's interval routines, looked up where the benchmark
        # tracer wraps them, each call for all levels.
        original = getattr(mwgp.windows, name)
        calls = []

        def counted(pred, alpha):
            calls.append(np.shape(alpha))
            return original(pred, alpha)

        monkeypatch.setattr(mwgp.windows, name, counted)
        result = (make_result(stratified_normal(20)) if name == "gaussian_interval"
                  else self.student_result(n=20))
        calibration(result, levels=(0.5, 0.9))
        assert calls == expected

    def test_student_records_reuse_fold_deviation_samples(self):
        result = self.student_result(n=50)
        a = calibration(result)
        b = calibration(result)
        np.testing.assert_array_equal(a.residuals, b.residuals)
        for lv in DEFAULT_LEVELS:
            assert a.coverage[lv] == b.coverage[lv]
            assert a.mean_length[lv] == b.mean_length[lv]

    def test_student_truths_from_the_predictive_are_calibrated(self):
        result = self.student_result(n=600, seed=5)
        report = calibration(result, levels=(0.5, 0.9))
        assert report.coverage[0.5] == pytest.approx(0.5, abs=0.06)
        assert report.coverage[0.9] == pytest.approx(0.9, abs=0.04)
        # Heavier-than-Gaussian predictive: the normalized residuals
        # should still look standard normal through the transform.
        finite = report.residuals[np.isfinite(report.residuals)]
        assert abs(np.std(finite) - 1.0) < 0.1


class TestCVRecordProperties:
    def test_gaussian_mean_and_error(self):
        rec = CVRecord(0, 0, 0, None, 0.0, 0.0, 45.0, 2.0,
                       GaussianPredictive(1.5, 1.0), 2, (0, 0))
        assert rec.pred.mean == 1.5
        assert rec.error == 0.5

    def test_student_mean_and_error(self):
        rec = CVRecord(0, 0, 0, "f1", 0.0, 0.0, 45.0, 2.0,
                       StudentPredictive(2.5, 0.5, 0.7, 4.0), 3, (0, 0))
        assert rec.pred.mean == 2.5
        assert rec.error == -0.5
