"""End-to-end tests of the command-line interface: configuration
layering, the simulate/mean/map/cv/calibrate/lagmaps pipeline, file
formats, manifests, and error exits."""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

import mwgp
import mwgp.cli
from mwgp.cli import (
    CV_HEADER,
    RunConfig,
    _coerce,
    build_config,
    config_hash,
    main,
    make_parser,
    parse_config_file,
    read_cv_records,
    read_grid_csv,
    write_cv_records,
    write_grid_binary,
    write_grid_csv,
)
from mwgp.covariance import CovParams
from mwgp.errors import InputError, SchemaError
from mwgp.ingest import (
    MEAN_COEF_HEADER,
    MEAN_GRID_HEADER,
    load_mask,
    parse_profiles,
    read_mean_field,
)
from mwgp.windows import (
    GridSpec,
    _blas_thread_controls,
    correlation_at_lag,
    zonal_km_to_degrees,
)

from conftest import level_obs_to_profiles, write_profile_records


def run_cli(*args):
    return main([str(a) for a in args])


GRID_ARGS = ["--set", "lat_min=-1", "--set", "lat_max=1",
             "--set", "lon_min=-1", "--set", "lon_max=1"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One synthetic dataset pushed through every subcommand."""
    root = tmp_path_factory.mktemp("cli_pipeline")
    sim = root / "sim"
    mean = root / "mean"
    map_out = root / "map"
    cv = root / "cv"
    cal = root / "cal"
    lag = root / "lag"
    sim_args = ["simulate", "--out", sim, "--seed", 5,
                "--set", "sim_m=70", "--set", "sim_years=2",
                "--set", "sim_lat_min=-4", "--set", "sim_lat_max=4",
                "--set", "sim_lon_min=-4", "--set", "sim_lon_max=4",
                "--set", "sim_day_min=40", "--set", "sim_day_max=51"]
    assert run_cli(*sim_args) == 0
    profiles = sim / "profiles.csv"
    assert run_cli(
        "mean", "--profiles", profiles, "--out", mean,
        "--set", "lat_min=-2", "--set", "lat_max=2",
        "--set", "lon_min=-2", "--set", "lon_max=2",
        "--set", "n_neighbors=60", "--set", "n_harmonics=1") == 0
    assert run_cli(
        "map", "--profiles", profiles, "--mean", mean / "mean_field.csv",
        "--out", map_out, *GRID_ARGS) == 0
    assert run_cli(
        "cv", "--profiles", profiles, "--mean", mean / "mean_field.csv",
        "--variant", 2, "--out", cv, *GRID_ARGS,
        "--set", "baseline_variant=1", "--set", "radius_steps=10") == 0
    assert run_cli(
        "calibrate", "--records", cv / "cv_records.csv", "--out", cal) == 0
    assert run_cli("lagmaps", "--params-dir", map_out, "--out", lag) == 0
    return {"root": root, "sim": sim, "profiles": profiles, "mean": mean,
            "map": map_out, "cv": cv, "cal": cal, "lag": lag}


ERR = "InputError"
# _coerce's value for a literal, then for "", " ", "none" and "NONE"
FLOAT = ("2.5", 2.5, ERR, ERR, ERR, ERR)
INT = ("3", 3, ERR, ERR, ERR, ERR)
STR = ("lofo", "lofo", "", "", "none", "NONE")
BOOL = ("Yes", True, ERR, ERR, ERR, ERR)
OPTIONAL_FLOAT = ("2.5", 2.5, None, None, None, None)
OPTIONAL_INT = ("3", 3, None, None, None, None)
OPTIONAL_STR = ("x.csv", "x.csv", None, None, "none", "NONE")
COERCED = {
    "pressure": FLOAT, "variant": INT, "profiles": OPTIONAL_STR,
    "mean": OPTIONAL_STR, "mask": OPTIONAL_STR, "out": STR,
    "records": OPTIONAL_STR, "params_dir": OPTIONAL_STR,
    "lat_min": FLOAT, "lat_max": FLOAT, "lon_min": FLOAT, "lon_max": FLOAT,
    "lat_step": FLOAT, "lon_step": FLOAT, "eval_time": FLOAT, "eval_year": INT,
    "x_win": FLOAT, "t_win": OPTIONAL_FLOAT, "min_obs": INT,
    "day_min": OPTIONAL_FLOAT, "day_max": OPTIONAL_FLOAT, "alpha": FLOAT,
    "levels": STR, "n_neighbors": INT, "weight_scale_km": FLOAT,
    "n_harmonics": INT, "scheme": STR, "cv_day_min": OPTIONAL_FLOAT,
    "cv_day_max": OPTIONAL_FLOAT, "radius_steps": FLOAT,
    "baseline_variant": INT, "lag_zonal_km": FLOAT,
    "lag_meridional_km": FLOAT, "lag_days": FLOAT, "lag_normalization": STR,
    "sim_m": INT, "sim_years": INT, "sim_floats": INT,
    "sim_profiles_per_float": INT, "sim_phi": FLOAT, "sim_theta_lat": FLOAT,
    "sim_theta_lon": FLOAT, "sim_theta_t": FLOAT, "sim_sigma2": FLOAT,
    "sim_nu": FLOAT, "sim_lat_min": FLOAT, "sim_lat_max": FLOAT,
    "sim_lon_min": FLOAT, "sim_lon_max": FLOAT, "sim_day_min": FLOAT,
    "sim_day_max": FLOAT, "sim_start_year": INT, "seed": INT,
    "threads": OPTIONAL_INT, "fallback_nearest": BOOL, "write_binary": BOOL,
}


class TestConfigLayering:
    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(RunConfig)])
    def test_each_key_coerces_by_its_annotation(self, key):
        literal, *want = COERCED[key]
        for raw, value in zip((literal, "", " ", "none", "NONE"), want):
            if value == ERR:
                with pytest.raises(InputError, match=f"config key {key}: "):
                    _coerce(key, raw)
            else:
                got = _coerce(key, raw)
                assert (got, type(got)) == (value, type(value)), raw

    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.variant == 5
        assert cfg.pressure == 300.0
        assert cfg.x_win == 10.0
        assert cfg.alpha == 0.32
        assert cfg.scheme == "looo"
        assert cfg.t_win is None

    def test_t_win_defaults_to_variant_months(self):
        assert RunConfig().resolved_t_win() == 45.65625
        assert RunConfig(variant=2).resolved_t_win() == 15.21875

    def test_explicit_t_win_warns_when_overriding(self, capsys):
        cfg = RunConfig(variant=2, t_win=30.0)
        assert cfg.resolved_t_win() == 30.0
        assert "overrides" in capsys.readouterr().err
        cfg.resolved_t_win(warn=False)
        assert capsys.readouterr().err == ""

    def test_threads_resolution_order(self, monkeypatch):
        monkeypatch.delenv("MWGP_THREADS", raising=False)
        assert RunConfig().resolved_threads() == 1
        monkeypatch.setenv("MWGP_THREADS", "3")
        assert RunConfig().resolved_threads() == 3
        assert RunConfig(threads=4).resolved_threads() == 4
        assert RunConfig(threads=0).resolved_threads() == 1
        monkeypatch.setenv("MWGP_THREADS", "lots")
        with pytest.raises(InputError):
            RunConfig().resolved_threads()

    def test_level_list(self):
        assert RunConfig().level_list() == (0.5, 0.68, 0.8, 0.9, 0.95, 0.99)
        assert RunConfig(levels="0.5, 0.9").level_list() == (0.5, 0.9)
        with pytest.raises(InputError):
            RunConfig(levels="half").level_list()
        with pytest.raises(InputError):
            RunConfig(levels=",").level_list()

    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "variant=3\n"
            "x_win = 5.0  # trailing comment\n"
            "\n"
            "fallback_nearest=yes\n"
            "t_win=none\n"
            "profiles=\n",
            encoding="utf-8")
        values = parse_config_file(path)
        assert values == {"variant": 3, "x_win": 5.0,
                          "fallback_nearest": True, "t_win": None,
                          "profiles": None}

    def test_config_file_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just a bare word\n", encoding="utf-8")
        with pytest.raises(InputError):
            parse_config_file(path)
        path.write_text("no_such_key=1\n", encoding="utf-8")
        with pytest.raises(InputError):
            parse_config_file(path)
        path.write_text("min_obs=lots\n", encoding="utf-8")
        with pytest.raises(InputError):
            parse_config_file(path)

    def test_flags_beat_set_which_beats_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("variant=2\nseed=9\nx_win=7\n", encoding="utf-8")
        args = make_parser().parse_args([
            "map", "--config", str(path), "--set", "variant=3",
            "--variant", "4"])
        cfg = build_config(args)
        assert cfg.variant == 4  # flag wins
        assert cfg.seed == 9  # file survives where nothing overrides
        assert cfg.x_win == 7.0

    def test_alpha_and_scheme_validated(self):
        args = make_parser().parse_args(["map", "--set", "alpha=1.5"])
        with pytest.raises(InputError):
            build_config(args)

    def test_config_hash_tracks_content(self):
        a = RunConfig()
        b = RunConfig()
        c = RunConfig(seed=1)
        assert config_hash(a, {}) == config_hash(b, {})
        assert config_hash(a, {}) != config_hash(c, {})
        assert len(config_hash(a, {})) == 64

    @pytest.mark.parametrize("command,setting", [
        ("map", "pressure=inf"), ("map", "lon_step=inf"), ("map", "lat_step=nan"),
        ("map", "lon_max=nan"), ("map", "eval_time=-inf"), ("map", "t_win=nan"),
        ("cv", "radius_steps=nan"), ("cv", "radius_steps=inf"),
        ("lagmaps", "lag_days=nan"), ("lagmaps", "lag_zonal_km=nan"),
        ("simulate", "sim_lat_min=nan"),
    ])
    def test_non_finite_float_rejected_naming_key(self, tmp_path, capsys,
                                                  command, setting):
        key = setting.partition("=")[0]
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--out", tmp_path / "o", "--set", setting)
        assert exc.value.code == 2
        assert f"config key {key}: " in capsys.readouterr().err
        path = tmp_path / "run.cfg"
        path.write_text(f"{setting}\n", encoding="utf-8")
        assert run_cli(command, "--config", path, "--out", tmp_path / "o") == 1
        assert f"config key {key}: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_pressure_flag_must_be_finite(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["map", "--pressure", "nan"])

    def test_set_rejects_malformed_pairs(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["map", "--set", "variant"])
        with pytest.raises(SystemExit):
            make_parser().parse_args(["map", "--set", "no_such_key=1"])

    def test_set_rejects_removed_optimizer_key(self, tmp_path, pipeline,
                                               capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("map", "--profiles", pipeline["profiles"], *GRID_ARGS,
                    "--out", tmp_path / "m", "--set", "max_iter=500")
        assert exc.value.code == 2
        assert "unknown config key 'max_iter'" in capsys.readouterr().err

    def test_config_file_rejects_removed_optimizer_key(self, tmp_path,
                                                       pipeline, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("grad_tol=1e-8\n", encoding="utf-8")
        assert run_cli("map", "--config", path, "--profiles",
                       pipeline["profiles"], *GRID_ARGS,
                       "--out", tmp_path / "m") == 1
        assert "unknown config key 'grad_tol'" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            make_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip()


class TestGridFileIO:
    def test_csv_round_trip_is_exact(self, tmp_path):
        rows = [(0.5, -179.5, math.pi), (1.5, 20.0, -1.0 / 3.0)]
        path = tmp_path / "grid.csv"
        write_grid_csv(path, rows)
        assert read_grid_csv(path) == rows

    def test_csv_round_trip_keeps_infinite_values(self, tmp_path):
        rows = [(0.5, 0.5, math.inf)]  # a Student variance with nu <= 2
        path = tmp_path / "grid.csv"
        write_grid_csv(path, rows)
        assert read_grid_csv(path) == rows

    def test_csv_header_enforced(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(InputError):
            read_grid_csv(path)

    READERS = [read_grid_csv, read_cv_records, load_mask, read_mean_field,
               parse_profiles]

    @pytest.mark.parametrize("read", READERS, ids=lambda f: f.__name__)
    def test_wrong_header_is_a_schema_error_naming_the_file(self, tmp_path,
                                                             read):
        path = tmp_path / "wrong_header.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            read(path)
        assert err.value.line_number == 1
        assert str(path) in str(err.value)
        assert "got a,b" in str(err.value)

    @pytest.mark.parametrize("read", READERS, ids=lambda f: f.__name__)
    def test_each_reader_keeps_its_empty_file_rule(self, tmp_path, read):
        # An empty mask masks nothing and an empty profile file holds no
        # profiles; an empty grid, record or mean file is an error.
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        if read in (load_mask, parse_profiles):
            assert len(read(path)) == 0
        else:
            with pytest.raises(SchemaError, match="got nothing") as err:
                read(path)
            assert err.value.line_number == 1

    def test_binary_dump_with_nan_holes(self, tmp_path):
        grid = GridSpec(0.0, 1.0, 0.0, 2.0)
        path = tmp_path / "field.bin"
        write_grid_binary(path, grid, {(0, 0): 1.5, (1, 2): -2.0})
        arr = np.frombuffer(path.read_bytes(), dtype="<f8").reshape(2, 3)
        assert arr[0, 0] == 1.5
        assert arr[1, 2] == -2.0
        assert np.isnan(arr[0, 1])
        sidecar = (tmp_path / "field.bin.txt").read_text(encoding="utf-8")
        assert "n_lat=2" in sidecar and "n_lon=3" in sidecar
        assert "order=row-major" in sidecar


class TestSimulate:
    def sim_args(self, out, seed=3):
        return ["simulate", "--out", out, "--seed", seed,
                "--set", "sim_m=12", "--set", "sim_years=2"]

    def test_byte_identical_for_same_seed(self, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert run_cli(*self.sim_args(a, 3)) == 0
        assert run_cli(*self.sim_args(b, 3)) == 0
        assert run_cli(*self.sim_args(c, 4)) == 0
        pa = (a / "profiles.csv").read_bytes()
        assert pa == (b / "profiles.csv").read_bytes()
        assert pa != (c / "profiles.csv").read_bytes()

    def test_scattered_output_parses_and_counts(self, tmp_path):
        out = tmp_path / "sim"
        assert run_cli(*self.sim_args(out)) == 0
        records = parse_profiles(out / "profiles.csv")
        assert len(records) == 24  # sim_m observations in each of 2 years
        assert {r.year for r in records} == {0, 1}
        for r in records:
            assert len(r.levels) == 1
            assert r.levels[0][0] == 300.0
            assert -8.0 <= r.lat <= 8.0

    @pytest.mark.parametrize("settings,key", [
        (["sim_m=-5"], "sim_m"), (["sim_m=0"], "sim_m"),
        (["sim_floats=3", "sim_profiles_per_float=-1"], "sim_profiles_per_float"),
        (["sim_floats=3", "sim_profiles_per_float=0"], "sim_profiles_per_float"),
        (["sim_floats=3", "sim_years=-2"], "sim_years"),
        (["sim_floats=-2"], "sim_floats"),
    ])
    def test_nonsense_counts_rejected_naming_key(self, tmp_path, capsys,
                                                 settings, key):
        # In-process, so an uncaught exception (a traceback) fails the test.
        sets = [a for s in settings for a in ("--set", s)]
        assert run_cli("simulate", "--out", tmp_path / "sim", *sets) == 1
        assert f"{key} must be >= " in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("mode", [[], ["--set", "sim_floats=3",
                                           "--set", "sim_profiles_per_float=4"]])
    def test_bytes_are_the_record_paths(self, tmp_path, mode):
        spy = mock.Mock(wraps=mwgp.cli.write_profiles)
        with mock.patch.object(mwgp.cli, "write_profiles", spy):
            assert run_cli(*self.sim_args(tmp_path / "sim"), *mode,
                           "--set", "sim_lon_min=170", "--set", "sim_lon_max=190") == 0
        blocks, pressure, path = spy.call_args.args
        assert pressure == 300.0
        write_profile_records(level_obs_to_profiles(blocks, pressure),
                              tmp_path / "records.csv")
        assert (tmp_path / "records.csv").read_bytes() \
            == (tmp_path / "sim" / "profiles.csv").read_bytes()

    @pytest.mark.parametrize("setting", ["sim_lat_max=95", "sim_lat_min=-90.5"])
    def test_latitudes_off_the_globe_write_nothing(self, tmp_path, capsys, setting):
        assert run_cli("simulate", "--out", tmp_path / "sim", "--set", "sim_m=400",
                       "--set", setting) == 1
        assert "latitude outside [-90, 90]" in capsys.readouterr().err
        assert not (tmp_path / "sim" / "profiles.csv").exists()

    def test_zero_years_writes_header_only(self, tmp_path):
        out = tmp_path / "sim"
        assert run_cli("simulate", "--out", out, "--set", "sim_years=0") == 0
        text = (out / "profiles.csv").read_text(encoding="utf-8")
        assert text.strip() == ",".join(
            ["source_id", "lat", "lon", "year", "day", "pressure_db",
             "temp_c"])

    def test_float_mode_emits_tracks(self, tmp_path):
        out = tmp_path / "sim"
        assert run_cli("simulate", "--out", out, "--seed", 7,
                       "--set", "sim_floats=3",
                       "--set", "sim_profiles_per_float=4",
                       "--set", "sim_years=2") == 0
        records = parse_profiles(out / "profiles.csv")
        assert len(records) == 24
        ids = {r.source_id for r in records}
        assert len(ids) == 3
        assert all(sid.startswith("float") for sid in ids)

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "sim"
        assert run_cli(*self.sim_args(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["outputs"] == ["profiles.csv"]
        assert len(manifest["config_hash"]) == 64
        assert manifest["config"]["sim_m"] == 12


class TestMeanCommand:
    def test_outputs(self, pipeline):
        mean_dir = pipeline["mean"]
        coef = (mean_dir / "mean_field.csv").read_text(encoding="utf-8")
        assert coef.splitlines()[0] == ",".join(MEAN_COEF_HEADER)
        grid = (mean_dir / "mean_grid.csv").read_text(encoding="utf-8")
        assert grid.splitlines()[0] == ",".join(MEAN_GRID_HEADER)
        manifest = json.loads((mean_dir / "manifest.json").read_text())
        assert manifest["command"] == "mean"
        assert manifest["n_obs"] == 140
        assert str(pipeline["profiles"]) in manifest["inputs"]

    def test_too_few_observations_fails_cleanly(self, tmp_path, pipeline,
                                                capsys):
        code = run_cli("mean", "--profiles", pipeline["profiles"],
                       "--out", tmp_path / "m")
        assert code == 1  # default n_neighbors exceeds the 140 observations
        assert capsys.readouterr().err.startswith("error:")


class TestMapCommand:
    EXPECTED_GRIDS = ["prediction", "variance", "variance_ratio",
                      "interval_lower", "interval_upper", "param_phi",
                      "param_theta_lat", "param_theta_lon", "param_theta_t",
                      "param_sigma2"]

    def test_gridded_outputs_exist(self, pipeline):
        for name in self.EXPECTED_GRIDS:
            assert (pipeline["map"] / f"{name}.csv").exists(), name
        assert not (pipeline["map"] / "param_nu.csv").exists()

    def test_fitted_cells_carry_consistent_values(self, pipeline):
        map_dir = pipeline["map"]
        pred = read_grid_csv(map_dir / "prediction.csv")
        var = read_grid_csv(map_dir / "variance.csv")
        ratio = read_grid_csv(map_dir / "variance_ratio.csv")
        lo = read_grid_csv(map_dir / "interval_lower.csv")
        hi = read_grid_csv(map_dir / "interval_upper.csv")
        assert len(pred) == 9
        assert [r[:2] for r in pred] == [r[:2] for r in var]
        for (_, _, v), (_, _, q), (_, _, a), (_, _, b) in zip(var, ratio,
                                                              lo, hi):
            assert v > 0.0
            assert 0.0 <= q <= 1.0
            assert a < b

    def test_status_rows_cover_every_grid_cell(self, pipeline):
        lines = (pipeline["map"] / "status.csv").read_text().splitlines()
        assert lines[0] == "lat,lon,status"
        assert len(lines) == 10
        assert all(line.endswith(",ok") for line in lines[1:])

    def test_manifest_reports_statuses(self, pipeline):
        manifest = json.loads((pipeline["map"] / "manifest.json").read_text())
        assert manifest["command"] == "map"
        assert manifest["status_counts"] == {"ok": 9}
        assert manifest["config"]["variant"] == 5
        assert len(manifest["cell_wall_times_s"]) == 9
        assert str(pipeline["profiles"]) in manifest["inputs"]

    def test_worker_count_does_not_change_outputs(self, tmp_path, pipeline):
        common = ["map", "--profiles", pipeline["profiles"], "--variant", 2,
                  "--set", "lat_min=-1", "--set", "lat_max=0",
                  "--set", "lon_min=-1", "--set", "lon_max=0"]
        a, b = tmp_path / "serial", tmp_path / "par"
        assert run_cli(*common, "--out", a, "--threads", 1) == 0
        assert run_cli(*common, "--out", b, "--threads", 2) == 0
        for name in ("prediction.csv", "variance.csv", "param_phi.csv",
                     "status.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_binary_grids_match_the_csv_files(self, tmp_path, pipeline):
        mask = tmp_path / "mask.csv"
        mask.write_text("lat,lon\n0.0,0.0\n", encoding="utf-8")
        out = tmp_path / "bin"
        assert run_cli("map", "--profiles", pipeline["profiles"],
                       "--variant", 2, "--mask", mask, "--out", out,
                       "--set", "lat_min=-1", "--set", "lat_max=0",
                       "--set", "lon_min=-1", "--set", "lon_max=1",
                       "--set", "write_binary=true") == 0
        for name in ("prediction", "param_phi"):
            meta = dict(line.split("=", 1) for line in
                        (out / f"{name}.bin.txt").read_text().splitlines())
            assert meta["dtype"] == "<f8" and meta["order"] == "row-major"
            shape = (int(meta["n_lat"]), int(meta["n_lon"]))
            assert shape == (2, 3)
            arr = np.frombuffer((out / f"{name}.bin").read_bytes(),
                                dtype="<f8").reshape(shape)
            origin = float(meta["lat_min"]), float(meta["lon_min"])
            step = float(meta["lat_step"]), float(meta["lon_step"])
            expected = np.full(shape, np.nan)
            rows = read_grid_csv(out / f"{name}.csv")
            for lat, lon, value in rows:
                expected[round((lat - origin[0]) / step[0]),
                         round((lon - origin[1]) / step[1])] = value
            assert len(rows) == 5 and np.isnan(expected[1, 1])
            np.testing.assert_array_equal(arr, expected)

    def test_missing_eval_year_fails(self, tmp_path, pipeline, capsys):
        code = run_cli("map", "--profiles", pipeline["profiles"],
                       "--out", tmp_path / "m", *GRID_ARGS,
                       "--set", "eval_year=7")
        assert code == 1
        assert "eval_year" in capsys.readouterr().err

    def test_fully_masked_grid_succeeds_with_empty_outputs(self, tmp_path,
                                                           pipeline):
        mask = tmp_path / "mask.csv"
        cells = [f"{la}.0,{lo}.0" for la in (-1, 0, 1) for lo in (-1, 0, 1)]
        mask.write_text("lat,lon\n" + "\n".join(cells) + "\n",
                        encoding="utf-8")
        out = tmp_path / "masked"
        assert run_cli("map", "--profiles", pipeline["profiles"],
                       "--mask", mask, "--out", out, *GRID_ARGS) == 0
        assert read_grid_csv(out / "prediction.csv") == []
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status_counts"] == {}

    def test_malformed_mean_file_fails_with_line_number(self, tmp_path,
                                                        pipeline, capsys):
        path = tmp_path / "mean_grid.csv"
        path.write_text("lat,lon,mean_c\n0.0,0.0,1.0\nnorth,1.0,1.0\n",
                        encoding="utf-8")
        assert run_cli("map", "--profiles", pipeline["profiles"],
                       "--mean", path, "--out", tmp_path / "m",
                       *GRID_ARGS) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 3:") and "lat" in err

    @pytest.mark.parametrize("radius", ["-1", "-1e-9"])
    def test_bad_cv_radius_fails_before_mapping(self, tmp_path, pipeline,
                                                capsys, radius):
        with mock.patch("mwgp.cli._map_field") as map_field:
            assert run_cli("cv", "--profiles", pipeline["profiles"],
                           "--variant", 2, "--out", tmp_path / "c",
                           *GRID_ARGS, "--set", f"radius_steps={radius}") == 1
        map_field.assert_not_called()
        assert capsys.readouterr().err.startswith("error: radius_steps")
        assert not (tmp_path / "c").exists()

    def test_inverted_cv_day_window_fails_before_mapping(self, tmp_path, pipeline,
                                                         capsys):
        with mock.patch("mwgp.cli.map_grid") as map_grid:
            assert run_cli("cv", "--profiles", pipeline["profiles"],
                           "--variant", 2, "--out", tmp_path / "c", *GRID_ARGS,
                           "--set", "cv_day_min=50", "--set", "cv_day_max=40") == 1
        map_grid.assert_not_called()
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "cv_day_min" in err and "cv_day_max" in err
        assert not (tmp_path / "c").exists()

    def test_missing_profiles_flag_fails(self, tmp_path, capsys):
        assert run_cli("map", "--out", tmp_path / "m") == 1
        assert "profiles" in capsys.readouterr().err

    def test_nonexistent_profiles_file_fails(self, tmp_path, capsys):
        assert run_cli("map", "--profiles", tmp_path / "nope.csv",
                       "--out", tmp_path / "m") == 1
        assert capsys.readouterr().err.startswith("error:")


class TestUnreadableInputs:
    """An input file with a byte that is not UTF-8, or with a field over
    the csv field size limit (131,072 characters by default), exits 1
    with the line it is on."""

    @staticmethod
    def damaged(path, line, damage):
        lines = path.read_bytes().splitlines(keepends=True)
        text = lines[line - 1]
        lines[line - 1] = (b"\xff" + text if damage == "byte" else
                           b'"' + b"9" * 140000 + b'"' + text[text.index(b","):])
        path.write_bytes(b"".join(lines))

    @pytest.mark.parametrize("kind,damage", [
        (kind, damage) for kind in ("profiles", "mean", "mask", "records",
                                    "params") for damage in ("byte", "field")
    ] + [("config", "byte")])
    def test_exits_1_with_the_line(self, tmp_path, pipeline, capsys, kind,
                                   damage):
        copy, line, map_args = tmp_path / f"{kind}.csv", 3, ["map", *GRID_ARGS]
        if kind == "profiles":
            shutil.copy(pipeline["profiles"], copy)
            args = [*map_args, "--profiles", copy]
        elif kind == "mean":
            shutil.copy(pipeline["mean"] / "mean_field.csv", copy)
            args = [*map_args, "--profiles", pipeline["profiles"], "--mean", copy]
        elif kind == "mask":
            copy.write_text("lat,lon\n10.0,20.0\n30.0,40.0\n", encoding="utf-8")
            args = [*map_args, "--profiles", pipeline["profiles"], "--mask", copy]
        elif kind == "config":
            copy.write_text("variant=2\nseed=9\nx_win=7\n", encoding="utf-8")
            args = [*map_args, "--profiles", pipeline["profiles"], "--config", copy]
        elif kind == "records":
            shutil.copy(pipeline["cv"] / "cv_records.csv", copy)
            args = ["calibrate", "--records", copy]
        else:
            shutil.copytree(pipeline["map"], tmp_path / "params")
            copy, line = tmp_path / "params" / "param_phi.csv", 2
            args = ["lagmaps", "--params-dir", tmp_path / "params"]
        self.damaged(copy, line, damage)
        assert run_cli(*args, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line}: "), err
        assert ("is not UTF-8" if damage == "byte" else "field limit") in err


class TestCVCommand:
    def test_records_file_round_trips(self, pipeline, tmp_path):
        path = pipeline["cv"] / "cv_records.csv"
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == ",".join(CV_HEADER)
        cv = read_cv_records(path)
        assert cv.scheme == "looo" and cv.variant_id == 2
        assert len(cv.records) == 140
        copy = tmp_path / "copy.csv"
        write_cv_records(cv, copy)
        assert copy.read_bytes() == path.read_bytes()

    def test_metrics_table_includes_baseline_improvement(self, pipeline):
        lines = (pipeline["cv"] / "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("model,n,RMSE,MdAE,Q3AE")
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert set(rows) == {"variant 1", "variant 2"}
        assert rows["variant 1"][5] == ""  # the baseline has no baseline
        assert rows["variant 2"][5] != ""
        assert (pipeline["cv"] / "cv_records_baseline.csv").exists()

    def test_manifest_counts_folds(self, pipeline):
        manifest = json.loads((pipeline["cv"] / "manifest.json").read_text())
        assert manifest["n_folds"] == 140
        assert manifest["n_failed"] == 0
        assert set(manifest["coverage"]) == {"0.5", "0.68", "0.8", "0.9",
                                             "0.95", "0.99"}

    def test_profiles_parsed_once_for_variant_and_baseline(self, pipeline, tmp_path):
        # Variant 4 subtracts the spatio-temporal mean, its baseline 1 the
        # spatial one, each from the blocks of one parse and the field of
        # one read of the mean file; each record file is the one a run of
        # its variant alone writes.
        common = ["--profiles", pipeline["profiles"], "--mean",
                  pipeline["mean"] / "mean_field.csv", *GRID_ARGS,
                  "--set", "radius_steps=10"]
        parse = mock.Mock(wraps=mwgp.cli.parse_profiles)
        read, means = mwgp.cli.read_mean_field, []

        def read_mean(path):
            means.append(read(path))
            return means[-1]

        subtract = mock.Mock(wraps=mwgp.cli.subtract_mean)
        with mock.patch.object(mwgp.cli, "parse_profiles", parse), \
                mock.patch.object(mwgp.cli, "read_mean_field", read_mean), \
                mock.patch.object(mwgp.cli, "subtract_mean", subtract):
            assert run_cli("cv", *common, "--variant", 4, "--out", tmp_path / "both",
                           "--set", "baseline_variant=1") == 0
        assert parse.call_count == 1
        assert len(means) == 1
        assert [c.args[1:3] for c in subtract.call_args_list] == [
            (means[0], "spatio-temporal"), (means[0], "spatial")]
        for variant in (4, 1):
            assert run_cli("cv", *common, "--variant", variant,
                           "--out", tmp_path / f"v{variant}") == 0
        both = tmp_path / "both"
        assert (both / "cv_records.csv").read_bytes() \
            == (tmp_path / "v4" / "cv_records.csv").read_bytes()
        assert (both / "cv_records_baseline.csv").read_bytes() \
            == (tmp_path / "v1" / "cv_records.csv").read_bytes()
        for name in ("coverage.csv", "quantile_curve.csv"):
            assert (both / name).read_bytes() == (tmp_path / "v4" / name).read_bytes()

    def test_calibration_outputs(self, pipeline):
        lines = (pipeline["cv"] / "coverage.csv").read_text().splitlines()
        assert lines[0] == "Level,Empirical coverage,Mean length,Median length"
        assert len(lines) == 7
        curve = (pipeline["cv"] / "quantile_curve.csv").read_text().splitlines()
        assert curve[0] == "q_theory,q_delta"
        assert len(curve) == 200  # header plus the 199-point grid


class TestCalibrateCommand:
    def test_reproduces_cv_calibration_exactly(self, pipeline):
        for name in ("coverage.csv", "quantile_curve.csv"):
            assert (pipeline["cal"] / name).read_bytes() == \
                (pipeline["cv"] / name).read_bytes(), name

    @pytest.mark.parametrize("damage", ["short row", "non-numeric field"])
    def test_malformed_records_fail_with_line_number(self, pipeline, tmp_path,
                                                     capsys, damage):
        lines = (pipeline["cv"] / "cv_records.csv").read_text(
            encoding="utf-8").splitlines()
        fields = lines[3].split(",")
        if damage == "short row":
            fields = fields[:9]
        else:
            fields[CV_HEADER.index("truth")] = "warm"
        lines[3] = ",".join(fields)
        path = tmp_path / "cv_records.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli("calibrate", "--records", path,
                       "--out", tmp_path / "c") == 1
        assert capsys.readouterr().err.startswith("error: line 4:")

    @pytest.mark.parametrize("row,changes,message", [
        (0, {"variant": "7"}, "unknown model variant"),
        (0, {"scheme": "xyz"}, "unknown cv scheme"),
        (0, {"kind": "student"}, "is not variant 2's 'gaussian'"),
        (2, {"kind": "student"}, "is not variant 2's 'gaussian'"),
        (2, {"scheme": "lofo"}, "differ from the first row's"),
        (2, {"variant": "5"}, "differ from the first row's"),
        (2, {"scheme": "lofo", "variant": "3", "kind": "student", "variance": "",
             "f_var": "0.5", "scale": "0.7", "dof": "4"},
         "differ from the first row's"),
    ])
    def test_rows_must_agree_with_the_first_and_its_family(
            self, pipeline, tmp_path, capsys, row, changes, message):
        lines = (pipeline["cv"] / "cv_records.csv").read_text(
            encoding="utf-8").splitlines()
        fields = lines[1 + row].split(",")
        for column, value in changes.items():
            fields[CV_HEADER.index(column)] = value
        lines[1 + row] = ",".join(fields)
        path = tmp_path / "cv_records.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli("calibrate", "--records", path,
                       "--out", tmp_path / "c") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {2 + row}: ") and message in err

    def test_missing_records_fails(self, tmp_path, capsys):
        assert run_cli("calibrate", "--records", tmp_path / "nope.csv",
                       "--out", tmp_path / "c") == 1
        assert capsys.readouterr().err.startswith("error:")


class TestManifests:
    STAGES = ("sim", "mean", "map", "cv", "cal", "lag")

    def test_every_subcommand_records_wall_time(self, pipeline):
        for stage in self.STAGES:
            manifest = json.loads((pipeline[stage] / "manifest.json").read_text())
            assert manifest["wall_time_s"] >= 0.0, stage

    def test_every_manifest_records_blas_threads(self, pipeline):
        # map and cv pin OpenBLAS while they run; the manifest keeps the
        # thread count they inherited and restore.
        inherited = [get() for get, _ in _blas_thread_controls()]
        for stage in self.STAGES:
            manifest = json.loads((pipeline[stage] / "manifest.json").read_text())
            assert manifest["blas_threads"] == inherited, stage

    def test_wall_time_stays_out_of_every_csv(self, pipeline):
        for stage in self.STAGES:
            for path in pipeline[stage].glob("*.csv"):
                assert "wall" not in path.read_text(encoding="utf-8"), path


class TestConfigHash:
    """The manifest's ``config_hash`` names the run, not where its files live."""

    SIM = ["--seed", 4, "--set", "sim_m=40", "--set", "sim_years=2",
           "--set", "sim_lat_min=-3", "--set", "sim_lat_max=3",
           "--set", "sim_lon_min=-3", "--set", "sim_lon_max=3"]
    ONE_CELL = ["--variant", 1, "--set", "lat_min=0", "--set", "lat_max=0",
                "--set", "lon_min=0", "--set", "lon_max=0"]

    @staticmethod
    def manifest(path):
        return json.loads((path / "manifest.json").read_text())

    def test_same_run_in_two_directories_hashes_alike(self, tmp_path):
        for name in ("a", "b"):
            assert run_cli("simulate", "--out", tmp_path / name / "sim", *self.SIM) == 0
        copy = tmp_path / "b" / "inputs" / "profiles.csv"
        copy.parent.mkdir()
        shutil.copyfile(tmp_path / "a" / "sim" / "profiles.csv", copy)
        for name, profiles in (("a", tmp_path / "a" / "sim" / "profiles.csv"),
                               ("b", copy)):
            assert run_cli("map", "--profiles", profiles, *self.ONE_CELL,
                           "--out", tmp_path / name / "map") == 0
        for stage in ("sim", "map"):
            a, b = (self.manifest(tmp_path / name / stage) for name in "ab")
            assert a["config"]["out"] != b["config"]["out"]
            assert a["config_hash"] == b["config_hash"], stage
        a, b = (self.manifest(tmp_path / name / "map") for name in "ab")
        assert a["config"]["profiles"] != b["config"]["profiles"]
        assert list(a["inputs"].values()) == list(b["inputs"].values())

        lines = copy.read_text().splitlines()
        lines[1] = ",".join(lines[1].split(",")[:-1] + ["12.5"])
        copy.write_text("\n".join(lines) + "\n")
        assert run_cli("map", "--profiles", copy, *self.ONE_CELL,
                       "--out", tmp_path / "edited") == 0
        edited = self.manifest(tmp_path / "edited")
        assert edited["config"] == {**b["config"], "out": str(tmp_path / "edited")}
        assert edited["config_hash"] != b["config_hash"]

    def test_params_dir_stays_a_path(self, tmp_path):
        a, b = RunConfig(params_dir="x"), RunConfig(params_dir="y")
        assert config_hash(a, {}) != config_hash(b, {})
        assert config_hash(a, {}) == config_hash(dataclasses.replace(a, out="elsewhere"), {})
        named = RunConfig(profiles="p.csv")
        assert config_hash(named, {"p.csv": "0" * 64}) \
            == config_hash(RunConfig(profiles="q.csv"), {"q.csv": "0" * 64})


class TestSeedIndependence:
    ONE_CELL = ["--set", "lat_min=0", "--set", "lat_max=0",
                "--set", "lon_min=0", "--set", "lon_max=0"]

    def test_student_outputs_do_not_depend_on_the_seed(self, tmp_path, pipeline):
        # Only simulate draws random numbers; the Student intervals and
        # PIT values come from the exact predictive law.
        common = ["--profiles", pipeline["profiles"], "--variant", 3,
                  *self.ONE_CELL]
        for seed in (1, 2):
            out = tmp_path / f"s{seed}"
            assert run_cli("map", *common, "--seed", seed,
                           "--out", out / "map") == 0
            assert run_cli("cv", *common, "--seed", seed, "--out", out / "cv",
                           "--set", "radius_steps=10") == 0
            assert run_cli("calibrate", "--records", out / "cv" / "cv_records.csv",
                           "--seed", seed, "--out", out / "cal") == 0
        names = sorted(p.relative_to(tmp_path / "s1")
                       for p in (tmp_path / "s1").rglob("*.csv"))
        assert len(names) == 17  # 11 map, 4 cv and 2 calibrate files
        status = (tmp_path / "s1" / "map" / "status.csv").read_text()
        assert status.splitlines()[1:] == ["0,0,ok"]
        for name in names:
            assert (tmp_path / "s1" / name).read_bytes() == \
                (tmp_path / "s2" / name).read_bytes(), name


class TestLagmapsCommand:
    def test_outputs_cover_param_cells_in_order(self, pipeline):
        phi_rows = read_grid_csv(pipeline["map"] / "param_phi.csv")
        for name in ("lag_zonal", "lag_meridional", "lag_temporal"):
            rows = read_grid_csv(pipeline["lag"] / f"{name}.csv")
            assert [r[:2] for r in rows] == [r[:2] for r in phi_rows], name
            assert all(0.0 < v <= 1.0 for _, _, v in rows)

    def test_zonal_value_matches_fitted_correlation(self, pipeline):
        map_dir = pipeline["map"]
        params_at = {}
        for name in ("phi", "theta_lat", "theta_lon", "theta_t", "sigma2"):
            for lat, lon, v in read_grid_csv(map_dir / f"param_{name}.csv"):
                params_at.setdefault((lat, lon), {})[name] = v
        rows = read_grid_csv(pipeline["lag"] / "lag_zonal.csv")
        lat, lon, got = rows[0]
        p = params_at[(lat, lon)]
        expected = correlation_at_lag(
            CovParams(p["phi"], p["theta_lat"], p["theta_lon"],
                      p["theta_t"], p["sigma2"]),
            dlon=zonal_km_to_degrees(800.0, lat))
        assert got == expected

    def spatial_params_dir(self, tmp_path):
        src = tmp_path / "params"
        src.mkdir()
        write_grid_csv(src / "param_phi.csv", [(0.5, 0.5, 1.2)])
        write_grid_csv(src / "param_theta_lat.csv", [(0.5, 0.5, 3.0)])
        write_grid_csv(src / "param_theta_lon.csv", [(0.5, 0.5, 5.0)])
        write_grid_csv(src / "param_sigma2.csv", [(0.5, 0.5, 0.4)])
        return src

    def test_spatial_params_need_lag_days_zero(self, tmp_path, capsys):
        src = self.spatial_params_dir(tmp_path)
        out = tmp_path / "lag"
        assert run_cli("lagmaps", "--params-dir", src, "--out", out) == 1
        assert "lag_days=0" in capsys.readouterr().err
        assert run_cli("lagmaps", "--params-dir", src, "--out", out,
                       "--set", "lag_days=0") == 0
        assert (out / "lag_zonal.csv").exists()
        assert (out / "lag_meridional.csv").exists()
        assert not (out / "lag_temporal.csv").exists()

    def test_process_normalization_removes_nugget_deflation(self, tmp_path):
        src = self.spatial_params_dir(tmp_path)
        total_dir, process_dir = tmp_path / "t", tmp_path / "p"
        assert run_cli("lagmaps", "--params-dir", src, "--out", total_dir,
                       "--set", "lag_days=0") == 0
        assert run_cli("lagmaps", "--params-dir", src, "--out", process_dir,
                       "--set", "lag_days=0",
                       "--set", "lag_normalization=process") == 0
        t = read_grid_csv(total_dir / "lag_zonal.csv")[0][2]
        p = read_grid_csv(process_dir / "lag_zonal.csv")[0][2]
        assert p == pytest.approx(t * (1.2 + 0.4) / 1.2, rel=1e-12)
        assert p > t

    @pytest.mark.parametrize("row", ["0.5,0.5", "0.5,0.5,wide"])
    def test_malformed_param_grid_fails_with_line_number(self, tmp_path,
                                                         capsys, row):
        src = self.spatial_params_dir(tmp_path)
        (src / "param_theta_lon.csv").write_text(
            f"lat,lon,value\n{row}\n", encoding="utf-8")
        assert run_cli("lagmaps", "--params-dir", src, "--out",
                       tmp_path / "lag", "--set", "lag_days=0") == 1
        assert capsys.readouterr().err.startswith("error: line 2:")

    def test_bad_normalization_rejected(self, tmp_path, capsys):
        src = self.spatial_params_dir(tmp_path)
        assert run_cli("lagmaps", "--params-dir", src,
                       "--out", tmp_path / "lag",
                       "--set", "lag_days=0",
                       "--set", "lag_normalization=raw") == 1
        assert "lag_normalization" in capsys.readouterr().err


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about a third of a second per interpreter, and
    # every scipy package imports scipy._lib._array_api, which pulls in
    # numpy.f2py and more: about half of the rest.  The package loads
    # the compiled cores it needs without them.  This process already
    # imported them all (the test oracles use them), so the check runs
    # in a fresh interpreter.
    src = os.path.dirname(os.path.dirname(mwgp.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    unloaded = ["scipy.stats", "scipy._lib._array_api", "scipy.linalg",
                "scipy.special", "scipy.optimize", "numpy.f2py"]
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys, mwgp.cli; print([m in sys.modules for m in {unloaded!r}])"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == repr([False] * len(unloaded))


def test_synthetic_pipeline_script_runs_every_stage(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(mwgp.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = tmp_path / "demo"
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "synthetic_pipeline.py"),
         "--out", str(out), "--seed", "7"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for stage in ("sim", "mean", "map", "cv", "cal", "lag"):
        assert (out / stage / "manifest.json").exists(), stage


def test_benchmark_tracer_finds_every_hook_but_the_known_stale_ones():
    # perfbench/tracing.py wraps package functions by module and name, and
    # records the ones it cannot find.  A renamed function would otherwise
    # drop out of the benchmark's per-layer figures without a failure here.
    # The wrappers patch the package, so they run in a fresh interpreter.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(mwgp.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.path.join(root, "perfbench"), env.get("PYTHONPATH"))
        if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "import json, tracing; print(json.dumps(tracing.install().missing))"],
        env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == [
        "mwgp.validation:predict_gaussian", "mwgp.validation:predict_student",
        "mwgp.validation:predictive_deviation_sample"]
