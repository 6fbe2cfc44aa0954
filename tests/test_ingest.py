"""Tests for profile ingestion, vertical interpolation, filtering, and
the local-regression mean field (estimation, residualization, and file
round trips)."""

import csv
import math
import re
import warnings
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import mwgp.ingest as ingest

from mwgp.errors import (
    InputError,
    InsufficientDataError,
    InvalidParameterError,
    SchemaError,
)
from mwgp.gaussian import YearBlock
from mwgp.ingest import (
    MEAN_COEF_HEADER,
    PROFILE_HEADER,
    MeanField,
    MeanFieldConfig,
    ProfileRecord,
    apply_filters,
    coef_names,
    estimate_mean_field,
    load_mask,
    parse_profiles,
    profiles_to_level,
    read_mean_field,
    read_table,
    subtract_mean,
    write_mean_field,
    write_mean_field_gridded,
    write_profiles,
    write_table,
)
from mwgp.covariance import CovParams, SpaceTimePoint, rg_distances
from mwgp.validation import simulate_field, synthetic_float_blocks
from mwgp.windows import (
    GridSpec,
    ReferenceFamily,
    WindowSpec,
    month_halfwidth_days,
    select_window,
)

from conftest import (
    apply_filters_loop,
    cell_for_scan,
    level_obs_to_profiles,
    nearest_rows_scan,
    parse_profiles_rows,
    profile_table,
    profiles_to_level_loop,
    subtract_mean_loop,
    write_profile_records,
)


def make_profile(sid="f1", lat=10.0, lon=20.0, year=2007, day=45.5,
                 levels=((290.0, 10.0), (310.0, 9.0))):
    return ProfileRecord(sid, lat, lon, year, day, levels)


def level_blocks(*obs):
    """Year blocks of (source_id, lat, lon, year, day, value) observations."""
    return profiles_to_level(profile_table(
        ProfileRecord(*o[:5], ((300.0, o[5]),)) for o in obs), 300.0)


def level_value(rec, level):
    """One profile's value at a pressure level; None when it is dropped."""
    blocks = profiles_to_level(profile_table([rec]), level)
    return float(blocks[0].values[0]) if blocks else None


def kept(records, *args, **kwargs):
    """The records ``apply_filters`` keeps from a table of them."""
    return list(apply_filters(profile_table(records), *args,
                              **kwargs))


def write_lines(path, lines, end="\n", last_end=True):
    path.write_bytes((end.join(lines) + end * last_end).encode("utf-8"))
    return path


class TestProfileRecord:
    def test_longitude_wrapped_on_construction(self):
        assert make_profile(lon=190.0).lon == -170.0

    def test_requires_levels(self):
        with pytest.raises(InvalidParameterError):
            make_profile(levels=())

    def test_requires_strictly_increasing_pressure(self):
        with pytest.raises(InvalidParameterError):
            make_profile(levels=((290.0, 10.0), (290.0, 9.0)))
        with pytest.raises(InvalidParameterError):
            make_profile(levels=((310.0, 9.0), (290.0, 10.0)))

    def test_latitude_bounds(self):
        with pytest.raises(InvalidParameterError):
            make_profile(lat=-95.0)

    def test_level_arrays(self):
        table = profile_table([make_profile()])
        np.testing.assert_array_equal(table.pressure, [290.0, 310.0])
        np.testing.assert_array_equal(table.value, [10.0, 9.0])


class TestTableFiles:
    FLOATS = [0.1, 1.0 / 3.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
              1.7976931348623157e308, np.float64(math.pi), np.float64(-0.0),
              np.float64(-math.inf), np.float64(math.nan)]

    def test_floats_round_trip_bit_for_bit(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["k", "x"], [(k, x) for k, x in enumerate(self.FLOATS)])
        with read_table(path, ["k", "x"]) as (header, rows):
            rows = list(rows)
        assert header == ["k", "x"]
        assert [(k, int(row[0])) for k, row in rows] == [
            (k + 2, k) for k in range(len(self.FLOATS))]
        back = np.array([float(row[1]) for _, row in rows])
        assert back.tobytes() == np.array(self.FLOATS).tobytes()

    def test_none_is_an_empty_cell_and_other_cells_are_str(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["a", "b", "c", "d", "e"],
                    [(None, 7, np.int64(-3), "f 1", 2.5), ("x", None, 0, "", None)])
        assert path.read_bytes() == b"a,b,c,d,e\r\n,7,-3,f 1,2.5\r\nx,,0,,\r\n"

    def test_header_is_one_of_several(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", [" b , a ", "", "1,2", "3,4"])
        with read_table(path, ["a", "b"], ["b", "a"]) as (header, rows):
            assert header == ["b", "a"]
            assert list(rows) == [(3, ["1", "2"]), (4, ["3", "4"])]
        with pytest.raises(SchemaError, match="expected header a or a,b, got b,a"):
            with read_table(path, ["a"], ["a", "b"]):
                pass

    def test_rows_are_read_as_they_are_asked_for(self, tmp_path):
        # The caller's fault in row 2 comes before the field count of row 3.
        path = write_lines(tmp_path / "t.csv", ["a,b", "1,x", "1,2,3"])
        with pytest.raises(SchemaError, match="field b") as err:
            with read_table(path, ["a", "b"]) as (_, rows):
                for k, row in rows:
                    ingest._parse_float(row[1], "b", k)
        assert err.value.line_number == 2


class TestProfileRoundTrip:
    def test_write_then_parse_is_identity(self, tmp_path):
        records = [
            make_profile("a", 10.123456789, -20.987654321, 2007, 45.5),
            make_profile("b", -3.0, 179.9, 2008, 60.25,
                         levels=((5.0, 18.0), (100.0, 12.5), (300.0, 9.75))),
            make_profile("a", 11.0, -20.0, 2007, 46.0,
                         levels=((300.0, 9.0),)),
        ]
        path = tmp_path / "profiles.csv"
        write_profile_records(records, path)
        assert list(parse_profiles(path)) == records

    def test_irrational_coordinates_survive_round_trip(self, tmp_path):
        rec = make_profile(lat=math.pi * 10, lon=-math.e * 20,
                           day=math.sqrt(2020.0),
                           levels=((1.0 / 3.0, 17.123456789012345),))
        path = tmp_path / "profiles.csv"
        write_profile_records([rec], path)
        back = parse_profiles(path)[0]
        assert back.lat == rec.lat
        assert back.lon == rec.lon
        assert back.day == rec.day
        assert back.levels == rec.levels


class TestWriteProfiles:
    """``write_profiles`` writes year blocks byte for byte as the
    single-level record path, ``level_obs_to_profiles``, did."""

    @staticmethod
    def random_blocks(seed):
        rng = np.random.default_rng(seed)
        blocks = []
        for year in (2005, 2007, 2008):
            m = int(rng.integers(0, 6))
            ids = (np.array([f"f{year}-{k}" for k in range(m)])
                   if rng.random() < 0.5 else None)
            blocks.append(YearBlock(
                year, rng.uniform(-90.0, 90.0, m), rng.uniform(-400.0, 400.0, m),
                rng.uniform(0.0, 365.0, m), rng.normal(10.0, 3.0, m), ids))
        return blocks

    @staticmethod
    def assert_record_bytes(tmp_path, blocks, pressure):
        write_profiles(blocks, pressure, tmp_path / "blocks.csv")
        write_profile_records(level_obs_to_profiles(blocks, pressure),
                              tmp_path / "records.csv")
        assert (tmp_path / "blocks.csv").read_bytes() \
            == (tmp_path / "records.csv").read_bytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_random_blocks_write_as_records(self, tmp_path, seed):
        self.assert_record_bytes(tmp_path, self.random_blocks(seed), 287.5)

    def test_simulated_blocks_write_as_records(self, tmp_path):
        rng = np.random.default_rng(3)
        locs = np.column_stack([rng.uniform(-8, 8, 30), rng.uniform(170, 190, 30),
                                rng.uniform(0, 91, 30)])
        for blocks in (simulate_field(CovParams(1.0, 3.0, 5.0, 5.0, 0.3), locs, 3, 5),
                       synthetic_float_blocks(CovParams(1.0, 3.0, 5.0, 5.0, 0.3),
                                              4, 3, 2, 6)):
            self.assert_record_bytes(tmp_path, blocks, 300.0)

    def test_rows_without_ids_are_numbered_by_file_row(self, tmp_path):
        def block(year, m, ids=None):
            return YearBlock(year, np.zeros(m), np.array([190.0, -185.0, 540.0])[:m],
                             np.arange(m, dtype=float), np.ones(m), ids)

        blocks = [block(1, 2), block(2, 0), block(3, 3, ["a", "b", "c"]), block(4, 2)]
        path = tmp_path / "p.csv"
        write_profiles(blocks, 300.0, path)
        self.assert_record_bytes(tmp_path, blocks, 300.0)
        table = parse_profiles(path)
        assert table.source_ids == ["obs0000000", "obs0000001", "a", "b", "c",
                                    "obs0000005", "obs0000006"]
        assert table.lon.tolist() == [-170.0, 175.0, -170.0, 175.0, -180.0,
                                      -170.0, 175.0]

    def test_no_blocks_write_the_header_alone(self, tmp_path):
        write_profiles([], 300.0, tmp_path / "p.csv")
        assert (tmp_path / "p.csv").read_bytes() \
            == (",".join(PROFILE_HEADER) + "\r\n").encode()


class TestProfileParsing:
    def test_zero_byte_file_is_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        assert list(parse_profiles(path)) == []

    def test_header_only_file_is_empty(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", [",".join(PROFILE_HEADER)])
        assert list(parse_profiles(path)) == []

    def test_blank_lines_skipped(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", [
            ",".join(PROFILE_HEADER),
            "",
            "f1,10,20,2007,45.5,290,10",
            "",
            "f1,10,20,2007,45.5,310,9",
        ])
        records = parse_profiles(path)
        assert len(records) == 1
        assert records[0].levels == ((290.0, 10.0), (310.0, 9.0))

    def test_wrong_header_rejected_at_line_one(self, tmp_path):
        path = write_lines(tmp_path / "p.csv",
                           ["source_id,lat,lon,year,day,pressure,temp"])
        with pytest.raises(SchemaError) as err:
            parse_profiles(path)
        assert err.value.line_number == 1

    def test_wrong_field_count_carries_line_number(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", [
            ",".join(PROFILE_HEADER),
            "f1,10,20,2007,45.5,290,10",
            "f1,10,20,2007,45.5,310",
        ])
        with pytest.raises(SchemaError) as err:
            parse_profiles(path)
        assert err.value.line_number == 3

    @pytest.mark.parametrize("bad_row,line", [
        ("f1,north,20,2007,45.5,290,10", 2),
        ("f1,10,20,2007.5,45.5,290,10", 2),
        ("f1,10,20,2007,45.5,290,nan", 2),
        ("f1,10,20,2007,45.5,inf,10", 2),
        (",10,20,2007,45.5,290,10", 2),
    ])
    def test_malformed_fields_rejected(self, tmp_path, bad_row, line):
        path = write_lines(tmp_path / "p.csv",
                           [",".join(PROFILE_HEADER), bad_row])
        with pytest.raises(SchemaError) as err:
            parse_profiles(path)
        assert err.value.line_number == line

    def test_nonincreasing_pressure_rejected_at_offending_line(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", [
            ",".join(PROFILE_HEADER),
            "f1,10,20,2007,45.5,290,10",
            "f1,10,20,2007,45.5,300,9.5",
            "f1,10,20,2007,45.5,300,9.4",
        ])
        with pytest.raises(SchemaError) as err:
            parse_profiles(path)
        assert err.value.line_number == 4

    def test_profile_rows_must_be_contiguous(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", [
            ",".join(PROFILE_HEADER),
            "f1,10,20,2007,45.5,290,10",
            "f2,11,21,2007,50.0,290,10",
            "f1,10,20,2007,45.5,310,9",
        ])
        with pytest.raises(SchemaError) as err:
            parse_profiles(path)
        assert err.value.line_number == 4
        assert "contiguous" in str(err.value)

    def test_out_of_range_latitude_points_at_profile_start(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", [
            ",".join(PROFILE_HEADER),
            "f1,95,20,2007,45.5,290,10",
            "f1,95,20,2007,45.5,310,9",
        ])
        with pytest.raises(SchemaError) as err:
            parse_profiles(path)
        assert err.value.line_number == 2

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("line,bad", [
        (1, b"\xff"), (3, b"\xff"), (4, b"\xe2\x82"), (20002, b"\xc3(")])
    def test_byte_not_utf8_rejected_at_its_line(self, tmp_path, end, line, bad):
        # Line 20002 sits in the third CHUNK_ROWS chunk; "\u00e9" before
        # the bad byte is a two-byte character that decodes.
        rows = [f"f{k // 2}\u00e9,10,20,2007,{k // 2},{290 + k % 2},10"
                for k in range(max(line, 3))]
        raw = [r.encode("utf-8") for r in [",".join(PROFILE_HEADER)] + rows]
        raw[line - 1] += bad
        path = tmp_path / "p.csv"
        path.write_bytes(end.encode().join(raw))
        with pytest.raises(SchemaError) as err:
            parse_profiles(path)
        assert err.value.line_number == line
        assert f"byte 0x{bad[0]:02x} is not UTF-8" in str(err.value)

    def test_same_float_different_day_is_a_new_profile(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", [
            ",".join(PROFILE_HEADER),
            "f1,10,20,2007,45.5,290,10",
            "f1,10,20,2007,46.5,290,11",
        ])
        records = parse_profiles(path)
        assert len(records) == 2
        assert [r.day for r in records] == [45.5, 46.5]


class TestProfileTable:
    RECORDS = [
        make_profile("a", 10.0, 190.0, 2007, 45.5),
        make_profile("b", -3.0, 179.9, 2008, 60.25,
                     levels=((5.0, 18.0), (100.0, 12.5), (300.0, 9.75))),
        make_profile("c", 11.0, -20.0, 2007, 46.0, levels=((300.0, 9.0),)),
    ]

    def test_from_records_is_a_sequence_of_the_records(self):
        table = profile_table(self.RECORDS)
        assert len(table) == 3
        assert list(table) == self.RECORDS
        assert table[-1] == self.RECORDS[-1]
        assert table.lon[0] == -170.0
        np.testing.assert_array_equal(table.offsets, [0, 2, 5, 6])
        with pytest.raises(IndexError):
            table[3]

    def test_empty_table(self):
        table = profile_table([])
        assert len(table) == 0 and list(table) == []
        assert table.year.dtype == np.int64 and table.pressure.shape == (0,)

    def test_subset_keeps_each_profile_levels(self):
        table = profile_table(self.RECORDS)
        sub = table.subset(np.array([False, True, True]))
        assert list(sub) == self.RECORDS[1:]
        np.testing.assert_array_equal(sub.offsets, [0, 3, 4])


def assert_blocks_identical(got, want):
    """Same years, and bitwise-equal columns of the same dtypes."""
    assert [b.year for b in got] == [b.year for b in want]
    assert all(type(b.year) is int for b in got)
    for a, b in zip(got, want):
        for name in ("lat", "lon", "t", "values", "source_ids"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name


LEVEL = 300.0
SIDS = st.sampled_from(["f1", "f2", " f3 ", "float_0042"])
LATS = st.one_of(st.sampled_from([-90.0, 0.0, 90.0, -0.0]),
                 st.floats(-90.0, 90.0))
LONS = st.one_of(st.sampled_from([-180.0, 180.0, 179.99999999999997, 540.0]),
                 st.floats(-360.0, 360.0))
PRESSURES = st.lists(
    st.one_of(st.just(LEVEL), st.sampled_from([5.0, 290.0, 310.0, 1000.0]),
              st.floats(1.0, 2000.0)), min_size=1, max_size=4, unique=True)


@st.composite
def profile_files(draw):
    """(CSV lines, day window, mask) of a valid profile file.

    Blank and whitespace-only rows are scattered through it; pressures
    hit the level exactly, bracket it or miss it.
    """
    lines = [",".join(PROFILE_HEADER)]
    for k in range(draw(st.integers(0, 12))):
        sid, lat, lon = draw(SIDS), draw(LATS), draw(LONS)
        year = draw(st.integers(2005, 2008))
        day = k + draw(st.floats(0.0, 0.9))  # keys never repeat
        for p in sorted(draw(PRESSURES)):
            value = draw(st.floats(-5.0, 35.0))
            lines.append(f"{sid},{lat!r},{lon!r},{year},{day!r},{p!r},{value!r}")
            if draw(st.booleans()) and draw(st.booleans()):
                lines.append(draw(st.sampled_from(["", "   ", ",,,,,,", " , "])))
    lo = draw(st.floats(0.0, 6.0))
    mask = draw(st.sets(st.tuples(st.sampled_from([0.0, 45.0, -90.0]),
                                  st.sampled_from([-180.0, 0.0, 180.0])),
                        max_size=2))
    return lines, (lo, lo + draw(st.floats(0.0, 8.0))), mask


class TestColumnarParserOracle:
    """The columnar parse, filters and level reduction against the row
    parser and the per-record loops of ``tests/conftest.py``."""

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(profile_files(), st.sampled_from([1, 2, 3, 8192]))
    def test_matches_row_parser_bitwise(self, tmp_path, case, chunk):
        lines, window, mask = case
        path = write_lines(tmp_path / "p.csv", lines)
        with mock.patch.object(ingest, "CHUNK_ROWS", chunk):
            table = parse_profiles(path)
        records = parse_profiles_rows(path)
        assert list(table) == records
        for args in ((None, frozenset()), (window, mask)):
            kept_table = apply_filters(table, *args, cell_size=2.0)
            kept_records = apply_filters_loop(records, *args, cell_size=2.0)
            assert list(kept_table) == kept_records
            assert_blocks_identical(profiles_to_level(kept_table, LEVEL),
                                    profiles_to_level_loop(kept_records, LEVEL))

    def test_interpolation_matches_np_interp_bitwise(self):
        rng = np.random.default_rng(41)
        records = []
        for k in range(400):
            p = np.sort(rng.choice(
                np.r_[rng.uniform(250.0, 350.0, 6), LEVEL], rng.integers(1, 6),
                replace=False))
            records.append(ProfileRecord(
                f"f{k}", 0.0, 0.0, 2007, float(k),
                tuple(zip(p.tolist(), rng.normal(10.0, 5.0, p.size).tolist()))))
        for level in (LEVEL, 287.123456789, 333.3):
            want = profiles_to_level_loop(records, level)
            assert_blocks_identical(
                profiles_to_level(profile_table(records), level),
                want)
            assert 50 < want[0].m < 400

    FAULTS = {
        "number": lambda rows, r: rows[r].__setitem__(1, "north"),
        "nonfinite": lambda rows, r: rows[r].__setitem__(6, "nan"),
        "empty_id": lambda rows, r: rows[r].__setitem__(0, " "),
        "field_count": lambda rows, r: rows[r].pop(),
        "pressure": lambda rows, r: rows[r].__setitem__(5, rows[r - 1][5]),
        "latitude": lambda rows, r: [row.__setitem__(1, "95") for row in rows],
        "reused_key": lambda rows, r: [row.__setitem__(slice(0, 5), [
            "f0", "0.5", "0.5", "2007", "0"]) for row in rows],
    }

    @staticmethod
    def faulty_file(path, first, second, gap):
        """Six three-row profiles; ``first`` in profile 2 (row 1),
        ``second`` in profile 2 + gap (row 2), blank lines between."""
        profiles = [[[f"f{k}", f"{k}.5", f"{k}.5", "2007", str(k),
                      str(100.0 * (r + 1)), str(10.0 - r)] for r in range(3)]
                    for k in range(6)]
        TestColumnarParserOracle.FAULTS[first](profiles[2], 1)
        TestColumnarParserOracle.FAULTS[second](profiles[2 + gap], 2)
        lines = [",".join(PROFILE_HEADER)]
        for k, rows in enumerate(profiles):
            lines += [",".join(row) for row in rows] + [""] * (k % 2)
        return write_lines(path, lines)

    @pytest.mark.parametrize("gap", [0, 1, 2])
    @pytest.mark.parametrize("first,second", permutations(sorted(FAULTS), 2))
    def test_first_fault_line_matches_row_parser(self, tmp_path, first, second,
                                                 gap):
        path = self.faulty_file(tmp_path / "p.csv", first, second, gap)
        with pytest.raises(SchemaError) as want:
            parse_profiles_rows(path)
        for chunk in (2, 5, 8192):
            with mock.patch.object(ingest, "CHUNK_ROWS", chunk):
                with pytest.raises(SchemaError) as got:
                    parse_profiles(path)
            assert got.value.line_number == want.value.line_number
            assert str(got.value) == str(want.value)

    def test_latitude_fault_is_met_where_its_profile_ends(self, tmp_path):
        # The row parser checks a profile's latitude when the next key
        # starts, so a later row fault inside the profile comes first.
        path = self.faulty_file(tmp_path / "p.csv", "latitude", "pressure", 0)
        with pytest.raises(SchemaError) as err:
            parse_profiles(path)
        assert err.value.line_number == 1 + 2 * 3 + 1 + 3
        assert "pressure" in str(err.value)
        path = self.faulty_file(tmp_path / "p.csv", "latitude", "number", 1)
        with pytest.raises(SchemaError) as err:
            parse_profiles(path)
        assert err.value.line_number == 1 + 2 * 3 + 1 + 1
        assert "latitude" in str(err.value)

    def test_year_outside_int64_is_rejected(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", [
            ",".join(PROFILE_HEADER), "f1,10,20,2007,45.5,290,10",
            f"f1,10,20,{2 ** 63},45.5,290,10"])
        with pytest.raises(SchemaError, match="year is not an integer") as err:
            parse_profiles(path)
        assert err.value.line_number == 3



def parse_csv_path(path):
    """``parse_profiles`` with every chunk on the csv reader and float/int."""
    with mock.patch.object(ingest, "_plain_chunk", lambda lines, start: None):
        return parse_profiles(path)


def parse_outcome(parse, path):
    """The table ``parse`` returns, or its SchemaError's (line, message)."""
    try:
        return parse(path)
    except SchemaError as exc:
        return exc.line_number, str(exc)


def assert_parses_alike(path, chunks=(1, 2, 3, 8192)):
    """``parse_profiles`` at each chunk size: the row parser's records or
    fault, and the csv path's table bit for bit."""
    want = parse_outcome(parse_profiles_rows, path)
    for chunk in chunks:
        with mock.patch.object(ingest, "CHUNK_ROWS", chunk):
            got = parse_outcome(parse_profiles, path)
            slow = parse_outcome(parse_csv_path, path)
        if isinstance(want, tuple):
            assert got == slow == want
            continue
        assert list(got) == want
        assert got.source_ids == slow.source_ids
        for name in ("lat", "lon", "year", "day", "offsets", "pressure",
                     "value"):
            x, y = getattr(got, name), getattr(slow, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


# Whitespace that float/int strip, and \x1c-\x1f, which only numpy's C
# reader strips.
PADS = st.text(st.sampled_from(" \t\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000"),
               max_size=2)
ODD_FIELDS = ["nan", "-NaN", "inf", "+Infinity", "1e400", "1_0", "\uff12",
              "\u0663", "0x10", "", " ", "1\x00", "2007.0", str(2 ** 63),
              str(-2 ** 63 - 1), "#", "1#2"]
ODD_IDS = ['"f1"', '" f2 "', '"f,3"', '"f""4"', '"f\n5"', '"f\r\n6"', "",
           " ", "#f7", "f\x1c8", "f\u20289", "f\x0c10", "f\x0011"]


@st.composite
def spelled(draw, text):
    """``text`` as is, or respelled where float/int and the C reader may
    disagree: padding, underscores, fullwidth digits, '#', odd values."""
    kind = draw(st.sampled_from(
        ["as is", "as is", "pad", "underscore", "fullwidth", "hash", "odd"]))
    if kind == "pad":
        return draw(PADS) + text + draw(PADS)
    if kind == "underscore":
        return re.sub(r"(\d)(\d)", r"\1_\2", text, count=1)
    if kind == "fullwidth":
        return text.translate({ord("0") + d: 0xFF10 + d for d in range(10)})
    if kind == "hash":
        return draw(st.sampled_from([text + "#", text + "#1", "#" + text]))
    return draw(st.sampled_from(ODD_FIELDS)) if kind == "odd" else text


@st.composite
def spelled_files(draw):
    """CSV lines of profiles whose fields are spelled every which way."""
    lines = [",".join(PROFILE_HEADER)]
    for k in range(draw(st.integers(1, 5))):
        sid = draw(st.one_of(SIDS, st.sampled_from(ODD_IDS)))
        lat, lon = repr(draw(LATS)), repr(draw(LONS))
        year = str(draw(st.integers(2005, 2008)))
        day = repr(k + draw(st.floats(0.0, 0.9)))
        key = [sid] + [draw(spelled(t)) for t in (lat, lon, year, day)]
        for p in sorted(draw(PRESSURES)):
            lines.append(",".join(key + [draw(spelled(repr(p))), draw(
                spelled(repr(draw(st.floats(-5.0, 35.0)))))]))
    return lines


class TestPlainChunkReader:
    """numpy's C reader on plain chunks against the row parser and,
    bitwise, the csv path it falls back to."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(spelled_files(), st.sampled_from(["\n", "\r\n"]))
    def test_field_spellings_match_row_parser(self, tmp_path, lines, end):
        assert_parses_alike(write_lines(tmp_path / "p.csv", lines, end))

    @pytest.mark.parametrize("column", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("text", ODD_FIELDS + [
        " 7\t", "\x0c7\u2028", "7\x1c", "\x1f7", "7\x85", "+7", "007"])
    def test_each_odd_field_matches_row_parser(self, tmp_path, column, text):
        rows = [["f1", "10", "20", "2007", "45", str(p), "9"]
                for p in (100, 200, 300)]
        rows[1][column] = text
        assert_parses_alike(write_lines(
            tmp_path / "p.csv", [",".join(PROFILE_HEADER)] + [
                ",".join(row) for row in rows]))

    ROWS = [f"f{k // 3},{k // 3}.5,{k // 3}.25,2007,{k // 3},{100 + k % 3},"
            f"{10 - k % 3}" for k in range(9)]
    HEADER = ",".join(PROFILE_HEADER)

    @pytest.mark.parametrize("end,last_end", [
        ("\n", True), ("\r\n", True), ("\r", True), ("\n", False),
        ("\r\n", False)])
    @pytest.mark.parametrize("edit", [
        "clean", "quote_late", "quote_early", "blank_early",
        "multiline_id", "fault_late", "nonfinite_late", "pressure_late"])
    def test_chunk_boundaries_match_row_parser(self, tmp_path, end, last_end,
                                               edit):
        rows = list(self.ROWS)
        if edit == "quote_late":
            rows[5] = rows[5].replace("f1", '"f1"', 1)
        elif edit == "quote_early":
            rows[0] = rows[0].replace("f0", '"f0"', 1)
        elif edit == "blank_early":
            rows.insert(1, "")
        elif edit == "multiline_id":  # one row over two lines
            rows[3:6] = [r.replace("f1", '"f\n1"', 1) for r in rows[3:6]]
        elif edit == "fault_late":
            rows[4] = rows[4].replace("1.5", "north", 1)
        elif edit == "nonfinite_late":
            rows[4] = rows[4][:rows[4].rindex(",")] + ",inf"
        elif edit == "pressure_late":
            rows[5] = rows[5].replace(",102,", ",100,", 1)
        assert_parses_alike(write_lines(tmp_path / "p.csv",
                                       [self.HEADER] + rows, end, last_end))

    @pytest.mark.parametrize("edit,fallback_starts", [
        (lambda rows: rows, []),
        (lambda rows: rows.__setitem__(4, rows[4].replace("f1", '"f1"')),
         [5]),
        (lambda rows: rows.insert(0, ""), [2]),
    ])
    def test_only_unplain_chunks_take_the_csv_path(self, tmp_path, edit,
                                                   fallback_starts):
        rows = list(self.ROWS)
        edit(rows)
        path = write_lines(tmp_path / "p.csv", [self.HEADER] + rows)
        spy = mock.Mock(wraps=ingest._chunk)
        with mock.patch.object(ingest, "CHUNK_ROWS", 3), \
                mock.patch.object(ingest, "_chunk", spy):
            table = parse_profiles(path)
        assert len(table) == 3
        # The first call is parse_profiles' empty seed chunk.
        assert [c.args[1] for c in spy.call_args_list] == [2] + fallback_starts

    def test_written_file_never_takes_the_csv_path(self, tmp_path):
        rng = np.random.default_rng(7)
        records = [ProfileRecord(
            f"f{k:06d}", rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0),
            int(rng.integers(0, 3)), rng.uniform(0.0, 365.0),
            tuple(zip((250.0, 300.0, 350.0), rng.normal(10.0, 2.0, 3))))
            for k in range(700)]
        path = tmp_path / "p.csv"
        write_profile_records(records, path)
        spy = mock.Mock(wraps=ingest._chunk)
        with mock.patch.object(ingest, "CHUNK_ROWS", 256), \
                mock.patch.object(ingest, "_chunk", spy):
            table = parse_profiles(path)
        assert spy.call_args_list == [mock.call([], 2)]
        assert list(table) == records

    def test_field_over_csv_limit_raises_as_the_row_parser(self, tmp_path):
        limit = csv.field_size_limit(64)
        try:
            path = write_lines(tmp_path / "p.csv", [self.HEADER, "f" * 65 +
                                                   ",1,2,2007,3,100,9"])
            with pytest.raises(SchemaError) as want:
                parse_profiles_rows(path)
            with pytest.raises(SchemaError) as got:
                parse_profiles(path)
            assert str(got.value) == str(want.value)
            assert got.value.line_number == want.value.line_number == 2
        finally:
            csv.field_size_limit(limit)

    LONG = "f" * 65  # a field over a csv field size limit of 64

    @pytest.mark.parametrize("edits", [
        {7: LONG + ROWS[7][2:]},
        {7: f'"f2\n{LONG}"' + ROWS[7][2:]},
        # A fault before the long field, in its chunk or an earlier one.
        {6: ROWS[6].replace("2.5", "north", 1), 7: LONG + ROWS[7][2:]},
        {2: ROWS[2].replace(",102,", ",101,"), 7: LONG + ROWS[7][2:]},
        # A latitude out of range is met where its profile ends: before
        # the long field, or at it, where the long field comes first.
        {3: ROWS[3].replace("1.5", "91.5", 1), 4: ROWS[4].replace("1.5", "91.5", 1),
         5: ROWS[5].replace("1.5", "91.5", 1), 7: LONG + ROWS[7][2:]},
        {3: ROWS[3].replace("1.5", "91.5", 1), 4: ROWS[4].replace("1.5", "91.5", 1),
         5: ROWS[5].replace("1.5", "91.5", 1), 6: LONG + ROWS[6][2:]},
    ])
    def test_field_over_csv_limit_is_a_fault_of_its_line(self, tmp_path, edits):
        rows = [edits.get(k, row) for k, row in enumerate(self.ROWS)]
        limit = csv.field_size_limit(64)
        try:
            assert_parses_alike(write_lines(tmp_path / "p.csv",
                                            [self.HEADER] + rows))
        finally:
            csv.field_size_limit(limit)

    def test_reader_warning_falls_back(self, tmp_path):
        # numpy < 2 parses "1.0" as an int64 with a DeprecationWarning.
        loadtxt = np.loadtxt

        def warning_loadtxt(*args, **kwargs):
            warnings.warn("parsed leniently", DeprecationWarning)
            return loadtxt(*args, **kwargs)

        path = write_lines(tmp_path / "p.csv", [self.HEADER] + self.ROWS)
        spy = mock.Mock(wraps=ingest._chunk)
        with mock.patch.object(np, "loadtxt", warning_loadtxt), \
                mock.patch.object(ingest, "_chunk", spy):
            table = parse_profiles(path)
        assert [c.args[1] for c in spy.call_args_list] == [2, 2]
        assert list(table) == parse_profiles_rows(path)


class TestVerticalInterpolation:
    def test_linear_midpoint(self):
        rec = make_profile(levels=((290.0, 10.0), (310.0, 9.0)))
        assert level_value(rec, 300.0) == pytest.approx(9.5, abs=1e-15)

    def test_exact_node_returns_recorded_value(self):
        rec = make_profile(levels=((290.0, 10.0), (310.0, 9.0)))
        assert level_value(rec, 290.0) == 10.0
        assert level_value(rec, 310.0) == 9.0

    def test_no_extrapolation(self):
        rec = make_profile(levels=((290.0, 10.0), (310.0, 9.0)))
        assert level_value(rec, 289.999) is None
        assert level_value(rec, 310.001) is None

    def test_positive_level_required(self):
        rec = make_profile()
        with pytest.raises(InvalidParameterError):
            level_value(rec, 0.0)
        with pytest.raises(InvalidParameterError):
            level_value(rec, -300.0)

    def test_piecewise_linear_between_interior_nodes(self):
        rec = make_profile(levels=((100.0, 20.0), (200.0, 10.0),
                                   (400.0, 8.0)))
        assert level_value(rec, 150.0) == pytest.approx(15.0)
        assert level_value(rec, 300.0) == pytest.approx(9.0)

    def test_profiles_not_sampling_level_dropped(self):
        deep = make_profile("deep", levels=((100.0, 15.0), (400.0, 8.0)))
        shallow = make_profile("shallow", levels=((5.0, 18.0), (50.0, 16.0)))
        [block] = profiles_to_level(
            profile_table([deep, shallow]), 300.0)
        assert list(block.source_ids) == ["deep"]
        assert block.values[0] == pytest.approx(15.0 - 7.0 * 200.0 / 300.0)
        assert (block.lat[0], block.lon[0], block.year, block.t[0]) == \
            (10.0, 20.0, 2007, 45.5)


class TestLevelBlocks:
    def test_groups_by_year_ascending(self):
        blocks = level_blocks(
            ("a", 1.0, 2.0, 2001, 40.0, 0.1),
            ("b", 3.0, 4.0, 1999, 50.0, 0.2),
            ("c", 5.0, 6.0, 2001, 60.0, 0.3),
        )
        assert [b.year for b in blocks] == [1999, 2001]
        assert blocks[0].m == 1 and blocks[1].m == 2
        np.testing.assert_array_equal(blocks[1].values, [0.1, 0.3])
        np.testing.assert_array_equal(blocks[1].source_ids, ["a", "c"])
        np.testing.assert_array_equal(blocks[1].t, [40.0, 60.0])

    def test_empty_input(self):
        assert profiles_to_level(profile_table([]), 300.0) == []


def polynomial_obs(m=240, seed=5, span=10.0):
    """Observations whose values are an exactly representable quadratic."""
    rng = np.random.default_rng(seed)
    lat = rng.uniform(-span, span, m)
    lon = rng.uniform(-span, span, m)
    day = rng.uniform(0.0, 365.0, m)
    value = (2.0 + 0.5 * lat - 0.3 * lon + 0.05 * lat ** 2
             + 0.02 * lon ** 2 + 0.01 * lat * lon)
    return [YearBlock(2007, lat, lon, day, value,
                      [f"f{i}" for i in range(m)])]


def near_center(blocks, n=None):
    """The observations within 2 degrees of the origin (the first n)."""
    return [b.subset(np.flatnonzero((np.abs(b.lat) <= 2)
                                    & (np.abs(b.lon) <= 2))[:n])
            for b in blocks]


SMALL_GRID = GridSpec(-2.0, 2.0, -2.0, 2.0, eval_time=45.5)


class TestMeanFieldConfig:
    @pytest.mark.parametrize("kwargs", [
        {"n_neighbors": 0}, {"weight_scale_km": 0.0},
        {"n_harmonics": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(InvalidParameterError):
            MeanFieldConfig(**kwargs)

    def test_coef_names_include_harmonic_pairs(self):
        assert coef_names(0) == ["intercept", "dlat", "dlon", "dlat2",
                                 "dlon2", "dlat_dlon"]
        assert coef_names(2)[-4:] == ["sin1", "cos1", "sin2", "cos2"]


class TestMeanFieldEstimation:
    def test_needs_enough_observations(self):
        obs = polynomial_obs(m=10)
        with pytest.raises(InsufficientDataError):
            estimate_mean_field(obs, SMALL_GRID,
                                MeanFieldConfig(n_neighbors=50))

    def test_reproduces_quadratic_exactly(self):
        obs = polynomial_obs()
        mean = estimate_mean_field(obs, SMALL_GRID,
                                   MeanFieldConfig(n_neighbors=120,
                                                   n_harmonics=0))
        for i, j, clat, clon in SMALL_GRID.cells():
            expected = (2.0 + 0.5 * clat - 0.3 * clon + 0.05 * clat ** 2
                        + 0.02 * clon ** 2 + 0.01 * clat * clon)
            assert mean.evaluate(i, j) == pytest.approx(expected, abs=1e-6)

    def test_evaluate_at_uses_full_local_basis(self):
        obs = polynomial_obs()
        mean = estimate_mean_field(obs, SMALL_GRID,
                                   MeanFieldConfig(n_neighbors=120,
                                                   n_harmonics=0))
        lat, lon = 1.37, -0.52
        expected = (2.0 + 0.5 * lat - 0.3 * lon + 0.05 * lat ** 2
                    + 0.02 * lon ** 2 + 0.01 * lat * lon)
        assert mean.evaluate_at(lat, lon) == pytest.approx(expected, abs=1e-6)

    def test_recovers_annual_harmonic(self):
        rng = np.random.default_rng(11)
        m = 300
        lat = rng.uniform(-3.0, 3.0, m)
        lon = rng.uniform(-3.0, 3.0, m)
        day = rng.uniform(0.0, 365.25, m)
        omega = 2.0 * math.pi / 365.25
        value = 1.5 + 2.0 * np.sin(omega * day) - 0.75 * np.cos(omega * day)
        obs = [YearBlock(2007, lat, lon, day, value)]
        mean = estimate_mean_field(obs, SMALL_GRID,
                                   MeanFieldConfig(n_neighbors=200,
                                                   n_harmonics=2))
        beta = mean.coefs[(2, 2)]
        names = coef_names(2)
        assert beta[names.index("sin1")] == pytest.approx(2.0, abs=1e-6)
        assert beta[names.index("cos1")] == pytest.approx(-0.75, abs=1e-6)
        assert beta[names.index("sin2")] == pytest.approx(0.0, abs=1e-6)
        assert mean.evaluate(2, 2, t=100.0) == pytest.approx(
            1.5 + 2.0 * math.sin(omega * 100.0) - 0.75 * math.cos(omega * 100.0),
            abs=1e-6)
        # Without a time, only the spatial part is reported.
        assert mean.evaluate(2, 2) == pytest.approx(1.5, abs=1e-6)

    def test_constant_field(self):
        obs = [YearBlock(2007, np.random.default_rng(1).uniform(-3, 3, 120),
                         np.random.default_rng(2).uniform(-3, 3, 120),
                         np.random.default_rng(3).uniform(0, 365, 120),
                         np.full(120, 3.5))]
        mean = estimate_mean_field(obs, SMALL_GRID,
                                   MeanFieldConfig(n_neighbors=100,
                                                   n_harmonics=1))
        assert mean.evaluate(0, 0, t=60.0) == pytest.approx(3.5, abs=1e-8)
        assert not mean.ridge_cells

    def test_rank_deficient_design_falls_back_to_ridge(self):
        # Every observation at the same point: the local design collapses.
        obs = [YearBlock(2007, np.zeros(60), np.zeros(60), np.full(60, 45.5),
                         np.full(60, 2.0))]
        mean = estimate_mean_field(obs, SMALL_GRID,
                                   MeanFieldConfig(n_neighbors=50,
                                                   n_harmonics=0))
        assert mean.ridge_cells  # flagged, not silently inverted
        i, j = mean.nearest_cell(0.0, 0.0)
        assert (i, j) in mean.ridge_cells
        assert mean.evaluate_at(0.0, 0.0) == pytest.approx(2.0, abs=1e-6)

    def test_nearest_cell_clips_and_wraps(self):
        grid = GridSpec(0.0, 3.0, 0.0, 3.0)
        mean = MeanField(grid, {}, 0)
        assert mean.nearest_cell(1.4, 2.6) == (1, 3)
        assert mean.nearest_cell(-10.0, 0.0) == (0, 0)
        assert mean.nearest_cell(10.0, 0.0) == (3, 0)
        assert mean.nearest_cell(0.0, 363.1) == (0, 3)


class TestNearestNeighbours:
    """The latitude-band neighbour search against the full scan."""

    @staticmethod
    def tied_blocks():
        # Eight distinct positions, each repeated over four year blocks,
        # so every distance comes in ties that straddle many k.
        rng = np.random.default_rng(53)
        spots = rng.uniform(-2.0, 2.0, (8, 2))
        blocks = []
        for year in range(2004, 2008):
            pick = rng.integers(0, 8, 30)
            blocks.append(YearBlock(
                year, spots[pick, 0], spots[pick, 1], rng.uniform(0, 365, 30),
                rng.normal(size=30)))
        return blocks

    @staticmethod
    def assert_band_equals_scan(lat, lon, centers, k):
        lat, lon = np.asarray(lat, float), np.asarray(lon, float)
        got = list(ingest._nearest_rows(lat, lon, centers, k))
        want = list(nearest_rows_scan(lat, lon, centers, k))
        assert len(got) == len(want) == len(centers)
        for (rows, d), (rows0, d0) in zip(got, want):
            np.testing.assert_array_equal(rows, rows0)
            assert d.tobytes() == d0.tobytes()

    def test_indices_equal_stable_argsort_at_ties(self):
        blocks = self.tied_blocks()
        lat = np.concatenate([b.lat for b in blocks])
        lon = np.concatenate([b.lon for b in blocks])
        n = lat.size
        centers = [(0.0, 0.0), (1.0, -1.0), (lat[7], lon[7])]
        ks = {1, n}  # plus every k that ends inside a tie group
        for clat, clon in centers:
            kth = np.sort(rg_distances(clat, clon, lat, lon, tropic=False))
            ks |= {k for k in range(2, n) if kth[k - 1] == kth[k]}
        assert len(ks) > 50
        for k in sorted(ks):
            self.assert_band_equals_scan(lat, lon, centers, k)

    def test_excluded_tie_at_the_kth_distance_widens_the_band(self):
        # Row 0 sits 2 deg north, row 1 2 deg east: both exactly 222.4 km
        # from (0, 0).  The first center leaves d_k = 0, so the second
        # starts from a band holding row 1 only; row 0's meridional term
        # equals d_k, which does not certify, and the lower row wins.
        self.assert_band_equals_scan([2.0, 0.0], [0.0, 2.0],
                                     [(0.0, 2.0), (0.0, 0.0)], 1)
        assert next(ingest._nearest_rows(
            np.array([2.0, 0.0]), np.array([0.0, 2.0]), [(0.0, 0.0)], 1)
        )[0].tolist() == [0]

    def test_tie_inside_the_band_breaks_to_the_lower_row(self):
        # Equal distances, latitude order opposite to row order.
        rows, _ = next(ingest._nearest_rows(
            np.array([1.0, -1.0]), np.array([0.0, 0.0]), [(0.0, 0.0)], 1))
        assert rows.tolist() == [0]

    def test_band_grows_to_every_row_and_the_poles(self):
        # A cluster at the origin and rows at both poles.  From (60, 0)
        # the north-pole rows are nearest; the band starts empty (the
        # previous d_k is 0) and ends holding every row.
        lat = [0.0] * 5 + [90.0, 90.0, -90.0]
        lon = [0.0] * 5 + [0.0, 45.0, 0.0]
        centers = [(0.0, 0.0), (60.0, 0.0), (80.0, 170.0), (-80.0, 0.0)]
        for k in (1, 3, 5, 7, 8):
            self.assert_band_equals_scan(lat, lon, centers, k)

    def test_n_equal_to_k_takes_every_row(self):
        rng = np.random.default_rng(5)
        lat, lon = rng.uniform(-30, 30, 40), rng.uniform(-180, 180, 40)
        self.assert_band_equals_scan(lat, lon, [(0.0, 0.0), (25.0, 179.0)], 40)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_band_equals_full_scan(self, data):
        # Positions drawn with repeats from a few lattice spots (ties),
        # latitudes up to the poles, centers swept in order as grid
        # cells are, near LAT_LIMIT included.
        lat_st = st.one_of(st.sampled_from([-90.0, -80.0, 80.0, 90.0]),
                           st.integers(-45, 45).map(lambda v: v * 2.0))
        lon_st = st.integers(-36, 35).map(lambda v: v * 5.0)
        spots = data.draw(st.lists(st.tuples(lat_st, lon_st), min_size=1,
                                   max_size=10))
        picks = data.draw(st.lists(st.sampled_from(spots), min_size=1,
                                   max_size=40))
        lat, lon = map(list, zip(*picks))
        k = data.draw(st.integers(1, len(lat)))
        centers = data.draw(st.lists(st.tuples(
            st.sampled_from([-80.0, -79.0, 0.0, 1.0, 79.0, 80.0]) | lat_st,
            lon_st), min_size=1, max_size=6))
        self.assert_band_equals_scan(lat, lon, centers, k)

    @pytest.mark.parametrize("n_neighbors", [1, 37, 61, 120])
    def test_coefficients_equal_stable_argsort_fit(self, n_neighbors):
        blocks = self.tied_blocks()
        config = MeanFieldConfig(n_neighbors=n_neighbors, n_harmonics=1)
        got = estimate_mean_field(blocks, SMALL_GRID, config)
        with mock.patch.object(ingest, "_nearest_rows", nearest_rows_scan):
            want = estimate_mean_field(blocks, SMALL_GRID, config)
        assert sorted(got.coefs) == sorted(want.coefs)
        for ij in want.coefs:
            assert got.coefs[ij].tobytes() == want.coefs[ij].tobytes()
        assert got.ridge_cells == want.ridge_cells

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_coefficients_equal_full_scan_fit(self, data):
        # Multi-year blocks, some empty, sharing positions, so ties
        # across years break by the row in the concatenated blocks.
        spots = data.draw(st.lists(st.tuples(
            st.integers(-9, 9).map(lambda v: v * 10.0),
            st.integers(-4, 4).map(lambda v: 177.5 + v * 2.5)),
            min_size=1, max_size=8))
        blocks = []
        for year, m in enumerate(data.draw(st.lists(
                st.integers(0, 12), min_size=1, max_size=3))):
            pos = data.draw(st.lists(st.sampled_from(spots), min_size=m,
                                     max_size=m))
            blocks.append(YearBlock(
                2000 + year, [p[0] for p in pos], [p[1] for p in pos],
                np.linspace(10.0, 300.0, m), np.cos(np.arange(m) + year)))
        n_obs = sum(b.m for b in blocks)
        assume(n_obs > 0)
        config = MeanFieldConfig(n_neighbors=data.draw(st.integers(1, n_obs)),
                                 n_harmonics=1)
        grid = GridSpec(-80.0, 80.0, 175.0, 185.0, lat_step=20.0,
                        lon_step=5.0)
        got = estimate_mean_field(blocks, grid, config)
        with mock.patch.object(ingest, "_nearest_rows", nearest_rows_scan):
            want = estimate_mean_field(blocks, grid, config)
        assert sorted(got.coefs) == sorted(want.coefs)
        for ij in want.coefs:
            assert got.coefs[ij].tobytes() == want.coefs[ij].tobytes()
        assert got.ridge_cells == want.ridge_cells


def zero_mean_field(grid=SMALL_GRID):
    coefs = {(i, j): np.zeros(6) for i, j, _, _ in grid.cells()}
    return MeanField(grid, coefs, n_harmonics=0)


class TestSubtractMean:
    def test_zero_mean_returns_raw_values_as_blocks(self):
        obs = level_blocks(("a", 0.3, 0.4, 2001, 40.0, 1.5),
                           ("b", -0.2, 0.1, 2002, 50.0, -0.7))
        blocks, n_excluded = subtract_mean(obs, zero_mean_field())
        assert n_excluded == 0
        assert [b.year for b in blocks] == [2001, 2002]
        assert blocks[0].values[0] == 1.5
        assert blocks[1].values[0] == -0.7

    def test_exact_mean_gives_zero_residuals(self):
        obs = polynomial_obs(m=240)
        mean = estimate_mean_field(obs, SMALL_GRID,
                                   MeanFieldConfig(n_neighbors=120,
                                                   n_harmonics=0))
        near = near_center(obs)
        blocks, _ = subtract_mean(near, mean, mode="spatial", eval_time=45.5)
        resid = np.concatenate([b.values for b in blocks])
        assert np.max(np.abs(resid)) < 1e-6

    def test_mode_validation(self):
        obs = level_blocks(("a", 0.0, 0.0, 2001, 40.0, 1.0))
        with pytest.raises(InvalidParameterError):
            subtract_mean(obs, zero_mean_field(), mode="monthly")
        with pytest.raises(InvalidParameterError):
            subtract_mean(obs, zero_mean_field(), mode="spatial")

    def test_fixed_time_and_own_time_modes_differ_with_harmonics(self):
        grid = SMALL_GRID
        coefs = {}
        for i, j, _, _ in grid.cells():
            beta = np.zeros(8)  # spatial terms + one harmonic pair
            beta[6] = 1.0  # sin1
            coefs[(i, j)] = beta
        mean = MeanField(grid, coefs, n_harmonics=1)
        obs = level_blocks(("a", 0.0, 0.0, 2001, 100.0, 5.0))
        spatial, _ = subtract_mean(obs, mean, mode="spatial", eval_time=45.5)
        own_time, _ = subtract_mean(obs, mean, mode="spatio-temporal")
        omega = 2.0 * math.pi / 365.25
        assert spatial[0].values[0] == pytest.approx(
            5.0 - math.sin(omega * 45.5), rel=1e-12)
        assert own_time[0].values[0] == pytest.approx(
            5.0 - math.sin(omega * 100.0), rel=1e-12)

    def test_observations_without_a_cell_mean_are_excluded(self):
        grid = SMALL_GRID
        coefs = {(0, 0): np.zeros(6)}  # only the corner cell has a mean
        mean = MeanField(grid, coefs, n_harmonics=0)
        obs = level_blocks(("a", -2.0, -2.0, 2001, 40.0, 1.0),
                           ("b", 2.0, 2.0, 2001, 40.0, 2.0))
        blocks, n_excluded = subtract_mean(obs, mean)
        assert n_excluded == 1
        assert blocks[0].m == 1
        assert blocks[0].values[0] == 1.0

    def test_residual_plus_mean_restores_value(self):
        obs = polynomial_obs(m=240)
        mean = estimate_mean_field(obs, SMALL_GRID,
                                   MeanFieldConfig(n_neighbors=120,
                                                   n_harmonics=0))
        near = near_center(obs, 20)
        blocks, _ = subtract_mean(near, mean)
        by_key = dict(zip(near[0].source_ids, near[0].values))
        for b in blocks:
            for sid, lat, lon, t, resid in zip(b.source_ids, b.lat, b.lon,
                                               b.t, b.values):
                value = by_key[sid]
                assert resid + mean.evaluate_at(lat, lon, t) == pytest.approx(
                    value, rel=1e-12, abs=1e-12)


class TestSubtractMeanOracle:
    """Array ``subtract_mean`` against the per-observation conftest loop."""

    GRID = GridSpec(-3.0, 3.0, -4.0, 4.0, lat_step=1.0, lon_step=2.0)

    def mean(self, kind):
        rng = np.random.default_rng(31)
        coefs = {}
        for i, j, _, _ in self.GRID.cells():
            # Row i = 0 (lat -3, and everything clipped onto it) and two
            # interior cells have no mean.
            if i == 0 or (i, j) in ((3, 2), (5, 4)):
                continue
            coefs[(i, j)] = (rng.normal(size=10) if kind == "coefficients"
                             else rng.normal(size=1))
        return MeanField(self.GRID, coefs,
                         n_harmonics=2 if kind == "coefficients" else 0)

    def blocks(self):
        rng = np.random.default_rng(32)
        out = []
        for year, lat_range in ((2001, (-4.5, 4.5)), (2002, (-4.5, 4.5)),
                                (2003, (-5.0, -2.6)), (2004, (-4.5, 4.5))):
            m = 90
            out.append(YearBlock(
                year, rng.uniform(*lat_range, m), rng.uniform(-7.0, 7.0, m),
                rng.uniform(0.0, 365.0, m), rng.normal(10.0, 3.0, m),
                [f"y{year}f{k % 9}" for k in range(m)]))
        return out

    @pytest.mark.parametrize("kind", ["coefficients", "gridded"])
    @pytest.mark.parametrize("mode,eval_time", [("spatial", 45.5),
                                                ("spatio-temporal", None)])
    def test_matches_per_observation_loop(self, kind, mode, eval_time):
        mean = self.mean(kind)
        blocks, n_excluded = subtract_mean(self.blocks(), mean, mode, eval_time)
        want, want_excluded = subtract_mean_loop(self.blocks(), mean, mode,
                                                 eval_time)
        assert n_excluded == want_excluded > 90
        assert [b.year for b in blocks] == [b.year for b in want]
        for got, ref in zip(blocks, want):
            for name in ("lat", "lon", "t", "source_ids"):
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(ref, name))
            np.testing.assert_allclose(got.values, ref.values, rtol=0,
                                       atol=1e-13)

    def test_year_with_every_observation_excluded_has_no_block(self):
        blocks, n_excluded = subtract_mean(self.blocks(),
                                           self.mean("coefficients"))
        assert [b.year for b in blocks] == [2001, 2002, 2004]
        assert n_excluded >= 90


class TestWindowedPluginVariance:
    WINDOW = WindowSpec(10.0, month_halfwidth_days(1), min_obs=2)

    def test_two_point_value(self):
        block = YearBlock(0, np.zeros(2), np.zeros(2), np.full(2, 45.5),
                          np.array([-1.0, 1.0]))
        center = SpaceTimePoint(0.0, 0.0, 45.5)
        windowed = select_window([block], center, self.WINDOW)
        params, _ = ReferenceFamily().fit(windowed, 2)
        assert params.phi_hat == pytest.approx(2.0 / 1.15, rel=1e-15)

    def test_window_excludes_distant_observations(self):
        block = YearBlock(0, np.array([0.0, 0.0, 50.0]), np.zeros(3),
                          np.full(3, 45.5), np.array([-1.0, 1.0, 100.0]))
        center = SpaceTimePoint(0.0, 0.0, 45.5)
        windowed = select_window([block], center, self.WINDOW)
        params, _ = ReferenceFamily().fit(windowed, 2)
        assert params.phi_hat == pytest.approx(2.0 / 1.15, rel=1e-15)

    def test_custom_window(self):
        block = YearBlock(0, np.array([0.0, 4.0]), np.zeros(2),
                          np.full(2, 45.5), np.array([-1.0, 1.0]))
        center = SpaceTimePoint(0.0, 0.0, 45.5)
        narrow = WindowSpec(2.0, 20.0, min_obs=2)
        with pytest.raises(InsufficientDataError):
            ReferenceFamily().fit(select_window([block], center, narrow), 2)


class TestMaskAndFilters:
    def test_load_mask_wraps_and_canonicalizes(self, tmp_path):
        path = write_lines(tmp_path / "mask.csv",
                           ["lat,lon", "10.0,190.0", "-5.5,20.5"])
        mask = load_mask(path)
        assert mask == frozenset({(10.0, -170.0), (-5.5, 20.5)})

    def test_load_mask_header_checked(self, tmp_path):
        path = write_lines(tmp_path / "mask.csv", ["latitude,longitude"])
        with pytest.raises(SchemaError):
            load_mask(path)

    def test_load_mask_rejects_unreadable_lines(self, tmp_path):
        path = tmp_path / "mask.csv"
        path.write_bytes(b"lat,lon\n10.0,20.0\n\xff1.0,2.0\n")
        with pytest.raises(SchemaError) as err:
            load_mask(path)
        assert err.value.line_number == 3
        path.write_text(f"lat,lon\n10.0,20.0\n\"{'9' * 200000}\",2.0\n",
                        encoding="utf-8")
        with pytest.raises(SchemaError, match="field limit") as err:
            load_mask(path)
        assert err.value.line_number == 3

    def test_no_filters_is_identity(self):
        records = [make_profile("a"), make_profile("b", lat=11.0)]
        assert kept(records) == records

    def test_time_window_closed_bounds(self):
        records = [make_profile("a", day=10.0), make_profile("b", day=20.0),
                   make_profile("c", day=9.999), make_profile("d", day=20.001)]
        assert [r.source_id for r in kept(records, time_window=(10.0, 20.0))] \
            == ["a", "b"]

    def test_reversed_time_window_rejected(self):
        with pytest.raises(InvalidParameterError):
            kept([], time_window=(20.0, 10.0))

    def test_mask_removes_cell_box_with_closed_bounds(self):
        records = [
            make_profile("inside", lat=10.5, lon=20.5),
            make_profile("outside", lat=10.51, lon=20.0),
            make_profile("center", lat=10.0, lon=20.0),
        ]
        assert [r.source_id for r in kept(records, mask={(10.0, 20.0)})] \
            == ["outside"]

    def test_mask_wraps_longitude(self):
        records = [make_profile("near_seam", lat=0.0, lon=179.8)]
        assert kept(records, mask={(0.0, -180.0)}) == []

    def test_mask_cell_size(self):
        records = [make_profile("a", lat=10.9, lon=20.0)]
        assert kept(records, mask={(10.0, 20.0)}, cell_size=2.0) == []
        assert kept(records, mask={(10.0, 20.0)}, cell_size=1.0) == records


class TestMeanFieldIO:
    def fitted_mean(self):
        rng = np.random.default_rng(23)
        m = 250
        lat = rng.uniform(-3.0, 3.0, m)
        lon = rng.uniform(-3.0, 3.0, m)
        day = rng.uniform(0.0, 365.0, m)
        omega = 2.0 * math.pi / 365.25
        value = 1.0 + 0.2 * lat + 0.4 * np.sin(omega * day) \
            + rng.normal(scale=0.05, size=m)
        obs = [YearBlock(2007, lat, lon, day, value)]
        return estimate_mean_field(obs, SMALL_GRID,
                                   MeanFieldConfig(n_neighbors=150,
                                                   n_harmonics=1))

    def test_coefficient_round_trip_is_exact(self, tmp_path):
        mean = self.fitted_mean()
        path = tmp_path / "mean.csv"
        write_mean_field(mean, path)
        back = read_mean_field(path)
        assert back.n_harmonics == mean.n_harmonics
        assert sorted(back.coefs) == sorted(mean.coefs)
        for ij in mean.coefs:
            np.testing.assert_array_equal(back.coefs[ij], mean.coefs[ij])
        assert back.evaluate(1, 1, t=77.0) == mean.evaluate(1, 1, t=77.0)

    def test_gridded_round_trip_freezes_the_written_time(self, tmp_path):
        mean = self.fitted_mean()
        path = tmp_path / "mean_grid.csv"
        write_mean_field_gridded(mean, path, eval_time=45.5)
        back = read_mean_field(path)
        assert back.n_harmonics == 0
        for ij in mean.coefs:
            assert back.coefs[ij].shape == (1,)
            assert back.evaluate(*ij) == mean.evaluate(*ij, t=45.5)
            # A gridded mean has no time dependence left.
            assert back.evaluate(*ij, t=200.0) == back.evaluate(*ij)
        assert back.evaluate_at(1.37, -0.52) == back.evaluate(
            *back.nearest_cell(1.37, -0.52))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "mean.csv"
        path.write_bytes(b"")
        with pytest.raises(SchemaError):
            read_mean_field(path)

    def test_header_only_file_rejected(self, tmp_path):
        # With no cell centers there is no lattice to infer.
        path = write_lines(tmp_path / "mean.csv", [",".join(MEAN_COEF_HEADER)])
        with pytest.raises(SchemaError, match="no cells"):
            read_mean_field(path)

    def test_unknown_header_rejected(self, tmp_path):
        path = write_lines(tmp_path / "mean.csv", ["a,b,c,d,e"])
        with pytest.raises(SchemaError):
            read_mean_field(path)

    def test_unreadable_lines_rejected(self, tmp_path):
        path = tmp_path / "mean.csv"
        path.write_bytes(b"lat,lon,mean_c\n0.0,0.0,1.0\n0.0,1.0,\xff\n")
        with pytest.raises(SchemaError) as err:
            read_mean_field(path)
        assert err.value.line_number == 3
        path.write_text(f"lat,lon,mean_c\n0.0,0.0,\"{'1' * 200000}\"\n",
                        encoding="utf-8")
        with pytest.raises(SchemaError, match="field limit") as err:
            read_mean_field(path)
        assert err.value.line_number == 2

    def test_off_grid_coordinates_rejected(self, tmp_path):
        path = write_lines(tmp_path / "mean.csv", [
            ",".join(MEAN_COEF_HEADER),
            "0.0,0.0,intercept,1.0",
            "1.0,0.0,intercept,1.0",
            "2.5,0.0,intercept,1.0",
        ])
        with pytest.raises(SchemaError) as err:
            read_mean_field(path)
        assert "cell center" in str(err.value)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_centers_resolve_as_the_per_center_scan(self, tmp_path, data):
        # Centers on a lattice with 0.5 and 1 deg spacings, longitudes
        # written wrapped or not, repeats in any order, and now and then
        # a center off the lattice: the reader's one array pass resolves
        # each as the first nearest center per axis, and the first
        # offending line raises.
        coord = st.one_of(st.integers(-8, 8).map(lambda v: v / 2.0),
                          st.sampled_from([0.1, 0.3, 2.7]))
        lon_shift = st.sampled_from([0.0, 0.0, 360.0, -360.0])
        names = st.sampled_from(["intercept", "dlat", "sin1", "cos2"])
        entries = data.draw(st.lists(st.tuples(
            coord, st.tuples(coord, lon_shift).map(sum), names,
            st.integers(-5, 5).map(float)), min_size=1, max_size=25))
        path = write_lines(tmp_path / "mean.csv", [",".join(MEAN_COEF_HEADER)]
                           + [f"{a!r},{b!r},{n},{v!r}" for a, b, n, v in entries])
        lats = sorted({e[0] for e in entries})
        lons = sorted({e[1] for e in entries})
        grid = GridSpec(lats[0], lats[-1], lons[0], lons[-1],
                        min(np.diff(lats), default=1.0),
                        min(np.diff(lons), default=1.0))
        cells = [cell_for_scan(grid, a, b) for a, b, _, _ in entries]
        if None in cells:
            line = cells.index(None) + 2
            with pytest.raises(SchemaError) as err:
                read_mean_field(path)
            assert err.value.line_number == line
            assert f"({entries[line - 2][0]}, {entries[line - 2][1]})" \
                in str(err.value)
            return
        back = read_mean_field(path)
        want: dict = {}
        for ij, (_, _, name, value) in zip(cells, entries):
            want.setdefault(ij, {})[name] = value
        all_names = coef_names(back.n_harmonics)
        assert sorted(back.coefs) == sorted(want)
        for ij, c in want.items():
            assert back.coefs[ij].tolist() == [c.get(n, 0.0) for n in all_names]

    def test_unknown_coefficient_name_rejected(self, tmp_path):
        path = write_lines(tmp_path / "mean.csv", [
            ",".join(MEAN_COEF_HEADER),
            "0.0,0.0,curvature,1.0",
        ])
        with pytest.raises(SchemaError):
            read_mean_field(path)

    def test_missing_coefficients_default_to_zero(self, tmp_path):
        path = write_lines(tmp_path / "mean.csv", [
            ",".join(MEAN_COEF_HEADER),
            "0.0,0.0,intercept,1.5",
            "0.0,0.0,sin1,0.25",
        ])
        back = read_mean_field(path)
        ij = back.nearest_cell(0.0, 0.0)
        assert back.n_harmonics == 1
        assert back.coefs[ij].shape == (8,)
        assert back.evaluate(*ij) == 1.5
        omega = 2.0 * math.pi / 365.25
        assert back.evaluate(*ij, t=100.0) == pytest.approx(
            1.5 + 0.25 * math.sin(omega * 100.0), rel=1e-12)

    def test_mean_schema_error_is_input_error(self, tmp_path):
        # Callers branching on the broader category still catch schema
        # violations.
        path = write_lines(tmp_path / "mean.csv", ["a,b"])
        with pytest.raises(InputError):
            read_mean_field(path)
