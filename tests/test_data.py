import numpy as np
import pytest

from fdnet.data import (
    SplitSpec,
    Standardizer,
    TimeSeriesFrame,
    load_csv,
    make_windows,
    split,
)
from fdnet.errors import (
    CsvParseError,
    InsufficientDataError,
    InvalidParameterError,
    InvalidSplitError,
    NumericError,
    SchemaError,
)


def frame_from(values, columns=None, target=None):
    values = np.asarray(values, dtype=float)
    columns = columns or tuple(f"c{i}" for i in range(values.shape[1]))
    return TimeSeriesFrame(tuple(columns), values, target or columns[-1])


class TestLoadCsv:
    def test_small_fixture(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,OT\n1,4\n2,5\n3,6\n")
        frame = load_csv(p, "OT")
        assert frame.columns == ("a", "OT")
        assert np.array_equal(frame.values, [[1, 4], [2, 5], [3, 6]])
        assert frame.timestamps is None

    def test_padded_first_cell_is_a_number_not_a_timestamp(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,OT\n\x1c1,2\n3,4\n")
        frame = load_csv(p, "OT")
        assert frame.columns == ("a", "OT")
        assert frame.timestamps is None
        assert np.array_equal(frame.values, [[1, 2], [3, 4]])

    def test_duplicate_column_names_it(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("date,OT,OT\nd0,1,2\n")
        with pytest.raises(SchemaError) as raised:
            load_csv(p, "OT")
        assert str(raised.value) == f"{p}: duplicate column 'OT' in header"

    def test_missing_target_names_it(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(SchemaError, match="OT"):
            load_csv(p, "OT")

    def test_crlf_equals_lf(self, tmp_path):
        lf = tmp_path / "lf.csv"
        crlf = tmp_path / "crlf.csv"
        lf.write_bytes(b"a,OT\n1,4\n2,5\n")
        crlf.write_bytes(b"a,OT\r\n1,4\r\n2,5\r\n")
        a = load_csv(lf, "OT")
        b = load_csv(crlf, "OT")
        assert np.array_equal(a.values, b.values)
        assert a.columns == b.columns

    def test_utf8_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbfOT,a\n1,4\n2,5\n")
        frame = load_csv(p, "OT")
        assert frame.columns == ("OT", "a")
        assert np.array_equal(frame.values, [[1, 4], [2, 5]])

    def test_date_column_autodetected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("date,HUFL,OT\n2016-07-01 00:00,5.8,30.5\n2016-07-01 01:00,5.2,27.8\n")
        frame = load_csv(p, "OT")
        assert frame.columns == ("HUFL", "OT")
        assert frame.timestamps == ("2016-07-01 00:00", "2016-07-01 01:00")
        assert frame.values.shape == (2, 2)

    def test_parse_error_locates_cell(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,OT\n1,4\n2,oops\n")
        with pytest.raises(CsvParseError, match=r"row 2.*'OT'"):
            load_csv(p, "OT")

    def test_nan_cell_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,OT\n1,4\nnan,5\n")
        with pytest.raises(CsvParseError):
            load_csv(p, "OT")

    @pytest.mark.parametrize("body, error", [
        ("a,OT\n1,4\n2,oops\n3,5\n4,5,6\n", "non-numeric cell at row 2, column 'OT': 'oops'"),
        ("a,OT\n1,4\n2,5,6\n3,5\n4,oops\n", "row 2 has 3 cells, expected 2"),
        ("a,OT\n1,4\nnan,5\n3,oops\n", "non-finite cell at row 2, column 'a': 'nan'"),
        ("a,OT\n1,4\n oops ,5,6\n", "row 2 has 3 cells, expected 2"),
        ("a,OT\n1,1e999\nx,4\n", "non-finite cell at row 1, column 'OT': '1e999'"),
        ("date,a,OT\nd0,1,4\nd1,2\nd2,x,5\n", "row 2 has 2 cells, expected 3"),
    ], ids=["bad_cell_then_ragged_row", "ragged_row_then_bad_cell", "nan_then_non_numeric",
            "ragged_row_holding_a_bad_cell", "row_major_not_column_major", "dated"])
    def test_first_fault_in_row_major_order_names_the_file(self, tmp_path, body, error):
        p = tmp_path / "d.csv"
        p.write_text(body)
        with pytest.raises(CsvParseError) as raised:
            load_csv(p, "OT")
        assert str(raised.value) == f"{p}: {error}"


class TestSplit:
    def test_ratio_70_10_20(self):
        frame = frame_from(np.arange(200).reshape(100, 2))
        train, val, test = split(frame, SplitSpec.ratio(0.7, 0.1, 0.2))
        assert train.n_rows == 70 and val.n_rows == 10 and test.n_rows == 20
        assert train.values[0, 0] == 0 and test.values[-1, -1] == 199

    def test_months_mode_hourly(self):
        # 12/4/4 months at 30-day months and 24 rows/day; the 4 months after
        # month 20 go unused, as in Informer's ETT split
        total = 24 * 30 * 24
        frame = frame_from(np.arange(total, dtype=float).reshape(total, 1))
        train, val, test = split(frame, SplitSpec.by_months(12, 4, 4, "1h"))
        assert (train.n_rows, val.n_rows, test.n_rows) == (8640, 2880, 2880)
        assert test.values[-1, 0] == 20 * 30 * 24 - 1

    def test_months_past_the_file_rejected(self):
        frame = frame_from(np.zeros((24 * 30 * 24, 1)))
        with pytest.raises(InvalidSplitError):
            split(frame, SplitSpec.by_months(12, 4, 999, "1h"))

    @pytest.mark.parametrize("months", [(0, 4, 4), (12, 0, 4), (12, 4, 0), (12, -1, 4)])
    def test_month_count_below_one_rejected(self, months):
        with pytest.raises(InvalidParameterError):
            SplitSpec.by_months(*months, "1h")

    def test_explicit_rows(self):
        frame = frame_from(np.arange(50, dtype=float).reshape(50, 1))
        train, val, test = split(frame, SplitSpec.rows(30, 40))
        assert (train.n_rows, val.n_rows, test.n_rows) == (30, 10, 10)

    def test_concat_restores_frame_bitwise(self):
        values = np.random.default_rng(0).normal(size=(101, 3))
        frame = frame_from(values)
        train, val, test = split(frame, SplitSpec.ratio())
        rebuilt = np.concatenate([train.values, val.values, test.values])
        assert np.array_equal(rebuilt, values)

    def test_empty_split_rejected(self):
        frame = frame_from(np.zeros((3, 1)))
        with pytest.raises(InvalidSplitError):
            split(frame, SplitSpec.rows(2, 3))

    def test_bad_fractions_rejected(self):
        with pytest.raises(InvalidParameterError):
            SplitSpec.ratio(0.5, 0.1, 0.1)
        with pytest.raises(InvalidParameterError):
            SplitSpec.by_months(12, 4, 4, "weekly")

    @pytest.mark.parametrize("fractions", [(0.5, float("nan"), 0.5), (float("nan"),) * 3])
    def test_nan_fraction_rejected(self, fractions):
        with pytest.raises(InvalidParameterError):
            SplitSpec.ratio(*fractions)


class TestStandardizer:
    def test_train_split_becomes_standard(self):
        values = np.random.default_rng(1).normal(5.0, 3.0, size=(500, 4))
        std = Standardizer.fit(frame_from(values))
        z = std.transform_values(values)
        assert np.all(np.abs(z.mean(axis=0)) < 1e-10)
        assert np.all(np.abs(z.std(axis=0) - 1.0) < 1e-10)

    def test_roundtrip(self):
        values = np.random.default_rng(2).normal(size=(50, 3)) * 7 + 2
        std = Standardizer.fit(frame_from(values))
        back = std.inverse_values(std.transform_values(values))
        assert np.all(np.abs(back - values) <= 1e-12 * np.maximum(np.abs(values), 1.0))

    def test_constant_column_no_nan(self):
        values = np.ones((20, 2))
        values[:, 1] = np.arange(20)
        with pytest.warns(UserWarning, match="zero-variance"):
            std = Standardizer.fit(frame_from(values))
        z = std.transform_values(values)
        assert np.all(z[:, 0] == 0.0)
        assert np.isfinite(z).all()

    @pytest.mark.parametrize("column", [[1e300, -1e300, 3.0], [1e308, 1e308, 1e308]],
                             ids=["std_overflows", "mean_overflows"])
    def test_overflowing_statistics_rejected(self, column):
        values = np.column_stack([np.arange(3.0), column])
        with pytest.raises(NumericError, match="'c1'"):
            Standardizer.fit(frame_from(values))

    def test_no_test_leakage(self):
        values = np.random.default_rng(3).normal(size=(100, 2))
        frame = frame_from(values)
        train, val, test = split(frame, SplitSpec.ratio())
        std = Standardizer.fit(train)
        mutated = values.copy()
        mutated[70:] += 1000.0
        train2, _, _ = split(frame_from(mutated), SplitSpec.ratio())
        std2 = Standardizer.fit(train2)
        assert np.array_equal(std.mean, std2.mean)
        assert np.array_equal(std.std, std2.std)


class TestWindows:
    def test_enumerated_example(self):
        frame = frame_from(np.arange(20, dtype=float).reshape(10, 2))
        windows = make_windows(frame, 4, 2, 1)
        assert len(windows) == 5
        x0, y0 = windows[0]
        assert np.array_equal(x0, frame.values[0:4])
        assert np.array_equal(y0, frame.values[4:6])

    def test_single_window_boundary(self):
        frame = frame_from(np.arange(6, dtype=float).reshape(6, 1))
        windows = make_windows(frame, 4, 2, 1)
        assert len(windows) == 1

    def test_stride_two(self):
        frame = frame_from(np.arange(12, dtype=float).reshape(12, 1))
        assert len(make_windows(frame, 4, 2, 2)) == 4

    def test_too_small_frame(self):
        frame = frame_from(np.zeros((5, 1)))
        with pytest.raises(InsufficientDataError):
            make_windows(frame, 4, 2)

    def test_targets_continue_inputs_on_ramp(self):
        ramp = np.arange(30, dtype=float).reshape(30, 1)
        windows = make_windows(frame_from(ramp), 5, 3, 1)
        for i, (x, y) in enumerate(windows):
            assert y[0, 0] == x[-1, 0] + 1

    def test_batch_shapes(self):
        frame = frame_from(np.random.default_rng(4).normal(size=(30, 3)))
        windows = make_windows(frame, 6, 2, 1)
        xb, yb = windows.batch([0, 5, 7])
        assert xb.shape == (3, 1, 6, 3)
        assert yb.shape == (3, 2, 3)

    def test_windows_pure_function(self):
        frame = frame_from(np.random.default_rng(5).normal(size=(25, 2)))
        a = make_windows(frame, 5, 2, 1)
        b = make_windows(frame, 5, 2, 1)
        for (xa, ya), (xb, yb) in zip(a, b):
            assert np.array_equal(xa, xb) and np.array_equal(ya, yb)
