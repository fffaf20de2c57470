"""Property tests: malformed config text, split specs, CSV bodies and
checkpoint bytes either work or fail with a ForecastError, never with
another exception."""

import json
import struct
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdnet.cli import RunConfig
from fdnet.data import SplitSpec, Standardizer, load_csv, split
from fdnet.errors import CorruptCheckpointError, ForecastError
from fdnet.training import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, load_checkpoint

FIXTURES = Path(__file__).parent / "fixtures"
CHECKPOINTS = {name: (FIXTURES / name).read_bytes()
               for name in ("tiny_fdnet.ckpt", "tiny_funet.ckpt")}
FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=150)


NUMBERS = st.one_of(st.floats().map(repr), st.integers().map(str))


def csv_rows(cells):
    """Rows of a timestamp-like text cell and two cells drawn from `cells`; a
    70/10/20 split of at least 10 rows leaves no piece empty."""
    return st.lists(st.tuples(st.text(max_size=6), cells, cells).map(",".join),
                    min_size=8, max_size=30).map("\n".join)


def works_or_forecast_error(fn, *args):
    try:
        fn(*args)
    except ForecastError:
        pass


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


class TestConfigText:
    @FUZZ
    @given(key=st.one_of(st.sampled_from([f.name for f in fields(RunConfig)] + ["preset"]),
                         st.text()),
           raw=st.text())
    def test_apply(self, key, raw):
        works_or_forecast_error(RunConfig().apply, key, raw)

    @FUZZ
    @given(text=st.one_of(st.text(), st.binary()))
    def test_load_file(self, scratch, text):
        if isinstance(text, str):
            scratch.write_text(text, encoding="utf-8")
        else:
            scratch.write_bytes(text)
        works_or_forecast_error(RunConfig().load_file, str(scratch))

    @FUZZ
    @given(spec=st.one_of(
        st.text(),
        st.builds("{}:{}".format, st.sampled_from(["ratio", "months", "rows"]),
                  st.lists(st.one_of(st.text(max_size=6), st.floats().map(repr),
                                     st.integers().map(str)), max_size=5).map(",".join)),
    ))
    def test_split_spec(self, spec):
        cfg = RunConfig()
        cfg.split = spec
        works_or_forecast_error(lambda: cfg.split_spec().cut_points(1000))


class TestCsvBody:
    @FUZZ
    @given(body=st.one_of(st.text(), st.binary(),
                          st.builds("date,x,OT\n{}".format, csv_rows(NUMBERS)),
                          st.builds("date,x,OT\n{}".format,
                                    csv_rows(st.one_of(NUMBERS, st.text(max_size=6))))))
    @example(body="date,x,OT\n2020,1," + "9" * 131_073)  # over the csv module's field limit
    def test_load_split_standardize(self, scratch, body):
        if isinstance(body, str):
            scratch.write_text(body, encoding="utf-8")
        else:
            scratch.write_bytes(body)

        def pipeline():
            train, _, _ = split(load_csv(scratch, "OT"), SplitSpec.ratio())
            fitted = Standardizer.fit(train)
            assert np.isfinite(fitted.mean).all() and np.isfinite(fitted.std).all()

        # zero-variance columns warn, and are not failures; overflowing
        # statistics raise NumericError
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            works_or_forecast_error(pipeline)


FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.floats(1e307, 1.7976931348623157e308),
                   st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308))
NUMERIC_CELLS = st.one_of(
    st.builds(lambda fmt, x: fmt.format(x),
              st.sampled_from(["{!r}", "{:+}", "{:e}", "{:+.17E}", "{:.3f}", "{:_.6f}"]),
              FINITE),
    st.integers(-10**30, 10**30).map("{:_}".format),
    st.sampled_from(["-0.0", "-0", "+0", "1_0e1_0", "1e308", "-1.7976931348623157e+308",
                     "5e-324", "-4.9e-324"]),
)
# \x1c-\x1f are cleared by str.strip but refused by float
PAD = st.text(" \t\x0b\x0c\xa0\u2002\u3000\x1c\x1d\x1e\x1f", max_size=3)


@st.composite
def numeric_csv(draw):
    """(body, columns, timestamps, cells) of a CSV with or without a date column."""
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 12))
    dated = draw(st.booleans())
    columns = [f"c{i}" for i in range(n_cols - 1)] + ["OT"]
    cells = [[draw(NUMERIC_CELLS) for _ in range(n_cols)] for _ in range(n_rows)]
    padded = [[draw(PAD) + cell + draw(PAD) for cell in row] for row in cells]
    stamps = [draw(st.from_regex(r"\A20[0-9]{2}-[01][0-9]-[0-3][0-9]( [0-2][0-9]:00)?\Z"))
              for _ in range(n_rows)] if dated else None
    lines = [",".join((["date"] if dated else []) + columns)]
    lines += [",".join(([stamps[r]] if dated else []) + padded[r]) for r in range(n_rows)]
    return "\n".join(lines) + "\n", tuple(columns), stamps, padded


class TestCsvValues:
    @FUZZ
    @given(case=numeric_csv())
    @example(case=("date,OT\nd,1\x1c\n", ("OT",), ["d"], [["1\x1c"]]))
    def test_values_are_per_cell_float_of_the_stripped_cell(self, scratch, case):
        body, columns, stamps, cells = case
        scratch.write_text(body, encoding="utf-8")
        frame = load_csv(scratch, "OT")
        expected = np.array([[float(cell.strip()) for cell in row] for row in cells])
        assert frame.values.dtype == np.float64 and frame.values.flags.c_contiguous
        assert frame.values.tobytes() == expected.tobytes()
        assert frame.columns == columns
        assert frame.timestamps == (tuple(stamps) if stamps else None)


class TestCheckpointBytes:
    @FUZZ
    @given(name=st.sampled_from(sorted(CHECKPOINTS)), data=st.data())
    def test_truncated(self, scratch, name, data):
        blob = CHECKPOINTS[name]
        scratch.write_bytes(blob[: data.draw(st.integers(0, len(blob) - 1))])
        works_or_forecast_error(load_checkpoint, scratch)

    @settings(FUZZ, max_examples=400)
    @given(name=st.sampled_from(sorted(CHECKPOINTS)), data=st.data())
    def test_byte_flipped(self, scratch, name, data):
        blob = bytearray(CHECKPOINTS[name])
        blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
        scratch.write_bytes(bytes(blob))
        works_or_forecast_error(load_checkpoint, scratch)

    @FUZZ
    @given(name=st.sampled_from(sorted(CHECKPOINTS)), extra=st.binary(min_size=1))
    def test_appended(self, scratch, name, extra):
        scratch.write_bytes(CHECKPOINTS[name] + extra)
        works_or_forecast_error(load_checkpoint, scratch)

    def test_deeply_nested_config(self, scratch):
        nested = b"[" * 100_000 + b"]" * 100_000
        scratch.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(nested))
                            + nested)
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(scratch)

    def test_unallocatable_model_config(self, scratch):
        # a config whose model cannot be allocated (10**15 input steps, past a
        # 47-bit address space) is refused as corrupt, not with a MemoryError
        blob = CHECKPOINTS["tiny_fdnet.ckpt"]
        start = len(CHECKPOINT_MAGIC) + 8
        (blob_len,) = struct.unpack("<I", blob[start - 4:start])
        payload = json.loads(blob[start:start + blob_len])
        payload["config"]["l_in"] = 10**15
        config = json.dumps(payload).encode()
        scratch.write_bytes(blob[:start - 4] + struct.pack("<I", len(config)) + config
                            + blob[start + blob_len:])
        with pytest.raises(CorruptCheckpointError, match="cannot be allocated"):
            load_checkpoint(scratch)
