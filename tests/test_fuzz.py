"""Property tests: malformed config text, split specs, CSV bodies and
checkpoint bytes either work or fail with a ForecastError, never with
another exception."""

import warnings
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdnet.cli import RunConfig
from fdnet.data import SplitSpec, Standardizer, load_csv, split
from fdnet.errors import ForecastError
from fdnet.training import load_checkpoint

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
    def test_load_split_standardize(self, scratch, body):
        if isinstance(body, str):
            scratch.write_text(body, encoding="utf-8")
        else:
            scratch.write_bytes(body)

        def pipeline():
            train, _, _ = split(load_csv(scratch, "OT"), SplitSpec.ratio())
            Standardizer.fit(train)

        # zero-variance columns and overflowing statistics warn, and are not failures
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            works_or_forecast_error(pipeline)


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
