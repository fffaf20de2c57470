"""CSV ingestion, splitting, z-score standardization and window sampling.

Frames are immutable after load. One rule says what a number is,
`float(cell.strip())`: a leading column whose first data cell breaks it is
a timestamp column, kept in `timestamps` and excluded from the value matrix,
and every value cell is parsed by it in one bulk pass, with no per-cell
value loop. Missing, non-numeric or non-finite cells are hard errors with
row/column locations: the supported datasets are complete, and silent
imputation would corrupt downstream checks.
"""

from __future__ import annotations

import csv
import warnings
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import (
    CsvParseError,
    InsufficientDataError,
    InvalidParameterError,
    InvalidSplitError,
    NumericError,
    SchemaError,
)

# Fixed convention for month-based splits; real row boundaries vary by
# dataset, so explicit-row mode exists for exact published preprocessing.
DAYS_PER_MONTH = 30

_FREQUENCY_ROWS_PER_DAY = {
    "1h": 24,
    "h": 24,
    "15min": 96,
    "10min": 144,
    "1d": 1,
    "d": 1,
}


@dataclass(frozen=True)
class TimeSeriesFrame:
    """A parsed multivariate series: T x V float64 values plus column names."""

    columns: tuple[str, ...]
    values: np.ndarray
    target: str
    timestamps: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.values.ndim != 2:
            raise SchemaError("frame values must be a T x V matrix")
        if self.values.shape[0] < 1:
            raise SchemaError("frame must contain at least one row")
        if len(self.columns) != self.values.shape[1]:
            raise SchemaError("column count does not match value width")
        if self.target not in self.columns:
            raise SchemaError(f"target column {self.target!r} not among {self.columns}")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_variates(self) -> int:
        return self.values.shape[1]

    def target_index(self) -> int:
        return self.columns.index(self.target)

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise SchemaError(f"column {name!r} not among {self.columns}")
        return self.values[:, self.columns.index(name)]

    def rows(self, start: int, stop: int) -> "TimeSeriesFrame":
        ts = self.timestamps[start:stop] if self.timestamps is not None else None
        return TimeSeriesFrame(self.columns, self.values[start:stop].copy(),
                               self.target, ts)


def _numbers(cells):
    """Map the one numeric-cell rule, `float(cell.strip())`, over cells at C level."""
    return map(float, map(str.strip, cells))


def _raise_first_fault(path, rows: list[list[str]], width: int, value_cols: list[str]):
    """Raise `CsvParseError` at the first ragged row, non-numeric or non-finite cell."""
    offset = width - len(value_cols)
    for r, row in enumerate(rows, 1):
        if len(row) != width:
            raise CsvParseError(f"{path}: row {r} has {len(row)} cells, expected {width}")
        for name, cell in zip(value_cols, row[offset:]):
            try:
                value = next(_numbers([cell]))
            except ValueError:
                raise CsvParseError(f"{path}: non-numeric cell at row {r}, "
                                    f"column {name!r}: {cell.strip()!r}") from None
            if not np.isfinite(value):
                raise CsvParseError(f"{path}: non-finite cell at row {r}, "
                                    f"column {name!r}: {cell.strip()!r}")


def load_csv(path, target_column: str) -> TimeSeriesFrame:
    """Parse a headered CSV into a frame; row order is preserved.

    A cell is a number when `float(cell.strip())` accepts it. The first
    column is treated as a timestamp column when its first data cell is not
    a number. Handles both LF and CRLF line endings and a UTF-8 byte-order
    mark. Value-column names must be unique.

    Value cells are parsed in one bulk pass with that rule, then checked
    finite all at once, so each value is bitwise `float(cell.strip())`.
    Only when that pass fails does a row-major scan run, to raise
    `CsvParseError` naming the file and the first ragged row or bad cell.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            rows = [row for row in reader if row]
        except StopIteration:
            raise SchemaError(f"{path}: empty file, no header row") from None
        except UnicodeDecodeError as exc:
            raise CsvParseError(f"{path}: not UTF-8 text: {exc}") from None
        except csv.Error as exc:  # e.g. a cell over csv.field_size_limit(), a process-wide limit
            raise CsvParseError(f"{path}, line {reader.line_num}: {exc}") from None

    if not rows:
        raise SchemaError(f"{path}: no data rows")
    header = [h.strip() for h in header]
    try:
        next(_numbers(rows[0]))
        has_timestamp = False
    except ValueError:
        has_timestamp = len(header) > 1
    value_cols = header[1:] if has_timestamp else header
    repeated = [name for name, count in Counter(value_cols).items() if count > 1]
    if repeated:
        raise SchemaError(f"{path}: duplicate column {repeated[0]!r} in header")
    if target_column not in value_cols:
        raise SchemaError(f"{path}: target column {target_column!r} not found in header")

    width, offset = len(header), len(header) - len(value_cols)
    values = None
    if all(len(row) == width for row in rows):
        cells = chain.from_iterable(row[offset:] for row in rows)
        with suppress(ValueError):
            values = np.fromiter(_numbers(cells), np.float64, len(rows) * len(value_cols))
    if values is None or not np.isfinite(values).all():
        _raise_first_fault(path, rows, width, value_cols)

    return TimeSeriesFrame(
        columns=tuple(value_cols),
        values=values.reshape(len(rows), len(value_cols)),
        target=target_column,
        timestamps=tuple(row[0] for row in rows) if has_timestamp else None,
    )


@dataclass(frozen=True)
class SplitSpec:
    """Contiguous train/val/test partition specification.

    Either fractional ratios (floor for train and val boundaries, remainder
    to test) or row boundaries (train_end, val_end, test_end), test_end None
    meaning the last row. Month counts at a fixed 30-day month for a known
    sampling frequency become all three, so rows after the test months go
    unused; `split` checks them like any other.
    """

    fractions: tuple[float, float, float] | None = None
    boundaries: tuple[int, int, int | None] | None = None

    @staticmethod
    def ratio(train: float = 0.7, val: float = 0.1, test: float = 0.2) -> "SplitSpec":
        if not (min(train, val, test) > 0 and abs(train + val + test - 1.0) <= 1e-9):
            raise InvalidParameterError(
                f"split fractions must be positive and sum to 1, got "
                f"({train}, {val}, {test})"
            )
        return SplitSpec(fractions=(train, val, test))

    @staticmethod
    def by_months(train: int, val: int, test: int, frequency: str) -> "SplitSpec":
        if frequency not in _FREQUENCY_ROWS_PER_DAY:
            raise InvalidParameterError(
                f"unknown frequency {frequency!r}; known: {sorted(_FREQUENCY_ROWS_PER_DAY)}"
            )
        if min(train, val, test) < 1:
            raise InvalidParameterError(f"month counts must be >= 1, got ({train}, {val}, {test})")
        rows = _FREQUENCY_ROWS_PER_DAY[frequency] * DAYS_PER_MONTH
        return SplitSpec(boundaries=(train * rows, (train + val) * rows,
                                     (train + val + test) * rows))

    @staticmethod
    def rows(train_end: int, val_end: int) -> "SplitSpec":
        if not 0 < train_end < val_end:
            raise InvalidParameterError("row boundaries must satisfy 0 < train_end < val_end")
        return SplitSpec(boundaries=(train_end, val_end, None))

    def cut_points(self, n_rows: int) -> tuple[int, int, int]:
        """(train_end, val_end, test_end) for a frame of `n_rows` rows."""
        if self.fractions is None:
            train_end, val_end, test_end = self.boundaries
            return train_end, val_end, n_rows if test_end is None else test_end
        train, val, _ = self.fractions
        train_end = int(n_rows * train)
        return train_end, train_end + int(n_rows * val), n_rows


def split(frame: TimeSeriesFrame, spec: SplitSpec) -> tuple[TimeSeriesFrame, TimeSeriesFrame, TimeSeriesFrame]:
    """Cut the frame into contiguous, order-preserving train/val/test pieces."""
    train_end, val_end, test_end = spec.cut_points(frame.n_rows)
    if not 0 < train_end < val_end < test_end <= frame.n_rows:
        raise InvalidSplitError(
            f"split boundaries ({train_end}, {val_end}, {test_end}) leave an empty piece "
            f"or pass the end of {frame.n_rows} rows"
        )
    return (frame.rows(0, train_end), frame.rows(train_end, val_end),
            frame.rows(val_end, test_end))


@dataclass
class Standardizer:
    """Per-variate z-score statistics, fit on the training split only."""

    mean: np.ndarray = field(default_factory=lambda: np.zeros(0))
    std: np.ndarray = field(default_factory=lambda: np.ones(0))

    @staticmethod
    def fit(train: TimeSeriesFrame) -> "Standardizer":
        with np.errstate(over="ignore", invalid="ignore"):  # overflow raises below
            mean = train.values.mean(axis=0)
            std = train.values.std(axis=0)
        overflow = ~(np.isfinite(mean) & np.isfinite(std))
        if overflow.any():
            names = [train.columns[i] for i in np.flatnonzero(overflow)]
            raise NumericError(f"columns {names} have a mean or standard deviation "
                               f"beyond float64's range")
        degenerate = std == 0.0
        if degenerate.any():
            names = [train.columns[i] for i in np.flatnonzero(degenerate)]
            warnings.warn(f"zero-variance columns standardized with std=1: {names}")
            std = np.where(degenerate, 1.0, std)
        return Standardizer(mean=mean, std=std)

    def transform_values(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std

    def inverse_values(self, values: np.ndarray) -> np.ndarray:
        return values * self.std + self.mean

    def transform(self, frame: TimeSeriesFrame) -> TimeSeriesFrame:
        return TimeSeriesFrame(frame.columns, self.transform_values(frame.values),
                               frame.target, frame.timestamps)


class WindowSampler:
    """Sliding (input, target) windows over a frame's value matrix.

    Window i reads input rows [i*stride, i*stride + l_in) and target rows
    immediately following. Indexing returns views; a pure function of
    (frame, l_in, l_out, stride).
    """

    def __init__(self, frame: TimeSeriesFrame, l_in: int, l_out: int, stride: int = 1):
        if l_in < 1 or l_out < 1 or stride < 1:
            raise InvalidParameterError(
                f"window geometry must be positive, got l_in={l_in}, l_out={l_out}, "
                f"stride={stride}"
            )
        if frame.n_rows < l_in + l_out:
            raise InsufficientDataError(
                f"{frame.n_rows} rows cannot fit one window of {l_in}+{l_out}"
            )
        self.values = frame.values
        self.l_in = l_in
        self.l_out = l_out
        self.stride = stride
        self.count = (frame.n_rows - l_in - l_out) // stride + 1

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        if not 0 <= i < self.count:
            raise IndexError(i)
        start = i * self.stride
        x = self.values[start : start + self.l_in]
        y = self.values[start + self.l_in : start + self.l_in + self.l_out]
        return x, y

    def batch(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """Stack windows into (B, 1, l_in, V) inputs and (B, l_out, V) targets."""
        xs, ys = zip(*(self[int(i)] for i in indices))
        return np.stack(xs)[:, np.newaxis, :, :], np.stack(ys)

    def batches(self, batch_size: int):
        """Yield `batch` results over consecutive windows, in window order."""
        for start in range(0, self.count, batch_size):
            yield self.batch(range(start, min(start + batch_size, self.count)))


def make_windows(frame: TimeSeriesFrame, l_in: int, l_out: int, stride: int = 1) -> WindowSampler:
    return WindowSampler(frame, l_in, l_out, stride)
