"""CSV ingestion, splitting, z-score standardization and window sampling.

Frames are immutable after load. A leading timestamp column is auto-detected
by non-numeric content in the first data row; it is parsed into `timestamps`
and excluded from the value matrix. Missing or non-numeric cells are hard
errors with row/column locations: the supported datasets are complete, and
silent imputation would corrupt downstream checks.
"""

from __future__ import annotations

import csv
import warnings
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


def _parse_rows(path, rows: list[list[str]], width: int, value_cols: list[str]) -> np.ndarray:
    """Parse value cells one at a time, row-major, raising at the first bad row or cell.

    Each cell is `float(cell.strip())`. That also parses the few cells the bulk
    pass rejects although they are numbers once stripped: `str.strip` removes
    the ASCII separators U+001C-U+001F, which `float` does not.
    """
    offset = width - len(value_cols)
    values = np.empty((len(rows), len(value_cols)), dtype=np.float64)
    for r, row in enumerate(rows):
        if len(row) != width:
            raise CsvParseError(f"{path}: row {r + 1} has {len(row)} cells, expected {width}")
        for c, name in enumerate(value_cols):
            cell = row[c + offset].strip()
            try:
                value = float(cell)
            except ValueError:
                raise CsvParseError(f"{path}: non-numeric cell at row {r + 1}, "
                                    f"column {name!r}: {cell!r}") from None
            if not np.isfinite(value):
                raise CsvParseError(f"{path}: non-finite cell at row {r + 1}, "
                                    f"column {name!r}: {cell!r}")
            values[r, c] = value
    return values


def _parse_bulk(rows: list[list[str]], width: int, n_values: int) -> np.ndarray | None:
    """Parse every value cell in one pass; None when any row or cell is bad."""
    if any(len(row) != width for row in rows):
        return None
    offset = width - n_values
    cells = chain.from_iterable(row[offset:] for row in rows)
    try:
        values = np.fromiter(map(float, cells), np.float64, len(rows) * n_values)
    except ValueError:
        return None
    return values.reshape(len(rows), n_values) if np.isfinite(values).all() else None


def _is_numeric(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def load_csv(path, target_column: str) -> TimeSeriesFrame:
    """Parse a headered CSV into a frame; row order is preserved.

    The first column is treated as a timestamp column when its first data
    cell is non-numeric. Handles both LF and CRLF line endings and a
    UTF-8 byte-order mark.

    Value cells are parsed in one bulk pass with Python's `float`, then
    checked finite all at once. Only when that pass fails does a per-cell
    loop run; it raises `CsvParseError` naming the file and the first
    ragged row or bad cell in row-major order. Either way each value is
    bitwise `float(cell.strip())`.
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
    has_timestamp = len(header) > 1 and not _is_numeric(rows[0][0])
    value_cols = header[1:] if has_timestamp else header
    if target_column not in value_cols:
        raise SchemaError(f"{path}: target column {target_column!r} not found in header")

    values = _parse_bulk(rows, len(header), len(value_cols))
    if values is None:
        values = _parse_rows(path, rows, len(header), value_cols)

    return TimeSeriesFrame(
        columns=tuple(value_cols),
        values=values,
        target=target_column,
        timestamps=tuple(row[0] for row in rows) if has_timestamp else None,
    )


@dataclass(frozen=True)
class SplitSpec:
    """Contiguous train/val/test partition specification.

    Three modes: fractional ratios (floor for train and val boundaries,
    remainder to test), month counts at a fixed 30-day month for a known
    sampling frequency, or explicit row boundaries.
    """

    mode: str
    fractions: tuple[float, float, float] | None = None
    months: tuple[int, int, int] | None = None
    rows_per_month: int | None = None
    boundaries: tuple[int, int] | None = None

    @staticmethod
    def ratio(train: float = 0.7, val: float = 0.1, test: float = 0.2) -> "SplitSpec":
        if not (min(train, val, test) > 0 and abs(train + val + test - 1.0) <= 1e-9):
            raise InvalidParameterError(
                f"split fractions must be positive and sum to 1, got "
                f"({train}, {val}, {test})"
            )
        return SplitSpec(mode="ratio", fractions=(train, val, test))

    @staticmethod
    def by_months(train: int, val: int, test: int, frequency: str) -> "SplitSpec":
        if frequency not in _FREQUENCY_ROWS_PER_DAY:
            raise InvalidParameterError(
                f"unknown frequency {frequency!r}; known: {sorted(_FREQUENCY_ROWS_PER_DAY)}"
            )
        rows = _FREQUENCY_ROWS_PER_DAY[frequency] * DAYS_PER_MONTH
        return SplitSpec(mode="months", months=(train, val, test), rows_per_month=rows)

    @staticmethod
    def rows(train_end: int, val_end: int) -> "SplitSpec":
        if not 0 < train_end < val_end:
            raise InvalidParameterError("row boundaries must satisfy 0 < train_end < val_end")
        return SplitSpec(mode="rows", boundaries=(train_end, val_end))

    def cut_points(self, n_rows: int) -> tuple[int, int]:
        if self.mode == "ratio":
            train, val, _ = self.fractions
            train_end = int(n_rows * train)
            val_end = train_end + int(n_rows * val)
        elif self.mode == "months":
            train_m, val_m, _ = self.months
            train_end = train_m * self.rows_per_month
            val_end = train_end + val_m * self.rows_per_month
        else:
            train_end, val_end = self.boundaries
        return train_end, val_end


def split(frame: TimeSeriesFrame, spec: SplitSpec) -> tuple[TimeSeriesFrame, TimeSeriesFrame, TimeSeriesFrame]:
    """Cut the frame into contiguous, order-preserving train/val/test pieces."""
    train_end, val_end = spec.cut_points(frame.n_rows)
    if not 0 < train_end < val_end < frame.n_rows:
        raise InvalidSplitError(
            f"split boundaries ({train_end}, {val_end}) leave an empty piece "
            f"for {frame.n_rows} rows"
        )
    return (frame.rows(0, train_end), frame.rows(train_end, val_end),
            frame.rows(val_end, frame.n_rows))


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
