"""Exception hierarchy shared by all fdnet modules.

Every error raised on a documented failure path derives from ForecastError,
so callers (notably the CLI) can catch one base class and exit cleanly.
"""


class ForecastError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(ForecastError):
    """Operand shapes violate an operation's contract."""


class SequenceTooShortError(ShapeError):
    """Temporal length too short for the requested conv/pool geometry."""


class InvalidParameterError(ForecastError):
    """A hyper-parameter or argument is outside its valid range."""


class InvalidArgumentError(ForecastError):
    """An argument is structurally invalid (e.g. non-scalar loss)."""


class NumericError(ForecastError):
    """A numeric evaluation produced non-finite values."""


class DegenerateWeightError(ForecastError):
    """A weight-normalized channel has zero norm."""


class InvalidPlanError(ForecastError):
    """Focal decomposition cannot produce non-empty branches."""


class SchemaError(ForecastError):
    """CSV is missing a required column or header."""


class CsvParseError(ForecastError):
    """A CSV file cannot be read as UTF-8 CSV, or a row or cell does not
    parse; the message says where."""


class InvalidSplitError(ForecastError):
    """A dataset split would be empty or out of range."""


class InsufficientDataError(ForecastError):
    """Not enough rows for the requested windows or analysis."""


class InvalidSampleError(ForecastError):
    """An empirical-CDF sample is empty."""


class UndefinedScaleError(ForecastError):
    """MASE scale denominator is zero (constant seasonal series)."""


class UndefinedOwaError(ForecastError):
    """A reference metric for OWA is zero."""


class TrainingDivergedError(ForecastError):
    """Training loss became non-finite."""


class CheckpointError(ForecastError):
    """Base class for checkpoint I/O failures."""


class IncompatibleCheckpointError(CheckpointError):
    """Magic bytes or format version do not match."""


class CorruptCheckpointError(CheckpointError):
    """Checkpoint file is truncated or internally inconsistent."""


class IncompatibleDataError(ForecastError):
    """Dataset shape does not match the loaded checkpoint."""


class InvalidWindowError(ForecastError):
    """Requested window start is out of range."""
