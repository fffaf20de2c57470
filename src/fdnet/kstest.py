"""Two-sample Kolmogorov-Smirnov testing and the distribution-shift audit.

The statistic D is the exact supremum of |ECDF_a - ECDF_b| over the pooled
sample points, computed by a sorted two-pointer merge that consumes all ties
at a value before measuring. P-values use the large-sample asymptotic form
min(1, 2*exp(-2 D^2 m n / (m+n))), clipped to 1 so it stays a probability;
the rejection threshold D* = sqrt(-ln(alpha/2)/2) * sqrt((m+n)/(m n)) is
algebraically the same decision rule.

The audit samples window start positions uniformly with replacement from a
seeded stream, compares the first window against every other, and reports
the rejection rate plus the population mean/std of the P-values.

Everything here is pure; pairwise tests may run in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvalidParameterError, InvalidSampleError


def ecdf_sup_distance(a, b) -> float:
    """Exact sup_x |ECDF_a(x) - ECDF_b(x)| via a two-pointer merge."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise InvalidSampleError("both samples must be non-empty")
    # NaN sorts last and equals nothing, so the merge would never pass it.
    if math.isnan(a[-1]) or math.isnan(b[-1]):
        raise InvalidSampleError("samples must not contain NaN")
    m, n = a.size, b.size
    i = j = 0
    d = 0.0
    while i < m or j < n:
        if j >= n or (i < m and a[i] <= b[j]):
            x = a[i]
        else:
            x = b[j]
        while i < m and a[i] == x:
            i += 1
        while j < n and b[j] == x:
            j += 1
        d = max(d, abs(i / m - j / n))
    return d


def ks_p_value(d: float, m: int, n: int) -> float:
    """Asymptotic two-sample P-value, clipped into (0, 1]."""
    if not 0.0 <= d <= 1.0:
        raise InvalidParameterError(f"statistic must lie in [0, 1], got {d}")
    if m < 1 or n < 1:
        raise InvalidParameterError(f"sample sizes must be >= 1, got {m}, {n}")
    return min(1.0, 2.0 * math.exp(-2.0 * d * d * (m * n) / (m + n)))


def _check_alpha(alpha: float):
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError(f"alpha must lie in (0, 1), got {alpha}")


def ks_reject_threshold(alpha: float, m: int, n: int) -> float:
    """Critical value D*: reject the same-distribution hypothesis iff D > D*."""
    _check_alpha(alpha)
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) * math.sqrt((m + n) / (m * n))


@dataclass(frozen=True)
class KSResult:
    statistic: float
    p_value: float
    m: int
    n: int
    alpha: float

    @property
    def reject(self) -> bool:
        return self.p_value < self.alpha


def ks_test(a, b, alpha: float = 0.05) -> KSResult:
    """Two-sample KS test of a against b at significance alpha in (0, 1)."""
    _check_alpha(alpha)
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    d = ecdf_sup_distance(a, b)
    return KSResult(statistic=d, p_value=ks_p_value(d, a.size, b.size),
                    m=a.size, n=b.size, alpha=alpha)


@dataclass(frozen=True)
class ShiftReport:
    """Distribution-shift audit summary: rejection rate and P-value stats."""

    reject_rate: float
    mean_p: float
    std_p: float
    n_windows: int
    window_len: int
    alpha: float
    seed: int

    def to_csv(self) -> str:
        header = "rr,mean,std,n_windows,window_len,alpha,seed"
        row = (f"{self.reject_rate!r},{self.mean_p!r},{self.std_p!r},"
               f"{self.n_windows},{self.window_len},{self.alpha!r},{self.seed}")
        return f"{header}\n{row}\n"


def shift_report(series, n_windows: int = 1000, window_len: int = 96,
                 alpha: float = 0.05, seed: int = 0) -> ShiftReport:
    """Audit a univariate series for local distribution shift.

    Draws n_windows start indices uniformly with replacement, then tests the
    first window against each of the rest; the rejection rate is the share
    of comparisons with P-value below alpha. Std is the population form over
    the n_windows - 1 P-values.
    """
    series = np.asarray(series, dtype=float).ravel()
    if series.size < window_len:
        raise InsufficientDataError(
            f"series of {series.size} points cannot host windows of {window_len}"
        )
    if n_windows < 2:
        raise InvalidParameterError(f"need at least 2 windows, got {n_windows}")
    _check_alpha(alpha)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    starts = rng.integers(0, series.size - window_len + 1, size=n_windows)
    reference = series[starts[0] : starts[0] + window_len]
    p_values = np.empty(n_windows - 1)
    for k, start in enumerate(starts[1:]):
        other = series[start : start + window_len]
        d = ecdf_sup_distance(reference, other)
        p_values[k] = ks_p_value(d, window_len, window_len)
    return ShiftReport(
        reject_rate=float((p_values < alpha).mean()),
        mean_p=float(p_values.mean()),
        std_p=float(p_values.std()),
        n_windows=n_windows,
        window_len=window_len,
        alpha=alpha,
        seed=seed,
    )
