"""Two-sample Kolmogorov-Smirnov testing and the distribution-shift audit.

The statistic D is the exact supremum of |ECDF_a - ECDF_b| over the pooled
sample points: one sort of the pool, then searchsorted counts at the last
point of each tie group give both ECDFs exactly. P-values use the
large-sample form min(1, 2*exp(-2 D^2 m n / (m+n))), clipped to 1 so it
stays a probability; the rejection threshold
D* = sqrt(-ln(alpha/2)/2) * sqrt((m+n)/(m n)) is algebraically the same
decision rule.

The audit samples window start positions uniformly with replacement from a
seeded stream, compares the first window against every other in one batched
pass, and reports the rejection rate plus the population mean/std of the
P-values.

Everything here is pure; pairwise tests may run in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvalidParameterError, InvalidSampleError


def _sup_distances(a, bs) -> np.ndarray:
    """D of sample a against each row of the 2-D bs, in one sorted pass.

    The point at sorted position k of a pooled row, last of its tie group,
    has cnt_a points of a and k + 1 - cnt_a of b at or below it.
    """
    a = np.sort(a)
    m, n = a.size, bs.shape[1]
    if m == 0 or n == 0:
        raise InvalidSampleError("both samples must be non-empty")
    pool = np.sort(np.concatenate([np.broadcast_to(a, (len(bs), m)), bs], axis=1), axis=1)
    # NaN sorts last, so a pooled row holds one iff its last element is NaN.
    if np.isnan(pool[:, -1]).any():
        raise InvalidSampleError("samples must not contain NaN")
    cnt_a = np.searchsorted(a, pool, side="right")
    cnt_b = np.arange(1, m + n + 1) - cnt_a
    last_of_tie = np.ones(pool.shape, dtype=bool)
    last_of_tie[:, :-1] = pool[:, :-1] != pool[:, 1:]
    return np.max(np.abs(cnt_a / m - cnt_b / n), axis=1, where=last_of_tie, initial=0.0)


def ecdf_sup_distance(a, b) -> float:
    """Exact sup_x |ECDF_a(x) - ECDF_b(x)| over the pooled sample points."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    return float(_sup_distances(a, b[np.newaxis])[0])


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
    if window_len < 1 or n_windows < 2 or seed < 0:
        raise InvalidParameterError(f"need window_len >= 1, n_windows >= 2 and seed >= 0, "
                                    f"got {window_len}, {n_windows} and {seed}")
    if series.size < window_len:
        raise InsufficientDataError(
            f"series of {series.size} points cannot host windows of {window_len}"
        )
    _check_alpha(alpha)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    starts = rng.integers(0, series.size - window_len + 1, size=n_windows)
    windows = np.lib.stride_tricks.sliding_window_view(series, window_len)[starts]
    distances = _sup_distances(windows[0], windows[1:])
    # scalar math.exp per D: np.exp may differ from it in the last bit
    p_values = np.array([ks_p_value(d, window_len, window_len) for d in distances.tolist()])
    return ShiftReport(
        reject_rate=float((p_values < alpha).mean()),
        mean_p=float(p_values.mean()),
        std_p=float(p_values.std()),
        n_windows=n_windows,
        window_len=window_len,
        alpha=alpha,
        seed=seed,
    )
