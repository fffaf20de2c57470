"""Forecast evaluation: MSE, MAE, SMAPE, MASE, OWA and the seasonal-naive
reference forecaster.

Two evaluation regimes coexist: MSE/MAE are reported on standardized values
(the long-horizon benchmark convention) while SMAPE/MASE/OWA are computed in
the original scale after inverse standardization (the M4 convention). The
OWA reference is seasonal-naive (repeat the value one period back) rather
than a seasonally-adjusted naive2, so OWA values are internally consistent
but not directly comparable to published M4 leaderboards.

Pure functions over immutable arrays; aggregation order is deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import Standardizer, WindowSampler
from .errors import (
    InsufficientDataError,
    InvalidParameterError,
    ShapeError,
    UndefinedOwaError,
    UndefinedScaleError,
)
from .tensor import Tensor


def _check_equal_length(pred, truth, op: str):
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape or pred.size < 1:
        raise ShapeError(f"{op}: shapes {pred.shape} and {truth.shape} unusable")
    return pred, truth


def mse(pred, truth) -> float:
    pred, truth = _check_equal_length(pred, truth, "mse")
    return float(((pred - truth) ** 2).mean())


def mae(pred, truth) -> float:
    pred, truth = _check_equal_length(pred, truth, "mae")
    return float(np.abs(pred - truth).mean())


def smape(pred, truth) -> float:
    """Symmetric mean absolute percentage error, in [0, 200].

    (200/n) * sum |x - xhat| / (|x| + |xhat|); terms where both values are
    exactly zero contribute 0 (standard competition-tooling convention).
    """
    pred, truth = _check_equal_length(pred, truth, "smape")
    # every term is <= 200 exactly; the mean can creep above by summation
    # rounding, so pin the documented upper bound
    return float(min(200.0, _smape_terms(pred, truth).mean()))


def _smape_terms(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    denom = np.abs(truth) + np.abs(pred)
    safe = np.where(denom == 0.0, 1.0, denom)
    return 200.0 * np.abs(truth - pred) / safe


def check_periodicity(m: int):
    """Reject a seasonal periodicity below 1."""
    if m < 1:
        raise InvalidParameterError(f"periodicity must be >= 1, got {m}")


def seasonal_scale(insample, m: int):
    """MASE denominator: mean |x_j - x_{j-m}| over the in-sample (last) axis."""
    check_periodicity(m)
    insample = np.asarray(insample, dtype=float)
    length = insample.shape[-1] if insample.ndim else 0
    if length <= m:
        raise InsufficientDataError(f"in-sample length {length} must exceed periodicity {m}")
    return np.abs(insample[..., m:] - insample[..., :-m]).mean(axis=-1)


def mase(pred, truth, insample, m: int) -> float:
    """Mean absolute error scaled by the in-sample seasonal difference."""
    pred, truth = _check_equal_length(pred, truth, "mase")
    insample = np.asarray(insample, dtype=float)
    if insample.ndim != 1:
        raise ShapeError(f"mase: in-sample series must be 1-D, got shape {insample.shape}")
    scale = seasonal_scale(insample, m)
    if scale == 0.0:
        raise UndefinedScaleError("constant seasonal in-sample series gives zero scale")
    return float(np.abs(truth - pred).mean() / scale)


def seasonal_naive(insample, m: int, horizon: int) -> np.ndarray:
    """Repeat the last season (last axis): forecast[i] = x[T - m + (i mod m)]."""
    check_periodicity(m)
    if horizon < 1:
        raise InvalidParameterError(f"horizon must be >= 1, got {horizon}")
    insample = np.asarray(insample, dtype=float)
    length = insample.shape[-1] if insample.ndim else 0
    if length < m:
        raise InsufficientDataError(f"in-sample length {length} shorter than periodicity {m}")
    last_season = insample[..., length - m:]
    return last_season[..., np.arange(horizon) % m]


def owa(model_smape: float, model_mase: float, ref_smape: float, ref_mase: float) -> float:
    """Average of metric ratios against the reference forecaster."""
    if ref_smape <= 0.0 or ref_mase <= 0.0:
        raise UndefinedOwaError(
            f"reference metrics must be positive, got smape={ref_smape}, mase={ref_mase}"
        )
    return 0.5 * (model_smape / ref_smape + model_mase / ref_mase)


@dataclass
class MetricsReport:
    """Aggregate and per-horizon forecast errors for one evaluation run."""

    mse: float
    mae: float
    smape: float
    mase: float
    owa: float
    per_horizon: dict[str, list[float]] = field(default_factory=dict)
    periodicity: int = 1
    window_count: int = 0

    def to_json(self) -> str:
        return json.dumps({
            "aggregate": {"mse": self.mse, "mae": self.mae, "smape": self.smape,
                          "mase": self.mase, "owa": self.owa},
            "per_horizon": self.per_horizon,
            "periodicity": self.periodicity,
            "window_count": self.window_count,
        }, indent=2)

    def to_csv(self) -> str:
        lines = ["horizon,mse,mae,smape,mase,owa"]
        horizons = len(self.per_horizon.get("mse", []))
        for h in range(horizons):
            cells = [str(h + 1)] + [
                repr(self.per_horizon[key][h]) for key in ("mse", "mae", "smape", "mase", "owa")
            ]
            lines.append(",".join(cells))
        lines.append(",".join(["all", repr(self.mse), repr(self.mae), repr(self.smape),
                               repr(self.mase), repr(self.owa)]))
        return "\n".join(lines) + "\n"


def evaluate_run(model, windows: WindowSampler, standardizer: Standardizer,
                 m: int = 1, batch_size: int = 64) -> MetricsReport:
    """Evaluate a trained model over every window of a standardized frame.

    MSE/MAE come from standardized predictions and targets; SMAPE/MASE/OWA
    from inverse-standardized ones, with each window's input serving as the
    in-sample history for the seasonal scale and reference forecast.
    Aggregates are unweighted means over windows.

    Memory is O(batch). Each batch is laid out as contiguous (V, W, L)
    arrays, so a window's seasonal scale is a mean over one contiguous row as
    in 1-D `seasonal_scale`. Terms are summed over variates in variate order,
    divided by V, then added to the per-horizon sums in window order; both
    sums are `cumsum`s, which add strictly in index order where `sum` may go
    pairwise. So every number equals a per-window, per-variate loop's bits.
    """
    check_periodicity(m)
    if len(windows) < 1:
        raise InsufficientDataError("no evaluation windows")
    l_out = windows.l_out
    sq_sum = np.zeros(l_out)
    abs_sum = np.zeros(l_out)
    # per-horizon sums of window-mean SMAPE, MASE, reference SMAPE, reference MASE
    m4_sum = np.zeros((4, l_out))
    n_seen = 0

    with T.no_grad():
        for xb, yb in windows.batches(batch_size):
            pred = model.forward(Tensor(xb), "eval")[0].data

            err = pred - yb
            sq_sum += (err ** 2).mean(axis=(0, 2)) * len(xb)
            abs_sum += np.abs(err).mean(axis=(0, 2)) * len(xb)

            pred_o, truth_o, history = (
                np.ascontiguousarray(standardizer.inverse_values(a).transpose(2, 0, 1))
                for a in (pred, yb, xb[:, 0]))
            scale = seasonal_scale(history, m)
            zero = np.argwhere(scale.T == 0.0)
            if len(zero):
                w, v = zero[0]
                raise UndefinedScaleError(
                    f"window {n_seen + w}, variate {v}: constant seasonal history")
            ref = seasonal_naive(history, m, l_out)
            scale = scale[..., np.newaxis]
            terms = np.stack([_smape_terms(pred_o, truth_o), np.abs(truth_o - pred_o) / scale,
                              _smape_terms(ref, truth_o), np.abs(truth_o - ref) / scale])
            rows = terms.cumsum(axis=1)[:, -1] / terms.shape[1]
            m4_sum = np.concatenate([m4_sum[:, np.newaxis], rows], axis=1).cumsum(axis=1)[:, -1]
            n_seen += len(xb)

    per_h_mse = sq_sum / n_seen
    per_h_mae = abs_sum / n_seen
    per_h_smape, per_h_mase, ref_h_smape, ref_h_mase = m4_sum / n_seen

    agg_smape = float(per_h_smape.mean())
    agg_mase = float(per_h_mase.mean())
    ref_smape = float(ref_h_smape.mean())
    ref_mase = float(ref_h_mase.mean())
    if agg_smape == 0.0 and agg_mase == 0.0:
        agg_owa = 0.0
        per_h_owa = np.zeros(l_out)
    else:
        agg_owa = owa(agg_smape, agg_mase, ref_smape, ref_mase)
        with np.errstate(divide="ignore", invalid="ignore"):
            per_h_owa = 0.5 * (np.where(ref_h_smape > 0, per_h_smape / ref_h_smape, 0.0)
                               + np.where(ref_h_mase > 0, per_h_mase / ref_h_mase, 0.0))

    return MetricsReport(
        mse=float(per_h_mse.mean()),
        mae=float(per_h_mae.mean()),
        smape=agg_smape,
        mase=agg_mase,
        owa=agg_owa,
        per_horizon={
            "mse": per_h_mse.tolist(),
            "mae": per_h_mae.tolist(),
            "smape": per_h_smape.tolist(),
            "mase": per_h_mase.tolist(),
            "owa": per_h_owa.tolist(),
        },
        periodicity=m,
        window_count=len(windows),
    )
