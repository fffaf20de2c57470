import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdnet import metrics as M
from fdnet.data import Standardizer, TimeSeriesFrame, make_windows
from fdnet.errors import (
    InsufficientDataError,
    InvalidParameterError,
    ShapeError,
    UndefinedOwaError,
    UndefinedScaleError,
)
from fdnet.models import build_model
from fdnet.tensor import Tensor


finite_arrays = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), min_size=1, max_size=20
)


class TestMseMae:
    def test_zero_for_perfect(self):
        x = np.array([1.0, 2.0, 3.0])
        assert M.mse(x, x) == 0.0
        assert M.mae(x, x) == 0.0

    def test_hand_values(self):
        assert M.mse([0.0, 0.0], [1.0, 3.0]) == 5.0
        assert M.mae([0.0, 0.0], [1.0, 3.0]) == 2.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            M.mse([1.0], [1.0, 2.0])

    @given(finite_arrays, finite_arrays)
    @settings(max_examples=60, deadline=None)
    def test_mae_at_most_rmse(self, a, b):
        n = min(len(a), len(b))
        pred, truth = np.array(a[:n]), np.array(b[:n])
        assert M.mae(pred, truth) <= np.sqrt(M.mse(pred, truth)) + 1e-9


class TestSmape:
    def test_zero_for_perfect_nonzero(self):
        assert M.smape([2.0, -3.0], [2.0, -3.0]) == 0.0

    def test_hand_value(self):
        # 200 * |3-1| / (|3|+|1|) = 100
        assert M.smape([3.0], [1.0]) == 100.0

    def test_opposite_signs_max_out(self):
        x = np.array([1.0, -2.0, 5.0])
        assert M.smape(-x, x) == 200.0

    def test_both_zero_term_contributes_zero(self):
        assert M.smape([0.0, 1.0], [0.0, 1.0]) == 0.0

    @given(finite_arrays)
    @settings(max_examples=60, deadline=None)
    def test_symmetry_exact(self, a):
        rng = np.random.default_rng(len(a))
        b = rng.normal(size=len(a)) * 10
        assert M.smape(a, b) == M.smape(b, a)

    @given(finite_arrays)
    @settings(max_examples=60, deadline=None)
    def test_range(self, a):
        rng = np.random.default_rng(len(a) + 1)
        b = rng.normal(size=len(a)) * 100
        val = M.smape(a, b)
        assert 0.0 <= val <= 200.0


class TestMase:
    def test_zero_for_exact(self):
        assert M.mase([5.0, 6.0], [5.0, 6.0], [1.0, 2.0, 3.0, 4.0], 1) == 0.0

    def test_fixture_equals_one(self):
        assert M.mase([4.0, 5.0], [5.0, 6.0], [1.0, 2.0, 3.0, 4.0], 1) == 1.0

    def test_seasonal_naive_continuation_scores_one(self):
        # ramp: the one-step-ahead naive error equals every in-sample diff
        insample = np.array([1.0, 2.0, 3.0, 4.0])
        truth = np.array([5.0])
        pred = M.seasonal_naive(insample, 1, 1)  # [4.0]
        assert M.mase(pred, truth, insample, 1) == pytest.approx(1.0, abs=1e-12)

    def test_constant_insample_raises(self):
        with pytest.raises(UndefinedScaleError):
            M.mase([1.0], [2.0], [3.0, 3.0, 3.0], 1)

    def test_insample_too_short(self):
        with pytest.raises(InsufficientDataError):
            M.mase([1.0], [2.0], [3.0, 4.0], 2)

    @pytest.mark.parametrize("insample", [[[1.0, 2.0, 4.0], [3.0, 5.0, 8.0]], 3.0])
    def test_insample_not_1d_raises_shape_error(self, insample):
        with pytest.raises(ShapeError, match="1-D"):
            M.mase([1.0], [2.0], insample, 1)

    @given(st.floats(0.1, 1e4), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, c, m):
        rng = np.random.default_rng(int(c * 7) % 1000)
        insample = rng.normal(size=20)
        truth = rng.normal(size=5)
        pred = rng.normal(size=5)
        base = M.mase(pred, truth, insample, m)
        scaled = M.mase(c * pred, c * truth, c * insample, m)
        assert abs(scaled - base) <= 1e-12 * max(1.0, abs(base))


class TestSeasonalNaive:
    def test_m1_repeats_last(self):
        assert np.array_equal(M.seasonal_naive([1.0, 2.0, 7.0], 1, 4), [7.0] * 4)

    def test_wraparound(self):
        assert np.array_equal(M.seasonal_naive([1.0, 2.0, 3.0, 4.0], 2, 3), [3.0, 4.0, 3.0])

    def test_exact_on_periodic_series(self):
        series = np.tile([2.0, 5.0, -1.0], 6)
        forecast = M.seasonal_naive(series[:-3], 3, 3)
        assert np.array_equal(forecast, series[-3:])

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            M.seasonal_naive([1.0], 2, 2)


class TestPeriodicity:
    @pytest.mark.parametrize("m", [0, -2])
    def test_below_one_rejected(self, m):
        series = np.arange(10.0)
        with pytest.raises(InvalidParameterError):
            M.seasonal_scale(series, m)
        with pytest.raises(InvalidParameterError):
            M.seasonal_naive(series, m, 3)
        with pytest.raises(InvalidParameterError):
            M.mase([1.0], [2.0], series, m)
        frame = TimeSeriesFrame(("y",), series[:, np.newaxis], "y")
        windows = make_windows(frame, 4, 1, 1)
        std = Standardizer(mean=np.zeros(1), std=np.ones(1))
        with pytest.raises(InvalidParameterError):
            M.evaluate_run(_CopyLastModel(1), windows, std, m=m)


class TestOwa:
    def test_equal_to_reference_is_one(self):
        assert M.owa(12.0, 0.8, 12.0, 0.8) == 1.0

    def test_hand_value(self):
        assert M.owa(10.0, 0.5, 20.0, 1.0) == 0.5

    def test_zero_reference_rejected(self):
        with pytest.raises(UndefinedOwaError):
            M.owa(1.0, 1.0, 0.0, 1.0)

    @given(st.floats(0.1, 100), st.floats(0.1, 100), st.floats(0.1, 100))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_model_metrics(self, s, m, bump):
        base = M.owa(s, m, 30.0, 2.0)
        assert M.owa(s + bump, m, 30.0, 2.0) > base
        assert M.owa(s, m + bump, 30.0, 2.0) > base


class _CopyLastModel:
    """Stand-in forecaster: repeats the last input row L_out times."""

    def __init__(self, l_out):
        self.l_out = l_out

    def forward(self, x, mode):
        last = x.data[:, 0, -1, :]
        pred = np.repeat(last[:, np.newaxis, :], self.l_out, axis=1)
        return Tensor(pred), []


def _reference_m4_means(model, windows, std, m, batch_size):
    """Per-horizon SMAPE, MASE and reference SMAPE/MASE from a per-window,
    per-variate loop: the sums in window order, each window's in variate order."""
    sums = np.zeros((4, windows.l_out))
    for xb, yb in windows.batches(batch_size):
        pred = std.inverse_values(model.forward(Tensor(xb), "eval")[0].data)
        truth = std.inverse_values(yb)
        history = std.inverse_values(xb[:, 0])
        for w in range(len(xb)):
            row = np.zeros((4, windows.l_out))
            for v in range(xb.shape[-1]):
                scale = M.seasonal_scale(history[w, :, v], m)
                ref = M.seasonal_naive(history[w, :, v], m, windows.l_out)
                p, t = pred[w, :, v], truth[w, :, v]
                row += [M._smape_terms(p, t), np.abs(t - p) / scale,
                        M._smape_terms(ref, t), np.abs(t - ref) / scale]
            sums += row / xb.shape[-1]
    return sums / len(windows)


class TestEvaluateRun:
    def frame(self, n=40, v=2, seed=0):
        rng = np.random.default_rng(seed)
        vals = rng.normal(3.0, 1.0, size=(n, v)).cumsum(axis=0) * 0.1 + 5.0
        cols = tuple(f"c{i}" for i in range(v))
        return TimeSeriesFrame(cols, vals, cols[-1])

    def test_perfect_model_all_zero(self):
        frame = self.frame()
        std = Standardizer.fit(frame)

        class Oracle:
            def forward(self, x, mode):
                # true targets are not visible here; emulate perfection by replaying
                raise NotImplementedError

        # evaluate a model that predicts the exact standardized targets by
        # wiring the windows twice: use a model wrapper keyed by window index
        windows = make_windows(std.transform(frame), 8, 2, 1)

        class Perfect:
            def __init__(self):
                self.cursor = 0

            def forward(self, x, mode):
                idx = range(self.cursor, self.cursor + x.shape[0])
                ys = np.stack([windows[i][1] for i in idx])
                self.cursor += x.shape[0]
                return Tensor(ys), []

        report = M.evaluate_run(Perfect(), windows, std, m=1)
        assert report.mse == 0.0 and report.mae == 0.0
        assert report.smape == 0.0 and report.mase == 0.0 and report.owa == 0.0

    def test_window_count_reported(self):
        frame = self.frame()
        std = Standardizer.fit(frame)
        windows = make_windows(std.transform(frame), 8, 2, 1)
        report = M.evaluate_run(_CopyLastModel(2), windows, std, m=1)
        assert report.window_count == len(windows)
        assert len(report.per_horizon["mse"]) == 2

    def test_two_window_fixture_aggregates_mean(self):
        # stride chosen so exactly two windows exist; verify aggregate = mean
        vals = np.array([[1.0], [2.0], [3.0], [4.0], [5.0], [6.0], [7.0], [8.0]])
        frame = TimeSeriesFrame(("y",), vals, "y")
        std = Standardizer(mean=np.zeros(1), std=np.ones(1))  # identity transform
        windows = make_windows(frame, 3, 1, 4)
        assert len(windows) == 2
        model = _CopyLastModel(1)
        report = M.evaluate_run(model, windows, std, m=1)
        # window 0: input [1,2,3] target 4, pred 3; window 1: input [5,6,7] target 8, pred 7
        per_window_mse = [(4 - 3) ** 2, (8 - 7) ** 2]
        assert report.mse == pytest.approx(np.mean(per_window_mse), abs=1e-12)
        per_window_smape = [M.smape([3.0], [4.0]), M.smape([7.0], [8.0])]
        assert report.smape == pytest.approx(np.mean(per_window_smape), abs=1e-12)
        per_window_mase = [
            M.mase([3.0], [4.0], [1.0, 2.0, 3.0], 1),
            M.mase([7.0], [8.0], [5.0, 6.0, 7.0], 1),
        ]
        assert report.mase == pytest.approx(np.mean(per_window_mase), abs=1e-12)

    def test_constant_history_names_first_window_then_variate(self):
        # window 5 (second batch of 4) has constant histories in variates 1
        # and 2, window 7 in variate 0: the first in window order is reported
        vals = np.random.default_rng(8).normal(size=(30, 3)).cumsum(axis=0)
        vals[5:13, 1] = 2.5
        vals[5:13, 2] = -1.0
        vals[7:15, 0] = 4.0
        frame = TimeSeriesFrame(("a", "b", "c"), vals, "c")
        std = Standardizer(mean=np.zeros(3), std=np.ones(3))
        windows = make_windows(frame, 8, 2, 1)
        with pytest.raises(UndefinedScaleError, match="window 5, variate 1:"):
            M.evaluate_run(_CopyLastModel(2), windows, std, m=1, batch_size=4)

    @pytest.mark.parametrize("n,v,l_in,l_out,m,batch_size",
                             [(120, 8, 16, 1, 2, 64), (12, 9, 10, 1, 1, 1),
                              (122, 7, 96, 24, 24, 2), (120, 3, 24, 5, 3, 4),
                              (120, 1, 9, 2, 1, 7)])
    def test_bitwise_equal_to_per_window_loop(self, n, v, l_in, l_out, m, batch_size):
        # l_out = 1 with >= 8 windows per batch, or >= 8 variates in one-window
        # batches, is where a pairwise sum would reorder the additions; with
        # few windows a last-bit change in one window's row or scale still shows
        frame = self.frame(n, v, seed=v)
        std = Standardizer.fit(frame)
        windows = make_windows(std.transform(frame), l_in, l_out, 1)
        model = _CopyLastModel(l_out)
        report = M.evaluate_run(model, windows, std, m=m, batch_size=batch_size)
        smape, mase, ref_smape, ref_mase = _reference_m4_means(
            model, windows, std, m, batch_size)
        assert report.per_horizon["smape"] == smape.tolist()
        assert report.per_horizon["mase"] == mase.tolist()
        assert report.per_horizon["owa"] == (0.5 * (smape / ref_smape + mase / ref_mase)).tolist()

    def test_real_model_runs_and_serializes(self):
        frame = self.frame(60, 2)
        std = Standardizer.fit(frame)
        windows = make_windows(std.transform(frame), 16, 4, 1)
        model = build_model("fdnet", 16, 4, 2, 0.5, 2, 4, seed=3)
        report = M.evaluate_run(model, windows, std, m=2)
        assert report.mse > 0
        assert 0 <= report.smape <= 200
        parsed = __import__("json").loads(report.to_json())
        assert set(parsed["aggregate"]) == {"mse", "mae", "smape", "mase", "owa"}
        csv_text = report.to_csv()
        assert csv_text.splitlines()[0] == "horizon,mse,mae,smape,mase,owa"
        assert csv_text.strip().splitlines()[-1].startswith("all,")
