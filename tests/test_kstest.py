import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdnet
from fdnet.errors import InsufficientDataError, InvalidParameterError, InvalidSampleError
from fdnet.kstest import (
    KSResult,
    ecdf_sup_distance,
    ks_p_value,
    ks_reject_threshold,
    ks_test,
    shift_report,
)


def brute_force_d(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    pool = np.concatenate([a, b])
    return max(abs((a <= x).mean() - (b <= x).mean()) for x in pool)


class TestEcdfSupDistance:
    def test_identical_samples(self):
        x = np.random.default_rng(0).normal(size=50)
        assert ecdf_sup_distance(x, x.copy()) == 0.0

    def test_disjoint_supports(self):
        assert ecdf_sup_distance(np.zeros(96), np.ones(96)) == 1.0

    def test_hand_example(self):
        assert ecdf_sup_distance([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(1 / 3)

    def test_empty_sample(self):
        with pytest.raises(InvalidSampleError):
            ecdf_sup_distance([], [1.0])

    def test_nan_sample_rejected(self):
        # A NaN-blind distance could hang or return garbage, so the calls run in
        # a child process that the timeout kills. shift_report(later, 5, 10)
        # draws these starts; its NaN lies only in the last audit window.
        starts = np.random.default_rng(np.random.SeedSequence([0])).integers(0, 391, size=5)
        spot = next(i for i in range(starts[-1], starts[-1] + 10)
                    if not any(s <= i < s + 10 for s in starts[:-1]))
        later = f"np.where(np.arange(400) == {spot}, nan, np.arange(400.0))"
        code = "\n".join([
            "import numpy as np",
            "from fdnet.errors import InvalidSampleError",
            "from fdnet.kstest import ecdf_sup_distance, ks_test, shift_report",
            "nan = float('nan')",
            "calls = [lambda: ecdf_sup_distance([1.0, nan], [2.0]),",
            "         lambda: ecdf_sup_distance([2.0], [nan, 1.0]),",
            "         lambda: ks_test([nan], [nan]),",
            "         lambda: shift_report(np.full(200, nan), 10, 96),",
            f"         lambda: shift_report({later}, 5, 10)]",
            "for call in calls:",
            "    try:",
            "        call()",
            "    except InvalidSampleError:",
            "        continue",
            "    raise SystemExit('no InvalidSampleError')",
            "print('ok')",
        ])
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(fdnet.__file__))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "ok\n"

    def test_infinite_values_allowed(self):
        inf = float("inf")
        assert ecdf_sup_distance([-inf, 0.0, inf], [inf, inf, inf]) == pytest.approx(2 / 3)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=30), rng.normal(size=40)
        assert ecdf_sup_distance(a, b) == ecdf_sup_distance(b, a)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=25), rng.normal(size=35)
        base = ecdf_sup_distance(a, b)
        assert ecdf_sup_distance(np.exp(a), np.exp(b)) == base

    def test_brute_force_parity_1000_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            m = int(rng.integers(1, 25))
            n = int(rng.integers(1, 25))
            a = np.round(rng.normal(size=m), 1)  # coarse rounding forces ties
            b = np.round(rng.normal(size=n), 1)
            assert ecdf_sup_distance(a, b) == brute_force_d(a, b)

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=15),
           st.lists(st.integers(-5, 5), min_size=1, max_size=15))
    @settings(max_examples=200, deadline=None)
    def test_brute_force_parity_tie_heavy(self, a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        assert ecdf_sup_distance(a, b) == brute_force_d(a, b)


class TestPValue:
    def test_d_zero_clips_to_one(self):
        assert ks_p_value(0.0, 10, 10) == 1.0

    def test_d_one_large_samples(self):
        p = ks_p_value(1.0, 96, 96)
        assert p == pytest.approx(2.0 * math.exp(-96.0), rel=1e-12)
        assert p < 1e-40

    def test_monotone_decreasing_below_clip(self):
        grid = np.linspace(0.15, 1.0, 50)
        values = [ks_p_value(d, 96, 96) for d in grid]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_invalid_args(self):
        with pytest.raises(InvalidParameterError):
            ks_p_value(1.5, 10, 10)
        with pytest.raises(InvalidParameterError):
            ks_p_value(0.5, 0, 10)


class TestRejectThreshold:
    def test_hand_value_alpha05_96(self):
        # sqrt(-0.5*ln(0.025)) * sqrt(192/9216)
        expected = math.sqrt(-0.5 * math.log(0.025)) * math.sqrt(192 / 9216)
        got = ks_reject_threshold(0.05, 96, 96)
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(0.19602506892492136, abs=1e-12)

    def test_larger_samples_shrink_threshold(self):
        a = ks_reject_threshold(0.05, 50, 50)
        b = ks_reject_threshold(0.05, 500, 500)
        assert b < a

    def test_threshold_and_pvalue_decisions_agree_on_grid(self):
        for alpha in (0.01, 0.05, 0.1, 0.2):
            for m, n in ((20, 20), (96, 96), (30, 70), (7, 150)):
                dstar = ks_reject_threshold(alpha, m, n)
                for d in np.linspace(0.0, 1.0, 201):
                    via_threshold = d > dstar
                    via_p = ks_p_value(d, m, n) < alpha
                    assert via_threshold == via_p, (alpha, m, n, d)

    def test_invalid_alpha(self):
        with pytest.raises(InvalidParameterError):
            ks_reject_threshold(1.0, 10, 10)


class TestKsTest:
    def test_result_fields(self):
        rng = np.random.default_rng(3)
        res = ks_test(rng.normal(size=96), rng.normal(10.0, 1.0, size=96))
        assert isinstance(res, KSResult)
        assert res.statistic == 1.0
        assert res.reject

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 7.0, -0.5, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(InvalidParameterError, match="alpha"):
            ks_test([1.0, 2.0], [3.0, 4.0], alpha)

    def test_same_distribution_retains_on_typical_draw(self):
        rng = np.random.default_rng(0)
        res = ks_test(rng.normal(size=96), rng.normal(size=96))
        assert not res.reject


class TestShiftReport:
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(InvalidParameterError, match="alpha"):
            shift_report(np.arange(500.0), 10, 96, alpha)

    def test_constant_series(self):
        rep = shift_report(np.ones(500), n_windows=100, window_len=96, seed=1)
        assert rep.reject_rate == 0.0
        assert rep.mean_p == 1.0
        assert rep.std_p == 0.0

    def test_deterministic_given_seed(self):
        series = np.random.default_rng(5).normal(size=2000)
        a = shift_report(series, 200, 96, 0.05, seed=11)
        b = shift_report(series, 200, 96, 0.05, seed=11)
        assert a == b

    @pytest.mark.parametrize("seed", [0, 3, 17, 42])
    def test_equals_pairwise_reference_loop(self, seed):
        # rounding to 0.1 makes ties within and across windows common
        series = np.round(np.random.default_rng(seed).normal(size=3000).cumsum() * 0.05, 1)
        n, wl, alpha = 300, 24, 0.05
        starts = np.random.default_rng(np.random.SeedSequence([seed])).integers(
            0, series.size - wl + 1, size=n)
        reference = series[starts[0]: starts[0] + wl]
        p_values = []
        for start in starts[1:]:
            other = series[start: start + wl]
            d = ecdf_sup_distance(reference, other)
            assert d == brute_force_d(reference, other)
            p_values.append(ks_p_value(d, wl, wl))
        p_values = np.array(p_values)
        rep = shift_report(series, n, wl, alpha, seed=seed)
        assert rep.reject_rate == float((p_values < alpha).mean())
        assert rep.mean_p == float(p_values.mean())
        assert rep.std_p == float(p_values.std())

    def test_series_too_short(self):
        with pytest.raises(InsufficientDataError):
            shift_report(np.ones(50), 10, 96)

    def test_pvalue_count_is_windows_minus_one(self):
        series = np.random.default_rng(6).normal(size=1000)
        rep = shift_report(series, 50, 96, 0.05, seed=2)
        assert rep.n_windows == 50
        # reject_rate granularity reveals the divisor
        assert round(rep.reject_rate * 49, 6) == int(round(rep.reject_rate * 49))

    def test_iid_normal_rejects_near_alpha_on_average(self):
        # per-seed RR varies widely with the random reference window; the
        # mean over seeds is the stable nominal-level quantity
        rates = []
        for seed in range(20):
            series = np.random.default_rng(1000 + seed).normal(size=5000)
            rates.append(shift_report(series, 1000, 96, 0.05, seed=seed).reject_rate)
        assert 0.01 <= float(np.mean(rates)) <= 0.12

    def test_trending_series_rejects_nearly_everywhere(self):
        for seed in range(20):
            t = np.arange(5000, dtype=float)
            noise = np.random.default_rng(2000 + seed).normal(0, 0.05, 5000)
            rep = shift_report(0.01 * t + noise, 1000, 96, 0.05, seed=seed)
            assert rep.reject_rate > 0.9

    def test_mean_shifted_halves_reject_cross_half_pairs(self):
        # about half of all comparisons cross the distribution boundary
        g = np.random.default_rng(3000)
        series = np.concatenate([g.normal(0, 1, 2500), g.normal(10, 1, 2500)])
        rep = shift_report(series, 1000, 96, 0.05, seed=0)
        assert rep.reject_rate > 0.3

    def test_csv_row(self):
        rep = shift_report(np.ones(500), 100, 96, 0.05, seed=1)
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "rr,mean,std,n_windows,window_len,alpha,seed"
        assert lines[1].startswith("0.0,1.0,0.0,100,96,")
