"""Acceptance gate: one test per binding criterion, each printing a
PASS/FAIL line and enforcing its stated tolerance and runtime budget."""

import contextlib
import os
import time

import numpy as np
import pytest

from fdnet import tensor as T
from fdnet.data import SplitSpec, Standardizer, TimeSeriesFrame, load_csv, make_windows, split
from fdnet.focal import make_focal_plan
from fdnet.kstest import ecdf_sup_distance, ks_p_value, ks_reject_threshold, shift_report
from fdnet.metrics import mase, owa, smape
from fdnet.models import build_model
from fdnet.tensor import Tensor, strided_length
from fdnet.training import TrainConfig, evaluate_mse, train
from fdnet.verification import run_gradient_checks


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({description}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({description}): PASS")


def test_criterion_1_gradient_fidelity():
    with criterion(1, "gradient fidelity, every op + tiny end-to-end models"):
        start = time.monotonic()
        results = run_gradient_checks()
        elapsed = time.monotonic() - start
        names = {r.name for r in results}
        assert {"fdnet_tiny_end_to_end", "funet_tiny_end_to_end"} <= names
        for r in results:
            assert r.error < 1e-3, f"{r.name}: {r.error}"
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"


def test_criterion_2_focal_plan_exactness():
    with criterion(2, "focal plan lengths and depth schedule"):
        plan = make_focal_plan(672, 5, 0.5, 5, "fdnet")
        assert plan.lengths == (336, 168, 84, 42, 42)
        assert plan.depths == (1, 2, 3, 4, 5)
        # proportions 1/2, 1/4, 1/8, 1/16, 1/16 recovered exactly
        assert [l / 672 for l in plan.lengths] == [1 / 2, 1 / 4, 1 / 8, 1 / 16, 1 / 16]
        four = make_focal_plan(96, 4, 0.5, 5, "fdnet")
        assert four.lengths == (48, 24, 12, 12)
        assert [l / 96 for l in four.lengths] == [1 / 2, 1 / 4, 1 / 8, 1 / 8]


def test_criterion_3_structural_invariants_20_seeds():
    with criterion(3, "bitwise structural invariants over 20 seeds"):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            fd = build_model("fdnet", 32, 8, 3, 0.5, 3, 4, seed=seed)
            fu = build_model("funet", 32, 8, 3, 0.5, 3, 4, seed=seed)
            x = rng.normal(size=(2, 1, 32, 4))
            with T.no_grad():
                for model in (fd, fu):
                    # variate independence: zeroing one column leaves others
                    base, _ = model.forward(Tensor(x), "eval")
                    z = x.copy()
                    z[:, :, :, 1] = 0.0
                    zeroed, _ = model.forward(Tensor(z), "eval")
                    keep = [0, 2, 3]
                    assert np.array_equal(base.data[:, :, keep], zeroed.data[:, :, keep])

                    # branch independence: a bump inside the newest slice
                    bumped = x.copy()
                    bumped[0, 0, 30, 0] += 1.0
                    _, base_branches = model.forward(Tensor(x), "eval")
                    _, bump_branches = model.forward(Tensor(bumped), "eval")
                    for b_base, b_bump in zip(base_branches[:-1], bump_branches[:-1]):
                        assert np.array_equal(b_base.data, b_bump.data)
                    assert not np.array_equal(base_branches[-1].data,
                                              bump_branches[-1].data)

                    # eval-mode determinism
                    again, _ = model.forward(Tensor(x), "eval")
                    assert np.array_equal(base.data, again.data)

                # receptive field: depth-k stack reaches at most 2k steps
                branch = fd.branches[2]  # depth 3, newest slice length 8
                xs = rng.normal(size=(1, 1, 8, 4))
                rep_base = branch.representation(Tensor(xs), "eval").data
                xb = xs.copy()
                t = 4
                xb[0, 0, t, 2] += 1.0
                rep_bump = branch.representation(Tensor(xb), "eval").data
                changed = np.any(rep_base != rep_bump, axis=(0, 1, 3))
                k = branch.depth
                lo, hi = max(0, t - 2 * k), min(8, t + 2 * k + 1)
                assert not changed[:lo].any() and not changed[hi:].any()

                # halving law for the downsampling stacks
                for fu_branch, (length, depth) in zip(
                        fu.branches, zip(fu.plan.lengths, fu.plan.depths)):
                    for _ in range(depth):
                        length = strided_length(length, 2)
                    assert fu_branch.out_length == length


def test_criterion_4_ks_oracle():
    with criterion(4, "KS statistic, decision consistency, audit rates"):
        start = time.monotonic()

        rng = np.random.default_rng(7)
        for _ in range(1000):
            m = int(rng.integers(1, 25))
            n = int(rng.integers(1, 25))
            a = np.round(rng.normal(size=m), 1)
            b = np.round(rng.normal(size=n), 1)
            pool = np.concatenate([a, b])
            brute = max(abs((a <= x).mean() - (b <= x).mean()) for x in pool)
            assert ecdf_sup_distance(a, b) == brute

        for alpha in (0.01, 0.05, 0.1):
            for m, n in ((20, 20), (96, 96), (30, 70)):
                dstar = ks_reject_threshold(alpha, m, n)
                for d in np.linspace(0.0, 1.0, 101):
                    assert (d > dstar) == (ks_p_value(d, m, n) < alpha)

        # nominal-level behavior: reject rate is near alpha on average (the
        # per-seed rate varies with the random reference window)
        iid_rates = []
        for seed in range(20):
            series = np.random.default_rng(1000 + seed).normal(size=5000)
            iid_rates.append(shift_report(series, 1000, 96, 0.05, seed=seed).reject_rate)
        assert 0.01 <= float(np.mean(iid_rates)) <= 0.12

        for seed in range(20):
            t = np.arange(5000, dtype=float)
            drift = 0.01 * t + np.random.default_rng(2000 + seed).normal(0, 0.05, 5000)
            assert shift_report(drift, 1000, 96, 0.05, seed=seed).reject_rate > 0.9

        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"KS oracle took {elapsed:.1f}s"


def test_criterion_5_metric_oracles():
    with criterion(5, "SMAPE/MASE/OWA oracles and invariances"):
        assert smape([3.0], [1.0]) == 100.0
        assert mase([4.0, 5.0], [5.0, 6.0], [1.0, 2.0, 3.0, 4.0], 1) == 1.0
        assert owa(12.5, 0.75, 12.5, 0.75) == 1.0
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            a = rng.normal(size=n) * rng.uniform(0.1, 100)
            b = rng.normal(size=n) * rng.uniform(0.1, 100)
            assert smape(a, b) == smape(b, a)
            insample = rng.normal(size=20)
            pred = rng.normal(size=5)
            truth = rng.normal(size=5)
            c = rng.uniform(0.1, 1000)
            base = mase(pred, truth, insample, 1)
            scaled = mase(c * pred, c * truth, c * insample, 1)
            assert abs(scaled - base) <= 1e-12 * max(1.0, abs(base))


def test_criterion_6_parameter_growth():
    with criterion(6, "horizon growth touches only projection heads"):
        short = build_model("fdnet", 672, 96, 5, 0.5, 5, 8, seed=4321)
        long = build_model("fdnet", 672, 720, 5, 0.5, 5, 8, seed=4321)

        def group_sizes(model):
            groups = {"embedding": 0, "blocks": 0, "head": 0}
            for name, p in model.named_parameters().items():
                if ".embed." in name:
                    groups["embedding"] += p.size
                elif ".head." in name:
                    groups["head"] += p.size
                else:
                    groups["blocks"] += p.size
            return groups

        gs, gl = group_sizes(short), group_sizes(long)
        assert gs["embedding"] == gl["embedding"]
        assert gs["blocks"] == gl["blocks"]
        total_delta = sum(gl.values()) - sum(gs.values())
        assert total_delta == gl["head"] - gs["head"]
        expected = sum(8 * l * (720 - 96) for l in short.plan.lengths) + (720 - 96) * 5
        assert total_delta == expected
        # enumeration cross-check against the model's own reporting
        assert short.param_count()["total"] == sum(gs.values())
        assert long.param_count()["total"] == sum(gl.values())


def _noisy_sine_run():
    rng = np.random.default_rng(4321)
    t = np.arange(5000, dtype=float)
    series = (np.sin(2 * np.pi * t / 48.0) + 0.3 * np.sin(2 * np.pi * t / 17.0)
              + rng.normal(0, 0.05, 5000))
    frame = TimeSeriesFrame(("y",), series.reshape(-1, 1), "y")
    train_f, val_f, test_f = split(frame, SplitSpec.ratio())
    standardizer = Standardizer.fit(train_f)
    tw = make_windows(standardizer.transform(train_f), 64, 16, 1)
    vw = make_windows(standardizer.transform(val_f), 64, 16, 1)
    xw = make_windows(standardizer.transform(test_f), 64, 16, 1)
    model = build_model("fdnet", 64, 16, 3, 0.5, 3, 8, seed=4321)
    cfg = TrainConfig(learning_rate=0.01, batch_size=16, max_epochs=5,
                      patience=5, seed=4321)
    result = train(model, tw, vw, cfg)
    return result, evaluate_mse(model, xw)


def test_criterion_7_convergence_oracle():
    with criterion(7, "noisy-sine training reaches test MSE < 0.1 in 5 epochs"):
        start = time.monotonic()
        result_a, test_mse_a = _noisy_sine_run()
        assert len(result_a.history) <= 5
        assert test_mse_a < 0.1, f"test MSE {test_mse_a}"
        result_b, test_mse_b = _noisy_sine_run()
        assert test_mse_a == test_mse_b
        for ra, rb in zip(result_a.history, result_b.history):
            assert (ra.train_mse, ra.val_mse) == (rb.train_mse, rb.val_mse)
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"convergence oracle took {elapsed:.1f}s"


ETTH1_PATH = os.environ.get("FDNET_ETTH1", "data/ETTh1.csv")


@pytest.mark.skipif(not os.path.exists(ETTH1_PATH),
                    reason="public ETTh1 CSV not supplied (set FDNET_ETTH1)")
def test_criterion_8_etth1_shift_audit():
    with criterion(8, "ETTh1 reject rate within 5pp of the published 98.2%"):
        frame = load_csv(ETTH1_PATH, "OT")
        report = shift_report(frame.column("OT"), 1000, 96, 0.05, seed=4321)
        assert abs(report.reject_rate - 0.982) <= 0.05
