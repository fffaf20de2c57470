import gc
import json
import struct
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from fdnet import tensor as T
from fdnet.data import Standardizer, TimeSeriesFrame, make_windows
from fdnet.errors import (
    CorruptCheckpointError,
    IncompatibleCheckpointError,
    InvalidParameterError,
    ShapeError,
    TrainingDivergedError,
)
from fdnet.models import build_model
from fdnet.tensor import Tensor
from fdnet.training import (
    Adam,
    TrainConfig,
    evaluate_mse,
    load_checkpoint,
    lr_for_epoch,
    mse_loss,
    save_checkpoint,
    train,
    write_history_csv,
)


FIXTURES = Path(__file__).parent / "fixtures"


def corrupt_checkpoint(data: bytes, fault: str) -> bytes:
    """One malformed variant of a well-formed checkpoint file."""
    (blob_len,) = struct.unpack_from("<I", data, 12)
    head, blob, tail = data[:12], data[16 : 16 + blob_len], data[16 + blob_len :]
    if fault in ("config", "meta", "seed", "heads", "l_in", "variates"):
        payload = json.loads(blob)
        if fault in ("config", "meta"):
            del payload[fault]
        else:  # a value build_model rejects, or one the standardizer contradicts
            bad = {"seed": -1, "heads": 0, "l_in": float("inf"), "variates": 3}
            payload["config"][fault] = bad[fault]
        blob = json.dumps(payload).encode()
        return head + struct.pack("<I", len(blob)) + blob + tail
    if fault in ("dim_2^40", "dim_2^64-1"):
        # first dimension of the first tensor: far more bytes than the file holds
        (name_len,) = struct.unpack_from("<I", tail, 4)
        at = 16 + blob_len + 8 + name_len
        assert struct.unpack_from("<I", data, at)[0] >= 1
        dim = 2**40 if fault == "dim_2^40" else 2**64 - 1
        return data[: at + 4] + struct.pack("<Q", dim) + data[at + 12 :]
    if fault == "trailing":
        return data + bytes(8)
    if fault == "renamed":
        return data.replace(b"branch0.embed.bias", b"branch0.embed.bogs", 1)
    if fault in ("unknown", "duplicate"):
        name = b"extra" if fault == "unknown" else b"standardizer.std"
        (count,) = struct.unpack_from("<I", tail)
        extra = struct.pack("<I", len(name)) + name + struct.pack("<IQd", 1, 1, 0.0)
        return data[: 16 + blob_len] + struct.pack("<I", count + 1) + tail[4:] + extra
    assert fault == "nan"
    return data[:-8] + struct.pack("<d", float("nan"))


def sine_frame(n=400, period=25.0):
    t = np.arange(n, dtype=float)
    return TimeSeriesFrame(("y",), np.sin(2 * np.pi * t / period).reshape(-1, 1), "y")


class TestMseLoss:
    def test_zero_for_equal(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        assert mse_loss(x, Tensor(x.data.copy())).item() == 0.0

    def test_hand_value(self):
        loss = mse_loss(Tensor([0.0, 0.0]), Tensor([1.0, 3.0]))
        assert loss.item() == pytest.approx(5.0, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))

    def test_gradient_is_two_diff_over_n(self):
        pred = Tensor(np.random.default_rng(1).normal(size=(2, 3)), requires_grad=True)
        target = np.random.default_rng(2).normal(size=(2, 3))
        loss = mse_loss(pred, Tensor(target))
        loss.backward()
        expected = 2.0 * (pred.data - target) / pred.size
        assert np.allclose(pred.grad, expected, atol=1e-14)
        assert T.grad_check(lambda: mse_loss(pred, Tensor(target)), pred) < 1e-6


class TestGraphRelease:
    @pytest.mark.parametrize("variant", ["fdnet", "funet"])
    def test_train_graph_freed_by_backward_without_gc(self, variant):
        model = build_model(variant, l_in=16, l_out=4, f=2, alpha=0.5, n_layers=2,
                            embed_dim=4, seed=4321)
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(2, 1, 16, 2)), rng.normal(size=(2, 4, 2))
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            pred, branch_preds = model.forward(Tensor(x), "train")
            loss = mse_loss(pred, Tensor(y))
            refs, stack, seen = [], [loss._node], set()
            while stack:
                node = stack.pop()
                if type(node) is T._Node and id(node) not in seen:
                    seen.add(id(node))
                    refs.append(weakref.ref(node))
                    stack.extend(node.parents)
            del pred, branch_preds, stack, node
            assert len(refs) > 50
            loss.backward()
            alive = [r for r in refs if r() is not None]
        finally:
            if was_enabled:
                gc.enable()
        assert len(alive) == 1 and alive[0]() is loss._node
        assert all(p.grad is not None for p in model.parameters())

    def test_default_fdnet_step_holds_only_what_backward_reads(self):
        # at the loss of a default B=16 step the graph held 176 MiB while
        # nodes kept their outputs, 117 MiB once they kept only what backward
        # reads, and holds 81.5 MiB now that GELU keeps its derivative, not
        # its input and cdf
        assert held_at_default_loss("fdnet") < 100 * 2**20

    def test_default_funet_step_holds_only_what_backward_reads(self):
        # 99.5 MiB while GELU kept its input and cdf, 84.0 MiB now
        assert held_at_default_loss("funet") < 92 * 2**20


def held_at_default_loss(variant: str) -> int:
    """Traced bytes a default B=16 train forward and its loss hold."""
    model = build_model(variant, l_in=672, l_out=96, f=5, alpha=0.5, n_layers=5,
                        embed_dim=8, seed=4321)
    rng = np.random.default_rng(6)
    x, y = Tensor(rng.normal(size=(16, 1, 672, 7))), Tensor(rng.normal(size=(16, 96, 7)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = mse_loss(model.forward(x, "train")[0], y)  # the graph, held while measured
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class TestAdam:
    def test_zero_grad_from_start_is_noop(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam([p])
        p.grad = np.zeros(2)
        before = p.data.copy()
        opt.step(0.1)
        assert np.array_equal(p.data, before)
        assert opt.t == 1

    def test_first_step_hand_value(self):
        # m_hat = v_hat = 1 after one unit gradient: theta = -lr / (1 + eps)
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam([p])
        p.grad = np.array([1.0])
        opt.step(0.1)
        assert p.data[0] == pytest.approx(-0.09999999900000002, abs=1e-18)

    def test_lr_zero_advances_state_only(self):
        p = Tensor(np.array([3.0]), requires_grad=True)
        opt = Adam([p])
        p.grad = np.array([2.0])
        opt.step(0.0)
        assert p.data[0] == 3.0
        assert opt.t == 1 and opt.m[0][0] != 0.0

    def test_bitwise_determinism_100_steps(self):
        def run():
            rng = np.random.default_rng(7)
            p = Tensor(np.array([0.5, -0.5]), requires_grad=True)
            opt = Adam([p])
            for _ in range(100):
                p.grad = rng.normal(size=2)
                opt.step(0.01)
            return p.data
        assert np.array_equal(run(), run())

    def test_in_place_update_matches_the_out_of_place_expressions_bitwise(self):
        rng = np.random.default_rng(11)
        params = [Tensor(rng.normal(size=s), requires_grad=True) for s in [(3, 4), (5,), (2,)]]
        opt = Adam(params)
        ref = [p.data.copy() for p in params]
        m = [np.zeros_like(r) for r in ref]
        v = [np.zeros_like(r) for r in ref]
        b1, b2, eps = Adam.beta1, Adam.beta2, Adam.eps
        for t in range(1, 101):
            lr = 10.0 ** rng.uniform(-4, -1)
            grads = [rng.normal(size=r.shape) * 10.0 ** rng.uniform(-3, 3) for r in ref]
            if t % 3 == 0:
                grads[2] = None  # off the loss path this step
            for p, g in zip(params, grads):
                p.grad = g
            held = params[0].data
            before = held.copy()
            opt.step(lr)
            assert params[0].data is not held and np.array_equal(held, before)
            bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for i, g in enumerate(grads):
                g = np.zeros_like(ref[i]) if g is None else g
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
                ref[i] = ref[i] - lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + eps)
            for got, want in zip([p.data for p in params] + opt.m + opt.v, ref + m + v):
                assert np.array_equal(got, want)

    def test_missing_grad_treated_as_zero(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([p])
        p.grad = None
        opt.step(0.1)
        assert p.data[0] == 1.0


class TestLrSchedule:
    def test_values(self):
        assert lr_for_epoch(1e-4, 0) == 1e-4
        assert lr_for_epoch(1e-4, 1) == 5e-5
        assert lr_for_epoch(1e-4, 3) == 1.25e-5

    def test_negative_epoch(self):
        with pytest.raises(InvalidParameterError):
            lr_for_epoch(1e-4, -1)

    @pytest.mark.parametrize("base_lr", [1e-4, 3.7e-2])
    def test_exact_halving_at_every_epoch(self, base_lr):
        # bitwise base_lr / 2**epoch while 2**epoch is a float; past that,
        # where 2.0 ** 1024 overflows, it goes on halving down to 0.0
        for epoch in range(1024):
            assert lr_for_epoch(base_lr, epoch).hex() == (base_lr / 2.0 ** epoch).hex()
        tail = [lr_for_epoch(base_lr, epoch) for epoch in range(1024, 1200)]
        assert tail == sorted(tail, reverse=True) and tail[-1] == 0.0


class TestTrain:
    def test_overfit_sine_under_300_steps(self):
        frame = sine_frame()
        tw = make_windows(frame, 32, 8, 1)  # 361 windows, 23 steps/epoch
        vw = make_windows(frame, 32, 8, 7)
        model = build_model("fdnet", 32, 8, 2, 0.5, 2, 4, seed=4321, dropout_p=0.0)
        cfg = TrainConfig(learning_rate=0.03, batch_size=16, max_epochs=13,
                          patience=13, seed=4321)
        result = train(model, tw, vw, cfg)
        assert result.steps <= 300
        assert result.history[-1].train_mse < 0.05

    @pytest.mark.parametrize("patience,expected_epochs", [(1, 2), (2, 3)])
    def test_early_stop_on_worsening_val(self, monkeypatch, patience, expected_epochs):
        # evaluate_mse runs twice per epoch (train then val): keep train at
        # 0.5 and make val strictly worsen
        losses = iter([0.5, 1.0, 0.5, 2.0, 0.5, 3.0, 0.5, 4.0, 0.5, 5.0, 0.5, 6.0])

        def scripted(model, windows, batch_size=64):
            return next(losses)

        import fdnet.training as training_mod
        monkeypatch.setattr(training_mod, "evaluate_mse", scripted)
        frame = sine_frame(120)
        tw = make_windows(frame, 16, 4, 1)
        vw = make_windows(frame, 16, 4, 5)
        model = build_model("fdnet", 16, 4, 2, 0.5, 1, 2, seed=1)
        cfg = TrainConfig(learning_rate=0.01, batch_size=16, max_epochs=10,
                          patience=patience, seed=1)
        result = train(model, tw, vw, cfg)
        assert len(result.history) == expected_epochs

    def test_early_stop_counter_resets_on_improvement(self, monkeypatch):
        # worsen, improve, then worsen twice: patience=2 stops after epoch 4
        losses = iter([9.0, 1.0, 9.0, 2.0, 9.0, 0.5, 9.0, 3.0, 9.0, 4.0, 9.0, 5.0])

        def scripted(model, windows, batch_size=64):
            return next(losses)

        import fdnet.training as training_mod
        monkeypatch.setattr(training_mod, "evaluate_mse", scripted)
        frame = sine_frame(120)
        tw = make_windows(frame, 16, 4, 1)
        vw = make_windows(frame, 16, 4, 5)
        model = build_model("fdnet", 16, 4, 2, 0.5, 1, 2, seed=1)
        cfg = TrainConfig(learning_rate=0.01, batch_size=16, max_epochs=10,
                          patience=2, seed=1)
        result = train(model, tw, vw, cfg)
        assert len(result.history) == 5
        assert result.best_epoch == 2

    def test_fewer_epochs_than_patience_run_in_full(self):
        # patience >= the epochs left only means early stopping never fires
        cfg = TrainConfig(learning_rate=0.01, batch_size=16, max_epochs=2, seed=3)
        assert cfg.patience > cfg.max_epochs
        frame = sine_frame(120)
        model = build_model("fdnet", 16, 4, 2, 0.5, 1, 2, seed=3)
        result = train(model, make_windows(frame, 16, 4, 2), make_windows(frame, 16, 4, 5), cfg)
        assert [record.epoch for record in result.history] == [0, 1]

    def test_history_bitwise_reproducible(self):
        frame = sine_frame(150)
        def run():
            tw = make_windows(frame, 16, 4, 1)
            vw = make_windows(frame, 16, 4, 5)
            model = build_model("fdnet", 16, 4, 2, 0.5, 2, 4, seed=11)
            cfg = TrainConfig(learning_rate=0.01, batch_size=16, max_epochs=3,
                              patience=3, seed=11)
            return train(model, tw, vw, cfg), model
        ra, ma = run()
        rb, mb = run()
        for a, b in zip(ra.history, rb.history):
            assert (a.epoch, a.lr, a.train_mse, a.val_mse) == (b.epoch, b.lr, b.train_mse, b.val_mse)
        for pa, pb in zip(ma.parameters(), mb.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_eval_mode_val_is_repeatable(self):
        frame = sine_frame(150)
        vw = make_windows(frame, 16, 4, 3)
        model = build_model("fdnet", 16, 4, 2, 0.5, 2, 4, seed=3)
        assert evaluate_mse(model, vw) == evaluate_mse(model, vw)

    def test_diverged_loss_raises(self):
        frame = sine_frame(120)
        tw = make_windows(frame, 16, 4, 1)
        vw = make_windows(frame, 16, 4, 5)
        model = build_model("fdnet", 16, 4, 2, 0.5, 1, 2, seed=5)
        model.branches[0].head.weight.data[:] = 1e200  # primed to overflow
        cfg = TrainConfig(learning_rate=1.0, batch_size=16, max_epochs=2,
                          patience=2, seed=5)
        refs = []
        was_enabled = gc.isenabled()
        gc.disable()  # the step's graph must go by reference counting alone
        try:
            with (np.errstate(over="ignore", invalid="ignore"),
                  T.op_hook(lambda out: refs.append(weakref.ref(out)))):
                # the kept exception holds train's frame through its traceback
                with pytest.raises(TrainingDivergedError) as excinfo:
                    train(model, tw, vw, cfg)
            alive = [r for r in refs if r() is not None]
        finally:
            if was_enabled:
                gc.enable()
        assert excinfo.value.__traceback__ is not None
        assert len(refs) > 50 and alive == []

    def test_divergence_after_the_last_step_raises(self):
        # one step per epoch: its loss is finite, and the update after it
        # leaves the parameters non-finite; numpy warns of none of it
        frame = sine_frame(120)
        tw = make_windows(frame, 16, 4, 7)
        vw = make_windows(frame, 16, 4, 5)
        assert len(tw) <= 16
        model = build_model("fdnet", 16, 4, 2, 0.5, 1, 2, seed=5)
        cfg = TrainConfig(learning_rate=1e300, batch_size=16, max_epochs=1, patience=1, seed=5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TrainingDivergedError, match="MSE after epoch 0"):
                train(model, tw, vw, cfg)
        assert caught == []

    def test_restores_best_params(self):
        frame = sine_frame(200)
        tw = make_windows(frame, 16, 4, 1)
        vw = make_windows(frame, 16, 4, 3)
        model = build_model("fdnet", 16, 4, 2, 0.5, 2, 4, seed=13)
        cfg = TrainConfig(learning_rate=0.02, batch_size=16, max_epochs=4,
                          patience=4, seed=13)
        result = train(model, tw, vw, cfg)
        assert evaluate_mse(model, vw) == pytest.approx(result.best_val_mse, abs=1e-12)

    def test_history_csv_format(self, tmp_path):
        frame = sine_frame(120)
        tw = make_windows(frame, 16, 4, 2)
        vw = make_windows(frame, 16, 4, 5)
        model = build_model("fdnet", 16, 4, 2, 0.5, 1, 2, seed=7)
        cfg = TrainConfig(learning_rate=0.01, batch_size=16, max_epochs=2,
                          patience=2, seed=7)
        result = train(model, tw, vw, cfg)
        out = tmp_path / "history.csv"
        write_history_csv(out, result.history)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "epoch,lr,train_mse,val_mse"
        assert len(lines) == len(result.history) + 1


class TestCheckpoint:
    def make_trained(self, variant="fdnet"):
        model = build_model(variant, 16, 4, 2, 0.5, 2, 4, seed=21)
        std = Standardizer(mean=np.array([1.5, -2.0]), std=np.array([3.0, 0.5]))
        return model, std

    def test_roundtrip_forward_bitwise(self, tmp_path):
        model, std = self.make_trained()
        x = Tensor(np.random.default_rng(0).normal(size=(2, 1, 16, 2)))
        with T.no_grad():
            before = model.forward(x, "eval")[0].data
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, std, meta={"epoch": 3, "best_val_mse": 0.25})
        loaded = load_checkpoint(path)
        with T.no_grad():
            after = loaded.model.forward(x, "eval")[0].data
        assert np.array_equal(before, after)
        assert np.array_equal(loaded.standardizer.mean, std.mean)
        assert np.array_equal(loaded.standardizer.std, std.std)
        assert loaded.meta["epoch"] == 3

    def test_funet_roundtrip(self, tmp_path):
        model, std = self.make_trained("funet")
        x = Tensor(np.random.default_rng(1).normal(size=(1, 1, 16, 2)))
        with T.no_grad():
            before = model.forward(x, "eval")[0].data
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, std)
        with T.no_grad():
            after = load_checkpoint(path).model.forward(x, "eval")[0].data
        assert np.array_equal(before, after)

    @pytest.mark.parametrize("variant", ["fdnet", "funet"])
    def test_config_without_heads_and_dropout_loads_their_defaults(self, tmp_path, variant):
        # as written before the config blob stored `heads` and `dropout`
        model, std = self.make_trained(variant)
        path = tmp_path / "old.ckpt"
        save_checkpoint(path, model, std)
        data = path.read_bytes()
        (blob_len,) = struct.unpack_from("<I", data, 12)
        payload = json.loads(data[16 : 16 + blob_len])
        del payload["config"]["heads"], payload["config"]["dropout"]
        blob = json.dumps(payload).encode()
        path.write_bytes(data[:12] + struct.pack("<I", len(blob)) + blob + data[16 + blob_len :])
        loaded = load_checkpoint(path).model
        assert (loaded.heads, loaded.dropout_p) == (1, 0.1)
        x = Tensor(np.random.default_rng(2).normal(size=(2, 1, 16, 2)))
        for mode in ("eval", "train"):  # train mode draws dropout masks at p = 0.1
            with T.no_grad():
                direct, rebuilt = (m.forward(x, mode)[0].data for m in (model, loaded))
            assert np.array_equal(direct, rebuilt)

    @pytest.mark.parametrize("name", ["tiny_fdnet.ckpt", "tiny_funet.ckpt"])
    def test_fixture_resaves_byte_identical(self, tmp_path, name):
        # the fixtures lock tensor names, their order and the file format
        ckpt = load_checkpoint(FIXTURES / name)
        path = tmp_path / name
        save_checkpoint(path, ckpt.model, ckpt.standardizer, meta=ckpt.meta)
        assert path.read_bytes() == (FIXTURES / name).read_bytes()

    @pytest.mark.parametrize("fault", ["config", "meta", "trailing", "renamed", "unknown",
                                       "duplicate", "nan", "dim_2^40", "dim_2^64-1", "seed",
                                       "heads", "l_in", "variates"])
    def test_malformed_fixture_rejected(self, tmp_path, fault):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(corrupt_checkpoint((FIXTURES / "tiny_fdnet.ckpt").read_bytes(), fault))
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(IncompatibleCheckpointError):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        model, std = self.make_trained()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, std)
        data = bytearray(path.read_bytes())
        data[8:12] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(IncompatibleCheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        model, std = self.make_trained()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, std)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    def test_default_config_param_count_preserved(self, tmp_path):
        model = build_model("fdnet", 672, 96, 5, 0.5, 5, 8, seed=4321)
        std = Standardizer(mean=np.zeros(7), std=np.ones(7))
        path = tmp_path / "big.ckpt"
        save_checkpoint(path, model, std)
        loaded = load_checkpoint(path)
        assert loaded.model.param_count() == model.param_count()
        assert loaded.config["variates"] == 7
