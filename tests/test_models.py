import collections
import contextlib
import functools
import gc
import multiprocessing
import threading
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fdnet import models as M
from fdnet import tensor as T
from fdnet.errors import (
    DegenerateWeightError,
    InvalidArgumentError,
    NumericError,
    SequenceTooShortError,
    ShapeError,
)
from fdnet.focal import slice_input
from fdnet.models import (
    DFEICOMBlock,
    DFEInitialBlock,
    FDNetModel,
    FUNetModel,
    _streams,
    build_model,
)
from fdnet.tensor import Tensor, strided_length


def halved_times(length, depth):
    """The length after `depth` downsampling blocks."""
    for _ in range(depth):
        length = strided_length(length, 2)
    return length


def make_block(kind, d=4, seed=0, heads=1):
    params = _streams(seed, 0)
    drops = _streams(seed, 1)
    if kind == "initial":
        return DFEInitialBlock(d, 0.1, params, drops)
    return DFEICOMBlock(d, heads, 0.1, params, drops)


def tiny_fdnet(seed=4321, v=2):
    return build_model("fdnet", l_in=16, l_out=4, f=2, alpha=0.5, n_layers=2,
                       embed_dim=4, seed=seed), v


def tiny_funet(seed=4321, v=2):
    return build_model("funet", l_in=16, l_out=4, f=2, alpha=0.5, n_layers=2,
                       embed_dim=4, seed=seed), v


class TestDFEInitialBlock:
    def test_shape_preserved(self):
        block = make_block("initial", d=8)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 8, 42, 7)))
        with T.no_grad():
            assert block.forward(x, "eval").shape == (2, 8, 42, 7)

    def test_variate_zeroing_bitwise(self):
        block = make_block("initial")
        x = np.random.default_rng(1).normal(size=(2, 4, 12, 5))
        with T.no_grad():
            base = block.forward(Tensor(x), "eval").data
            z = x.copy()
            z[:, :, :, 3] = 0.0
            out = block.forward(Tensor(z), "eval").data
        keep = [v for v in range(5) if v != 3]
        assert np.array_equal(base[:, :, :, keep], out[:, :, :, keep])

    def test_receptive_field_two_per_block(self):
        block = make_block("initial")
        x = np.random.default_rng(2).normal(size=(1, 4, 20, 2))
        t = 9
        with T.no_grad():
            base = block.forward(Tensor(x), "eval").data
            bumped = x.copy()
            bumped[0, :, t, 0] += 0.5
            out = block.forward(Tensor(bumped), "eval").data
        changed = np.any(base != out, axis=(0, 1, 3))
        assert not changed[: t - 2].any()
        assert not changed[t + 3 :].any()


class TestDFEICOMBlock:
    @pytest.mark.parametrize("length,expected", [(96, 48), (42, 21), (5, 3), (2, 1)])
    def test_halving(self, length, expected):
        block = make_block("icom")
        x = Tensor(np.random.default_rng(3).normal(size=(1, 4, length, 2)))
        with T.no_grad():
            out = block.forward(x, "eval")
        assert out.shape[2] == expected == strided_length(length, 2)

    def test_too_short(self):
        block = make_block("icom")
        with pytest.raises(SequenceTooShortError):
            block.forward(Tensor(np.zeros((1, 4, 1, 2))), "eval")

    def test_variate_zeroing_bitwise(self):
        block = make_block("icom")
        x = np.random.default_rng(4).normal(size=(2, 4, 10, 4))
        with T.no_grad():
            base = block.forward(Tensor(x), "eval").data
            z = x.copy()
            z[:, :, :, 0] = 0.0
            out = block.forward(Tensor(z), "eval").data
        assert np.array_equal(base[:, :, :, 1:], out[:, :, :, 1:])

    def test_pool_and_conv_lengths_agree_exhaustively(self):
        # the block's two halving paths, run on every L in [1, 512]
        w = Tensor(np.ones((1, 1, 3, 1)))
        with T.no_grad():
            for length in range(1, 513):
                x = Tensor(np.ones((1, 1, length, 1)))
                expected = strided_length(length, 2)
                assert T.conv2d_time(x, w, None, 2).shape[2] == expected
                assert T.maxpool_time(x).shape[2] == expected


class TestBlockMemory:
    @pytest.mark.parametrize("kind, bound", [("initial", 4.5), ("icom", 5.75)])
    def test_no_grad_forward_peak(self, kind, bound):
        # traced peak of one no-grad eval forward (serial: a block never
        # splits), in units of its input's bytes. Each activation goes with
        # its last reader: 4.0 and 5.5 measured, against 6.0 and 6.0 while
        # Python names held activations to the block's end
        block = make_block(kind, d=8)
        x = Tensor(np.random.default_rng(9).normal(size=(16, 8, 336, 7)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with T.no_grad():
                block.forward(x, "eval")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < bound * x.data.nbytes


class TestFDNetModel:
    def test_prediction_shape_default_config(self):
        model = build_model("fdnet", 672, 96, 5, 0.5, 5, 8, seed=1)
        x = Tensor(np.random.default_rng(5).normal(size=(2, 1, 672, 7)))
        with T.no_grad():
            pred, branch_outputs = model.forward(x, "eval")
        assert pred.shape == (2, 96, 7)
        assert len(branch_outputs) == 5
        assert all(b.shape == (2, 96, 7) for b in branch_outputs)

    def test_prediction_is_branch_sum(self):
        model, v = tiny_fdnet()
        x = Tensor(np.random.default_rng(6).normal(size=(2, 1, 16, v)))
        with T.no_grad():
            pred, branch_outputs = model.forward(x, "eval")
        total = branch_outputs[0].data + branch_outputs[1].data
        assert np.array_equal(pred.data, total)

    def test_variate_permutation_bitwise(self):
        model = build_model("fdnet", 32, 8, 3, 0.5, 3, 4, seed=2)
        x = np.random.default_rng(7).normal(size=(2, 1, 32, 5))
        perm = [4, 2, 0, 1, 3]
        with T.no_grad():
            base = model.forward(Tensor(x), "eval")[0].data
            permuted = model.forward(Tensor(x[:, :, :, perm]), "eval")[0].data
        assert np.array_equal(permuted, base[:, :, perm])

    def test_branch_independence_bitwise(self):
        model, v = tiny_fdnet()
        x = np.random.default_rng(8).normal(size=(1, 1, 16, v))
        with T.no_grad():
            base = model.forward(Tensor(x), "eval")[1]
            bumped = x.copy()
            bumped[0, 0, 2, 0] += 1.0  # inside slice 0 (oldest, rows [0, 8))
            out = model.forward(Tensor(bumped), "eval")[1]
        assert np.array_equal(base[1].data, out[1].data)
        assert not np.array_equal(base[0].data, out[0].data)

    def test_eval_determinism(self):
        model, v = tiny_fdnet()
        x = Tensor(np.random.default_rng(9).normal(size=(2, 1, 16, v)))
        with T.no_grad():
            a = model.forward(x, "eval")[0].data
            b = model.forward(x, "eval")[0].data
        assert np.array_equal(a, b)

    def test_train_mode_uses_dropout(self):
        model, v = tiny_fdnet()
        x = Tensor(np.random.default_rng(10).normal(size=(2, 1, 16, v)))
        with T.no_grad():
            a = model.forward(x, "train")[0].data
            b = model.forward(x, "train")[0].data
        assert not np.array_equal(a, b)

    def test_same_seed_same_parameters(self):
        a, _ = tiny_fdnet(seed=99)
        b, _ = tiny_fdnet(seed=99)
        for (na, pa), (nb, pb) in zip(a.named_parameters().items(),
                                      b.named_parameters().items()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)

    def test_nonfinite_input_rejected(self):
        model, v = tiny_fdnet()
        x = np.zeros((1, 1, 16, v))
        x[0, 0, 3, 0] = np.nan
        with pytest.raises(NumericError):
            model.forward(Tensor(x), "eval")

    def test_wrong_length_rejected(self):
        model, v = tiny_fdnet()
        with pytest.raises(ShapeError):
            model.forward(Tensor(np.zeros((1, 1, 20, v))), "eval")

    def test_receptive_field_bound_depth_k(self):
        # feature at time t of a depth-k stack sees inputs within |dt| <= 2k
        model = build_model("fdnet", 64, 4, 2, 0.5, 3, 4, seed=3)
        branch = model.branches[1]  # depth 3, slice rows [32, 64)
        x = np.random.default_rng(11).normal(size=(1, 1, 32, 2))
        with T.no_grad():
            base = branch.representation(Tensor(x), "eval").data
            bumped = x.copy()
            t = 15
            bumped[0, 0, t, 1] += 1.0
            out = branch.representation(Tensor(bumped), "eval").data
        changed = np.any(base != out, axis=(0, 1, 3))
        k = branch.depth
        assert not changed[: t - 2 * k].any()
        assert not changed[t + 2 * k + 1 :].any()
        assert changed[t]


class TestFUNetModel:
    def test_default_branch_lengths_all_21(self):
        model = build_model("funet", 672, 96, 5, 0.5, 5, 8, seed=4)
        assert [b.out_length for b in model.branches] == [21, 21, 21, 21, 21]
        assert [halved_times(l, d) for l, d in
                zip((336, 168, 84, 42, 42), (4, 3, 2, 1, 1))] == [21] * 5

    def test_forward_shape(self):
        model = build_model("funet", 64, 8, 3, 0.5, 3, 4, seed=5)
        x = Tensor(np.random.default_rng(12).normal(size=(2, 1, 64, 3)))
        with T.no_grad():
            pred, branch_outputs = model.forward(x, "eval")
        assert pred.shape == (2, 8, 3)
        assert len(branch_outputs) == 3

    def test_variate_independence_bitwise(self):
        model, v = tiny_funet()
        x = np.random.default_rng(13).normal(size=(1, 1, 16, 3))
        model = build_model("funet", 16, 4, 2, 0.5, 2, 4, seed=6)
        with T.no_grad():
            base = model.forward(Tensor(x), "eval")[0].data
            z = x.copy()
            z[:, :, :, 1] = 0.0
            out = model.forward(Tensor(z), "eval")[0].data
        assert np.array_equal(base[:, :, [0, 2]], out[:, :, [0, 2]])

    def test_branch_independence_bitwise(self):
        model, v = tiny_funet()
        x = np.random.default_rng(14).normal(size=(1, 1, 16, v))
        with T.no_grad():
            base = model.forward(Tensor(x), "eval")[1]
            bumped = x.copy()
            bumped[0, 0, 12, 0] += 1.0  # inside newest slice, rows [8, 16)
            out = model.forward(Tensor(bumped), "eval")[1]
        assert np.array_equal(base[0].data, out[0].data)
        assert not np.array_equal(base[1].data, out[1].data)

    def test_eval_determinism(self):
        model, v = tiny_funet()
        x = Tensor(np.random.default_rng(15).normal(size=(1, 1, 16, v)))
        with T.no_grad():
            assert np.array_equal(model.forward(x, "eval")[0].data,
                                  model.forward(x, "eval")[0].data)

    def test_halving_law_random_configs(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            l_in = int(rng.integers(64, 600))
            f = int(rng.integers(1, 5))
            try:
                model = build_model("funet", l_in, 8, f, 0.5, 4, 4, seed=7)
            except SequenceTooShortError:
                continue
            for branch, (length, depth) in zip(model.branches,
                                               zip(model.plan.lengths, model.plan.depths)):
                assert branch.out_length == halved_times(length, depth)


class TestInitialScale:
    @pytest.mark.parametrize("variant, heads", [("fdnet", 1), ("funet", 1), ("funet", 2)])
    def test_fresh_default_model_output_near_unit_scale(self, variant, heads):
        # a weight scale that grows the activations compounds block by block:
        # a He-uniform draw gave output stds of 136, 82 and 98 here
        model = build_model(variant, 672, 96, 5, 0.5, 5, 8, seed=4321, heads=heads)
        x = Tensor(np.random.default_rng(4321).normal(size=(16, 1, 672, 7)))
        with T.no_grad():
            pred, _ = model.forward(x, "eval")
        assert 0.25 <= pred.data.std() <= 4.0


class TestParamCount:
    def test_head_count_formula(self):
        # D=8, len=42, L_out=96: 8*42*96 + 96 = 32352
        model = build_model("fdnet", 672, 96, 5, 0.5, 5, 8, seed=8)
        head_w = model.branches[4].head.weight
        head_b = model.branches[4].head.bias
        assert head_w.size + head_b.size == 32352

    def test_group_totals_match_enumeration(self):
        model, _ = tiny_fdnet()
        counts = model.param_count()
        total = sum(p.size for p in model.parameters())
        assert counts["total"] == total
        assert counts["total"] == counts["embedding"] + counts["blocks"] + counts["head"]

    def test_fdnet_block_group_formula(self):
        # per block: 2*(D^2 + 2D) + 2*(3D^2 + 2D) = 8D^2 + 8D
        d = 8
        model = build_model("fdnet", 672, 96, 5, 0.5, 5, d, seed=9)
        n_blocks = sum(model.plan.depths)
        assert model.param_count()["blocks"] == n_blocks * (8 * d * d + 8 * d)
        assert model.param_count()["embedding"] == model.plan.f * 2 * d

    def test_funet_block_group_formula(self):
        # per block: 4D^2 (attention) + (D^2+2D) + 2*(3D^2+2D) = 11D^2 + 6D
        d = 8
        model = build_model("funet", 672, 96, 5, 0.5, 5, d, seed=10)
        n_blocks = sum(model.plan.depths)
        assert model.param_count()["blocks"] == n_blocks * (11 * d * d + 6 * d)

    def test_longer_horizon_changes_heads_only(self):
        short = build_model("fdnet", 672, 96, 5, 0.5, 5, 8, seed=11)
        long = build_model("fdnet", 672, 720, 5, 0.5, 5, 8, seed=11)
        cs, cl = short.param_count(), long.param_count()
        assert cs["embedding"] == cl["embedding"]
        assert cs["blocks"] == cl["blocks"]
        delta = sum(8 * l * (720 - 96) for l in short.plan.lengths) + (720 - 96) * 5
        assert cl["head"] - cs["head"] == delta
        assert cl["total"] - cs["total"] == delta

    def test_f1_counts_match_direct_enumeration(self):
        model = build_model("fdnet", 16, 4, 1, 0.5, 1, 8, seed=12)
        by_hand = 0
        for p in model.parameters():
            by_hand += int(np.prod(p.data.shape))
        assert model.param_count()["total"] == by_hand
        # embedding 2D + one block (8D^2+8D) + head (D*16*4 + 4)
        d = 8
        assert by_hand == 2 * d + (8 * d * d + 8 * d) + (d * 16 * 4 + 4)


class TestGradientThroughModels:
    def test_tiny_fdnet_mse_gradcheck(self):
        model, v = tiny_fdnet()
        x = Tensor(np.random.default_rng(17).normal(size=(1, 1, 16, v)))
        target = np.random.default_rng(18).normal(size=(1, 4, v))

        def f():
            pred, _ = model.forward(x, "eval")
            diff = T.sub(pred, Tensor(target))
            return T.mean_all(T.mul(diff, diff))

        err = T.grad_check(f, model.parameters())
        assert err < 1e-3

    def test_tiny_funet_mse_gradcheck(self):
        model, v = tiny_funet()
        x = Tensor(np.random.default_rng(19).normal(size=(1, 1, 16, v)))
        target = np.random.default_rng(20).normal(size=(1, 4, v))

        def f():
            pred, _ = model.forward(x, "eval")
            diff = T.sub(pred, Tensor(target))
            return T.mean_all(T.mul(diff, diff))

        err = T.grad_check(f, model.parameters())
        assert err < 1e-3


def big_model(variant, seed=11, heads=1, f=4, n_layers=2):
    """A model and input just above the size where branches go to two threads.

    At f 4 and n_layers 2 the larger side of each variant's branch cut holds
    over 0.54 of the work, so large forwards split their batch.
    """
    model = build_model(variant, l_in=64, l_out=8, f=f, alpha=0.5, n_layers=n_layers,
                        embed_dim=8, seed=seed, heads=heads)
    x = Tensor(np.random.default_rng(seed).normal(size=(128, 1, 64, 4)))
    assert 128 * 64 * 4 * 8 >= M.PARALLEL_MIN_ELEMENTS and model._cut > 0
    return model, x


def lanes_model(seed=11):
    """`big_model`'s FDNet at a balanced cut: work [32, 32, 24, 16, 20], share 0.516.

    Its large forwards run branch lanes, whatever the mode or grad mode.
    """
    model, x = big_model("fdnet", seed, f=5, n_layers=5)
    assert [b.work for b in model.branches] == [32, 32, 24, 16, 20] and not model._halves
    return model, x


def serial_run(model, x, mode):
    """The plain one-thread branch loop that forward must reproduce, with each branch's
    representation: (prediction, branch outputs, representations)."""
    outputs, reprs = [], []
    for branch, s in zip(model.branches, slice_input(x, model.plan)):
        h = branch.representation(s, mode)
        batch, d, length, variates = h.shape
        outputs.append(branch.head.forward(T.reshape(h, (batch, d * length, variates))))
        reprs.append(h)
    pred = outputs[0]
    for y in outputs[1:]:
        pred = T.add(pred, y)
    return pred, outputs, reprs


def train_grads(model, pred):
    params = model.parameters()
    T.tensor_sum(T.mul(pred, pred)).backward()
    return [p.grad for p in params]


def all_equal(xs, ys):
    return len(xs) == len(ys) and all(np.array_equal(a, b) for a, b in zip(xs, ys))


def all_close(xs, ys):
    """Within the golden fixtures' tolerance: rtol 1e-12, atol 1e-12 times the largest magnitude."""
    return len(xs) == len(ys) and all(
        np.allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max()) for a, b in zip(xs, ys))


def split_serial_step(first, second, x):
    """A train step split by hand: x[:B//2] on `first` and x[B//2:] on `second`.

    Both are copies of the model under test. Each also runs the other half
    without grad, `second` before its half and `first` after, so that both
    draw every dropout mask of the whole batch. Returns the joined
    prediction and each parameter's gradient, the first half's plus the
    second's.
    """
    lead = x.shape[0] // 2
    a, b = Tensor(x.data[:lead]), Tensor(x.data[lead:])
    with T.no_grad():
        serial_run(second, a, "train")
    pred_a, pred_b = serial_run(first, a, "train")[0], serial_run(second, b, "train")[0]
    with T.no_grad():
        serial_run(first, b, "train")
    for p in first.parameters() + second.parameters():
        p.zero_grad()
    grads = [ga + gb for ga, gb in zip(train_grads(first, pred_a), train_grads(second, pred_b))]
    return np.concatenate((pred_a.data, pred_b.data)), grads


def drop_states(model):
    return [rng.bit_generator.state for branch in model.branches
            for block in branch.blocks for rng in block._drop_rngs]


class TestBranchThreads:
    """Large forwards split the branches over two threads, bitwise like the serial loop."""

    def test_default_split_balances_block_work(self):
        fd = build_model("fdnet", 672, 96, 5, 0.5, 5, 8, 1)
        fu = build_model("funet", 672, 96, 5, 0.5, 5, 8, 1)
        assert [b.work for b in fd.branches] == [336, 336, 252, 168, 210]
        assert [b.work for b in fu.branches] == [630, 294, 126, 42, 42]
        assert (fd._cut, fu._cut) == (2, 1)

    def test_single_branch_has_no_split(self):
        model = build_model("fdnet", 64, 8, 1, 0.5, 2, 8, 1)
        assert model._cut == 0

    @pytest.mark.parametrize("variant", ["fdnet", "funet"])
    def test_train_steps_match_serial_loop_bitwise(self, variant):
        # twin models: same parameters and the same dropout streams. FDNet's
        # step runs branch lanes; FUNet's splits its batch, so its gradients
        # are bitwise those of the split done by hand and within the golden
        # tolerance of the whole batch's.
        make = lanes_model if variant == "fdnet" else functools.partial(big_model, variant)
        model, x = make()
        twin, _ = make()
        first, second = make()[0], make()[0]
        for _ in range(2):
            if variant == "funet":  # a sum of halves is bitwise only step by step
                for p in model.parameters() + twin.parameters():
                    p.zero_grad()
            pred, _ = model.forward(x, "train")
            grads = train_grads(model, pred)
            ref_pred, _, _ = serial_run(twin, x, "train")
            ref_grads = train_grads(twin, ref_pred)
            assert np.array_equal(pred.data, ref_pred.data)
            if variant == "fdnet":
                assert all_equal(grads, ref_grads)
            else:
                split_pred, split_grads = split_serial_step(first, second, x)
                assert np.array_equal(pred.data, split_pred)
                assert all_equal(grads, split_grads)
                assert all_close(grads, ref_grads)

    def test_op_hook_sees_the_serial_ops(self):
        # FUNet's train forward runs each op once per batch half, then joins
        # the prediction and each branch's output
        model, x = big_model("funet")
        seen, ref = [], []
        with T.op_hook(lambda out: seen.append(out._op)):
            model.forward(x, "train")
        with T.op_hook(lambda out: ref.append(out._op)):
            serial_run(model, x, "train")
        joins = collections.Counter(concat=1 + len(model.branches))
        assert collections.Counter(seen) == collections.Counter(ref * 2) + joins

    def test_threads_used_match_usable_cpus(self):
        model, x = big_model("fdnet")
        idents, blas = set(), set()
        api = T._openblas()

        def hook(out):
            idents.add(threading.get_ident())
            if api is not None and threading.get_ident() != caller:
                blas.add(api[0]())

        caller = threading.get_ident()

        with T.no_grad(), T.op_hook(hook):
            model.forward(x, "eval")
        if T._usable_cpus() > 1:
            assert len(idents) == 2
            assert api is None or blas == {1}  # held while the helper runs
        else:
            assert idents == {threading.get_ident()}

    def test_no_grad_eval_runs_branch_lanes_bitwise(self):
        model, x = lanes_model()
        idents = set()
        with T.no_grad():
            assert conv_batches(model, x, "eval") == {128}
            with T.op_hook(lambda out: idents.add(threading.get_ident())):
                pred, outputs = model.forward(x, "eval")
            reprs = model.representations(x, "eval")
            ref_pred, ref_outputs, ref_reprs = serial_run(model, x, "eval")
        assert len(idents) == min(2, T._usable_cpus())
        assert np.array_equal(pred.data, ref_pred.data)
        assert all_equal([o.data for o in outputs], [o.data for o in ref_outputs])
        assert all_equal([h.data for h in reprs], [h.data for h in ref_reprs])

    @pytest.mark.parametrize("make", [functools.partial(big_model, "funet"), lanes_model],
                             ids=["halves_plan", "lanes_plan"])
    def test_representations_run_branch_lanes_without_heads_or_joins(self, make):
        # grad mode records each op's node, whose parents hold the leaves it
        # reads, so an op reading a head parameter shows; the walk over
        # branch.representation is the reference
        model, x = make()
        head_params = {id(p) for branch in model.branches for p in branch.head.parameters()}
        seen, head_ops, idents, ref_ops = [], [], set(), []

        def hook(out):
            seen.append(out._op)
            idents.add(threading.get_ident())
            if out._node and any(id(p) in head_params for p in out._node.parents):
                head_ops.append(out._op)

        with T.op_hook(hook):
            reprs = model.representations(x, "eval")
        with T.op_hook(lambda out: ref_ops.append(out._op)):
            ref = [branch.representation(s, "eval")
                   for branch, s in zip(model.branches, slice_input(x, model.plan))]
        assert "concat" not in seen and head_ops == []
        assert collections.Counter(seen) == collections.Counter(ref_ops)
        assert len(idents) == min(2, T._usable_cpus())
        assert all_equal([h.data for h in reprs], [h.data for h in ref])

    def test_one_and_two_cpus_run_branch_lanes_alike(self, monkeypatch):
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(T, "_usable_cpus", lambda: cpus)
            model, x = lanes_model()
            with T.no_grad():
                run = [model.forward(x, "eval")[0].data]
            for _ in range(2):
                pred, _ = model.forward(x, "train")
                run += [pred.data] + [g.copy() for g in train_grads(model, pred)]
            runs.append(run)
        assert all_equal(*runs)

    def test_no_grad_reaches_the_helper(self):
        model, x = big_model("fdnet")
        made = []
        with T.no_grad(), T.op_hook(lambda out: made.append(out._backward)):
            _, outputs = model.forward(x, "train")
        assert made and all(backward is None for backward in made)
        assert not any(y.requires_grad for y in outputs)

    @pytest.mark.parametrize("branch", [0, -1])
    def test_branch_error_keeps_type_and_blas_threads(self, branch):
        # branch 0 runs on the helper thread, the newest on the calling one
        model, x = lanes_model()
        conv = model.branches[branch].blocks[0].conv1
        conv.v.data[...] = 0.0
        api = T._openblas()
        before = api[0]() if api is not None else None
        with pytest.raises(DegenerateWeightError):
            with T.no_grad():
                model.forward(x, "eval")
        if api is not None:
            assert api[0]() == before

    def test_concurrent_forwards_from_user_threads(self):
        # three user threads, more than the cores, share the one helper
        model, x = big_model("funet")
        with T.no_grad():
            expected = model.forward(x, "eval")[0].data
        api = T._openblas()
        before = api[0]() if api is not None else None
        results, start = [None] * 3, threading.Barrier(3)

        def worker(i):
            start.wait(30)
            with T.no_grad():
                results[i] = model.forward(x, "eval")[0].data

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        assert all(r is not None and np.array_equal(r, expected) for r in results)
        if api is not None:
            assert api[0]() == before

    def test_below_gate_runs_on_the_calling_thread(self):
        model, v = tiny_fdnet()
        x = Tensor(np.random.default_rng(3).normal(size=(2, 1, 16, v)))
        idents = set()
        with T.op_hook(lambda out: idents.add(threading.get_ident())):
            model.forward(x, "train")
        assert idents == {threading.get_ident()}

    def test_forked_child_runs_a_large_forward(self):
        model, x = big_model("fdnet")
        with T.no_grad():
            expected = model.forward(x, "eval")[0].data  # starts the helper thread

        def child():
            with T.no_grad():
                pred = model.forward(x, "eval")[0].data
            assert np.array_equal(pred, expected)

        run_in_forked_child(child)

    def test_hook_on_the_helper_runs_a_large_forward(self):
        # the nested forward must not wait on the helper thread it runs on
        model, x = big_model("fdnet")
        with T.no_grad():
            expected = serial_run(model, x, "eval")[0].data

        def child():
            started, nested = [], []

            def hook(out):
                if not started and threading.current_thread().name.startswith("fdnet-branch"):
                    started.append(True)
                    nested.append(model.forward(x, "eval")[0].data)

            with T.no_grad(), T.op_hook(hook):
                pred = model.forward(x, "eval")[0].data
            assert np.array_equal(pred, expected)
            assert len(nested) == (T._usable_cpus() > 1)
            assert all(np.array_equal(y, expected) for y in nested)

        run_in_forked_child(child)


def conv_batches(model, x, mode):
    """Leading dims of one forward's conv outputs: the batch each lane ran."""
    dims = set()

    def hook(out):
        if out._op == "conv2d_time":
            dims.add(out.shape[0])

    with T.op_hook(hook):
        model.forward(x, mode)
    return dims


class TestBatchSplit:
    """A large forward at a lopsided cut runs the serial loop on each batch half."""

    @pytest.mark.parametrize("variant,heads", [("fdnet", 1), ("funet", 1), ("funet", 2)])
    @pytest.mark.parametrize("batch", [4, 5, 33, 128])
    def test_eval_matches_serial_loop_bitwise(self, monkeypatch, variant, heads, batch):
        model, x = big_model(variant, heads=heads)
        x = Tensor(x.data[:batch])
        # gate at this input's size, so that the smaller batches are above it too
        monkeypatch.setattr(M, "PARALLEL_MIN_ELEMENTS",
                            min(M.PARALLEL_MIN_ELEMENTS, x.data.size * model.embed_dim))
        with T.no_grad():
            assert conv_batches(model, x, "eval") == {batch // 2, batch - batch // 2}
            pred, outputs = model.forward(x, "eval")
            reprs = model.representations(x, "eval")
            ref_pred, ref_outputs, ref_reprs = serial_run(model, x, "eval")
        assert np.array_equal(pred.data, ref_pred.data)
        assert all_equal([o.data for o in outputs], [o.data for o in ref_outputs])
        assert all_equal([h.data for h in reprs], [h.data for h in ref_reprs])

    def test_one_and_two_cpus_split_alike(self, monkeypatch):
        # at this shape the halves' head GEMM, B*V = 8 rows instead of 16, takes
        # another OpenBLAS kernel and differs from the whole batch's by ~1e-12;
        # splitting on the input's shape alone keeps the two paths bitwise equal
        model = build_model("funet", 672, 96, 5, 0.5, 5, 32, 1)
        x = Tensor(np.random.default_rng(0).normal(size=(16, 1, 672, 1)))
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(T, "_usable_cpus", lambda: cpus)
            with T.no_grad():
                pred, outputs = model.forward(x, "eval")
            runs.append([pred.data] + [o.data for o in outputs])
        assert all_equal(*runs)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("grad", [True, False])
    def test_every_mode_and_grad_mode_splits_alike(self, mode, grad):
        model, x = big_model("fdnet")
        with contextlib.nullcontext() if grad else T.no_grad():
            assert conv_batches(model, x, mode) == {64}

    @pytest.mark.parametrize("case", ["grad_train", "grad_eval", "no_grad_train",
                                      "eval_batch_3", "below_gate"])
    def test_other_forwards_keep_the_whole_batch(self, monkeypatch, case):
        # the first three at a balanced cut, the last two at a lopsided one
        model, x = lanes_model() if case.startswith(("grad", "no_grad")) else big_model("fdnet")
        if case == "eval_batch_3":
            x = Tensor(x.data[:3])
            monkeypatch.setattr(M, "PARALLEL_MIN_ELEMENTS", x.data.size * model.embed_dim)
        elif case == "below_gate":
            x = Tensor(x.data[:64])
        mode = "train" if case.endswith("train") else "eval"
        with contextlib.nullcontext() if case.startswith("grad") else T.no_grad():
            assert conv_batches(model, x, mode) == {x.shape[0]}


SPLIT_PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)


# A default-config train step (L_in 672, V 7, embed 8, B 16) with batch halves
# against branch lanes, at each plan BENCH_20.json times: (variant, f, alpha,
# n_layers, share of the work on the larger side of the branch cut, whether
# halves were faster in most pairs). None marks the 0.53-0.55 band, where the
# two paths came within a few percent of each other.
SPLIT_TIMINGS = [
    ("fdnet", 2, 0.4, 3, 0.501, False),
    ("fdnet", 5, 0.5, 5, 0.516, False),
    ("fdnet", 3, 0.6, 3, 0.518, False),
    ("fdnet", 4, 0.55, 5, 0.525, False),
    ("fdnet", 5, 0.6, 3, 0.534, None),
    ("fdnet", 4, 0.45, 5, 0.536, None),
    ("fdnet", 4, 0.5, 3, 0.545, None),
    ("fdnet", 3, 0.7, 5, 0.548, None),
    ("fdnet", 2, 0.5, 5, 0.556, True),
    ("fdnet", 3, 0.5, 5, 0.6, True),
    ("fdnet", 4, 0.5, 5, 0.609, True),
    ("funet", 2, 0.5, 5, 0.5, False),
    ("funet", 5, 0.5, 5, 0.556, True),
    ("funet", 4, 0.5, 5, 0.583, True),
    ("fdnet", 1, 0.5, 5, 1.0, True),
    ("funet", 1, 0.5, 5, 1.0, True),
]


class TestTrainBatchSplit:
    """A large train forward at a lopsided cut splits its batch, and keeps the whole batch's
    masks, dropout streams and (within the golden tolerance) gradients."""

    @staticmethod
    def above_gate(monkeypatch, model, x, batch):
        x = Tensor(x.data[:batch])
        monkeypatch.setattr(M, "PARALLEL_MIN_ELEMENTS",
                            min(M.PARALLEL_MIN_ELEMENTS, x.data.size * model.embed_dim))
        return x

    @pytest.mark.parametrize("variant, f, alpha, n_layers, share, halves_won", [
        pytest.param(*row, id="-".join(map(str, row[:4]))) for row in SPLIT_TIMINGS])
    def test_halves_exactly_where_halves_won(self, variant, f, alpha, n_layers, share,
                                             halves_won):
        model = build_model(variant, 672, 96, f, alpha, n_layers, 8, 1)
        work = [b.work for b in model.branches]
        assert round(max(sum(work[:model._cut]), sum(work[model._cut:])) / sum(work), 3) == share
        if halves_won is not None:
            x = Tensor(np.random.default_rng(0).normal(size=(4, 1, 672, 1)))
            with mock.patch.object(M, "PARALLEL_MIN_ELEMENTS", 0):
                assert conv_batches(model, x, "train") == ({2} if halves_won else {4})

    @pytest.mark.parametrize("variant, f", [("funet", 4), ("fdnet", 2)])
    @pytest.mark.parametrize("batch", [5, 33, 128])
    def test_train_matches_serial_loop(self, monkeypatch, batch, variant, f):
        model, x = big_model(variant, f=f)
        twin, _ = big_model(variant, f=f)
        assert model._halves
        x = self.above_gate(monkeypatch, model, x, batch)
        for _ in range(2):
            pred, outputs = model.forward(x, "train")
            ref_pred, ref_outputs, _ = serial_run(twin, x, "train")
            assert pred._op == "concat"
            assert np.array_equal(pred.data, ref_pred.data)
            assert all_equal([o.data for o in outputs], [o.data for o in ref_outputs])
            assert drop_states(model) == drop_states(twin)
            assert all_close(train_grads(model, pred), train_grads(twin, ref_pred))

    @pytest.mark.parametrize("batch", [5, 128])
    def test_one_and_two_cpus_train_alike(self, monkeypatch, batch):
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(T, "_usable_cpus", lambda: cpus)
            model, x = big_model("funet")
            x = self.above_gate(monkeypatch, model, x, batch)
            run = []
            for _ in range(2):
                pred, _ = model.forward(x, "train")
                run += [pred.data] + [g.copy() for g in train_grads(model, pred)]
            runs.append(run)
        assert all_equal(*runs)

    def test_backward_runs_on_two_threads(self):
        model, x = big_model("funet")
        assert len(traced_train_step(model, x)[1]) == min(2, T._usable_cpus())

    def test_input_requiring_grad_keeps_the_whole_batch(self):
        model, x = big_model("funet")
        twin, _ = big_model("funet")
        xa, xb = (Tensor(x.data, requires_grad=True) for _ in range(2))
        assert conv_batches(model, xa, "train") == conv_batches(twin, xb, "train") == {128}
        pred, _ = model.forward(xa, "train")
        ref_pred, _, _ = serial_run(twin, xb, "train")
        assert np.array_equal(pred.data, ref_pred.data)
        assert all_equal(train_grads(model, pred), train_grads(twin, ref_pred))
        assert np.array_equal(xa.grad, xb.grad)

    @pytest.mark.parametrize("batch", [5, 33, 128])
    def test_fdnet_with_an_even_cut_keeps_the_whole_batch(self, monkeypatch, batch):
        model, x = lanes_model()
        twin, _ = lanes_model()
        x = self.above_gate(monkeypatch, model, x, batch)
        assert conv_batches(model, x, "train") == conv_batches(twin, x, "train") == {batch}
        pred, _ = model.forward(x, "train")
        ref_pred, _, _ = serial_run(twin, x, "train")
        assert np.array_equal(pred.data, ref_pred.data)
        assert all_equal(train_grads(model, pred), train_grads(twin, ref_pred))

    def test_forward_wrapped_on_a_branch_instance_stays_with_the_first_half(self):
        # a tracer wraps each branch's forward on the instance; the twin
        # branches must run their own class's forward, not the wrapper
        model, x = big_model("funet")
        twin, _ = big_model("funet")
        calls = []
        for branch in model.branches:
            branch.forward = lambda *args, forward=branch.forward: (calls.append(1),
                                                                   forward(*args))[1]
        for _ in range(2):
            pred, _ = model.forward(x, "train")
            ref_pred, _, _ = serial_run(twin, x, "train")
            assert np.array_equal(pred.data, ref_pred.data)
            assert all_close(train_grads(model, pred), train_grads(twin, ref_pred))
        assert drop_states(model) == drop_states(twin)
        assert len(calls) == 2 * len(model.branches)

    @SPLIT_PROPERTY
    @given(variant=st.sampled_from(["fdnet", "funet"]), batch=st.integers(4, 40),
           l_in=st.integers(24, 64), f=st.integers(1, 4), variates=st.integers(1, 3),
           heads=st.sampled_from([1, 2]), seed=st.integers(0, 2**16))
    def test_any_batch_draws_the_whole_batch_masks(self, variant, batch, l_in, f, variates,
                                                   heads, seed):
        # an off-by-one in the skipped draws would show at odd batches
        model, twin = (build_model(variant, l_in, 4, f, 0.5, 2, 4, seed, heads=heads)
                       for _ in range(2))
        assume(model._halves)
        x = Tensor(np.random.default_rng(seed).normal(size=(batch, 1, l_in, variates)))
        with mock.patch.object(M, "PARALLEL_MIN_ELEMENTS", 0):
            pred, _ = model.forward(x, "train")
        ref_pred, _, _ = serial_run(twin, x, "train")
        assert pred._op == "concat"
        assert drop_states(model) == drop_states(twin)
        assert all_close([pred.data], [ref_pred.data])


def run_in_forked_child(child):
    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(60)
    if proc.exitcode is None:
        proc.kill()
        proc.join()
        pytest.fail("forked child hung in a large forward")
    assert proc.exitcode == 0


def traced_train_step(model, x):
    """Gradients of a train step, and the threads its backward closures ran on."""
    idents = set()

    def hook(out):
        backward = out._backward
        if backward is not None:
            def traced():
                idents.add(threading.get_ident())
                backward()

            out._backward = traced

    with T.op_hook(hook):
        pred, _ = model.forward(x, "train")
    return train_grads(model, pred), idents


class TestBackwardThreads:
    """A large step's backward runs each branch group on its forward thread, bitwise."""

    def test_backward_runs_on_the_forward_threads(self):
        model, x = lanes_model()
        assert len(traced_train_step(model, x)[1]) == min(2, T._usable_cpus())
        tiny, v = tiny_fdnet()
        small = Tensor(np.random.default_rng(3).normal(size=(2, 1, 16, v)))
        assert traced_train_step(tiny, small)[1] == {threading.get_ident()}

    @pytest.mark.parametrize("case", ["input_grad", "tied_leaf"])
    def test_serial_fallback_matches_serial_pass(self, case):
        # a grad-requiring input puts trunk nodes (its slices) under the lanes;
        # a head bias tied between branch 0 (lane 1) and the newest branch
        # (lane 2) is a leaf both lanes accumulate into
        model, x = lanes_model()
        twin, _ = lanes_model()
        if case == "tied_leaf":
            for m in (model, twin):
                m.branches[-1].head.bias = m.branches[0].head.bias
        xa, xb = (Tensor(x.data, requires_grad=case == "input_grad") for _ in range(2))
        grads, idents = traced_train_step(model, xa)
        ref_pred, _, _ = serial_run(twin, xb, "train")
        assert all_equal(grads, train_grads(twin, ref_pred))
        assert idents == {threading.get_ident()}
        if case == "input_grad":
            assert np.array_equal(xa.grad, xb.grad)

    def test_lane_error_keeps_type_and_blas_threads(self):
        model, x = lanes_model()
        twin, _ = lanes_model()
        head = model.branches[0].head  # branch 0 is in lane 1
        forward, failed_on = head.forward, []

        def failing_forward(features):
            out = forward(features)

            def fail():
                failed_on.append(threading.current_thread().name)
                raise NumericError("a lane-1 backward failed")

            out._backward = fail
            return out

        head.forward = failing_forward
        api = T._openblas()
        before = api[0]() if api is not None else None
        pred, _ = model.forward(x, "train")
        with pytest.raises(NumericError, match="lane-1"):
            train_grads(model, pred)
        assert len(failed_on) == 1
        if T._usable_cpus() > 1:
            assert failed_on[0].startswith("fdnet-branch")
        if api is not None:
            assert api[0]() == before
        # a later step still works: same parameters, dropout streams in step
        del head.forward
        for p in model.parameters():
            p.zero_grad()
        serial_run(twin, x, "train")
        pred, _ = model.forward(x, "train")
        ref_pred, _, _ = serial_run(twin, x, "train")
        assert all_equal(train_grads(model, pred), train_grads(twin, ref_pred))

    def test_lane_intermediates_freed_by_backward_without_gc(self):
        model, x = big_model("funet")
        refs = []
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            with T.op_hook(lambda out: refs.append(weakref.ref(out))):
                pred = model.forward(x, "train")[0]
            loss = T.tensor_sum(T.mul(pred, pred))
            del pred
            loss.backward()
            alive = [r for r in refs if r() is not None]
        finally:
            if was_enabled:
                gc.enable()
        assert len(refs) > 100 and alive == []
        with pytest.raises(InvalidArgumentError):
            loss.backward()
