import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from fdnet import tensor as T
from fdnet.errors import (
    InvalidArgumentError,
    InvalidParameterError,
    SequenceTooShortError,
    ShapeError,
)


def rand(shape, seed, scale=1.0):
    return np.random.default_rng(seed).normal(size=shape) * scale


class TestElementwise:
    def test_add_identity(self):
        out = T.add(T.Tensor([1.0, 2.0]), T.Tensor([0.0, 0.0]))
        assert np.array_equal(out.data, [1.0, 2.0])

    def test_add_values(self):
        out = T.add(T.Tensor([1.0, 2.0]), T.Tensor([3.0, 4.0]))
        assert np.array_equal(out.data, [4.0, 6.0])

    def test_add_same_tensor_grad(self):
        # d/dx sum(x + x) = 2
        x = T.Tensor([5.0], requires_grad=True)
        loss = T.tensor_sum(T.add(x, x))
        loss.backward()
        assert np.array_equal(x.grad, [2.0])
        err = T.grad_check(lambda: T.tensor_sum(T.add(x, x)), x)
        assert err < 1e-6

    def test_add_bias_broadcast_grad(self):
        x = T.Tensor(rand((2, 3, 4, 2), 0), requires_grad=True)
        b = T.Tensor(rand((3, 1, 1), 1), requires_grad=True)
        loss = T.tensor_sum(T.mul(T.add(x, b), T.add(x, b)))
        loss.backward()
        assert b.grad.shape == b.shape
        err = T.grad_check(lambda: T.tensor_sum(T.mul(T.add(x, b), T.add(x, b))), [x, b])
        assert err < 1e-6

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.add(T.Tensor([1.0, 2.0]), T.Tensor([1.0, 2.0, 3.0]))
        with pytest.raises(ShapeError):
            T.add(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((3, 3))))

    @pytest.mark.parametrize("seed", range(5))
    def test_sub_mul_div_gradcheck(self, seed):
        a = T.Tensor(rand((3, 4), seed) + 3.0)
        b = T.Tensor(rand((3, 4), seed + 100) + 3.0)
        for fn in (T.sub, T.mul, T.div):
            err = T.grad_check(lambda: T.tensor_sum(T.mul(fn(a, b), fn(a, b))), [a, b])
            assert err < 1e-3, fn.__name__

    def test_neg_gradcheck(self):
        x = T.Tensor(rand((4,), 7))
        err = T.grad_check(lambda: T.tensor_sum(T.mul(T.neg(x), T.neg(x))), x)
        assert err < 1e-6


class TestMatmul:
    def test_identity(self):
        x = rand((2, 5), 3)
        out = T.matmul(T.Tensor(np.eye(2)), T.Tensor(x))
        assert np.array_equal(out.data, x)

    def test_hand_product(self):
        out = T.matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]]))
        assert np.array_equal(out.data, [[11.0]])

    def test_inner_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(T.Tensor(np.zeros((3, 4))), T.Tensor(np.zeros((5, 2))))

    def test_gradcheck_3x4_4x2(self):
        a = T.Tensor(rand((3, 4), 11))
        b = T.Tensor(rand((4, 2), 12))
        err = T.grad_check(lambda: T.tensor_sum(T.mul(T.matmul(a, b), T.matmul(a, b))), [a, b])
        assert err < 1e-6

    def test_batched_gradcheck(self):
        a = T.Tensor(rand((2, 3, 4, 5), 13))
        b = T.Tensor(rand((2, 3, 5, 2), 14))
        w = T.Tensor(rand((2, 6), 15))
        err = T.grad_check(
            lambda: T.tensor_sum(T.matmul(T.matmul(a, b), w)), [a, b, w]
        )
        assert err < 1e-4


class TestConv2dTime:
    def test_shape_same_pad(self):
        x = T.Tensor(rand((2, 8, 96, 7), 0))
        w = T.Tensor(rand((8, 8, 3, 1), 1))
        b = T.Tensor(np.zeros(8))
        assert T.conv2d_time(x, w, b, stride_t=1, pad_t=1).shape == (2, 8, 96, 7)

    def test_shape_strided(self):
        # floor((96 + 2 - 3)/2) + 1 = 48
        x = T.Tensor(rand((2, 8, 96, 7), 0))
        w = T.Tensor(rand((8, 8, 3, 1), 1))
        assert T.conv2d_time(x, w, None, stride_t=2, pad_t=1).shape == (2, 8, 48, 7)

    def test_identity_kernel(self):
        x = T.Tensor(rand((2, 4, 10, 3), 5))
        w = np.zeros((4, 4, 1, 1))
        for c in range(4):
            w[c, c, 0, 0] = 1.0
        out = T.conv2d_time(x, T.Tensor(w), T.Tensor(np.zeros(4)))
        assert np.array_equal(out.data, x.data)

    def test_too_short(self):
        x = T.Tensor(rand((1, 2, 2, 1), 0))
        w = T.Tensor(rand((2, 2, 3, 1), 1))
        with pytest.raises(SequenceTooShortError):
            T.conv2d_time(x, w, None, stride_t=1, pad_t=0)

    def test_variate_isolation_bitwise(self):
        x = rand((2, 3, 10, 4), 21)
        w = T.Tensor(rand((5, 3, 3, 1), 22))
        b = T.Tensor(rand((5,), 23))
        base = T.conv2d_time(T.Tensor(x), w, b, stride_t=1, pad_t=1).data
        zeroed = x.copy()
        zeroed[:, :, :, 1] = 0.0
        out = T.conv2d_time(T.Tensor(zeroed), w, b, stride_t=1, pad_t=1).data
        keep = [v for v in range(4) if v != 1]
        assert np.array_equal(base[:, :, :, keep], out[:, :, :, keep])

    @pytest.mark.parametrize("stride,pad,k", [(1, 1, 3), (2, 1, 3), (1, 0, 1), (2, 0, 1)])
    def test_gradcheck(self, stride, pad, k):
        x = T.Tensor(rand((2, 3, 8, 2), 31))
        w = T.Tensor(rand((4, 3, k, 1), 32))
        b = T.Tensor(rand((4,), 33))

        def f():
            y = T.conv2d_time(x, w, b, stride_t=stride, pad_t=pad)
            return T.tensor_sum(T.mul(y, y))

        assert T.grad_check(f, [x, w, b]) < 1e-3


class TestMaxpoolTime:
    def test_constant_input(self):
        x = T.Tensor(np.full((1, 1, 8, 2), 3.5))
        out = T.maxpool_time(x)
        assert np.all(out.data == 3.5)

    def test_hand_windowing(self):
        # padded [-inf,1,5,2,4,-inf]; windows [-inf,1,5] and [5,2,4] -> [5,5]
        x = T.Tensor(np.array([1.0, 5.0, 2.0, 4.0]).reshape(1, 1, 4, 1))
        out = T.maxpool_time(x, k=3, stride_t=2, pad_t=1)
        assert np.array_equal(out.data.ravel(), [5.0, 5.0])

    def test_grad_routes_to_max(self):
        x = T.Tensor(np.array([1.0, 5.0, 2.0, 4.0]).reshape(1, 1, 4, 1), requires_grad=True)
        out = T.tensor_sum(T.maxpool_time(x, k=3, stride_t=2, pad_t=1))
        out.backward()
        # 5 is the max of both windows: receives both units of gradient
        assert np.array_equal(x.grad.ravel(), [0.0, 2.0, 0.0, 0.0])

    def test_tie_breaks_first(self):
        x = T.Tensor(np.array([2.0, 7.0, 7.0]).reshape(1, 1, 3, 1), requires_grad=True)
        out = T.tensor_sum(T.slice_time(T.maxpool_time(x, k=3, stride_t=2, pad_t=1), 0, 1))
        out.backward()
        assert np.array_equal(x.grad.ravel(), [0.0, 1.0, 0.0])

    def test_too_short(self):
        x = T.Tensor(rand((1, 2, 1, 1), 0))
        with pytest.raises(SequenceTooShortError):
            T.maxpool_time(x, k=3, stride_t=2, pad_t=0)

    def test_gradcheck_no_ties(self):
        # well-separated values keep finite differences away from kinks
        rng = np.random.default_rng(44)
        vals = rng.permutation(np.arange(2 * 2 * 9 * 2, dtype=float)).reshape(2, 2, 9, 2)
        x = T.Tensor(vals)

        def f():
            y = T.maxpool_time(x, k=3, stride_t=2, pad_t=1)
            return T.tensor_sum(T.mul(y, y))

        assert T.grad_check(f, x) < 1e-3


class TestGelu:
    def test_zero(self):
        assert T.gelu(T.Tensor(0.0)).item() == 0.0

    def test_value_at_3(self):
        # 0.5 * 3 * (1 + erf(3/sqrt(2)))
        assert T.gelu(T.Tensor(3.0)).item() == pytest.approx(2.99595030590511, abs=1e-12)

    def test_deep_tail(self):
        assert abs(T.gelu(T.Tensor(-20.0)).item()) < 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_gradcheck(self, seed):
        x = T.Tensor(rand((5, 4), seed))
        err = T.grad_check(lambda: T.tensor_sum(T.gelu(x)), x)
        assert err < 1e-4


class TestDropout:
    def test_p_zero_identity(self):
        x = T.Tensor(rand((3, 3), 0))
        out = T.dropout(x, 0.0, "train", np.random.default_rng(0))
        assert np.array_equal(out.data, x.data)

    def test_eval_identity(self):
        # eval mode, and p == 0 in train mode: the input array itself, still
        # recorded as a dropout node
        for p, mode in ((0.9, "eval"), (0.0, "train")):
            x = T.Tensor(rand((3, 3), 0), requires_grad=True)
            before = x.data.copy()
            out = T.dropout(x, p, mode, np.random.default_rng(0))
            assert out.data is x.data
            assert np.array_equal(out.data, before)
            assert out._op == "dropout" and out._parents == (x,)

    def test_inverted_scaling_mean(self):
        x = T.Tensor(np.ones(100_000))
        out = T.dropout(x, 0.1, "train", np.random.default_rng(123))
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_p_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            T.dropout(T.Tensor([1.0]), 1.0, "train", np.random.default_rng(0))

    def test_gradcheck_fixed_mask(self):
        x = T.Tensor(rand((4, 4), 9))

        def f():
            # reseeding per call keeps the mask fixed for finite differences
            return T.tensor_sum(T.dropout(x, 0.3, "train", np.random.default_rng(77)))

        assert T.grad_check(f, x) < 1e-6


class TestSoftmax:
    def test_uniform_row(self):
        out = T.softmax_lastdim(T.Tensor([2.0, 2.0, 2.0, 2.0]))
        assert np.allclose(out.data, 0.25, atol=1e-15)

    def test_hand_values(self):
        out = T.softmax_lastdim(T.Tensor([0.0, math.log(3.0)]))
        assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_sum_to_one(self, seed):
        x = T.Tensor(rand((6, 9), seed, scale=30.0))
        out = T.softmax_lastdim(x)
        assert np.all(np.abs(out.data.sum(axis=-1) - 1.0) < 1e-12)

    def test_gradcheck(self):
        x = T.Tensor(rand((3, 5), 17))
        w = T.Tensor(rand((3, 5), 18))

        def f():
            return T.tensor_sum(T.mul(T.softmax_lastdim(x), w))

        assert T.grad_check(f, x) < 1e-4


def _unfused_attention(q, k, v, scale):
    scores = T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), scale)
    return T.matmul(T.softmax_lastdim(scores), v)


class TestAttentionTime:
    @pytest.mark.parametrize("heads", [1, 2])
    def test_bitwise_equal_to_unfused_chain(self, heads):
        # (N, L, h, dh) leaves viewed as (N, h, L, dh), the layout attention
        # uses. With 512 KiB blocks, (3, 7) is one block, L = 600 puts one
        # sequence in each block, and L = 128 puts four in each, so 5 or 10
        # sequences end in a partial block.
        dh = 4
        for n, length in ((3, 7), (2, 600), (5, 128)):
            data = [rand((n, length, heads, dh), seed, scale=2.0) for seed in (70, 71, 72)]
            weight = rand((n, heads, length, dh), 73)
            results = []
            for op in (T.attention_time, _unfused_attention):
                leaves = [T.Tensor(d, requires_grad=True) for d in data]
                q, k, v = (T.transpose(t, (0, 2, 1, 3)) for t in leaves)
                out = op(q, k, v, 1.0 / math.sqrt(dh))
                with T.no_grad():
                    assert np.array_equal(op(q, k, v, 1.0 / math.sqrt(dh)).data, out.data)
                T.tensor_sum(T.mul(out, weight)).backward()
                results.append([out.data] + [t.grad for t in leaves])
            for fused, unfused in zip(*results):
                assert np.array_equal(fused, unfused), (n, length)

    def test_no_grad_allocates_one_block(self):
        n, length, d = 8, 512, 8
        q, k, v = (T.Tensor(rand((n, 1, length, d), seed), requires_grad=True)
                   for seed in (74, 75, 76))
        tracemalloc.start()
        try:
            with T.no_grad():
                out = T.attention_time(q, k, v, 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        whole = n * length * length * 8  # one (n, L, L) float64 buffer, 16.8 MB
        assert peak < whole / 4
        assert np.array_equal(out.data, T.attention_time(q, k, v, 0.25).data)

    def test_empty_sequence_rejected(self):
        q = T.Tensor(np.zeros((2, 0, 3)))
        with pytest.raises(ShapeError):
            T.attention_time(q, q, q, 1.0)

    def test_shape_mismatch(self):
        q = T.Tensor(rand((1, 1, 4, 2), 77))
        with pytest.raises(ShapeError):
            T.attention_time(q, q, T.Tensor(rand((1, 1, 4, 3), 78)), 1.0)


class TestShapeOps:
    def test_reshape_roundtrip_grad(self):
        x = T.Tensor(rand((2, 3, 4), 0))
        err = T.grad_check(
            lambda: T.tensor_sum(T.mul(T.reshape(x, (6, 4)), T.reshape(x, (6, 4)))), x
        )
        assert err < 1e-6

    def test_reshape_bad_size(self):
        with pytest.raises(ShapeError):
            T.reshape(T.Tensor(np.zeros((2, 3))), (7,))

    def test_transpose_grad(self):
        x = T.Tensor(rand((2, 3, 4, 5), 1))
        w = T.Tensor(rand((5, 4, 3, 2), 2))

        def f():
            return T.tensor_sum(T.mul(T.transpose(x, (3, 2, 1, 0)), w))

        assert T.grad_check(f, x) < 1e-6

    def test_slice_time_grad(self):
        x = T.Tensor(rand((2, 3, 8, 2), 3))

        def f():
            y = T.slice_time(x, 2, 6)
            return T.tensor_sum(T.mul(y, y))

        assert T.grad_check(f, x) < 1e-6

    def test_sum_axis_keepdims_grad(self):
        x = T.Tensor(rand((3, 4, 5), 4))

        def f():
            s = T.tensor_sum(x, axis=(1,), keepdims=True)
            return T.tensor_sum(T.mul(s, s))

        assert T.grad_check(f, x) < 1e-5

    def test_sqrt_grad(self):
        x = T.Tensor(np.abs(rand((4, 4), 5)) + 1.0)
        assert T.grad_check(lambda: T.tensor_sum(T.sqrt(x)), x) < 1e-5


class TestBackward:
    def test_x_squared(self):
        x = T.Tensor(3.0, requires_grad=True)
        loss = T.mul(x, x)
        loss.backward()
        assert x.grad == pytest.approx(6.0)

    def test_gelu_sum_matches_fd(self):
        x = T.Tensor(rand((7,), 31))
        assert T.grad_check(lambda: T.tensor_sum(T.gelu(x)), x, h=1e-5) < 1e-4

    def test_off_path_param_zero_grad(self):
        x = T.Tensor([2.0], requires_grad=True)
        unused = T.Tensor([4.0], requires_grad=True)
        loss = T.tensor_sum(T.mul(x, x))
        grads = T.gradients(loss, [x, unused])
        assert np.array_equal(grads[1], [0.0])
        assert np.array_equal(grads[0], [4.0])

    def test_non_scalar_loss_rejected(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(InvalidArgumentError):
            T.mul(x, x).backward()

    def test_forward_determinism(self):
        x = rand((2, 3, 12, 4), 55)
        w = rand((5, 3, 3, 1), 56)
        a = T.conv2d_time(T.Tensor(x), T.Tensor(w), None, 2, 1).data
        b = T.conv2d_time(T.Tensor(x), T.Tensor(w), None, 2, 1).data
        assert np.array_equal(a, b)


class TestGraphRelease:
    def test_intermediate_freed_by_backward_without_gc(self):
        x = T.Tensor(rand((4, 5), 60), requires_grad=True)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            h = T.gelu(T.mul(x, x))
            loss = T.tensor_sum(T.mul(h, h))
            ref = weakref.ref(h)
            del h
            assert ref() is not None
            loss.backward()
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()
        assert x.grad is not None and loss.grad is None

    def test_second_backward_rejected(self):
        x = T.Tensor([2.0], requires_grad=True)
        loss = T.tensor_sum(T.mul(x, x))
        loss.backward()
        with pytest.raises(InvalidArgumentError):
            loss.backward()
        assert np.array_equal(x.grad, [4.0])

    def test_new_loss_over_released_subgraph_rejected(self):
        x = T.Tensor([2.0], requires_grad=True)
        h = T.mul(x, x)
        T.tensor_sum(h).backward()
        with pytest.raises(InvalidArgumentError):
            T.tensor_sum(T.mul(h, 3.0)).backward()


class TestGradCheckHarness:
    def test_linear_is_exact(self):
        x = T.Tensor(rand((4,), 61))
        w = T.Tensor(rand((4,), 62))
        err = T.grad_check(lambda: T.tensor_sum(T.mul(x, w.detach())), x)
        assert err < 1e-10

    def test_composition_conv_gelu_sum(self):
        x = T.Tensor(rand((1, 2, 8, 2), 63))
        w = T.Tensor(rand((3, 2, 3, 1), 64))
        b = T.Tensor(rand((3,), 65))

        def f():
            return T.tensor_sum(T.gelu(T.conv2d_time(x, w, b, stride_t=1, pad_t=1)))

        assert T.grad_check(f, [x, w, b]) < 1e-4

    def test_nonfinite_detected(self):
        x = T.Tensor([1.0])
        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(Exception):
            T.grad_check(lambda: T.tensor_sum(T.div(x, T.Tensor([0.0]))), x)


@pytest.mark.parametrize("seed", range(20))
def test_all_ops_finite_difference_sweep(seed):
    """Cross-op sweep: every differentiable op within 1e-3 of central differences.

    Ops are grouped into separately-checked composites of comparable scale:
    a single summed loss would let one branch's magnitude drown another's
    small gradient coordinates in finite-difference rounding noise.
    """
    x = T.Tensor(rand((2, 3, 8, 2), seed))
    w = T.Tensor(rand((4, 3, 3, 1), seed + 1000))
    b = T.Tensor(rand((4,), seed + 2000))

    def conv_chain():
        y = T.conv2d_time(x, w, b, stride_t=1, pad_t=1)
        y = T.gelu(y)
        y = T.slice_time(y, 0, 3)
        return T.tensor_sum(T.mul(y, y))

    assert T.grad_check(conv_chain, [x, w, b]) < 1e-3

    # maxpool checked on tie-free inputs: finite differences are only a valid
    # oracle away from argmax kinks, so enforce margins far above h
    pool_vals = np.random.default_rng(seed + 500).permutation(
        np.arange(2 * 2 * 9 * 2, dtype=float)
    ).reshape(2, 2, 9, 2)
    px = T.Tensor(pool_vals * 0.25)

    def pool_chain():
        y = T.maxpool_time(px, 3, 2, 1)
        return T.tensor_sum(T.mul(y, y))

    assert T.grad_check(pool_chain, px) < 1e-3

    m = T.Tensor(rand((3, 5), seed + 3000))
    n = T.Tensor(rand((5, 2), seed + 4000))

    def attention_chain():
        s = T.softmax_lastdim(T.matmul(m, n))
        return T.tensor_sum(T.sqrt(T.add(T.mul(s, s), 1.0)))

    assert T.grad_check(attention_chain, [m, n]) < 1e-3

    a = T.Tensor(rand((3, 4), seed + 5000) + 3.0)
    c = T.Tensor(rand((3, 4), seed + 6000) + 3.0)

    def elementwise_chain():
        y = T.div(T.mul(T.sub(a, c), T.neg(a)), T.add(c, 1.0))
        y = T.transpose(T.reshape(y, (2, 6)), (1, 0))
        y = T.dropout(y, 0.2, "train", np.random.default_rng(seed))
        return T.tensor_sum(T.tensor_sum(y, axis=0, keepdims=True))

    assert T.grad_check(elementwise_chain, [a, c]) < 1e-3
