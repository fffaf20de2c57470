import gc
import itertools
import math
import multiprocessing
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

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
        assert T.conv2d_time(x, w, b).shape == (2, 8, 96, 7)

    def test_shape_strided(self):
        # ceil(96 / 2) = 48
        x = T.Tensor(rand((2, 8, 96, 7), 0))
        w = T.Tensor(rand((8, 8, 3, 1), 1))
        assert T.conv2d_time(x, w, None, stride_t=2).shape == (2, 8, 48, 7)

    def test_identity_kernel(self):
        x = T.Tensor(rand((2, 4, 10, 3), 5))
        w = np.zeros((4, 4, 1, 1))
        for c in range(4):
            w[c, c, 0, 0] = 1.0
        out = T.conv2d_time(x, T.Tensor(w), T.Tensor(np.zeros(4)))
        assert np.array_equal(out.data, x.data)

    def test_too_short(self):
        # padding k // 2 leaves an output step for every L >= 1, so only L = 0 is too short
        x = T.Tensor(np.zeros((1, 2, 0, 1)))
        w = T.Tensor(rand((2, 2, 3, 1), 1))
        with pytest.raises(SequenceTooShortError):
            T.conv2d_time(x, w)

    @pytest.mark.parametrize("shape", [(2, 2, 3), (2, 2, 3, 2)])
    def test_weight_of_another_shape_names_the_layout(self, shape):
        x = T.Tensor(rand((1, 2, 6, 1), 0))
        with pytest.raises(ShapeError, match=r"\(Cout, Cin, k, 1\)"):
            T.conv2d_time(x, T.Tensor(np.ones(shape)))

    def test_variate_isolation_bitwise(self):
        x = rand((2, 3, 10, 4), 21)
        w = T.Tensor(rand((5, 3, 3, 1), 22))
        b = T.Tensor(rand((5,), 23))
        base = T.conv2d_time(T.Tensor(x), w, b).data
        zeroed = x.copy()
        zeroed[:, :, :, 1] = 0.0
        out = T.conv2d_time(T.Tensor(zeroed), w, b).data
        keep = [v for v in range(4) if v != 1]
        assert np.array_equal(base[:, :, :, keep], out[:, :, :, keep])

    @pytest.mark.parametrize("stride,pad,k", [(1, 1, 3), (2, 1, 3), (1, 0, 1), (2, 0, 1)])
    def test_gradcheck(self, stride, pad, k):
        # pad is what the op pads each side: k // 2
        x = T.Tensor(rand((2, 3, 8, 2), 31))
        w = T.Tensor(rand((4, 3, k, 1), 32))
        b = T.Tensor(rand((4,), 33))
        assert T.conv2d_time(x, w, b, stride).shape[2] == (8 + 2 * pad - k) // stride + 1

        def f():
            y = T.conv2d_time(x, w, b, stride_t=stride)
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
        out = T.maxpool_time(x)
        assert np.array_equal(out.data.ravel(), [5.0, 5.0])

    def test_grad_routes_to_max(self):
        x = T.Tensor(np.array([1.0, 5.0, 2.0, 4.0]).reshape(1, 1, 4, 1), requires_grad=True)
        out = T.tensor_sum(T.maxpool_time(x))
        out.backward()
        # 5 is the max of both windows: receives both units of gradient
        assert np.array_equal(x.grad.ravel(), [0.0, 2.0, 0.0, 0.0])

    def test_tie_breaks_first(self):
        x = T.Tensor(np.array([2.0, 7.0, 7.0]).reshape(1, 1, 3, 1), requires_grad=True)
        out = T.tensor_sum(T.slice_time(T.maxpool_time(x), 0, 1))
        out.backward()
        assert np.array_equal(x.grad.ravel(), [0.0, 1.0, 0.0])

    def test_too_short(self):
        # one -inf step each side leaves an output step for every L >= 1
        x = T.Tensor(np.zeros((1, 2, 0, 1)))
        with pytest.raises(SequenceTooShortError):
            T.maxpool_time(x)

    def test_gradcheck_no_ties(self):
        # well-separated values keep finite differences away from kinks
        rng = np.random.default_rng(44)
        vals = rng.permutation(np.arange(2 * 2 * 9 * 2, dtype=float)).reshape(2, 2, 9, 2)
        x = T.Tensor(vals)

        def f():
            y = T.maxpool_time(x)
            return T.tensor_sum(T.mul(y, y))

        assert T.grad_check(f, x) < 1e-3


def _accumulated(g):
    # a leaf's first .grad has the bits of zeros plus the op's gradient (Tensor._accumulate)
    out = np.zeros(g.shape)
    out += g
    return out


# the six memory layouts of an array that the first-gradient tests try
_LAYOUTS = {"c": np.ascontiguousarray, "fortran": np.asfortranarray,
            "transposed": lambda a: a.transpose(*range(1, a.ndim), 0),
            "strided": lambda a: a[::2, ::2],
            "reversed": lambda a: a[:, ::-1].T,
            "broadcast": lambda a: np.broadcast_to(a[:1], a.shape)}


def _reference_conv(x, w, b, stride, pad, gy):
    """np.pad + sliding_window_view conv with conv2d_time's products, one
    window at a time: (y, gx, gw, gb) as leaf grads."""
    batch, cin, length, variates = x.shape
    cout, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (0, 0))) if pad else x
    windows = sliding_window_view(xp, k, axis=2)[:, :, ::stride, :, :]
    out_len = windows.shape[2]
    # columns (B, Cin*k, L'*V): row c*k + i is tap i's (L', V) plane of channel c
    cols = np.ascontiguousarray(windows.transpose(0, 1, 4, 2, 3)).reshape(batch, cin * k, -1)
    w2d = w.reshape(cout, cin * k)
    gy3 = gy.reshape(batch, cout, -1)
    y = np.stack([w2d @ c for c in cols]).reshape(batch, cout, out_len, variates)
    if b is not None:
        y = y + b.reshape(1, cout, 1, 1)
    gw = np.stack([g @ c.T for g, c in zip(gy3, cols)]).sum(axis=0).reshape(w.shape)
    gb = gy.sum(axis=(0, 2, 3)) if b is not None else None
    gxp = np.zeros((batch, cin, length + 2 * pad, variates))
    for i in range(k):
        tap_t = np.ascontiguousarray(w[:, :, i, 0].T)
        contrib = np.stack([tap_t @ g for g in gy3]).reshape(batch, cin, out_len, variates)
        gxp[:, :, i : i + stride * out_len : stride, :] += contrib
    gx = gxp[:, :, pad : pad + length, :]
    return y, _accumulated(gx), _accumulated(gw), None if gb is None else _accumulated(gb)


def _rows_conv(x, w, b, stride, pad, gy):
    """The earlier rows @ W^T conv, one GEMM over every (b, t, v) row, and
    its einsum input gradient: (y, gx, gw, gb) as leaf grads."""
    batch, cin, length, variates = x.shape
    cout, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (0, 0))) if pad else x
    windows = sliding_window_view(xp, k, axis=2)[:, :, ::stride, :, :]
    out_len = windows.shape[2]
    rows = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4))
    rows2d = rows.reshape(batch * out_len * variates, cin * k)
    y = (rows2d @ w.reshape(cout, cin * k).T).reshape(batch, out_len, variates, cout)
    y = y.transpose(0, 3, 1, 2)
    if b is not None:
        y = y + b.reshape(1, cout, 1, 1)
    gy_rows = np.ascontiguousarray(gy.transpose(0, 2, 3, 1)).reshape(-1, cout)
    gw = (gy_rows.T @ rows2d).reshape(cout, cin, k, 1)
    gb = gy.sum(axis=(0, 2, 3)) if b is not None else None
    gxp = np.zeros((batch, cin, length + 2 * pad, variates))
    for i in range(k):
        contrib = np.einsum("botv,oc->bctv", gy, w[:, :, i, 0], optimize=True)
        gxp[:, :, i : i + stride * out_len : stride, :] += contrib
    gx = gxp[:, :, pad : pad + length, :]
    return y, _accumulated(gx), _accumulated(gw), None if gb is None else _accumulated(gb)


def _reference_maxpool(x, gy):
    """np.pad + sliding_window_view kernel-3, stride-2, pad-1 maxpool with
    full index arrays: (y, gx)."""
    batch, channels, length, variates = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (0, 0)), constant_values=-np.inf)
    windows = sliding_window_view(xp, 3, axis=2)[:, :, ::2, :, :]
    argmax = windows.argmax(axis=-1)
    y = np.take_along_axis(windows, argmax[..., np.newaxis], axis=-1)[..., 0]
    gxp = np.zeros((batch, channels, length + 2, variates))
    b_idx, c_idx, t_idx, v_idx = np.indices(y.shape, sparse=False)
    np.add.at(gxp, (b_idx, c_idx, t_idx * 2 + argmax, v_idx), gy)
    return y, _accumulated(gxp[:, :, 1 : length + 1, :])


def _layout(rng, shape, transposed, values):
    # a C-contiguous array, or a (B, C, L, V) view of a (B, L, V, C) array
    if not transposed:
        return values(rng, shape)
    b, c, length, v = shape
    return values(rng, (b, length, v, c)).transpose(0, 3, 1, 2)


def _normal(rng, shape):
    return rng.normal(size=shape)


def _tied(rng, shape):
    # few distinct values, -0.0 among them, so windows tie often
    return rng.choice(np.array([-1.5, -0.0, 0.0, 0.5, 2.0]), size=shape)


def _upstream(rng, shape):
    g = rng.normal(size=shape)
    g[rng.random(shape) < 0.3] = -0.0
    return g


def _bits_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


ORACLE = settings(derandomize=True, deadline=None, database=None, max_examples=150)


class TestConvPoolOracle:
    """conv2d_time and maxpool_time match the np.pad + sliding_window_view
    reference formulations above bit for bit, and conv2d_time stays within
    1e-14 of the earlier rows @ W^T formulation's largest magnitude."""

    def _check_conv(self, rng, shape, cout, k, stride, with_bias, transposed):
        pad = k // 2
        x = T.Tensor(_layout(rng, shape, transposed, _normal), requires_grad=True)
        w = T.Tensor(rng.normal(size=(cout, shape[1], k, 1)), requires_grad=True)
        b = T.Tensor(rng.normal(size=cout), requires_grad=True) if with_bias else None
        y = T.conv2d_time(x, w, b, stride_t=stride)
        gy = _upstream(rng, y.shape)
        y.grad = gy.copy()
        y._backward()
        bias = None if b is None else b.data
        ry, rgx, rgw, rgb = _reference_conv(x.data, w.data, bias, stride, pad, gy)
        assert _bits_equal(y.data, ry)
        assert _bits_equal(x.grad, rgx)
        assert _bits_equal(w.grad, rgw)
        if with_bias:
            assert _bits_equal(b.grad, rgb)
        with T.no_grad():
            assert _bits_equal(T.conv2d_time(x, w, b, stride_t=stride).data, ry)
        # the rows @ W^T products sum in another order: same values to rounding
        for got, want in zip((y.data, x.grad, w.grad),
                             _rows_conv(x.data, w.data, bias, stride, pad, gy)):
            assert np.allclose(got, want, rtol=0.0, atol=1e-14 * np.abs(want).max())

    def _check_pool(self, rng, shape, transposed, values=_tied):
        x = T.Tensor(_layout(rng, shape, transposed, values), requires_grad=True)
        y = T.maxpool_time(x)
        gy = _upstream(rng, y.shape)
        y.grad = gy.copy()
        y._backward()
        ry, rgx = _reference_maxpool(x.data, gy)
        assert _bits_equal(y.data, ry)
        assert _bits_equal(x.grad, rgx)
        with T.no_grad():
            assert _bits_equal(T.maxpool_time(x).data, ry)

    @ORACLE
    @given(batch=st.integers(1, 3), cin=st.integers(1, 4), cout=st.integers(1, 8),
           variates=st.integers(1, 3), k=st.sampled_from([1, 3]),
           stride=st.sampled_from([1, 2]), length=st.integers(1, 12),
           with_bias=st.booleans(), transposed=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_conv(self, batch, cin, cout, variates, k, stride, length, with_bias,
                  transposed, seed):
        self._check_conv(np.random.default_rng(seed), (batch, cin, length, variates), cout,
                         k, stride, with_bias, transposed)

    @ORACLE
    @given(batch=st.integers(1, 3), channels=st.integers(1, 4), variates=st.integers(1, 3),
           length=st.integers(1, 12), transposed=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_maxpool(self, batch, channels, variates, length, transposed, seed):
        self._check_pool(np.random.default_rng(seed), (batch, channels, length, variates),
                         transposed)

    @pytest.mark.parametrize("frozen", ["weight", "input"])
    def test_gradient_through_a_frozen_operand(self, frozen):
        # one window's columns fill a chunk, so there are three chunks
        rng = np.random.default_rng(77)
        x = T.Tensor(rng.normal(size=(3, 8, 700, 2)), requires_grad=frozen != "input")
        w = T.Tensor(rng.normal(size=(4, 8, 3, 1)), requires_grad=frozen != "weight")
        y = T.conv2d_time(x, w)
        gy = _upstream(rng, y.shape)
        y.grad = gy.copy()
        y._backward()
        ry, rgx, rgw, _ = _reference_conv(x.data, w.data, None, 1, 1, gy)
        assert _bits_equal(y.data, ry)
        fixed, trained, want = (w, x, rgx) if frozen == "weight" else (x, w, rgw)
        assert fixed.grad is None
        assert _bits_equal(trained.grad, want)

    def test_grad_mode_forward_keeps_no_columns(self):
        # FDNet's body conv at B 16: a batch's columns would be 6.9 MiB
        rng = np.random.default_rng(78)
        x, w, b = (T.Tensor(rng.normal(size=shape), requires_grad=True)
                   for shape in ((16, 8, 336, 7), (8, 8, 3, 1), (8,)))
        tracemalloc.start()
        try:
            with T.no_grad():
                T.conv2d_time(x, w, b)
            no_grad_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            y = T.conv2d_time(x, w, b)
            after, grad_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grad_peak <= no_grad_peak + 8 * 1024
        assert after - before - y.data.nbytes < 8 * 1024

    @pytest.mark.parametrize("length", [1, 2, 11, 12])
    def test_maxpool_nan_and_inf(self, length):
        # argmax picks the first NaN of a window, and -inf or inf like numbers
        values = np.array([-np.inf, np.inf, np.nan, -1.5, -0.0, 0.0, 2.0])
        rng = np.random.default_rng(length)
        self._check_pool(rng, (2, 3, length, 2), False,
                         values=lambda rng, shape: rng.choice(values, size=shape))

    @pytest.mark.parametrize("cin,cout", [(1, 8), (3, 8), (4, 2), (1, 1)])
    @pytest.mark.parametrize("length,stride", [(1, 1), (2, 2)])
    def test_one_output_column(self, cin, cout, length, stride):
        # B = V = L' = 1: the input gradient is a matrix-vector product
        rng = np.random.default_rng(cin * 100 + cout * 10 + length)
        for transposed in (False, True):
            self._check_conv(rng, (1, cin, length, 1), cout, 3, stride, True, transposed)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_default_size(self, stride):
        # every conv and maxpool call shape of the default FDNet and FUNet
        # configs: batches of 16 and 32 at each focal length (and FUNet's
        # L = 21 after two halvings), the body's 3x1 (stride 1) and
        # conv_down (stride 2), 1x1 convs and the Cin = 1 value embedding
        rng = np.random.default_rng(1010)
        for batch, length in itertools.product((16, 32), (336, 168, 84, 42, 21)):
            shape = (batch, 8, length, 7)
            self._check_conv(rng, shape, 8, 3, stride, True, False)
            self._check_conv(rng, shape, 8, 1, stride, True, True)
            self._check_conv(rng, (batch, 1, length, 7), 8, 1, stride, True, False)
            if stride == 2:  # the pool only halves
                self._check_pool(rng, shape, False)


def _chain_weight_norm(v, g):
    """The six-node weight norm: mul(div(v, sqrt(sum(v * v))), reshape(g))."""
    norms_sq = T.tensor_sum(T.mul(v, v), axis=tuple(range(1, v.data.ndim)), keepdims=True)
    unit = T.div(v, T.sqrt(norms_sq))
    return T.mul(unit, T.reshape(g, v.shape[:1] + (1,) * (v.data.ndim - 1)))


def _reference_gelu(x, gy):
    """Out-of-place exact-erf GELU: (y, gx as a leaf grad)."""
    cdf = 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))
    pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
    return x * cdf, _accumulated(gy * (cdf + x * pdf))


def _reference_dropout(x, p, rng, gy):
    """Out-of-place inverted dropout mask: (y, gx as a leaf grad)."""
    mask = (rng.random(x.shape) >= p) * (1.0 / (1.0 - p))
    return x * mask, _accumulated(gy * mask)


def _signed_zeros(rng, shape):
    # normal values with exact 0.0 and -0.0 among them
    g = rng.normal(size=shape)
    u = rng.random(shape)
    g[u < 0.2] = 0.0
    g[u > 0.8] = -0.0
    return g


def _with_extremes(rng, shape):
    # _signed_zeros with finite values near +-1.7e308 (their products with
    # dropout's scale overflow), infinities and NaN among them
    a = _signed_zeros(rng, shape)
    u = rng.random(shape)
    big = rng.choice([-1.0, 1.0], size=shape) * rng.uniform(1.0e308, 1.79e308, size=shape)
    special = rng.choice([np.inf, -np.inf, np.nan], size=shape)
    return np.where(u < 0.3, big, np.where(u > 0.9, special, a))


def _backprop_from(out, grad):
    # run backward from a non-scalar node with an exact upstream gradient
    out.grad = grad.copy()
    T._backprop(T._toposort(out._node))


class TestFusedOpOracle:
    """weight_norm matches the six-node chain it replaces, and gelu and
    dropout the out-of-place formulas, bit for bit: outputs and gradients."""

    @ORACLE
    @given(cout=st.integers(1, 8), cin=st.integers(1, 8), k=st.sampled_from([1, 3]),
           needs=st.sampled_from(["both", "v", "g"]), zero_rows=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_weight_norm(self, cout, cin, k, needs, zero_rows, seed):
        rng = np.random.default_rng(seed)
        v0 = _signed_zeros(rng, (cout, cin, k, 1))
        v0[:, 0, 0, 0] = rng.uniform(0.5, 2.0, size=cout)  # no zero-norm channel
        g0 = _signed_zeros(rng, (cout,))
        gy = _signed_zeros(rng, v0.shape)
        if zero_rows:  # a channel whose upstream gradient is only signed zeros
            gy[0] = np.where(rng.random(gy[0].shape) < 0.5, 0.0, -0.0)
        leaves = []
        for build in (T.weight_norm, _chain_weight_norm):
            v = T.Tensor(v0.copy(), requires_grad=needs in ("both", "v"))
            g = T.Tensor(g0.copy(), requires_grad=needs in ("both", "g"))
            w = build(v, g)
            _backprop_from(w, gy)
            leaves.append((w.data, v.grad, g.grad))
        (w, gv, gg), (rw, rgv, rgg) = leaves
        assert _bits_equal(w, rw)
        for got, want in ((gv, rgv), (gg, rgg)):
            assert (got is None) == (want is None)
            assert got is None or _bits_equal(got, want)

    def test_weight_norm_in_a_model_graph(self):
        # two convs share one input, so pop order interleaves their chains
        rng = np.random.default_rng(2024)
        x0, gy = rng.normal(size=(2, 3, 7, 2)), _signed_zeros(rng, (2, 4, 7, 2))
        params = [rng.normal(size=s) for s in ((4, 3, 3, 1), (4,), (4, 3, 1, 1), (4,))]
        grads = []
        for build in (T.weight_norm, _chain_weight_norm):
            x = T.Tensor(x0, requires_grad=True)
            v3, g3, v1, g1 = (T.Tensor(p.copy(), requires_grad=True) for p in params)
            y = T.add(T.conv2d_time(x, build(v3, g3), None),
                      T.conv2d_time(x, build(v1, g1), None))
            _backprop_from(y, gy)
            grads.append([t.grad for t in (x, v3, g3, v1, g1)])
        assert all(_bits_equal(a, b) for a, b in zip(*grads))

    def test_weight_norm_rejects_g_of_another_shape(self):
        with pytest.raises(ShapeError):
            T.weight_norm(T.Tensor(np.ones((2, 3, 1, 1))), T.Tensor(np.ones(3)))

    @ORACLE
    @given(shape=st.sampled_from([(), (1,), (7,), (3, 4), (2, 3, 5)]),
           scale=st.sampled_from([1.0, 8.0, 40.0]), extremes=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_gelu(self, shape, scale, extremes, seed):
        # extremes: gelu takes erf of |x| and puts x's sign back, so zeros'
        # and NaN's signs and the largest magnitudes must round as erf(x)
        rng = np.random.default_rng(seed)
        x0 = _with_extremes(rng, shape) if extremes else _signed_zeros(rng, shape) * scale
        x = T.Tensor(x0, requires_grad=True)
        gy = _signed_zeros(rng, shape)
        with np.errstate(over="ignore", invalid="ignore"):
            y = T.gelu(x)
            _backprop_from(y, gy)
            ry, rgx = _reference_gelu(x.data, gy)
        assert _bits_equal(y.data, np.asarray(ry))
        assert _bits_equal(x.grad, rgx)

    @ORACLE
    @given(shape=st.sampled_from([(), (1,), (7,), (3, 4), (2, 3, 5)]),
           p=st.floats(0.001, 0.999), seed=st.integers(0, 2**32 - 1))
    def test_dropout(self, shape, p, seed):
        rng = np.random.default_rng(seed)
        x = T.Tensor(_with_extremes(rng, shape), requires_grad=True)
        gy = _with_extremes(rng, shape)
        drop_rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            y = T.dropout(x, p, "train", drop_rng)
            _backprop_from(y, gy)
            ry, rgx = _reference_dropout(x.data, p, ref_rng, gy)
        assert _bits_equal(y.data, np.asarray(ry))
        assert _bits_equal(x.grad, rgx)
        assert drop_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_first_gradient_is_zeros_plus_g(self):
        # a leaf's first accumulation turns -0.0 into 0.0 as zeros + g did,
        # keeps infinities and NaN, and copies g in any layout
        base = np.array([[-0.0, 0.0, np.inf], [-np.inf, np.nan, -2.5]])
        for g in [layout(base) for layout in _LAYOUTS.values()] + [np.array(-0.0)]:
            x = T.Tensor(np.zeros(g.shape), requires_grad=True)
            x._accumulate(g)
            assert type(x.grad) is np.ndarray
            assert not np.shares_memory(x.grad, g)
            assert _bits_equal(x.grad, _accumulated(g))

    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    def test_node_first_gradient_has_the_layout_of_empty_like(self, layout):
        # a node's first gradient is g + 0.0 in a buffer that np.empty_like(g)
        # lays out; a 0-d gradient (the loss root's) stays an ndarray
        g = _LAYOUTS[layout](rand((4, 6, 5), 31))
        y = T.dropout(T.Tensor(np.zeros(g.shape), requires_grad=True), 0.5, "eval")
        y._node._accumulate(g)
        assert y.grad.strides == np.empty_like(g).strides
        assert not np.shares_memory(y.grad, g)
        assert _bits_equal(y.grad, _accumulated(g))
        root = T.tensor_sum(T.Tensor(g, requires_grad=True))
        root._node._accumulate(np.array(-0.0))
        assert type(root.grad) is np.ndarray and _bits_equal(root.grad, np.array(0.0))

    def test_one_gradient_handed_to_two_leaves_stays_apart(self):
        # add's gradient functions return their input itself, so each leaf's
        # first gradient must be a buffer of its own: a later += into one
        # leaf leaves the other's unchanged
        a, b = (T.Tensor(np.zeros((3, 4)), requires_grad=True) for _ in range(2))
        gy = rand((3, 4), 32)
        _backprop_from(T.add(a, b), gy)
        assert not np.shares_memory(a.grad, b.grad)
        a._accumulate(np.ones((3, 4)))
        assert _bits_equal(b.grad, _accumulated(gy))


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

    def test_recorded_keeps_its_derivative_alone(self):
        # what a recorded call on an intermediate holds past its call: its
        # output and GELU'(x), one float64 array; x and cdf go
        x = T.Tensor(rand((16, 8, 64, 8), 79), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            h = T.mul(x, 2.0)
            y = T.gelu(h)
            del h
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after - before <= 2 * y.data.nbytes + 8 * 1024

    def test_unrecorded_allocates_only_its_output(self):
        x = T.Tensor(rand((16, 8, 64, 8), 80), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with T.no_grad():
                y = T.gelu(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= y.data.nbytes + 8 * 1024


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
            assert out._op == "dropout" and out._node.parents == (x,)

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

    def test_keeps_a_one_byte_mask(self):
        # what the op holds past its call: its output and a bool keep-mask
        x = T.Tensor(np.ones((16, 8, 64, 64)), requires_grad=True)
        rng = np.random.default_rng(8)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = T.dropout(x, 0.1, "train", rng)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after - before <= y.data.nbytes + x.data.size + 8 * 1024

    @pytest.mark.parametrize("batch, lead", [(5, 2), (8, 4), (3, 0), (2, 1)])
    def test_tail_generator_draws_the_whole_batch_tail(self, batch, lead):
        # two draws per generator, as two train forwards make: each of the
        # copy's masks is the whole batch's over the windows after `lead`
        x = T.Tensor(np.ones((batch, 2, 3, 1)))
        whole, original = np.random.default_rng(5), np.random.default_rng(5)
        tail = T.TailGenerator(original, lead)
        for _ in range(2):
            expected = T.dropout(x, 0.5, "train", whole).data[lead:]
            got = T.dropout(T.Tensor(x.data[lead:]), 0.5, "train", tail).data
            assert np.array_equal(got, expected)
        assert tail.bit_generator.state == whole.bit_generator.state
        assert original.bit_generator.state == np.random.default_rng(5).bit_generator.state


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


def _attention_reference(q, k, v, scale, gy):
    """Softmax attention's output and q, k, v gradients, in long double."""
    q, k, v, gy = (a.astype(np.longdouble) for a in (q, k, v, gy))
    s = q @ np.swapaxes(k, -1, -2) * scale
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    gp = gy @ np.swapaxes(v, -1, -2)
    gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale
    return p @ v, gs @ k, np.swapaxes(gs, -1, -2) @ q, np.swapaxes(p, -1, -2) @ gy


def _attention_results(op, data, weight, scale):
    """op's output and q, k, v gradients for (N, L, h, dh) leaves seen as (N, h, L, dh)."""
    leaves = [T.Tensor(d, requires_grad=True) for d in data]
    q, k, v = (T.transpose(t, (0, 2, 1, 3)) for t in leaves)
    out = op(q, k, v, scale)
    with T.no_grad():
        assert np.array_equal(op(q, k, v, scale).data, out.data)
    T.tensor_sum(T.mul(out, weight)).backward()
    return [out.data] + [np.swapaxes(t.grad, 1, 2) for t in leaves]


def _assert_as_accurate_as_chain(data, weight, scale):
    """The fused op's error against the long-double reference, for the output and
    each gradient, is at most twice the unfused chain's, or 1e-14 of the array's
    size times the largest logit's magnitude, whichever is larger.

    A logit s is rounded to about eps * |s|, and softmax passes that on as a
    relative error of the same size in every probability, so both ops' errors
    grow with the logits. Where the probabilities are one-hot a gradient
    vanishes, and the output's size stands in for its own.
    """
    q, k, v = (np.swapaxes(d, 1, 2) for d in data)
    want = _attention_reference(q, k, v, scale, weight)
    fused = _attention_results(T.attention_time, data, weight, scale)
    chain = _attention_results(_unfused_attention, data, weight, scale)
    logits = max(1.0, scale * float(np.abs(q @ np.swapaxes(k, -1, -2)).max()))
    for name, f, c, w in zip(("out", "gq", "gk", "gv"), fused, chain, want):
        size = max(float(np.abs(w).max()), float(np.abs(want[0]).max()))
        err, chain_err = float(np.abs(f - w).max()), float(np.abs(c - w).max())
        assert err <= max(2 * chain_err, 1e-14 * logits * size), (name, err, chain_err)


def _stored_exps_attention(q, k, v, scale):
    """attention_time as it was before it recomputed E in backward: the same
    tasks and passes, with every task's exponentials kept in one (n, L, L)
    buffer until backward."""
    length, d = q.shape[-2:]
    n = math.prod(q.shape[:-2])
    rows = max(1, T.BLOCK_BYTES // (8 * length))
    seqs = max(1, rows // length)
    tasks = [(slice(i, min(i + seqs, n)), slice(j, min(j + rows, length)))
             for i in range(0, n, seqs) for j in range(0, length, rows)]
    qs, ks, vs = (t.data.reshape(n, length, d) for t in (q, k, v))
    exps, sums = np.empty((n, length, length)), np.empty((n, length, 1))
    ctx, q_scaled, k_t = np.empty((n, length, d)), qs * scale, ks.swapaxes(1, 2)
    for s, r in tasks:
        e = exps[s, r]
        np.matmul(q_scaled[s, r], k_t[s], out=e)
        e -= e.max(axis=-1, keepdims=True)
        np.exp(e, out=e)
        e.sum(axis=-1, keepdims=True, out=sums[s, r])
        np.matmul(e, vs[s], out=ctx[s, r])
    ctx /= sums

    def backward(gy, targets):
        lhs = np.empty((n, length, d + 1))
        np.divide(gy.reshape(n, length, d), sums, out=lhs[..., :d])
        (lhs[..., :d] * ctx).sum(axis=-1, out=lhs[..., d])
        rhs = np.full((n, length, d + 1), -scale)
        np.multiply(vs, scale, out=rhs[..., :d])
        rhs_t = rhs.swapaxes(1, 2)
        gq, gk, gv = np.empty((3, n, length, d))
        for s, r in tasks:
            e = exps[s, r]
            g = lhs[s, r] @ rhs_t[s]
            g *= e
            np.matmul(g, ks[s], out=gq[s, r])
            if r.start == 0:
                np.matmul(g.swapaxes(1, 2), qs[s, r], out=gk[s])
                np.matmul(e.swapaxes(1, 2), lhs[s, r, :d], out=gv[s])
            else:
                gk[s] += g.swapaxes(1, 2) @ qs[s, r]
                gv[s] += e.swapaxes(1, 2) @ lhs[s, r, :d]
        for target, grad in zip(targets, (gq, gk, gv)):
            if target is not None:
                target._accumulate(grad.reshape(q.shape))

    return T._op("attention_time", ctx.reshape(q.shape), (q, k, v), backward=backward)


def _assert_bits_of_stored_exps(data, weight, scale):
    got = _attention_results(T.attention_time, data, weight, scale)
    want = _attention_results(_stored_exps_attention, data, weight, scale)
    for name, a, b in zip(("out", "gq", "gk", "gv"), got, want):
        assert _bits_equal(a, b), name


class TestAttentionTime:
    @pytest.mark.parametrize("heads", [1, 2])
    def test_as_accurate_as_unfused_chain(self, heads):
        # With 512 KiB of scores per task, (3, 7) is one task, L = 600 walks each
        # sequence in rows of 109 (the last 55 rows a partial chunk), and L = 128
        # puts four sequences in a task, so 5 or 10 sequences end in a partial one.
        dh = 4
        for n, length in ((3, 7), (2, 600), (5, 128)):
            data = [rand((n, length, heads, dh), seed, scale=2.0) for seed in (70, 71, 72)]
            weight = rand((n, heads, length, dh), 73)
            _assert_as_accurate_as_chain(data, weight, 1.0 / math.sqrt(dh))

    @pytest.mark.parametrize("heads", [1, 2])
    def test_bitwise_equal_to_stored_exponentials(self, heads):
        # the task layouts of test_as_accurate_as_unfused_chain: one task, rows
        # of one sequence (a partial last chunk, r.start > 0), and several
        # sequences per task (a partial last task)
        dh = 4
        for n, length in ((3, 7), (2, 600), (5, 128)):
            data = [rand((n, length, heads, dh), seed, scale=2.0) for seed in (80, 81, 82)]
            weight = rand((n, heads, length, dh), 83)
            _assert_bits_of_stored_exps(data, weight, 1.0 / math.sqrt(dh))

    @settings(ORACLE, max_examples=40)
    @given(n=st.integers(1, 3), length=st.integers(1, 700), dh=st.integers(1, 8),
           size=st.sampled_from([0.1, 1.0, 5.0, 20.0]), scale=st.floats(0.05, 2.0),
           seed=st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_stored_exponentials_property(self, n, length, dh, size, scale, seed):
        rng = np.random.default_rng(seed)
        data = [rng.normal(size=(n, length, 1, dh)) * size for _ in range(3)]
        _assert_bits_of_stored_exps(data, rng.normal(size=(n, 1, length, dh)), scale)

    @settings(ORACLE, max_examples=40)
    @given(n=st.integers(1, 3), length=st.integers(1, 700), dh=st.integers(1, 8),
           size=st.sampled_from([0.1, 1.0, 5.0, 20.0]), scale=st.floats(0.05, 2.0),
           seed=st.integers(0, 2**32 - 1))
    def test_long_double_reference(self, n, length, dh, size, scale, seed):
        rng = np.random.default_rng(seed)
        data = [rng.normal(size=(n, length, 1, dh)) * size for _ in range(3)]
        _assert_as_accurate_as_chain(data, rng.normal(size=(n, 1, length, dh)), scale)

    def test_allocates_one_block_with_and_without_grad(self):
        n, length, d = 8, 512, 8
        q, k, v = (T.Tensor(rand((n, 1, length, d), seed), requires_grad=True)
                   for seed in (74, 75, 76))
        whole = n * length * length * 8  # one (n, L, L) float64 buffer, 16.8 MB
        tracemalloc.start()
        try:
            with T.no_grad():
                out = T.attention_time(q, k, v, 0.25)
            no_grad_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            grad_out = T.attention_time(q, k, v, 0.25)
            T.tensor_sum(grad_out).backward()
            grad_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert no_grad_peak < whole / 4
        assert grad_peak < whole / 4
        assert np.array_equal(out.data, grad_out.data)

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
        assert T.grad_check(lambda: T.tensor_sum(T.gelu(x)), x) < 1e-4

    def test_off_path_param_zero_grad(self):
        x = T.Tensor([2.0], requires_grad=True)
        unused = T.Tensor([4.0], requires_grad=True)
        loss = T.tensor_sum(T.mul(x, x))
        grads = T.gradients(loss, [x, unused])
        assert np.array_equal(grads[1], [0.0])
        assert np.array_equal(grads[0], [4.0])

    def test_size_one_item_of_any_rank(self):
        assert T.Tensor(np.full((1, 1), 2.5)).item() == 2.5
        x = T.Tensor([3.0], requires_grad=True)
        loss = T.tensor_sum(T.mul(x, x), axis=0, keepdims=True)
        loss.backward()
        assert loss.item() == 9.0 and np.array_equal(x.grad, [6.0])

    def test_non_scalar_loss_rejected(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(InvalidArgumentError):
            T.mul(x, x).backward()

    def test_forward_determinism(self):
        x = rand((2, 3, 12, 4), 55)
        w = rand((5, 3, 3, 1), 56)
        a = T.conv2d_time(T.Tensor(x), T.Tensor(w), None, 2).data
        b = T.conv2d_time(T.Tensor(x), T.Tensor(w), None, 2).data
        assert np.array_equal(a, b)


def _never(g):
    raise AssertionError("grad_fn ran for a parent that needs no gradient")


def _record_accumulations(t):
    calls = []
    accumulate = t._accumulate
    t._accumulate = lambda g: (calls.append(np.array(g)), accumulate(g))
    return calls


class TestOp:
    """`_op` records every op: one grad_fn per parent, or one shared backward."""

    def test_grad_fn_runs_only_for_parents_that_require_grad(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        c = T.Tensor([3.0, 4.0])
        out = T._op("probe", x.data * c.data, (x, c), lambda g: g * c.data, _never)
        T.tensor_sum(out).backward()
        assert np.array_equal(x.grad, [3.0, 4.0]) and c.grad is None

    def test_parents_receive_gradients_in_parent_order(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        calls = _record_accumulations(x)
        out = T._op("probe", x.data, (x, x), lambda g: 2.0 * g, lambda g: 3.0 * g)
        T.tensor_sum(out).backward()
        assert [c.tolist() for c in calls] == [[2.0, 2.0], [3.0, 3.0]]

    @pytest.mark.parametrize("op, sign", [(T.add, 1.0), (T.sub, -1.0)])
    def test_one_tensor_as_both_operands(self, op, sign):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        calls = _record_accumulations(x)
        T.tensor_sum(op(x, x)).backward()
        assert [c.tolist() for c in calls] == [[1.0, 1.0], [sign, sign]]
        assert np.array_equal(x.grad, [1.0 + sign] * 2)

    def test_shared_backward_gets_the_output_gradient_once(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        got = []
        out = T._op("probe", 2.0 * x.data, (x,),
                    backward=lambda g, targets: got.append((g.copy(), targets)))
        T.tensor_sum(out).backward()
        assert len(got) == 1 and np.array_equal(got[0][0], [1.0, 1.0])
        assert got[0][1] == (x,)

    def test_unrecorded_output_has_no_backward_and_no_parents(self):
        x = T.Tensor([1.0], requires_grad=True)
        c = T.Tensor([2.0])
        seen = []
        with T.op_hook(seen.append):
            plain = T._op("probe", c.data, (c,), _never)
            with T.no_grad():
                outs = [T._op("probe", x.data, (x,), _never), T.add(x, x),
                        T.weight_norm(T.Tensor(np.ones((1, 2, 1, 1)), requires_grad=True), x)]
        for out in [plain, *outs]:
            assert out._backward is None and out._node is None and not out.requires_grad
        assert [t._op for t in seen] == ["probe", "probe", "add", "weight_norm"]

    def test_twin_gradient_adds_into_its_tensor_after_the_pass(self):
        p = T.Tensor([1.0, 2.0], requires_grad=True)
        twin = p.twin()
        assert twin.data is p.data and twin.requires_grad
        T.tensor_sum(T.add(T.mul(p, p), T.mul(twin, 3.0))).backward()
        assert np.array_equal(p.grad, [5.0, 7.0]) and twin.grad is None


class TestConcat:
    def test_forward_and_gradients_slice_the_join(self):
        a = T.Tensor(rand((2, 3), 4), requires_grad=True)
        b = T.Tensor(rand((1, 3), 5), requires_grad=True)
        out = T.concat((a, b))
        assert np.array_equal(out.data, np.concatenate((a.data, b.data)))
        T.tensor_sum(T.mul(out, T.Tensor(np.arange(9.0).reshape(3, 3)))).backward()
        assert np.array_equal(a.grad, np.arange(6.0).reshape(2, 3))
        assert np.array_equal(b.grad, np.arange(6.0, 9.0).reshape(1, 3))

    @pytest.mark.parametrize("parts", [(), (np.zeros(()),), (np.zeros((2, 3)), np.zeros((2, 4)))])
    def test_mismatched_parts_rejected(self, parts):
        with pytest.raises(ShapeError):
            T.concat([T.Tensor(p) for p in parts])


class TestGraphRelease:
    def test_intermediate_freed_by_backward_without_gc(self):
        x = T.Tensor(rand((4, 5), 60), requires_grad=True)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            h = T.gelu(T.mul(x, x))
            loss = T.tensor_sum(T.mul(h, h))
            refs = [weakref.ref(h.data), weakref.ref(h._node)]
            del h
            assert all(ref() is not None for ref in refs)  # mul's backward reads h
            loss.backward()
            assert all(ref() is None for ref in refs)
        finally:
            if was_enabled:
                gc.enable()
        assert x.grad is not None and loss.grad is None

    @pytest.mark.parametrize("op, reads", [
        (lambda h: T.add(h, h), False),
        (lambda h: T.sub(h, h), False),
        # a reshape that copies: a view's base is its own data
        (lambda h: T.reshape(T.transpose(h, (0, 1, 3, 2)), (6, 20)), False),
        (lambda h: T.slice_time(h, 1, 3), False),
        (lambda h: T.tensor_sum(h, axis=1), False),
        (lambda h: T.dropout(h, 0.5, "train", np.random.default_rng(2)), False),
        (lambda h: T.mul(h, h), True),
        (T.gelu, False),  # its backward reads GELU'(h), made in forward
    ], ids=["add", "sub", "reshape", "slice_time", "sum", "dropout", "mul", "gelu"])
    def test_output_keeps_only_what_its_backward_reads(self, op, reads):
        # h's node is a parent of the op's node; h's array lives on only if
        # the op's backward reads it, and goes with the graph then
        x = T.Tensor(rand((2, 3, 4, 5), 61), requires_grad=True)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            h = T.mul(x, 2.0)
            ref = weakref.ref(h.data)
            out = op(h)
            del h
            assert (ref() is not None) == reads
            T.tensor_sum(out).backward()
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()
        assert x.grad is not None

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
        err = T.grad_check(lambda: T.tensor_sum(T.mul(x, w)), x)
        assert err < 1e-10

    def test_shape_one_loss(self):
        # a (1,)-shaped loss is a scalar to backward, and so to grad_check
        x = T.Tensor(rand((3,), 66))
        err = T.grad_check(lambda: T.tensor_sum(T.mul(x, x), axis=0, keepdims=True), x)
        assert err < 1e-8

    def test_composition_conv_gelu_sum(self):
        x = T.Tensor(rand((1, 2, 8, 2), 63))
        w = T.Tensor(rand((3, 2, 3, 1), 64))
        b = T.Tensor(rand((3,), 65))

        def f():
            return T.tensor_sum(T.gelu(T.conv2d_time(x, w, b)))

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
        y = T.conv2d_time(x, w, b)
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
        y = T.maxpool_time(px)
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


class TestContextState:
    """Grad mode and op hooks are context-local, nest, and survive exceptions."""

    @staticmethod
    def _hold_in_thread(cm, body=lambda: None):
        # enter `cm` in a worker thread, run `body` there, and keep it entered
        # until the returned release callback is called
        entered, release = threading.Event(), threading.Event()

        def worker():
            with cm():
                body()
                entered.set()
                release.wait(30)

        thread = threading.Thread(target=worker)
        thread.start()
        assert entered.wait(30)

        def finish():
            release.set()
            thread.join()

        return finish

    def test_no_grad_in_another_thread_keeps_recording_here(self):
        inner = []
        x = T.Tensor([2.0], requires_grad=True)
        finish = self._hold_in_thread(T.no_grad, lambda: inner.append(T.neg(x)))
        try:
            y = T.mul(x, x)
        finally:
            finish()
        assert y.requires_grad and y._backward is not None
        assert inner[0]._backward is None

    def test_op_hook_sees_only_its_own_thread(self):
        seen = []
        finish = self._hold_in_thread(lambda: T.op_hook(lambda out: seen.append(out._op)),
                                      lambda: T.neg(T.Tensor([1.0])))
        try:
            T.mul(T.add(T.Tensor([1.0]), 1.0), 2.0)
        finally:
            finish()
        assert seen == ["neg"]

    def test_nested_blocks_restore_outer_state(self):
        outer, inner = [], []
        x = T.Tensor([2.0], requires_grad=True)
        with T.op_hook(lambda out: outer.append(out._op)):
            with T.no_grad():
                with T.op_hook(lambda out: inner.append(out._op)):
                    assert T.neg(x)._backward is None
                assert T.sqrt(x)._backward is None
            assert T.mul(x, x)._backward is not None
        assert T.add(x, x)._backward is not None
        assert outer == ["neg", "sqrt", "mul"]
        assert inner == ["neg"]

    def test_state_restored_when_block_raises(self):
        seen = []
        x = T.Tensor([2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            with T.op_hook(seen.append):
                with T.no_grad():
                    T.neg(x)
                    T.add(x, T.Tensor([1.0, 2.0, 3.0]))
        assert T.sqrt(x)._backward is not None
        assert [out._op for out in seen] == ["neg"]

    def test_hook_can_wrap_backward(self):
        x = T.Tensor([3.0], requires_grad=True)

        def double(out):
            original = out._backward

            def doubled():
                out.grad = out.grad * 2.0
                original()

            out._backward = doubled

        with T.op_hook(double):
            loss = T.tensor_sum(T.mul(x, x))
        loss.backward()
        assert np.array_equal(x.grad, [24.0])


def _serial_two(fn_a, fn_b):
    return fn_a(), fn_b()


def _lane_graph(case, w, v, run_two):
    """A scalar loss over nodes made in _run_two's lanes (or all in lane 0)."""
    if case == "cross_lane":  # a lane-1 node with a lane-2 parent
        a1, b1 = run_two(lambda: T.mul(w, w), lambda: T.gelu(T.mul(v, v)))
        a2, b2 = run_two(lambda: T.mul(b1, w), lambda: T.gelu(b1))
        return T.tensor_sum(T.add(T.add(a2, b2), a1))
    a, b = run_two(lambda: T.gelu(T.mul(w, w)), lambda: T.gelu(T.mul(v, v)))
    if case == "trunk_after":  # a trunk node on w pops after the lanes
        return T.tensor_sum(T.add(T.add(a, b), T.mul(w, 3.0)))
    return T.tensor_sum(T.add(a, b))


class TestBackwardLanes:
    @pytest.mark.parametrize("case", ["split", "trunk_after", "cross_lane"])
    def test_lanes_run_apart_only_when_order_is_kept(self, case):
        grads, idents = [], set()

        def hook(out):
            backward = out._backward
            if backward is not None:
                def traced():
                    idents.add(threading.get_ident())
                    backward()

                out._backward = traced

        for run_two in (_serial_two, T._run_two):
            w, v = (T.Tensor(rand(64, seed), requires_grad=True) for seed in (1, 2))
            idents.clear()
            with T.op_hook(hook):
                loss = _lane_graph(case, w, v, run_two)
            loss.backward()
            grads.append((w.grad, v.grad))
        assert all(np.array_equal(a, b) for a, b in zip(*grads))
        assert len(idents) == (min(2, T._usable_cpus()) if case == "split" else 1)


def _where():
    """(thread, lane) of the caller."""
    return threading.get_ident(), T._state.get().lane


def _blas_count():
    return T._openblas()[0]()


needs_openblas = pytest.mark.skipif(T._openblas() is None,
                                    reason="numpy's OpenBLAS thread functions not found")


@pytest.fixture
def two_cpus(monkeypatch):
    # the helper thread runs under any CPU count once _run_two sees two
    monkeypatch.setattr(T, "_usable_cpus", lambda: 2)


@pytest.fixture
def blas_at_two():
    get, set_ = T._openblas()
    before = get()
    set_(2)
    yield
    set_(before)


class TestRunTwo:
    """Only one call at a time gets the helper; every other runs serially."""

    def test_one_cpu_runs_both_here(self, monkeypatch):
        monkeypatch.setattr(T, "_usable_cpus", lambda: 1)
        assert T._run_two(_where, _where) == ((threading.get_ident(), 0),) * 2

    def test_second_thread_runs_serially_while_the_helper_is_busy(self, two_cpus):
        entered, release = threading.Event(), threading.Event()

        def busy():
            entered.set()
            release.wait(30)

        thread = threading.Thread(target=T._run_two, args=(lambda: None, busy))
        thread.start()
        try:
            assert entered.wait(30)
            assert T._run_two(_where, _where) == ((threading.get_ident(), 0),) * 2
        finally:
            release.set()
            thread.join(30)
        assert not thread.is_alive()

    def test_nested_call_from_lane_2_runs_serially(self, two_cpus):
        _, inner = T._run_two(lambda: None, lambda: T._run_two(_where, _where))
        assert inner == ((threading.get_ident(), 2),) * 2

    @needs_openblas
    @pytest.mark.parametrize("raising", [None, "a", "b"])
    def test_blas_count_is_one_inside_and_restored_after(self, two_cpus, blas_at_two,
                                                         raising):
        counts = []

        def fn(name):
            counts.append(_blas_count())
            if name == raising:
                raise ShapeError(f"{name} failed")
            return name

        if raising is None:
            assert T._run_two(lambda: fn("a"), lambda: fn("b")) == ("a", "b")
        else:
            with pytest.raises(ShapeError, match=f"{raising} failed"):
                T._run_two(lambda: fn("a"), lambda: fn("b"))
        assert counts == [1, 1]
        assert _blas_count() == 2 and T._blas_saved is None
        assert not T._helper_lock.locked()

    @needs_openblas
    def test_many_threads_leave_the_count_restored(self, two_cpus, blas_at_two):
        # more callers than cores, switching often: a lost restore would
        # leave OpenBLAS at one thread, a lost release the helper locked
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = [[] for _ in range(4)]

            def call_repeatedly(out):
                for i in range(300):
                    out.append(T._run_two(lambda: i, lambda: -i) == (i, -i))

            threads = [threading.Thread(target=call_repeatedly, args=(out,))
                       for out in results]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(len(out) == 300 and all(out) for out in results)
        assert _blas_count() == 2 and T._blas_saved is None
        assert not T._helper_lock.locked()

    @needs_openblas
    def test_forked_child_restores_a_hold_made_by_another_thread(self, two_cpus,
                                                                 blas_at_two):
        entered, release = threading.Event(), threading.Event()

        def busy():
            entered.set()
            release.wait(30)

        def child():
            assert _blas_count() == 2 and T._blas_saved is None
            assert not T._helper_lock.locked()
            (ident_a, _), (ident_b, _) = T._run_two(_where, _where)
            assert ident_a != ident_b and _blas_count() == 2

        thread = threading.Thread(target=T._run_two, args=(lambda: None, busy))
        thread.start()
        try:
            assert entered.wait(30)
            assert _blas_count() == 1
            proc = multiprocessing.get_context("fork").Process(target=child)
            proc.start()
            proc.join(30)
            if proc.exitcode is None:
                proc.kill()
        finally:
            release.set()
            thread.join(30)
        assert proc.exitcode == 0 and not thread.is_alive()
