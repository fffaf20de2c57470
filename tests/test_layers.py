import copy

import numpy as np
import pytest

from fdnet import tensor as T
from fdnet.errors import DegenerateWeightError, ShapeError
from fdnet.layers import (
    LinearHead,
    MultiHeadAttention,
    ValueEmbedding,
    WeightNormConv,
    kaiming_uniform,
)
from fdnet.tensor import Tensor


def gen(seed=0):
    return np.random.default_rng(seed)


class TestWeightNormConv:
    def test_unit_norm_v_gives_g_times_v(self):
        layer = WeightNormConv(2, 3, 3, rng=gen(1))
        v = gen(2).normal(size=(3, 2, 3, 1))
        v /= np.sqrt((v * v).sum(axis=(1, 2, 3), keepdims=True))
        layer.v.data = v
        layer.g.data = np.array([2.0, -1.5, 0.5])
        w = layer.effective_weight().data
        assert np.allclose(w, layer.g.data.reshape(3, 1, 1, 1) * v, atol=1e-14)

    def test_g_equals_norm_gives_v(self):
        layer = WeightNormConv(2, 3, 1, rng=gen(3))
        layer.g.data = np.sqrt((layer.v.data ** 2).sum(axis=(1, 2, 3)))
        assert np.allclose(layer.effective_weight().data, layer.v.data, atol=1e-14)

    def test_effective_norm_equals_abs_g(self):
        layer = WeightNormConv(4, 5, 3, rng=gen(4))
        layer.g.data = gen(5).normal(size=5)
        w = layer.effective_weight().data
        norms = np.sqrt((w * w).sum(axis=(1, 2, 3)))
        assert np.all(np.abs(norms - np.abs(layer.g.data)) < 1e-12)

    def test_zero_norm_channel_raises(self):
        layer = WeightNormConv(2, 2, 1, rng=gen(6))
        layer.v.data[0] = 0.0
        with pytest.raises(DegenerateWeightError):
            layer.effective_weight()

    def test_matches_plain_conv_bitwise(self):
        layer = WeightNormConv(3, 4, 3, rng=gen(7))
        x = Tensor(gen(8).normal(size=(2, 3, 10, 2)))
        with T.no_grad():
            w = layer.effective_weight().data
            expected = T.conv2d_time(x, Tensor(w), layer.bias).data
            got = layer.forward(x).data
        assert np.array_equal(got, expected)

    def test_scale_invariance_in_v(self):
        layer = WeightNormConv(3, 4, 3, rng=gen(9))
        x = Tensor(gen(10).normal(size=(1, 3, 8, 2)))
        base = layer.forward(x).data
        layer.v.data = layer.v.data * 10.0
        scaled = layer.forward(x).data
        assert np.all(np.abs(scaled - base) <= 1e-12 * (np.abs(base) + 1e-30) + 1e-13)

    def test_gradcheck_through_v_and_g(self):
        layer = WeightNormConv(2, 3, 3, rng=gen(11))
        x = Tensor(gen(12).normal(size=(1, 2, 6, 2)))

        def f():
            y = layer.forward(x)
            return T.tensor_sum(T.mul(y, y))

        assert T.grad_check(f, [layer.v, layer.g, layer.bias]) < 1e-3


class TestValueEmbedding:
    def test_shape(self):
        emb = ValueEmbedding(8, rng=gen(0))
        x = Tensor(gen(1).normal(size=(4, 1, 672, 7)))
        with T.no_grad():
            assert emb.forward(x).shape == (4, 8, 672, 7)

    def test_zero_weight_gives_bias(self):
        emb = ValueEmbedding(3, rng=gen(2))
        emb.weight.data[:] = 0.0
        emb.bias.data = np.array([1.0, -2.0, 0.5])
        out = emb.forward(Tensor(gen(3).normal(size=(2, 1, 5, 4)))).data
        for c, b in enumerate([1.0, -2.0, 0.5]):
            assert np.all(out[:, c] == b)

    def test_pointwise_locality(self):
        emb = ValueEmbedding(4, rng=gen(4))
        x = gen(5).normal(size=(1, 1, 6, 3))
        base = emb.forward(Tensor(x)).data
        bumped = x.copy()
        bumped[0, 0, 2, 1] += 1.0
        out = emb.forward(Tensor(bumped)).data
        changed = base != out
        assert changed[:, :, 2, 1].all()
        changed[:, :, 2, 1] = False
        assert not changed.any()

    def test_requires_single_channel(self):
        emb = ValueEmbedding(4, rng=gen(6))
        with pytest.raises(ShapeError):
            emb.forward(Tensor(np.zeros((1, 2, 5, 3))))


class TestLinearHead:
    def test_identity(self):
        head = LinearHead(4, 4, rng=gen(0))
        head.weight.data = np.eye(4)
        head.bias.data[:] = 0.0
        x = gen(1).normal(size=(2, 4, 3))
        assert np.allclose(head.forward(Tensor(x)).data, x, atol=1e-15)

    def test_variate_permutation_equivariance(self):
        head = LinearHead(5, 3, rng=gen(2))
        x = gen(3).normal(size=(2, 5, 4))
        perm = [2, 0, 3, 1]
        base = head.forward(Tensor(x)).data
        permuted = head.forward(Tensor(x[:, :, perm])).data
        assert np.array_equal(permuted, base[:, :, perm])

    def test_hand_2x3_example(self):
        head = LinearHead(3, 2, rng=gen(4))
        head.weight.data = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        head.bias.data = np.array([1.0, -1.0])
        x = np.zeros((1, 3, 2))
        x[0, :, 0] = [1.0, 0.0, 1.0]
        x[0, :, 1] = [0.0, 2.0, 0.0]
        out = head.forward(Tensor(x)).data
        assert np.allclose(out[0, :, 0], [1 + 3 + 1, 4 + 6 - 1])
        assert np.allclose(out[0, :, 1], [4 + 1, 10 - 1])

    def test_length_mismatch(self):
        head = LinearHead(5, 3, rng=gen(5))
        with pytest.raises(ShapeError):
            head.forward(Tensor(np.zeros((1, 4, 2))))

    def test_gradcheck(self):
        head = LinearHead(4, 3, rng=gen(6))
        x = Tensor(gen(7).normal(size=(2, 4, 2)))

        def f():
            y = head.forward(x)
            return T.tensor_sum(T.mul(y, y))

        assert T.grad_check(f, [head.weight, head.bias, x]) < 1e-3


class TestAttention:
    def test_single_key_collapses_softmax(self):
        mha = MultiHeadAttention(4, heads=1, rng=gen(0))
        x = gen(1).normal(size=(3, 1, 4))
        with T.no_grad():
            out = mha.forward(Tensor(x)).data
        expected = x @ mha.w_v.data @ mha.w_o.data
        assert np.allclose(out, expected, atol=1e-12)

    def test_zero_query_is_uniform_attention(self):
        mha = MultiHeadAttention(4, heads=2, rng=gen(2))
        mha.w_q.data[:] = 0.0
        x = gen(3).normal(size=(2, 6, 4))
        with T.no_grad():
            out = mha.forward(Tensor(x)).data
        expected = np.repeat((x @ mha.w_v.data).mean(axis=1, keepdims=True), 6, axis=1) @ mha.w_o.data
        assert np.allclose(out, expected, atol=1e-12)

    def test_constant_rows_give_constant_rows(self):
        mha = MultiHeadAttention(8, heads=2, rng=gen(4))
        row = gen(5).normal(size=8)
        x = np.tile(row, (2, 5, 1))
        with T.no_grad():
            out = mha.forward(Tensor(x)).data
        assert np.allclose(out, out[:, :1, :], atol=1e-12)

    def test_head_count_must_divide(self):
        with pytest.raises(ShapeError):
            MultiHeadAttention(8, heads=3, rng=gen(6))

    def test_gradcheck_all_projections(self):
        mha = MultiHeadAttention(4, heads=2, rng=gen(7))
        x = Tensor(gen(8).normal(size=(2, 3, 4)))

        def f():
            y = mha.forward(x)
            return T.tensor_sum(T.mul(y, y))

        assert T.grad_check(f, [mha.w_q, mha.w_k, mha.w_v, mha.w_o]) < 1e-3

    def test_per_variate_isolation_bitwise(self):
        mha = MultiHeadAttention(4, heads=1, rng=gen(9))
        x = gen(10).normal(size=(2, 4, 7, 5))
        with T.no_grad():
            base = mha.forward_per_variate(Tensor(x)).data
            zeroed = x.copy()
            zeroed[:, :, :, 2] = 0.0
            out = mha.forward_per_variate(Tensor(zeroed)).data
        keep = [v for v in range(5) if v != 2]
        assert np.array_equal(base[:, :, :, keep], out[:, :, :, keep])


class TestInit:
    def test_same_seed_bitwise_identical(self):
        a = WeightNormConv(3, 4, 3, rng=gen(42))
        b = WeightNormConv(3, 4, 3, rng=gen(42))
        assert np.array_equal(a.v.data, b.v.data)
        assert np.array_equal(a.g.data, b.g.data)
        assert np.array_equal(a.bias.data, b.bias.data)

    def test_g_matches_v_norm_at_init(self):
        layer = WeightNormConv(5, 6, 3, rng=gen(43))
        norms = np.sqrt((layer.v.data ** 2).sum(axis=(1, 2, 3)))
        assert np.array_equal(layer.g.data, norms)

    def test_biases_zero_at_init(self):
        assert np.all(WeightNormConv(2, 3, 1, rng=gen(44)).bias.data == 0.0)
        assert np.all(LinearHead(4, 5, rng=gen(45)).bias.data == 0.0)

    def test_draw_within_pytorch_default_bound(self):
        # U(+-1/sqrt(fan_in)), whose std is 1/sqrt(3 fan_in)
        fan_in = 12
        draws = kaiming_uniform(gen(46), (10_000,), fan_in)
        assert np.abs(draws).max() <= 1.0 / np.sqrt(fan_in)
        target = 1.0 / np.sqrt(3 * fan_in)
        assert abs(draws.std() - target) / target < 0.05


class TestModuleCopy:
    def test_deepcopy_leaves_out_callables_set_on_the_instance(self):
        # a tracer's wrapper calls into the original; the copy runs the
        # class's forward on its own parameters
        head = LinearHead(4, 3, rng=gen(1))
        head.forward = lambda features: pytest.fail("the copy ran the original's wrapper")
        twin_bias = Tensor(np.ones(3), requires_grad=True)
        twin = copy.deepcopy(head, {id(head.bias): twin_bias})
        assert "forward" not in vars(twin) and twin.bias is twin_bias
        assert twin.weight is not head.weight
        assert np.array_equal(twin.weight.data, head.weight.data)
        x = Tensor(gen(2).normal(size=(2, 4, 5)))
        ref = LinearHead.forward(head, x).data + 1.0
        assert np.array_equal(twin.forward(x).data, ref)
