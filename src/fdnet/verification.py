"""Gradient-fidelity suite: every differentiable op against central
finite differences, plus composite layers and tiny end-to-end models.

Each check is deterministic (fixed seeds). Its result lists the ops an
`op_hook` saw while it ran, so coverage of the registered op set is read
from what actually executed rather than declared by hand. With `corrupt_op`,
another hook mis-scales the upstream gradient of that op during the run so
a harness can verify that broken backwards are detected and named.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import InvalidParameterError
from .layers import LinearHead, MultiHeadAttention, ValueEmbedding, WeightNormConv
from .models import DFEICOMBlock, DFEInitialBlock, _streams, build_model
from .tensor import DIFFERENTIABLE_OPS, Tensor

DEFAULT_TOLERANCE = 1e-3


@dataclass
class CheckResult:
    name: str
    ops: tuple[str, ...]
    error: float

    @property
    def passed(self) -> bool:
        return self.error < DEFAULT_TOLERANCE


def _rand(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


def _sq_sum(t: Tensor) -> Tensor:
    return T.tensor_sum(T.mul(t, t))


def _check_elementwise():
    a = Tensor(_rand((3, 4), 10) + 3.0)
    b = Tensor(_rand((3, 4), 11) + 3.0)

    def f():
        y = T.add(T.div(T.mul(T.sub(a, b), T.neg(a)), b), 0.5)
        return _sq_sum(y)

    return T.grad_check(f, [a, b])


def _check_matmul():
    a = Tensor(_rand((3, 4), 12))
    b = Tensor(_rand((4, 2), 13))
    c = Tensor(_rand((2, 3, 4, 5), 14))
    d = Tensor(_rand((2, 3, 5, 2), 15))
    plain = T.grad_check(lambda: _sq_sum(T.matmul(a, b)), [a, b])
    batched = T.grad_check(lambda: _sq_sum(T.matmul(c, d)), [c, d])
    return max(plain, batched)


def _check_conv():
    x = Tensor(_rand((2, 3, 8, 2), 16))
    w3 = Tensor(_rand((4, 3, 3, 1), 17))
    w1 = Tensor(_rand((4, 3, 1, 1), 18))
    b = Tensor(_rand((4,), 19))
    same = T.grad_check(lambda: _sq_sum(T.conv2d_time(x, w3, b, 1, 1)), [x, w3, b])
    strided = T.grad_check(lambda: _sq_sum(T.conv2d_time(x, w3, b, 2, 1)), [x, w3, b])
    pointwise = T.grad_check(lambda: _sq_sum(T.conv2d_time(x, w1, b, 1, 0)), [x, w1, b])
    return max(same, strided, pointwise)


def _check_maxpool():
    # spaced values keep every window's argmax unique: finite differences
    # are only a valid oracle away from the kinks
    vals = np.random.default_rng(20).permutation(
        np.arange(2 * 2 * 9 * 2, dtype=float)
    ).reshape(2, 2, 9, 2) * 0.25
    x = Tensor(vals)
    return T.grad_check(lambda: _sq_sum(T.maxpool_time(x, 3, 2, 1)), x)


def _check_gelu():
    x = Tensor(_rand((5, 4), 21))
    return T.grad_check(lambda: T.tensor_sum(T.gelu(x)), x)


def _check_dropout():
    x = Tensor(_rand((4, 4), 22))

    def f():
        return T.tensor_sum(T.dropout(x, 0.3, "train", np.random.default_rng(99)))

    return T.grad_check(f, x)


def _check_softmax():
    x = Tensor(_rand((3, 5), 23))
    w = _rand((3, 5), 24)
    return T.grad_check(lambda: T.tensor_sum(T.mul(T.softmax_lastdim(x), w)), x)


def _check_shape_ops():
    x = Tensor(_rand((2, 3, 8, 2), 25))
    r = T.grad_check(
        lambda: _sq_sum(T.transpose(T.reshape(x, (2, 3, 16)), (2, 1, 0))), x
    )
    s = T.grad_check(lambda: _sq_sum(T.slice_time(x, 2, 6)), x)
    u = T.grad_check(
        lambda: _sq_sum(T.tensor_sum(x, axis=(0, 2), keepdims=True)), x
    )
    q = Tensor(np.abs(_rand((4,), 26)) + 1.0)
    v = T.grad_check(lambda: T.tensor_sum(T.sqrt(q)), q)
    y = Tensor(_rand((1, 3, 8, 2), 41))
    c = T.grad_check(lambda: _sq_sum(T.concat((x, y))), [x, y])
    return max(r, s, u, v, c)


def _check_wn_conv():
    layer = WeightNormConv(2, 3, 3, pad_t=1, rng=np.random.default_rng(27))
    x = Tensor(_rand((1, 2, 6, 2), 28))
    return T.grad_check(lambda: _sq_sum(layer.forward(x)), layer.parameters())


def _check_embedding():
    emb = ValueEmbedding(4, rng=np.random.default_rng(29))
    x = Tensor(_rand((1, 1, 6, 2), 30))
    return T.grad_check(lambda: _sq_sum(emb.forward(x)), emb.parameters())


def _check_linear_head():
    head = LinearHead(6, 3, rng=np.random.default_rng(31))
    x = Tensor(_rand((2, 6, 2), 32))
    return T.grad_check(lambda: _sq_sum(head.forward(x)), [head.weight, head.bias, x])


def _check_attention():
    mha = MultiHeadAttention(4, heads=2, rng=np.random.default_rng(33))
    x = Tensor(_rand((2, 3, 4), 34))
    return T.grad_check(lambda: _sq_sum(mha.forward(x)), mha.parameters())


def _check_dfe_block():
    block = DFEInitialBlock(4, 0.1, _streams(35, 0), _streams(35, 1))
    x = Tensor(_rand((1, 4, 6, 2), 36))
    return T.grad_check(lambda: _sq_sum(block.forward(x, "eval")), block.parameters())


def _check_icom_block():
    block = DFEICOMBlock(4, 1, 0.1, _streams(37, 0), _streams(37, 1))
    x = Tensor(_rand((1, 4, 6, 2), 38))
    return T.grad_check(lambda: _sq_sum(block.forward(x, "eval")), block.parameters())


def _tiny_model_check(variant: str):
    model = build_model(variant, l_in=16, l_out=4, f=2, alpha=0.5, n_layers=2,
                        embed_dim=4, seed=4321)
    x = Tensor(_rand((1, 1, 16, 2), 39))
    target = _rand((1, 4, 2), 40)

    def f():
        pred, _ = model.forward(x, "eval")
        diff = T.sub(pred, target)
        return T.mean_all(T.mul(diff, diff))

    return T.grad_check(f, model.parameters())


_CHECKS = {
    "elementwise": _check_elementwise,
    "matmul": _check_matmul,
    "conv2d_time": _check_conv,
    "maxpool_time": _check_maxpool,
    "gelu": _check_gelu,
    "dropout": _check_dropout,
    "softmax_lastdim": _check_softmax,
    "shape_ops": _check_shape_ops,
    "weight_norm_conv": _check_wn_conv,
    "value_embedding": _check_embedding,
    "linear_head": _check_linear_head,
    "attention": _check_attention,
    "dfe_block": _check_dfe_block,
    "icom_block": _check_icom_block,
    "fdnet_tiny_end_to_end": lambda: _tiny_model_check("fdnet"),
    "funet_tiny_end_to_end": lambda: _tiny_model_check("funet"),
}


def check_names() -> list[str]:
    return list(_CHECKS)


def _corrupting(op_name: str):
    """An op hook that mis-scales the upstream gradient flowing through one op by 1%."""
    if op_name not in DIFFERENTIABLE_OPS:
        raise InvalidParameterError(f"unknown op {op_name!r}; registered: {DIFFERENTIABLE_OPS}")

    def hook(out: Tensor):
        original = out._backward
        if out._op == op_name and original is not None:
            def corrupted():
                out.grad = out.grad * 1.01
                original()
            out._backward = corrupted

    return hook


def run_gradient_checks(corrupt_op: str | None = None) -> list[CheckResult]:
    """Run every check at DEFAULT_TOLERANCE; with `corrupt_op`, checks covering it should fail.

    Each result reports the ops actually recorded during its run (traced),
    so coverage statements cannot drift from the implementations.
    """
    results = []
    with T.op_hook(_corrupting(corrupt_op)) if corrupt_op else contextlib.nullcontext():
        for name, fn in _CHECKS.items():
            traced: set[str] = set()
            with T.op_hook(lambda out: traced.add(out._op)):
                error = float(fn())
            results.append(CheckResult(name=name, ops=tuple(sorted(traced)), error=error))
    return results
