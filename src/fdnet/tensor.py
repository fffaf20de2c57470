"""Dense float64 tensors with reverse-mode automatic differentiation.

The operation set is exactly what the forecasting models need: elementwise
arithmetic with bias-style broadcasting, matmul, time-axis 2D convolution and
max-pooling that never mix variates, GELU, dropout, softmax, fused
scaled dot-product attention that walks its (L, L) probabilities a
cache-sized block of sequences at a time, and the shape ops (reshape/
transpose/slice/sum/sqrt) required to wire them together.

Graph representation: every Tensor produced by an op is a graph node holding
its parent tensors and a backward closure; `Tensor.backward()` topologically
sorts the reachable subgraph and accumulates gradients into `.grad`. Object
identity is the node handle. Backward frees the graph as it goes: each node
drops its closure, parents and gradient once its closure has run, so every
activation is released as soon as backward is done with it and a spent
graph is reclaimed by reference counting alone. A graph can therefore be
backpropagated once; a second `backward()` through it raises. Grad mode
(`no_grad`) and the op trace (`_op_trace`) are process-global, so one thread
entering `no_grad` stops graph recording in every other thread: build and
run graphs from one thread at a time.

Broadcast rule for binary elementwise ops: the output always has the shape of
the first operand `a`; the second operand `b` must either match exactly or
expand into `a` by numpy trailing-axis alignment where every aligned
dimension of `b` equals the corresponding dimension of `a` or is 1 (scalars
always allowed). The backward pass sums gradients over the broadcast axes.
"""

from __future__ import annotations

import contextlib
import math
from collections.abc import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

from .errors import (
    InvalidArgumentError,
    InvalidParameterError,
    NumericError,
    SequenceTooShortError,
    ShapeError,
)

# Names of every differentiable op; the verification suite must cover all.
DIFFERENTIABLE_OPS = (
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "matmul",
    "conv2d_time",
    "maxpool_time",
    "gelu",
    "dropout",
    "softmax_lastdim",
    "attention_time",
    "reshape",
    "transpose",
    "slice_time",
    "sum",
    "sqrt",
)

_grad_enabled = True

# When a list, every recorded op appends its tag here (test instrumentation).
_op_trace: list[str] | None = None


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (eval-mode speed-up)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A float64 n-d array participating in a recorded computation graph."""

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[], None] | None = None
        self._op = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        req = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, op={self._op}{req})"

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self, params: Sequence["Tensor"] | None = None):
        """Reverse-mode pass from this scalar; populates `.grad` on leaves.

        Nodes run newest first. Once a node's closure has run, the node
        drops its closure, its parents and its own gradient, so the graph
        is gone when this returns and only leaf `.grad` remains. Calling
        backward again through a released node raises
        InvalidArgumentError.

        If `params` is given, every listed tensor is guaranteed a gradient
        buffer afterward (zeros when it does not contribute to the loss).
        """
        if self.data.size != 1:
            raise InvalidArgumentError(
                f"backward requires a scalar loss, got shape {self.shape}"
            )
        order = _toposort(self)
        if any(n.requires_grad and n._backward is None and n._op != "leaf" for n in order):
            raise InvalidArgumentError(
                "backward through a graph that an earlier backward already released"
            )
        self._accumulate(np.ones_like(self.data))
        while order:
            node = order.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward()
            node._backward = None
            node._parents = ()
            node.grad = None
        if params is not None:
            for p in params:
                if p.grad is None:
                    p.grad = np.zeros_like(p.data)

    # Operator sugar; the module-level functions are the documented API.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def _toposort(root: Tensor) -> list[Tensor]:
    # Iterative DFS: training graphs can be deep enough to bother recursion.
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(out: Tensor, op: str, parents: tuple[Tensor, ...], backward):
    out._op = op
    if _op_trace is not None:
        _op_trace.append(op)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward


def _check_broadcast(a: Tensor, b: Tensor, op: str):
    # b expands into a along trailing-aligned axes; output shape is a.shape.
    if b.data.ndim > a.data.ndim:
        raise ShapeError(f"{op}: second operand rank {b.data.ndim} exceeds first {a.data.ndim}")
    for da, db in zip(a.shape[a.data.ndim - b.data.ndim:], b.shape):
        if db != da and db != 1:
            raise ShapeError(f"{op}: cannot expand {b.shape} into {a.shape}")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a: Tensor, b) -> Tensor:
    """Elementwise a + b; b may broadcast into a (bias rule)."""
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "add")
    out = Tensor(a.data + b.data)

    def backward():
        if a.requires_grad:
            a._accumulate(out.grad)
        if b.requires_grad:
            b._accumulate(_unbroadcast(out.grad, b.shape))

    _record(out, "add", (a, b), backward)
    return out


def sub(a: Tensor, b) -> Tensor:
    """Elementwise a - b; same broadcast rule as add."""
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "sub")
    out = Tensor(a.data - b.data)

    def backward():
        if a.requires_grad:
            a._accumulate(out.grad)
        if b.requires_grad:
            b._accumulate(-_unbroadcast(out.grad, b.shape))

    _record(out, "sub", (a, b), backward)
    return out


def mul(a: Tensor, b) -> Tensor:
    """Elementwise a * b; same broadcast rule as add."""
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "mul")
    out = Tensor(a.data * b.data)

    def backward():
        if a.requires_grad:
            a._accumulate(out.grad * b.data)
        if b.requires_grad:
            b._accumulate(_unbroadcast(out.grad * a.data, b.shape))

    _record(out, "mul", (a, b), backward)
    return out


def div(a: Tensor, b) -> Tensor:
    """Elementwise a / b; same broadcast rule as add."""
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "div")
    out = Tensor(a.data / b.data)

    def backward():
        if a.requires_grad:
            a._accumulate(out.grad / b.data)
        if b.requires_grad:
            b._accumulate(_unbroadcast(-out.grad * a.data / (b.data * b.data), b.shape))

    _record(out, "div", (a, b), backward)
    return out


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)

    def backward():
        if a.requires_grad:
            a._accumulate(-out.grad)

    _record(out, "neg", (a,), backward)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the trailing two axes.

    Supports plain (m,k)@(k,n), stacked (...,m,k)@(...,k,n) with equal
    leading dims, and (...,m,k)@(k,n) weight-on-the-right application.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul requires rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    if b.data.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul leading dimensions differ: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)

    def backward():
        if a.requires_grad:
            a._accumulate(_unbroadcast(out.grad @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ out.grad, b.shape))

    _record(out, "matmul", (a, b), backward)
    return out


def _conv_out_len(length: int, k: int, stride_t: int, pad_t: int, op: str) -> int:
    out_len = (length + 2 * pad_t - k) // stride_t + 1
    if out_len < 1:
        raise SequenceTooShortError(
            f"{op}: length {length} with kernel {k}, stride {stride_t}, pad {pad_t} "
            f"leaves no output positions"
        )
    return out_len


def _check_conv_geometry(x: Tensor, k: int, stride_t: int, pad_t: int, op: str):
    if x.data.ndim != 4:
        raise ShapeError(f"{op} expects a (B, C, L, V) tensor, got {x.shape}")
    if k not in (1, 3):
        raise InvalidParameterError(f"{op}: kernel size {k} not in {{1, 3}}")
    if stride_t < 1 or pad_t < 0:
        raise InvalidParameterError(f"{op}: invalid stride {stride_t} or pad {pad_t}")


def conv2d_time(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride_t: int = 1,
    pad_t: int = 0,
) -> Tensor:
    """Convolution along time only: (B,Cin,L,V) x (Cout,Cin,k,1) -> (B,Cout,L',V).

    The variate axis has kernel 1, stride 1 and no padding, so the output at
    variate v depends on input at variate v alone. Time padding is zeros;
    L' = floor((L + 2*pad_t - k) / stride_t) + 1.
    """
    x, weight = _as_tensor(x), _as_tensor(weight)
    k = weight.shape[2] if weight.data.ndim == 4 else -1
    _check_conv_geometry(x, k, stride_t, pad_t, "conv2d_time")
    if weight.data.ndim != 4 or weight.shape[3] != 1:
        raise ShapeError(f"conv2d_time weight must be (Cout, Cin, k, 1), got {weight.shape}")
    if weight.shape[1] != x.shape[1]:
        raise ShapeError(
            f"conv2d_time channel mismatch: input {x.shape[1]}, weight {weight.shape[1]}"
        )
    cout = weight.shape[0]
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (cout,):
            raise ShapeError(f"conv2d_time bias must be ({cout},), got {bias.shape}")
    batch, _cin, length, variates = x.shape
    out_len = _conv_out_len(length, k, stride_t, pad_t, "conv2d_time")

    xp = np.pad(x.data, ((0, 0), (0, 0), (pad_t, pad_t), (0, 0))) if pad_t else x.data
    windows = sliding_window_view(xp, k, axis=2)[:, :, ::stride_t, :, :]
    # GEMM with one row per (b, t, v) element: every output element reduces
    # over (c, k) in the same fixed order, so permuting variates permutes
    # output columns bitwise.
    rows = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4))
    rows2d = rows.reshape(batch * out_len * variates, x.shape[1] * k)
    w2d = weight.data.reshape(cout, x.shape[1] * k)
    y = (rows2d @ w2d.T).reshape(batch, out_len, variates, cout).transpose(0, 3, 1, 2)
    if bias is not None:
        y = y + bias.data.reshape(1, cout, 1, 1)
    out = Tensor(np.ascontiguousarray(y))

    def backward():
        gy = out.grad
        gy_rows = np.ascontiguousarray(gy.transpose(0, 2, 3, 1)).reshape(
            batch * out_len * variates, cout
        )
        if weight.requires_grad:
            gw = gy_rows.T @ rows2d
            weight._accumulate(gw.reshape(cout, x.shape[1], k, 1))
        if bias is not None and bias.requires_grad:
            bias._accumulate(gy.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            gxp = np.zeros((batch, x.shape[1], length + 2 * pad_t, variates))
            w3 = weight.data[:, :, :, 0]
            for i in range(k):
                contrib = np.einsum("botv,oc->bctv", gy, w3[:, :, i], optimize=True)
                gxp[:, :, i : i + stride_t * out_len : stride_t, :] += contrib
            x._accumulate(gxp[:, :, pad_t : pad_t + length, :])

    _record(out, "conv2d_time", tuple(t for t in (x, weight, bias) if t is not None), backward)
    return out


def maxpool_time(x: Tensor, k: int = 3, stride_t: int = 2, pad_t: int = 1) -> Tensor:
    """Max-pool along time: (B,C,L,V) -> (B,C,L',V) with -inf padding.

    Same output-length rule as conv2d_time. Backward routes the gradient to
    the argmax position of each window, first occurrence on ties.
    """
    x = _as_tensor(x)
    _check_conv_geometry(x, k, stride_t, pad_t, "maxpool_time")
    batch, channels, length, variates = x.shape
    out_len = _conv_out_len(length, k, stride_t, pad_t, "maxpool_time")

    xp = (
        np.pad(x.data, ((0, 0), (0, 0), (pad_t, pad_t), (0, 0)), constant_values=-np.inf)
        if pad_t
        else x.data
    )
    windows = sliding_window_view(xp, k, axis=2)[:, :, ::stride_t, :, :]
    argmax = windows.argmax(axis=-1)
    out = Tensor(np.take_along_axis(windows, argmax[..., np.newaxis], axis=-1)[..., 0])

    def backward():
        if not x.requires_grad:
            return
        gxp = np.zeros((batch, channels, length + 2 * pad_t, variates))
        b_idx, c_idx, t_idx, v_idx = np.indices(out.shape, sparse=False)
        np.add.at(gxp, (b_idx, c_idx, t_idx * stride_t + argmax, v_idx), out.grad)
        x._accumulate(gxp[:, :, pad_t : pad_t + length, :])

    _record(out, "maxpool_time", (x,), backward)
    return out


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    """Exact-erf GELU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    x = _as_tensor(x)
    cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    out = Tensor(x.data * cdf)

    def backward():
        if x.requires_grad:
            pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT_2PI
            x._accumulate(out.grad * (cdf + x.data * pdf))

    _record(out, "gelu", (x,), backward)
    return out


def dropout(x: Tensor, p: float, mode: str, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: train mode zeroes elements w.p. p and rescales by 1/(1-p).

    Eval mode (and p == 0) is the exact identity and consumes no randomness:
    the output shares the input's array (no op writes activations in place)
    and is still recorded as a dropout node.
    """
    x = _as_tensor(x)
    if not 0.0 <= p < 1.0:
        raise InvalidParameterError(f"dropout probability must be in [0, 1), got {p}")
    if mode not in ("train", "eval"):
        raise InvalidParameterError(f"dropout mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" or p == 0.0:
        out = Tensor(x.data)

        def backward_id():
            if x.requires_grad:
                x._accumulate(out.grad)

        _record(out, "dropout", (x,), backward_id)
        return out

    if rng is None:
        raise InvalidParameterError("dropout in train mode requires an rng")
    scale = 1.0 / (1.0 - p)
    mask = (rng.random(x.shape) >= p) * scale
    out = Tensor(x.data * mask)

    def backward():
        if x.requires_grad:
            x._accumulate(out.grad * mask)

    _record(out, "dropout", (x,), backward)
    return out


def softmax_lastdim(x: Tensor) -> Tensor:
    """Softmax over the last axis, computed with max-subtraction."""
    x = _as_tensor(x)
    if x.data.ndim < 1 or x.shape[-1] < 1:
        raise ShapeError(f"softmax_lastdim needs a non-empty last axis, got {x.shape}")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def backward():
        if x.requires_grad:
            gy = out.grad
            x._accumulate(y * (gy - (gy * y).sum(axis=-1, keepdims=True)))

    _record(out, "softmax_lastdim", (x,), backward)
    return out


# Bytes of (L, L) float64 probabilities that attention_time handles at once.
# A backward block holds about three such buffers (p, g and g * p); at this
# size they stay near one core's 2 MiB L2 cache on the 2-vCPU Xeon the
# benchmark runs on, so each pass over a block reads cache, not DRAM. Of
# 0.125-4 MiB, 0.25-1 MiB measured fastest there at L = 84-336, 4 MiB and
# the whole array slowest. At L = 336 (FUNet's branch0) a block is one
# sequence.
BLOCK_BYTES = 512 * 1024


def attention_time(q: Tensor, k: Tensor, v: Tensor, scale: float) -> Tensor:
    """softmax(q @ k^T * scale) @ v over the trailing two axes, in one op.

    q, k, v are (..., L, d) with equal leading dims, seen as n = prod(...)
    sequences. Forward and backward walk them in blocks of BLOCK_BYTES of
    (L, L) probabilities (at least one sequence), and each block runs every
    pass while it is in cache. Probabilities are computed in place, in the
    operation order of matmul -> mul -> softmax_lastdim -> matmul, and each
    product is the same per-matrix call on fewer matrices at a time, so
    results and gradients are bitwise those of the unfused chain. In grad
    mode the probabilities of all blocks are kept for backward in one
    (n, L, L) array; under `no_grad` only one block is ever allocated.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.data.ndim < 2 or q.shape[-2] < 1 or not q.shape == k.shape == v.shape:
        raise ShapeError(f"attention_time needs equal non-empty (..., L, d) operands, "
                         f"got {q.shape}, {k.shape}, {v.shape}")
    length, d = q.shape[-2:]
    n = math.prod(q.shape[:-2])
    rows = max(1, BLOCK_BYTES // (length * length * 8))
    blocks = [slice(i, min(i + rows, n)) for i in range(0, n, rows)]
    qs, ks, vs = (t.data.reshape(n, length, d) for t in (q, k, v))
    keep = _grad_enabled and (q.requires_grad or k.requires_grad or v.requires_grad)
    probs = np.empty((n if keep else min(rows, n), length, length))
    ctx = np.empty((n, length, d))
    for s in blocks:
        p = probs[s] if keep else probs[: s.stop - s.start]
        np.matmul(qs[s], np.swapaxes(ks[s], -1, -2), out=p)
        p *= scale
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        np.matmul(p, vs[s], out=ctx[s])
    out = Tensor(ctx.reshape(q.shape))

    def backward():
        gys = out.grad.reshape(n, length, d)
        gq, gv = np.empty((n, length, d)), np.empty((n, length, d))
        gk_t = np.empty((n, d, length))
        for s in blocks:
            p = probs[s]
            np.matmul(np.swapaxes(p, -1, -2), gys[s], out=gv[s])
            g = gys[s] @ np.swapaxes(vs[s], -1, -2)
            g -= (g * p).sum(axis=-1, keepdims=True)
            g *= p
            g *= scale
            np.matmul(g, ks[s], out=gq[s])
            np.matmul(np.swapaxes(qs[s], -1, -2), g, out=gk_t[s])
        for t, grad in ((q, gq), (k, np.swapaxes(gk_t, -1, -2)), (v, gv)):
            if t.requires_grad:
                t._accumulate(grad.reshape(t.shape))

    _record(out, "attention_time", (q, k, v), backward)
    return out


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    shape = tuple(shape)
    if math.prod(shape) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")
    out = Tensor(x.data.reshape(shape))

    def backward():
        if x.requires_grad:
            x._accumulate(out.grad.reshape(x.shape))

    _record(out, "reshape", (x,), backward)
    return out


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise ShapeError(f"transpose axes {axes} is not a permutation for rank {x.data.ndim}")
    inverse = np.argsort(axes)
    out = Tensor(x.data.transpose(axes))

    def backward():
        if x.requires_grad:
            x._accumulate(out.grad.transpose(inverse))

    _record(out, "transpose", (x,), backward)
    return out


def slice_time(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous slice [start, stop) along axis 2 of a (B,C,L,V) tensor."""
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ShapeError(f"slice_time expects a (B, C, L, V) tensor, got {x.shape}")
    length = x.shape[2]
    if not 0 <= start < stop <= length:
        raise ShapeError(f"slice_time [{start}, {stop}) out of range for length {length}")
    out = Tensor(x.data[:, :, start:stop, :].copy())

    def backward():
        if x.requires_grad:
            g = np.zeros_like(x.data)
            g[:, :, start:stop, :] = out.grad
            x._accumulate(g)

    _record(out, "slice_time", (x,), backward)
    return out


def tensor_sum(x: Tensor, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> Tensor:
    """Sum over the given axes (all axes when None)."""
    x = _as_tensor(x)
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))

    def backward():
        if not x.requires_grad:
            return
        g = out.grad
        if axis is not None and not keepdims:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            g = np.expand_dims(g, tuple(a % x.data.ndim for a in axes))
        x._accumulate(np.broadcast_to(g, x.shape).copy())

    _record(out, "sum", (x,), backward)
    return out


def sqrt(x: Tensor) -> Tensor:
    """Elementwise square root; differentiated only for strictly positive inputs."""
    x = _as_tensor(x)
    y = np.sqrt(x.data)
    out = Tensor(y)

    def backward():
        if x.requires_grad:
            x._accumulate(out.grad * 0.5 / y)

    _record(out, "sqrt", (x,), backward)
    return out


def mean_all(x: Tensor) -> Tensor:
    """Mean over every element, as sum * (1/n)."""
    x = _as_tensor(x)
    return mul(tensor_sum(x), 1.0 / x.size)


def gradients(loss: Tensor, params: Iterable[Tensor]) -> list[np.ndarray]:
    """Run backward from `loss` and return one gradient array per parameter.

    Parameters off the loss path get zero gradients of matching shape.
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    loss.backward(params=params)
    return [p.grad for p in params]


def grad_check(
    f: Callable[[], Tensor],
    points: Sequence[Tensor] | Tensor,
    h: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` must rebuild a scalar loss from the current `.data` of `points` on
    every call. The relative error per coordinate is
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    if isinstance(points, Tensor):
        points = [points]
    points = list(points)
    for p in points:
        p.requires_grad = True
        # In-place coordinate nudges below go through a reshape(-1) view.
        p.data = np.ascontiguousarray(p.data)
    loss = f()
    if loss.size != 1:
        raise InvalidArgumentError("grad_check requires a scalar-valued function")
    if not np.isfinite(loss.data).all():
        raise NumericError("grad_check: non-finite loss at evaluation point")
    analytic = [g.copy() for g in gradients(loss, points)]

    worst = 0.0
    for p, ga in zip(points, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            with no_grad():
                up = float(f().data)
            flat[i] = saved - h
            with no_grad():
                down = float(f().data)
            flat[i] = saved
            if not (math.isfinite(up) and math.isfinite(down)):
                raise NumericError("grad_check: non-finite evaluation during differencing")
            numeric = (up - down) / (2.0 * h)
            err = abs(gflat[i] - numeric) / max(1e-8, abs(gflat[i]) + abs(numeric))
            worst = max(worst, err)
    return worst
