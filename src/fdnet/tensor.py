"""Dense float64 tensors with reverse-mode automatic differentiation.

The models, the loss and training use elementwise arithmetic with
bias-style broadcasting, matmul, time-axis 2D convolution and max-pooling
that never mix variates, weight normalization as one op, GELU, dropout,
fused scaled dot-product attention that walks its (L, L) scores in
cache-sized tasks (a few sequences, or rows of one) and keeps row maxima
and sums, exponentials recomputed in backward, not probabilities, and the
shape ops (reshape/transpose/slice/concat/sum) that wire them together.
Four ops no model calls: `neg`, `div`, `sqrt` and `softmax_lastdim`; only the
gradient suite (`fdnet.verification`) and the benchmark's op map use them.
GELU and dropout work their temporaries in place and, like maxpool and
weight norm, round exactly as the plain numpy expressions they replace (a
recorded GELU keeps its derivative for backward, not its input and cdf); the
conv makes one GEMM per window, whose sums may round apart from one GEMM
over all windows (see `conv2d_time`), and attention does not round as its
unfused chain (see `attention_time`).

Graph representation: every op makes its output with `_op`, from one gradient
function per parent (or one shared `backward(g, targets)`, for `weight_norm`
and `attention_time`). Each op builds those functions on every call. In grad
mode, with a parent requiring grad, `_op` gives the output a `_Node`: a
gradient slot, the parents' routing targets (their nodes, or leaf Tensors),
a backward closure built only then, and the lane. The output Tensor holds
`.data` and its node; the node holds no array but its gradient. Gradient
functions capture the arrays and shapes they read, never a parent Tensor,
so an activation that no backward reads (a conv output feeding a residual
add) goes with its last Python name while the forward still runs.
`Tensor.backward()` topologically sorts the reachable nodes and accumulates
gradients into leaf `.grad`. Backward frees the graph as it goes: each node
drops its closure, parents and gradient once its closure has run, so every
array a closure captured is released as soon as backward is done with it
and a spent graph is reclaimed by reference counting alone. A node's
closure reaches the node through a weak reference, so no node is in a
reference cycle and a graph that is never backpropagated goes with its last
reference; nothing else frees it. A graph can be backpropagated once; a
second `backward()` through it raises. Grad mode (`no_grad`) and op hooks
(`op_hook`) live in one `ContextVar`, so both are context-local: neither
reaches ops recorded in another thread or asyncio task, and separate graphs
may be built from separate threads.

Two lanes: `_run_two(fn_a, fn_b)` runs fn_a on one persistent helper thread
and fn_b on the caller, with numpy's OpenBLAS held at one thread, and each
node records the lane (1 or 2) it was made in; nodes made outside are lane 0,
the trunk. It alone decides who gets the helper: one call at a time, under a
lock it tries once without waiting. Other callers, nested calls and
processes that can use one CPU run both functions serially on the calling
thread. A model forward that ran its branch groups or batch halves on the
helper (`fdnet.models` says when a forward splits) gets a backward on the
same two threads: the trunk runs first, then each lane's nodes on their own
thread. Backward does this only when every node's gradient still accumulates
in serial pop order (see `Tensor.backward`), so gradients are bitwise those
of the one-thread pass.
A batch half that reads twin leaves (`Tensor.twin`) instead of the
parameters keeps the two lanes' leaves apart, and one that draws its dropout
masks from `TailGenerator` copies keeps their generators apart.

Process setting: importing this module has glibc's malloc keep freed memory
(`_keep_freed_memory`): arrays up to 32 MiB come from its heaps, not one mmap
each, and the heaps are not trimmed. Otherwise each default FDNet train step
faulted back in the ~150 MiB its predecessor freed (~40,000 minor faults and
~96 ms of system time). Peak RSS is unchanged, RSS no longer falls after a
step, and no bit moves.

Broadcast rule for binary elementwise ops: the output always has the shape of
the first operand `a`; the second operand `b` must either match exactly or
expand into `a` by numpy trailing-axis alignment where every aligned
dimension of `b` equals the corresponding dimension of `a` or is 1 (scalars
always allowed). The backward pass sums gradients over the broadcast axes.
"""

from __future__ import annotations

import contextlib
import contextvars
import copy
import dataclasses
import ctypes
import functools
import glob
import itertools
import math
import os
import platform
import threading
import weakref
from collections.abc import Callable, Iterable, Sequence
from concurrent import futures

import numpy as np
from scipy.special import erf

from .errors import (
    DegenerateWeightError,
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
    "weight_norm",
    "gelu",
    "dropout",
    "softmax_lastdim",
    "attention_time",
    "reshape",
    "transpose",
    "slice_time",
    "concat",
    "sum",
    "sqrt",
)


@dataclasses.dataclass(frozen=True, slots=True)
class _State:
    """What ops read from the current context; only `_scoped` changes it."""

    grad: bool = True  # record graphs (off inside no_grad)
    hooks: tuple = ()  # op_hook functions, outermost first
    lane: int = 0  # 0 for the caller; _run_two's two functions run in lanes 1 and 2


_state = contextvars.ContextVar("fdnet_tensor_state", default=_State())


@contextlib.contextmanager
def _scoped(**fields):
    """Set `fields` of the current context's state for the block, then restore it."""
    token = _state.set(dataclasses.replace(_state.get(), **fields))
    try:
        yield
    finally:
        _state.reset(token)


def no_grad():
    """Disable graph construction inside the block (eval-mode speed-up)."""
    return _scoped(grad=False)


@contextlib.contextmanager
def op_hook(fn: Callable[[Tensor], None]):
    """Call `fn(out)` with the output of every op run inside the block.

    A hook may read `out._op` and wrap `out._backward` (None when no graph
    was recorded for the op). Hooks run in the order they were entered. A
    model forward that splits its batch (see `fdnet.models`) runs each op
    once per half and joins the halves' predictions and branch outputs, and
    nothing else, with `concat`, so a hook sees both halves' ops and those
    joins, from two threads only when that forward's `_run_two` got the
    helper thread.
    """
    with _scoped(hooks=_state.get().hooks + (fn,)):
        yield


@functools.cache
def _openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    for path in glob.glob(os.path.dirname(np.__file__) + ".libs/*openblas*"):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        set_.restype, set_.argtypes = None, [ctypes.c_int]
        return get, set_
    return None


def _keep_freed_memory():
    """Under glibc, keep freed memory in the process (see the module docstring)."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    # setting either threshold stops glibc adjusting both, so trim only if mmap took
    if mallopt is not None and mallopt(-3, 32 << 20) == 1:  # M_MMAP_THRESHOLD
        mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


_keep_freed_memory()


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The OpenBLAS thread count that the _run_two holding the helper restores,
# or None when no _run_two holds it.
_blas_saved: int | None = None


def _restore_blas():
    global _blas_saved
    if _blas_saved is not None:
        _openblas()[1](_blas_saved)
        _blas_saved = None


def _new_helper():
    """Make the persistent thread that runs _run_two's first function, and its lock.

    The worker starts on first use. A forked child makes its own, because the
    parent's threads, the helper and any holder of its lock, do not exist
    there; it also restores the OpenBLAS count if a holder had lowered it.
    """
    global _helper, _helper_lock
    _helper = futures.ThreadPoolExecutor(max_workers=1, thread_name_prefix="fdnet-branch")
    _helper_lock = threading.Lock()
    _restore_blas()


_new_helper()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_helper)


def _in_lane(lane: int, fn: Callable[[], object]):
    with _scoped(lane=lane):
        return fn()


def _run_two(fn_a: Callable[[], object], fn_b: Callable[[], object]) -> tuple:
    """Run fn_a on the helper thread in lane 1 and fn_b here in lane 2.

    Only one call at a time gets the helper. Both run serially here, in the
    caller's lane, when the process can use one CPU or the helper's lock is
    taken: by a call from another thread, or by the call this one is nested
    in (waiting on the helper from the helper would never end). With the
    helper, fn_a runs in a copy of the caller's context, so `no_grad` and op
    hooks reach it; numpy's OpenBLAS is held at one thread until both are
    done, and an exception from either leaves only after both have stopped.
    Returns (fn_a(), fn_b()).
    """
    global _blas_saved
    if _usable_cpus() < 2 or not _helper_lock.acquire(blocking=False):
        return fn_a(), fn_b()
    try:
        api = _openblas()
        if api is not None:
            _blas_saved = api[0]()
            api[1](1)
        head = _helper.submit(contextvars.copy_context().run, _in_lane, 1, fn_a)
        try:
            tail = _in_lane(2, fn_b)
        finally:
            futures.wait([head])
    finally:
        _restore_blas()
        _helper_lock.release()
    return head.result(), tail


def _accumulate(grad: np.ndarray | None, g: np.ndarray) -> np.ndarray:
    """`grad` plus `g`: a first gradient is `g + 0.0` in a buffer of its own."""
    if grad is None:
        # g + 0.0 has the bits of 0.0 + g (IEEE addition commutes, signed
        # zeros too) and skips a pass that fills zeros; `out=` keeps a 0-d
        # gradient an ndarray rather than a numpy scalar
        return np.add(g, 0.0, out=np.empty_like(g))
    grad += g
    return grad


class _Node:
    """A recorded op's place in the graph; the op's output Tensor holds the data.

    `parents` are the routing targets of the op's inputs, in input order:
    the input's node, the input itself when it is a leaf that requires grad,
    or None when no gradient goes to it. `backward` is a zero-argument
    callable that hands `grad` on to them (hooks may wrap it). The only array
    a node holds is `grad`.
    """

    __slots__ = ("grad", "parents", "backward", "lane", "__weakref__")

    def __init__(self, parents: tuple, lane: int):
        self.grad: np.ndarray | None = None
        self.parents = parents
        self.backward: Callable[[], None] | None = None
        self.lane = lane  # the _run_two lane that recorded it; 0 outside (the trunk)

    def _accumulate(self, g: np.ndarray):
        self.grad = _accumulate(self.grad, g)


class Tensor:
    """A float64 n-d array; an op's output also holds its graph node (see `_Node`)."""

    # the node of a recorded op's output; leaves and unrecorded outputs have none
    _node: _Node | None = None
    # the tensor a twin leaf's gradient goes to (see twin)
    _twin_of: Tensor | None = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._grad: np.ndarray | None = None
        self._op = "leaf"

    @property
    def grad(self) -> np.ndarray | None:
        """A leaf's gradient, or an op output's node's while backward runs."""
        return self._grad if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value: np.ndarray | None):
        if self._node is None:
            self._grad = value
        else:
            self._node.grad = value

    @property
    def _backward(self) -> Callable[[], None] | None:
        """The node's backward (None without a graph); op hooks may wrap it."""
        return None if self._node is None else self._node.backward

    @_backward.setter
    def _backward(self, fn: Callable[[], None]):
        self._node.backward = fn

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def __repr__(self):
        req = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, op={self._op}{req})"

    def zero_grad(self):
        self.grad = None

    def twin(self) -> Tensor:
        """A leaf that shares this tensor's array and hands its gradient on.

        `backward` adds the twin's gradient into this tensor's after every
        node of the pass has run, so a graph that reads this tensor in one
        `_run_two` lane and its twin in the other gives each `.grad` one
        writer at a time.
        """
        twin = Tensor(self.data, self.requires_grad)
        twin._twin_of = self
        return twin

    def _accumulate(self, g: np.ndarray):
        self._grad = _accumulate(self._grad, g)

    def backward(self):
        """Reverse-mode pass from this scalar; populates `.grad` on leaves.

        Nodes run newest first. Once a node's closure has run, the node
        drops its closure, its parents and its own gradient, so the graph
        is gone when this returns and only leaf `.grad` remains. Calling
        backward again through a released node raises
        InvalidArgumentError.

        When the forward recorded nodes in both lanes of `_run_two` (a large
        model forward's two branch groups or batch halves), the trunk, the
        nodes recorded outside the lanes, runs first on this thread, and
        then `_run_two` runs each lane's nodes as one of its two functions.
        That happens only when it keeps every gradient's accumulation order:
        the trunk pops before every lane node, a lane node's parents are
        leaves or nodes of its own lane, and no leaf is a parent in both
        lanes. Otherwise all nodes run here in one pass. Either way gradients
        are bitwise the same.

        Twin leaves (see `twin`) then add their gradients into the tensors
        they twin, in topological order.
        """
        if self.data.size != 1:
            raise InvalidArgumentError(
                f"backward requires a scalar loss, got shape {self.shape}"
            )
        root = self if self._node is None else self._node
        order = _toposort(root)
        if any(type(n) is _Node and n.backward is None for n in order):
            raise InvalidArgumentError(
                "backward through a graph that an earlier backward already released"
            )
        twins = [n for n in order if type(n) is Tensor and n._twin_of is not None]
        root._accumulate(np.ones_like(self.data))
        parts = _split_lanes(order)
        if parts is None:
            _backprop(order)
        else:
            del order  # each part frees its nodes as they pop
            trunk, first, second = parts
            _backprop(trunk)
            _run_two(functools.partial(_backprop, first), functools.partial(_backprop, second))
        for twin in twins:
            if twin.grad is not None:
                twin._twin_of._accumulate(twin.grad)
                twin.grad = None


def _toposort(root: _Node | Tensor) -> list[_Node | Tensor]:
    """The nodes and leaves reachable from `root`, each after its parents."""
    # Iterative DFS: training graphs can be deep enough to bother recursion.
    order: list[_Node | Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[_Node | Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        if type(node) is _Node:
            for parent in node.parents:
                if parent is not None and id(parent) not in visited:
                    stack.append((parent, False))
    return order


def _split_lanes(order: list[_Node | Tensor]) -> tuple[list[_Node], ...] | None:
    """(trunk, lane 1, lane 2) subsequences of `order`'s nodes, or None.

    None unless both lanes are non-empty and running the trunk, then each
    lane on its own, keeps every node's gradient accumulation order (see
    `Tensor.backward`).
    """
    parts: tuple[list[_Node], ...] = ([], [], [])
    leaf_lanes: dict[int, int] = {}
    for node in order:  # parents first: the reverse of pop order
        if type(node) is not _Node:
            continue
        lane = node.lane
        if lane:
            if parts[0]:
                return None
            for p in node.parents:
                if p is None:
                    continue
                if type(p) is not _Node:
                    if leaf_lanes.setdefault(id(p), lane) != lane:
                        return None
                elif p.lane != lane:
                    return None
        parts[lane].append(node)
    return parts if parts[1] and parts[2] else None


def _backprop(nodes: list[_Node | Tensor]):
    """Pop `nodes` from the end, running and then releasing each recorded one."""
    while nodes:
        node = nodes.pop()
        if type(node) is not _Node:
            continue
        if node.grad is not None:
            node.backward()
        node.backward = None
        node.parents = ()
        node.grad = None


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _route(grad_fns, g: np.ndarray, targets: tuple):
    """Hand each target `grad_fn(g)`, in parent order, skipping None targets."""
    for target, grad_fn in zip(targets, grad_fns):
        if target is not None:
            target._accumulate(grad_fn(g))


def _records(parents: tuple[Tensor, ...]) -> bool:
    """Whether an op on `parents` records a graph node here (see `_op`)."""
    return _state.get().grad and any(p.requires_grad for p in parents)


def _op(op: str, data, parents: tuple[Tensor, ...], *grad_fns, backward=None) -> Tensor:
    """Make op `op`'s output from `data`, and record it for backward if it needs a graph.

    `grad_fns` pair with `parents`: backward hands each parent that requires
    grad `grad_fn(out.grad)`, in parent order. An op whose parents' gradients
    come from one shared pass gives `backward(g, targets)` instead, which
    calls `target._accumulate(grad)` for each target that is not None
    (targets pair with parents; see `_Node`). Either way the functions
    capture the arrays and shapes they read, never a parent Tensor, so an
    input that backward does not read goes with its last name.
    """
    out = Tensor(data)
    out._op = op
    state = _state.get()
    if _records(parents):
        targets = tuple(p._node if p._node is not None else p if p.requires_grad else None
                        for p in parents)
        if backward is None:
            backward = functools.partial(_route, grad_fns)
        out.requires_grad = True
        out._node = node = _Node(targets, state.lane)
        # a weak reference, so that no node is in a reference cycle
        node.backward = (lambda ref=weakref.ref(node), backward=backward, targets=targets:
                         backward(ref().grad, targets))
    for hook in state.hooks:
        hook(out)
    return out


def _same(g: np.ndarray) -> np.ndarray:
    return g


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
    shape = b.shape
    return _op("add", a.data + b.data, (a, b), _same, lambda g: _unbroadcast(g, shape))


def sub(a: Tensor, b) -> Tensor:
    """Elementwise a - b; same broadcast rule as add."""
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "sub")
    shape = b.shape
    return _op("sub", a.data - b.data, (a, b), _same, lambda g: -_unbroadcast(g, shape))


def mul(a: Tensor, b) -> Tensor:
    """Elementwise a * b; same broadcast rule as add."""
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "mul")
    ad, bd = a.data, b.data
    return _op("mul", ad * bd, (a, b), lambda g: g * bd,
               lambda g: _unbroadcast(g * ad, bd.shape))


def div(a: Tensor, b) -> Tensor:
    """Elementwise a / b; same broadcast rule as add."""
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "div")
    ad, bd = a.data, b.data
    return _op("div", ad / bd, (a, b), lambda g: g / bd,
               lambda g: _unbroadcast(-g * ad / (bd * bd), bd.shape))


def neg(a: Tensor) -> Tensor:
    return _op("neg", -a.data, (a,), np.negative)


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
    ad, bd = a.data, b.data
    return _op("matmul", ad @ bd, (a, b),
               lambda g: _unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape),
               lambda g: _unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape))


# Bytes of float64 work that conv2d_time and attention_time handle at once.
# conv2d_time fills and multiplies the im2col columns of as many whole
# windows as fit (at least one; one at L = 336 with Cin*k = 24), in forward
# and again for the weight gradient, and keeps none of them. attention_time
# takes (L, L) scores of as many whole sequences as fit or, past L = 256,
# BLOCK_BYTES // (8 L) rows of one (195 at FUNet branch0's L = 336); a
# backward task holds two such buffers (E, recomputed, and the score
# gradient). At this size they stay near one core's 2 MiB L2 cache on the
# 2-vCPU Xeon the benchmark runs on, so each pass reads cache, not DRAM.
# For attention, of 0.125-4 MiB, 0.25-1 MiB measured fastest there at
# L = 84-336, 4 MiB and the whole array slowest.
BLOCK_BYTES = 512 * 1024


def strided_length(length: int, stride: int) -> int:
    """ceil(L / stride): the time steps conv2d_time leaves, and maxpool_time at stride 2."""
    return (length - 1) // stride + 1


def _check_time_input(x: Tensor, op: str):
    if x.data.ndim != 4:
        raise ShapeError(f"{op} expects a (B, C, L, V) tensor, got {x.shape}")
    if x.shape[2] < 1:
        raise SequenceTooShortError(f"{op}: empty time axis")


def conv2d_time(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride_t: int = 1,
) -> Tensor:
    """Convolution along time only: (B,Cin,L,V) x (Cout,Cin,k,1) -> (B,Cout,L',V).

    The variate axis has kernel 1, stride 1 and no padding, so the output at
    variate v depends on input at variate v alone. Along time, k // 2 zeros
    pad each side, so L' = strided_length(L, stride_t) = ceil(L / stride_t).

    It works in the (B, C, L, V) layout throughout, and no copy transposes
    the innermost axis. A window's im2col columns are (Cin*k, L'*V), each row
    a whole (L', V) plane: the input itself for k = 1 and stride 1,
    otherwise k strided plane slices of a copy of the input
    zero-padded along L, filled a chunk of about BLOCK_BYTES at a time. One
    GEMM per window, W (Cout, Cin*k) @ columns, lands in the output layout,
    and the bias is added in place. Backward adds W_i^T @ gy per tap i into
    the zero-padded input gradient, and takes the weight gradient as one GEMM
    per window over columns it rebuilds chunk by chunk, summed over windows:
    no mode keeps columns. tests/test_tensor.py holds outputs and gradients
    to the bits of an np.pad + sliding_window_view reference with the same
    products, and within 1e-14 of the earlier one-GEMM rows @ W^T form.
    """
    x, weight = _as_tensor(x), _as_tensor(weight)
    if weight.data.ndim != 4 or weight.shape[3] != 1:
        raise ShapeError(f"conv2d_time weight must be (Cout, Cin, k, 1), got {weight.shape}")
    cout, _, k, _ = weight.shape
    _check_time_input(x, "conv2d_time")
    if k not in (1, 3) or stride_t < 1:
        raise InvalidParameterError(f"conv2d_time: kernel {k} or stride {stride_t} invalid")
    if weight.shape[1] != x.shape[1]:
        raise ShapeError(
            f"conv2d_time channel mismatch: input {x.shape[1]}, weight {weight.shape[1]}"
        )
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (cout,):
            raise ShapeError(f"conv2d_time bias must be ({cout},), got {bias.shape}")
    xd, wd = x.data, weight.data
    batch, cin, length, variates = xd.shape
    out_len = strided_length(length, stride_t)
    span = stride_t * (out_len - 1) + 1  # time steps from a tap's first to last read
    pad = k // 2
    padded = (batch, cin, length + 2 * pad, variates)
    pointwise = k == 1 and stride_t == 1
    w2d = wd.reshape(cout, cin * k)
    n_cols = out_len * variates

    def chunks():
        # (start, stop, columns) per chunk of windows, for forward and for grad_weight
        if pointwise:
            # C order, so that every input layout gets the same GEMM operands
            yield 0, batch, np.ascontiguousarray(xd).reshape(batch, cin, n_cols)
            return
        chunk = min(batch, max(1, BLOCK_BYTES // (8 * cin * k * n_cols)))
        xp = np.zeros((chunk,) + padded[1:])
        cols = np.empty((chunk, cin * k, n_cols))
        for start in range(0, batch, chunk):
            stop = min(start + chunk, batch)
            xp[: stop - start, :, pad : pad + length] = xd[start:stop]
            planes = cols[: stop - start].reshape(stop - start, cin, k, out_len, variates)
            for i in range(k):
                planes[:, :, i] = xp[: stop - start, :, i : i + span : stride_t]
            yield start, stop, cols[: stop - start]

    out_data = np.empty((batch, cout, n_cols))
    for start, stop, cols in chunks():
        np.matmul(w2d, cols, out=out_data[start:stop])
    if bias is not None:
        out_data += bias.data[:, np.newaxis]

    def grad_x(gy):
        gy = np.ascontiguousarray(gy).reshape(batch, cout, n_cols)
        taps = np.ascontiguousarray(wd[:, :, :, 0].transpose(2, 1, 0))  # W_i^T
        if pointwise:
            return (taps[0] @ gy).reshape(xd.shape)
        gxp = np.zeros(padded)
        for i in range(k):
            gxp[:, :, i : i + span : stride_t] += (taps[i] @ gy).reshape(
                batch, cin, out_len, variates)
        return gxp[:, :, pad : pad + length]

    def grad_weight(gy):
        gy = np.ascontiguousarray(gy).reshape(batch, cout, n_cols)
        per_window = np.empty((batch, cout, cin * k))
        for start, stop, cols in chunks():
            np.matmul(gy[start:stop], cols.transpose(0, 2, 1), out=per_window[start:stop])
        return per_window.sum(axis=0).reshape(wd.shape)

    out_data = out_data.reshape(batch, cout, out_len, variates)
    if bias is None:
        return _op("conv2d_time", out_data, (x, weight), grad_x, grad_weight)
    return _op("conv2d_time", out_data, (x, weight, bias), grad_x, grad_weight,
               lambda gy: gy.sum(axis=(0, 2, 3)))


def maxpool_time(x: Tensor) -> Tensor:
    """The halving max-pool along time: (B,C,L,V) -> (B,C,L',V).

    Kernel 3, stride 2 and one -inf step each side, so L' = strided_length(L, 2),
    as for a stride-2 conv2d_time, and every window holds an input step. Taps
    are strided slices of one -inf-padded copy of the input. Each window
    picks what argmax picks, the first NaN or else the first maximum: a later
    tap wins only where it is greater than the running maximum, or NaN over a
    number. The output is gathered from the picked elements, so it has their
    bits (-0.0 before 0.0 stays -0.0). Backward sums the gradient into the
    picked positions with np.bincount, in window order as np.add.at did.
    """
    x = _as_tensor(x)
    _check_time_input(x, "maxpool_time")
    batch, channels, length, variates = x.shape
    out_len = strided_length(length, 2)
    span = 2 * out_len - 1
    padded = (batch, channels, length + 2, variates)

    xp = np.empty(padded)
    xp[:, :, 0] = -np.inf
    xp[:, :, length + 1] = -np.inf
    xp[:, :, 1 : length + 1] = x.data
    running = xp[:, :, 0:span:2]
    pick = np.zeros(running.shape, np.int8)
    for i in (1, 2):
        tap = xp[:, :, i : i + span : 2]
        take = np.less_equal(tap, running)
        np.logical_not(take, out=take)  # tap greater, or either one NaN,
        take &= running == running  # but a NaN already picked stays
        pick += take * (np.int8(i) - pick)  # i where take
        # compares as the pick does; it may differ from the pick only in a
        # zero's sign or a NaN's payload, which no comparison sees
        running = np.maximum(running, tap)
    # each window's pick as a flat position in xp
    index = pick * np.intp(variates)
    index += np.arange(batch * channels).reshape(batch, channels, 1, 1) * (padded[2] * variates)
    index += np.arange(out_len)[:, np.newaxis] * (2 * variates) + np.arange(variates)

    def grad_x(gy):
        gxp = np.bincount(index.ravel(), np.ravel(gy), minlength=math.prod(padded))
        return gxp.reshape(padded)[:, :, 1 : length + 1]

    return _op("maxpool_time", xp.take(index), (x,), grad_x)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    """Exact-erf GELU: 0.5 * x * (1 + erf(x / sqrt(2))).

    A recorded call keeps one array for backward, the derivative
    GELU'(x) = cdf + x * pdf(x), made in forward, and neither x nor cdf;
    backward, which runs once, writes its product with gy over it. The
    output is written into cdf's buffer, so an unrecorded call allocates
    only its output.
    """
    x = _as_tensor(x)
    xd = x.data
    # Worked in place. Operands swap only where the operation commutes, so
    # every rounding is that of y = x * cdf, cdf = 0.5 * (1.0 + erf(x *
    # _INV_SQRT2)), and of gy * (cdf + x * (exp(-0.5 * x * x) * _INV_SQRT_2PI)).
    # scipy's erf is odd bit for bit, so erf(|z|) with z's sign (x's) put
    # back is erf(z); on inputs of one sign erf's branches stop mispredicting.
    cdf = np.multiply(xd, _INV_SQRT2, out=np.empty_like(xd))
    np.abs(cdf, out=cdf)
    erf(cdf, out=cdf)
    np.copysign(cdf, xd, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    d = None
    if _records((x,)):
        d = np.multiply(xd, -0.5, out=np.empty_like(xd))
        d *= xd
        np.exp(d, out=d)
        d *= _INV_SQRT_2PI
        d *= xd
        d += cdf
    cdf *= xd
    return _op("gelu", cdf, (x,), lambda gy: np.multiply(d, gy, out=d))


class TailGenerator(np.random.Generator):
    """A copy of a dropout generator, for a batch's windows after its first `lead`.

    `dropout` with the copy first skips the draws of `lead` windows shaped
    like its input's, so each of its masks is the one that a draw from the
    original over the whole batch gives the later windows, and the copy
    ends where that draw would leave the original. The original must be a
    PCG64 generator (`np.random.default_rng`).
    """

    def __init__(self, rng: np.random.Generator, lead: int):
        super().__init__(copy.deepcopy(rng.bit_generator))
        self.lead = lead


def dropout(x: Tensor, p: float, mode: str, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: train mode zeroes elements w.p. p and rescales by 1/(1-p).

    Train mode keeps a bool mask, `rng.random(shape) >= p`, and multiplies by
    it before the scale, so it rounds as a float mask on every input (scaling
    first makes NaN of a dropped x whose product with the scale overflows).
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
        return _op("dropout", x.data, (x,), _same)
    if rng is None:
        raise InvalidParameterError("dropout in train mode requires an rng")
    if isinstance(rng, TailGenerator):
        # random() below takes one PCG64 step per double, windows on axis 0
        rng.bit_generator.advance(rng.lead * math.prod(x.shape[1:]))
    keep = rng.random(x.shape) >= p
    scale = 1.0 / (1.0 - p)

    def masked(a):
        out = a * keep
        out *= scale
        return out

    return _op("dropout", masked(x.data), (x,), masked)


def softmax_lastdim(x: Tensor) -> Tensor:
    """Softmax over the last axis, computed with max-subtraction."""
    x = _as_tensor(x)
    if x.data.ndim < 1 or x.shape[-1] < 1:
        raise ShapeError(f"softmax_lastdim needs a non-empty last axis, got {x.shape}")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    return _op("softmax_lastdim", y, (x,),
               lambda gy: y * (gy - (gy * y).sum(axis=-1, keepdims=True)))


def attention_time(q: Tensor, k: Tensor, v: Tensor, scale: float) -> Tensor:
    """softmax(q @ k^T * scale) @ v over the trailing two axes, in one op.

    q, k, v are (..., L, d) with equal leading dims, seen as n = prod(...)
    sequences. Forward and backward walk the (L, L) scores in BLOCK_BYTES
    tasks and make every pass over a task while it is in cache. Forward
    exponentiates S = (q * scale) @ k^T less its row max m in place, keeps
    the row maxima m and the row sums r of those exponentials E, and
    returns (E @ v) / r. Backward recomputes each task's E = exp(S - m)
    with forward's GEMM shapes and order of operations, so E is forward's
    bit for bit; as FlashAttention does, it takes the softmax's row
    correction from the output, D = rowsum(gy * ctx), and the score
    gradient from one GEMM on [gy, D] / r and [v, -1] * scale, times E. In
    every mode forward allocates one task's buffer of exponentials and
    backward two (E and the score gradient), never an (n, L, L) array.
    Results are not bitwise those of the unfused chain; the tests hold them
    to a long-double reference.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.data.ndim < 2 or q.shape[-2] < 1 or not q.shape == k.shape == v.shape:
        raise ShapeError(f"attention_time needs equal non-empty (..., L, d) operands, "
                         f"got {q.shape}, {k.shape}, {v.shape}")
    length, d = q.shape[-2:]
    n = math.prod(q.shape[:-2])
    rows = max(1, BLOCK_BYTES // (8 * length))
    seqs = max(1, rows // length)
    tasks = [(slice(i, min(i + seqs, n)), slice(j, min(j + rows, length)))
             for i in range(0, n, seqs) for j in range(0, length, rows)]
    qs, ks, vs = (t.data.reshape(n, length, d) for t in (q, k, v))
    k_t, task = ks.swapaxes(1, 2), (min(seqs, n), min(rows, length), length)
    (maxes, sums), ctx = np.empty((2, n, length, 1)), np.empty((n, length, d))

    def front(buf, s, r):
        return buf[: s.stop - s.start, : r.stop - r.start]

    exps = np.empty(task)
    for s, r in tasks:
        e = np.matmul(qs[s, r] * scale, k_t[s], out=front(exps, s, r))
        e -= e.max(axis=-1, keepdims=True, out=maxes[s, r])
        np.exp(e, out=e)
        e.sum(axis=-1, keepdims=True, out=sums[s, r])
        np.matmul(e, vs[s], out=ctx[s, r])
    ctx /= sums

    def backward(gy, targets):
        # [gy, D] / r with D = rowsum(gy * ctx), the softmax's row correction;
        # its product with ([v, -1] * scale)^T is scale * (gy @ v^T - D) / r
        lhs = np.empty((n, length, d + 1))
        np.divide(gy.reshape(n, length, d), sums, out=lhs[..., :d])
        (lhs[..., :d] * ctx).sum(axis=-1, out=lhs[..., d])
        rhs = np.full((n, length, d + 1), -scale)
        np.multiply(vs, scale, out=rhs[..., :d])
        rhs_t = rhs.swapaxes(1, 2)
        gq, gk, gv = np.empty((3, n, length, d))
        # forward's GEMMs and subtract-then-exp again, so E is forward's, bitwise
        exps, score_grads = np.empty(task), np.empty(task)
        for s, r in tasks:
            e = np.matmul(qs[s, r] * scale, k_t[s], out=front(exps, s, r))
            e -= maxes[s, r]
            np.exp(e, out=e)
            g = np.matmul(lhs[s, r], rhs_t[s], out=front(score_grads, s, r))
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
                target._accumulate(grad.reshape(gy.shape))

    return _op("attention_time", ctx.reshape(q.shape), (q, k, v), backward=backward)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    shape = tuple(shape)
    if math.prod(shape) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")
    x_shape = x.shape
    return _op("reshape", x.data.reshape(shape), (x,), lambda g: g.reshape(x_shape))


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise ShapeError(f"transpose axes {axes} is not a permutation for rank {x.data.ndim}")
    return _op("transpose", x.data.transpose(axes), (x,), lambda g: g.transpose(np.argsort(axes)))


def slice_time(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous slice [start, stop) along axis 2 of a (B,C,L,V) tensor."""
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ShapeError(f"slice_time expects a (B, C, L, V) tensor, got {x.shape}")
    shape, length = x.shape, x.shape[2]
    if not 0 <= start < stop <= length:
        raise ShapeError(f"slice_time [{start}, {stop}) out of range for length {length}")

    def grad_x(gy):
        g = np.zeros(shape)
        g[:, :, start:stop, :] = gy
        return g

    return _op("slice_time", x.data[:, :, start:stop, :].copy(), (x,), grad_x)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Join tensors along axis 0; every other axis must agree."""
    parts = tuple(_as_tensor(p) for p in parts)
    if not parts or any(p.data.ndim == 0 or p.shape[1:] != parts[0].shape[1:] for p in parts):
        raise ShapeError(f"concat needs tensors of rank >= 1 that agree past axis 0, "
                         f"got {[p.shape for p in parts]}")
    stops = list(itertools.accumulate(p.shape[0] for p in parts))
    return _op("concat", np.concatenate([p.data for p in parts]), parts,
               *(lambda g, s=slice(stop - p.shape[0], stop): g[s]
                 for p, stop in zip(parts, stops)))


def tensor_sum(x: Tensor, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> Tensor:
    """Sum over the given axes (all axes when None)."""
    x = _as_tensor(x)
    shape = x.shape

    def grad_x(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, shape).copy()

    return _op("sum", x.data.sum(axis=axis, keepdims=keepdims), (x,), grad_x)


def sqrt(x: Tensor) -> Tensor:
    """Elementwise square root; differentiated only for strictly positive inputs."""
    x = _as_tensor(x)
    y = np.sqrt(x.data)
    return _op("sqrt", y, (x,), lambda g: g * 0.5 / y)


def weight_norm(v: Tensor, g: Tensor) -> Tensor:
    """Weight normalization: g[i] * v[i] / ||v[i]|| for each slice v[i] of axis 0.

    One op for the chain mul(unit, reshape(g)) of unit = div(v, sqrt(s)),
    s = sum(mul(v, v)) over every axis but the first. Forward evaluates that
    chain's numpy expressions. Backward replays its arithmetic in pop order:
    v receives the quotient term, then mul(v, v)'s term twice, and every
    reduction goes through `_unbroadcast` axis by axis. Outputs and gradients
    are therefore bitwise the chain's (tests/test_tensor.py keeps it as an
    oracle). Raises DegenerateWeightError when a slice of v has zero norm.
    """
    v, g = _as_tensor(v), _as_tensor(g)
    if g.shape != v.shape[:1]:
        raise ShapeError(f"weight_norm needs g of shape (v.shape[0],), "
                         f"got {g.shape} for v {v.shape}")
    vd, g_shape = v.data, g.shape
    gr_shape = vd.shape[:1] + (1,) * (vd.ndim - 1)
    norms_sq = (vd * vd).sum(axis=tuple(range(1, vd.ndim)), keepdims=True)
    if not norms_sq.all():  # a zero norm; cheaper than np.any(norms_sq == 0.0)
        raise DegenerateWeightError("weight-normalized channel has zero direction norm")
    norms = np.sqrt(norms_sq)
    unit = vd / norms
    gr = g.data.reshape(gr_shape)

    def backward(gw, targets):
        to_v, to_g = targets
        if to_v is not None:
            gunit = gw * gr
            to_v._accumulate(gunit / norms)
            gnorms = _unbroadcast(-gunit * vd / (norms * norms), norms.shape)
            gsq = gnorms * 0.5 / norms * vd
            to_v._accumulate(gsq)
            to_v._accumulate(gsq)
        if to_g is not None:
            to_g._accumulate(_unbroadcast(gw * unit, gr_shape).reshape(g_shape))

    return _op("weight_norm", unit * gr, (v, g), backward=backward)


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
    loss.backward()
    return [np.zeros_like(p.data) if p.grad is None else p.grad for p in params]


def grad_check(f: Callable[[], Tensor], points: Sequence[Tensor] | Tensor) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` must rebuild a scalar loss from the current `.data` of `points` on
    every call. Differences step each coordinate by h = 1e-5. The relative
    error per coordinate is |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
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

    h = 1e-5
    worst = 0.0
    with no_grad():
        for p, ga in zip(points, analytic):
            flat = p.data.reshape(-1)
            gflat = ga.reshape(-1)
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + h
                up = f().data.item()
                flat[i] = saved - h
                down = f().data.item()
                flat[i] = saved
                if not (math.isfinite(up) and math.isfinite(down)):
                    raise NumericError("grad_check: non-finite evaluation during differencing")
                numeric = (up - down) / (2.0 * h)
                err = abs(gflat[i] - numeric) / max(1e-8, abs(gflat[i]) + abs(numeric))
                worst = max(worst, err)
    return worst
