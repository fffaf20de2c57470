"""Neural layers shared by both forecasting models.

All layers preserve variate independence: convolution kernels have extent 1
in the variate dimension and attention runs along time separately per
variate, with weights shared across variates. Layers are immutable during a
forward/backward pass; parameter updates require exclusive access.

Every layer, block and model derives from `Module`, whose attribute walk is
the one place parameter names are made.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .tensor import Tensor


def kaiming_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """PyTorch's default weight draw: U(-1/sqrt(fan_in), +1/sqrt(fan_in)).

    That is `kaiming_uniform_(a=sqrt(5))`, what `nn.Conv2d` and `nn.Linear`
    start from; biases here start at zero (README, "Initialisation").
    """
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Module:
    """A node of the model tree that owns parameters directly or through children.

    `named_parameters` walks `vars(self)` in attribute order: a Tensor
    attribute is a parameter named after the attribute, a Module attribute
    adds `name.` to the prefix, and a list of Modules names its items by the
    singular of the list's name (`blocks` -> `block0.`, `block1.`, ...).
    """

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                out[prefix + name] = value
            elif isinstance(value, Module):
                out.update(value.named_parameters(f"{prefix}{name}."))
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.update(item.named_parameters(f"{prefix}{_singular(name)}{i}."))
        return out

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def __deepcopy__(self, memo):
        """A deep copy without the callables set on the instance.

        A function set on an instance (a tracer's wrapper of its `forward`,
        say) calls into the original module, so the copy leaves it out and
        runs its class's methods on its own attributes.
        """
        twin = memo[id(self)] = object.__new__(type(self))
        twin.__dict__.update((name, copy.deepcopy(value, memo))
                             for name, value in vars(self).items() if not callable(value))
        return twin


def _singular(plural: str) -> str:
    """branches -> branch, blocks -> block."""
    return plural[:-2] if plural.endswith(("ches", "shes", "sses", "xes")) else plural[:-1]


class WeightNormConv(Module):
    """Time-axis convolution with weight-normalized kernels.

    Trainable parameters are the direction tensor v (Cout,Cin,k,1), the
    per-channel magnitude g (Cout,) and the bias (Cout,). The effective
    kernel is g * v / ||v|| with the Euclidean norm taken per output channel
    over all remaining axes, so the per-channel norm of the effective kernel
    equals |g| exactly. One op, `tensor.weight_norm`, computes it on every
    forward. At init g = ||v||, making the effective kernel equal the freshly
    drawn v.
    """

    def __init__(self, cin: int, cout: int, k: int, stride_t: int = 1, *,
                 rng: np.random.Generator):
        v = kaiming_uniform(rng, (cout, cin, k, 1), fan_in=cin * k)
        self.v = Tensor(v, requires_grad=True)
        self.g = Tensor(np.sqrt((v * v).sum(axis=(1, 2, 3))), requires_grad=True)
        self.bias = Tensor(np.zeros(cout), requires_grad=True)
        self.stride_t = stride_t

    def effective_weight(self) -> Tensor:
        """g * v / ||v|| per output channel; gradients flow into v and g."""
        return T.weight_norm(self.v, self.g)

    def forward(self, x: Tensor) -> Tensor:
        return T.conv2d_time(x, self.effective_weight(), self.bias, self.stride_t)


class ValueEmbedding(Module):
    """Scalar-to-D-channel affine map: an un-normalized 1x1 conv on (B,1,L,V).

    No cross-time or cross-variate mixing; each (t, v) element is embedded
    independently.
    """

    def __init__(self, embed_dim: int, *, rng: np.random.Generator):
        self.weight = Tensor(kaiming_uniform(rng, (embed_dim, 1, 1, 1), fan_in=1),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(embed_dim), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        if x.data.ndim != 4 or x.shape[1] != 1:
            raise ShapeError(f"value embedding expects (B, 1, L, V), got {x.shape}")
        return T.conv2d_time(x, self.weight, self.bias)


class LinearHead(Module):
    """Per-variate linear projection with weights shared across variates.

    y[b, :, v] = weight @ features[b, :, v] + bias, as one GEMM over every
    (window, variate) row: (B*V, in) @ weight^T, plus the bias.
    """

    def __init__(self, in_len: int, out_len: int, *, rng: np.random.Generator):
        self.weight = Tensor(kaiming_uniform(rng, (out_len, in_len), fan_in=in_len),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_len), requires_grad=True)
        self.in_len = in_len
        self.out_len = out_len

    def forward(self, features: Tensor) -> Tensor:
        if features.data.ndim != 3 or features.shape[1] != self.in_len:
            raise ShapeError(
                f"linear head expects (B, {self.in_len}, V), got {features.shape}"
            )
        batch, _, variates = features.shape
        rows = T.reshape(T.transpose(features, (0, 2, 1)), (batch * variates, self.in_len))
        y = T.add(T.matmul(rows, T.transpose(self.weight, (1, 0))), self.bias)
        return T.transpose(T.reshape(y, (batch, variates, self.out_len)), (0, 2, 1))


class MultiHeadAttention(Module):
    """Canonical scaled dot-product attention along the time axis.

    Four square projection matrices (d x d); heads split the embedding into
    d/h slices, attention weights are softmax(Q K^T / sqrt(d/h)), and the
    concatenated head outputs pass through the output projection. Projections
    carry no bias. The score-softmax-context core is the fused
    `tensor.attention_time` op: it runs every pass over the (L x L) scores
    of a few (sequence, head) pairs, or a run of rows of one, at a time,
    sized to stay in cache. It keeps row maxima and sums, exponentials
    recomputed in backward: (L x 1) arrays per head and sequence, instead
    of the (L x L) arrays of each step of the unfused chain. Q, K, V and the
    merged heads are bound to no name, so each goes when its reader returns.
    """

    def __init__(self, d: int, heads: int = 1, *, rng: np.random.Generator):
        if d % heads != 0:
            raise ShapeError(f"embedding dim {d} not divisible by head count {heads}")
        self.d = d
        self.heads = heads
        self.w_q = Tensor(kaiming_uniform(rng, (d, d), fan_in=d), requires_grad=True)
        self.w_k = Tensor(kaiming_uniform(rng, (d, d), fan_in=d), requires_grad=True)
        self.w_v = Tensor(kaiming_uniform(rng, (d, d), fan_in=d), requires_grad=True)
        self.w_o = Tensor(kaiming_uniform(rng, (d, d), fan_in=d), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        """Attend over (N, L, d) sequences; rows are time positions."""
        if x.data.ndim != 3 or x.shape[2] != self.d:
            raise ShapeError(f"attention expects (N, L, {self.d}), got {x.shape}")
        n, length, d = x.shape
        h, dh = self.heads, self.d // self.heads

        def split_heads(t: Tensor) -> Tensor:
            return T.transpose(T.reshape(t, (n, length, h, dh)), (0, 2, 1, 3))

        ctx = T.attention_time(split_heads(T.matmul(x, self.w_q)),
                               split_heads(T.matmul(x, self.w_k)),
                               split_heads(T.matmul(x, self.w_v)), 1.0 / math.sqrt(dh))
        return T.matmul(T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (n, length, d)), self.w_o)

    def forward_per_variate(self, x: Tensor) -> Tensor:
        """Apply attention along time independently per variate of (B,D,L,V)."""
        batch, d, length, variates = x.shape
        seq = T.reshape(T.transpose(x, (0, 3, 2, 1)), (batch * variates, length, d))
        out = self.forward(seq)
        return T.transpose(T.reshape(out, (batch, variates, length, d)), (0, 3, 2, 1))
