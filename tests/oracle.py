"""An independent forward of FDNet and FUNet in plain numpy and `math.erf`.

It is written from the architecture that README and the `fdnet.models`
docstrings describe, and imports nothing from `fdnet`: the caller hands it
the hyper-parameters and a `{checkpoint name: array}` dict, which it reads
by name (`branch0.block1.conv2.v`, ...). Every op is spelled out the long
way: the focal plan from its geometric proportions, weight norm
g * v / ||v||, time convs as explicit sums over taps, GELU through
`math.erf`, the stride-2 max-pool over -inf padding, per-variate attention
with a textbook softmax, the channel-major flatten, the head and the branch
sum, oldest first. Train mode draws each dropout site's mask from its own
generator, `SeedSequence([seed, 1, index])` with sites numbered in
construction order, so it also pins the package's stream contract.

Its summation orders differ from the package's, so agreement is to a
relative 1e-12 or so, not bitwise.
"""

from __future__ import annotations

import math

import numpy as np

_erf = np.frompyfunc(math.erf, 1, 1)


def focal_plan(l_in: int, f: int, alpha: float, n_layers: int, variant: str):
    """Branch lengths and depths, oldest to newest.

    Proportions a, a^2, ..., a^(f-1), a^(f-1); every branch but the oldest
    takes floor(l_in * proportion) and the oldest the rest. FDNet depths
    count up to n_layers at the newest branch, FUNet's down to 1; both clip
    at 1.
    """
    proportions = [alpha ** min(i + 1, f - 1) for i in range(f)]
    rest = [int(l_in * p) for p in proportions[1:]]
    lengths = [l_in - sum(rest)] + rest
    if variant == "fdnet":
        depths = [max(n_layers - (f - 1 - i), 1) for i in range(f)]
    else:
        depths = [max(f - 1 - i, 1) for i in range(f)]
    return lengths, depths


def gelu(x):
    return 0.5 * x * (1.0 + _erf(x / math.sqrt(2.0)).astype(float))


def conv(params, name, x, stride=1, pad=0):
    """Weight-normalized time conv of (B, Cin, L, V): a sum over taps of W_i @ x."""
    v, g, bias = (params[f"{name}.{part}"] for part in ("v", "g", "bias"))
    w = g[:, None, None, None] * v / np.sqrt((v ** 2).sum(axis=(1, 2, 3), keepdims=True))
    k = w.shape[2]
    batch, cin, length, variates = x.shape
    xp = np.zeros((batch, cin, length + 2 * pad, variates))
    xp[:, :, pad:pad + length] = x
    out_len = (length + 2 * pad - k) // stride + 1
    out = np.zeros((batch, w.shape[0], out_len, variates))
    for t in range(out_len):
        for i in range(k):
            out[:, :, t] += np.einsum("oc,bcv->bov", w[:, :, i, 0], xp[:, :, t * stride + i])
    return out + bias[None, :, None, None]


def maxpool(x):
    """Kernel 3, stride 2, one step of -inf padding on each side of time."""
    length = x.shape[2]
    xp = np.full(x.shape[:2] + (length + 2,) + x.shape[3:], -np.inf)
    xp[:, :, 1:length + 1] = x
    out_len = (length - 1) // 2 + 1
    return np.stack([xp[:, :, 2 * t:2 * t + 3].max(axis=2) for t in range(out_len)], axis=2)


def attention(params, name, x, heads):
    """Scaled dot-product attention along time, separately for each (window, variate)."""
    w_q, w_k, w_v, w_o = (params[f"{name}.{w}"] for w in ("w_q", "w_k", "w_v", "w_o"))
    batch, d, length, variates = x.shape
    dh = d // heads
    out = np.empty_like(x)
    for b in range(batch):
        for var in range(variates):
            seq = x[b, :, :, var].T  # (L, d): rows are time positions
            q, k, v = seq @ w_q, seq @ w_k, seq @ w_v
            ctx = np.empty((length, d))
            for h in range(heads):
                cols = slice(h * dh, (h + 1) * dh)
                scores = q[:, cols] @ k[:, cols].T / math.sqrt(dh)
                e = np.exp(scores - scores.max(axis=1, keepdims=True))
                ctx[:, cols] = (e / e.sum(axis=1, keepdims=True)) @ v[:, cols]
            out[b, :, :, var] = (ctx @ w_o).T
    return out


class _Dropout:
    """Inverted dropout, one generator per site, numbered in construction order."""

    def __init__(self, p: float, mode: str, seed: int):
        self.p, self.mode, self.seed, self.site = p, mode, seed, 0

    def sites(self, count: int) -> list:
        rngs = [np.random.default_rng(np.random.SeedSequence([self.seed, 1, self.site + i]))
                for i in range(count)]
        self.site += count
        return rngs

    def __call__(self, x, rng):
        if self.mode == "eval" or self.p == 0.0:
            return x
        return x * (rng.random(x.shape) >= self.p) * (1.0 / (1.0 - self.p))


def fdnet_block(params, name, x, drop, rngs):
    h = gelu(drop(conv(params, f"{name}.conv1", x), rngs[0]))
    skip = gelu(drop(conv(params, f"{name}.conv2", h, pad=1) + x, rngs[1]))
    h = gelu(drop(conv(params, f"{name}.conv3", skip), rngs[2]))
    return gelu(drop(conv(params, f"{name}.conv4", h, pad=1) + skip, rngs[3]))


def funet_block(params, name, x, drop, rngs, heads):
    a = gelu(drop(x + conv(params, f"{name}.conv_mix", attention(params, f"{name}.attn",
                                                                  x, heads)), rngs[0]))
    b = gelu(drop(conv(params, f"{name}.conv_down", a, stride=2, pad=1), rngs[1]))
    c = gelu(drop(conv(params, f"{name}.conv_post", b, pad=1), rngs[2]))
    return c + maxpool(x)


def forward(params: dict, x: np.ndarray, *, variant: str, f: int, alpha: float,
            n_layers: int, heads: int = 1, dropout: float = 0.1, seed: int = 0,
            mode: str = "eval"):
    """Predict (B, L_out, V) from (B, 1, L_in, V); also return each branch's prediction."""
    lengths, depths = focal_plan(x.shape[2], f, alpha, n_layers, variant)
    drop = _Dropout(dropout, mode, seed)
    block_rngs = [[drop.sites(4 if variant == "fdnet" else 3) for _ in range(depth)]
                  for depth in depths]
    outputs, start = [], 0
    for i, length in enumerate(lengths):
        s = x[:, :, start:start + length]
        start += length
        w, bias = params[f"branch{i}.embed.weight"], params[f"branch{i}.embed.bias"]
        h = w.reshape(1, -1, 1, 1) * s + bias[None, :, None, None]
        for j, rngs in enumerate(block_rngs[i]):
            name = f"branch{i}.block{j}"
            h = (fdnet_block(params, name, h, drop, rngs) if variant == "fdnet"
                 else funet_block(params, name, h, drop, rngs, heads))
        batch, d, out_len, variates = h.shape
        features = np.empty((batch, d * out_len, variates))
        for c in range(d):  # channel-major: feature index = channel * length + time
            for t in range(out_len):
                features[:, c * out_len + t] = h[:, c, t]
        head_w, head_b = params[f"branch{i}.head.weight"], params[f"branch{i}.head.bias"]
        outputs.append(np.einsum("of,bfv->bov", head_w, features) + head_b[None, :, None])
    pred = outputs[0]
    for y in outputs[1:]:
        pred = pred + y
    return pred, outputs
