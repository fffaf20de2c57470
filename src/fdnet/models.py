"""Forecasting models built on focal decomposition.

Both models share one skeleton per branch: 1x1 value embedding, a stack of
feature-extraction blocks, a per-variate channel-major flatten, and a linear
head shared across variates; branch predictions are summed in branch order
(oldest first). No parameter is shared across branches, so each branch's
output depends only on its own temporal slice, and every layer keeps
variates independent.

The plain block keeps temporal length; the downsampling block halves it
(L -> floor((L-1)/2) + 1) via a strided conv with a max-pool skip, and mixes
time positions per variate through canonical attention.

Parameters are read-only during forward; batched inference over distinct
graphs is safe. Branches share nothing and each window's forecast depends on
that window alone, so a forward of at least PARALLEL_MIN_ELEMENTS input
elements hands two parts of its work to `tensor._run_two`, which decides how
they run. At construction the branches are cut into two contiguous groups
whose larger one holds the least of the summed `_Branch.work` (FDNet {0, 1} |
{2, 3, 4}, FUNet {0} | {1..4} at the default plan), and one rule is fixed:
batch halves when the larger group holds over 0.54 of the work (all of it at
f 1, which has no cut), branch lanes otherwise. It holds for every large
forward, train or eval, grad or no grad; halves also need at least 4 windows
and an input that does not require grad. At the default plans FUNet (630 of
1,134) splits its batch and FDNet (672 of 1,302) runs branch lanes.

Branch lanes run each group as one of `_run_two`'s functions. The group on
the helper thread runs in a copy of the caller's context, so `no_grad` and op
hooks reach it, and each group's graph nodes carry its lane, so a train step's
backward runs the groups' subgraphs on the same two threads after the loss
and branch-sum nodes. With one usable CPU, while another call holds the
helper, and below the gate, the branches run serially on the calling
thread. Either way outputs are collected in branch order, the branch sum
reduces oldest-to-newest and every gradient accumulates in the serial
order, so results and gradients are bitwise the same.

Batch halves run the serial branch loop on x[:B//2] and x[B//2:] as
`_run_two`'s functions, and `tensor.concat` joins the prediction, branch
outputs and representations. A train forward runs the second half on a deep
copy of the branches holding twin parameter leaves (`Tensor.twin`), whose
gradients backward adds into the parameters' after the first half's, and
`tensor.TailGenerator` copies of each dropout generator, which skip the
first half's draws; the originals then take over the copies' states, so
every mask and stream is the whole batch's. A half's smaller head GEMM can
round apart from the whole batch's (FUNet at L_in 672, V=1, embed 32, B=16)
and a train step's gradients are a sum of two halves, so the split depends
on the plan and the input's shape alone, never on the CPU count: one-CPU and
two-CPU outputs and gradients stay bitwise equal.
"""

from __future__ import annotations

import copy
import functools
import itertools
from collections.abc import Iterator

import numpy as np

from . import tensor as T
from .errors import InvalidParameterError, NumericError, SequenceTooShortError, ShapeError
from .focal import FocalPlan, make_focal_plan, slice_input
from .layers import LinearHead, Module, MultiHeadAttention, ValueEmbedding, WeightNormConv
from .tensor import Tensor

_PARAM_DOMAIN = 0
_DROPOUT_DOMAIN = 1

# Forwards with fewer input elements than this, counted as B * L_in * V *
# embed_dim, run their branches serially. On the 2-vCPU Xeon the benchmark
# runs on, two threads took 0.94-1.08x the serial time of an eval or train
# forward from 2^10 to 2^17.2 elements (small ops hold the GIL for most of
# their time) and 0.74-0.93x from 2^18.2 up, for both variants; two threads
# on the gradient suite's 128-element models made it up to 2x slower. Batch
# halves of a no-grad eval forward (default config, 21 alternating pairs per
# size) took 1.07x and 1.01x the serial time for FDNet at 2^17.2 and 2^17.5
# (0.86x and 0.93x for FUNet), and 0.84x, 0.72x and 0.67x at 2^18, 2^18.5 and
# 2^19 (FUNet 0.77x, 0.65x, 0.65x), so one gate serves both splits.
PARALLEL_MIN_ELEMENTS = 1 << 18


_Streams = Iterator[np.random.Generator]


def _streams(seed: int, domain: int) -> _Streams:
    """Independent generator streams, handed out by next() in construction order."""
    for index in itertools.count():
        yield np.random.default_rng(np.random.SeedSequence([seed, domain, index]))


def halved_length(length: int) -> int:
    """Temporal length after one stride-2, kernel-3, pad-1 stage."""
    return (length - 1) // 2 + 1


def stack_output_length(length: int, depth: int) -> int:
    """Length after `depth` downsampling blocks."""
    for _ in range(depth):
        length = halved_length(length)
    return length


class DFEInitialBlock(Module):
    """Four weight-normalized convs (1x1, 3x1, 1x1, 3x1) with two residuals.

    Each 3x1 conv output adds the activation that entered the preceding 1x1
    conv, then dropout and GELU. Channel count and temporal length are
    preserved; the receptive field grows by 2 per block.
    """

    def __init__(self, d: int, dropout_p: float, params: _Streams, drops: _Streams):
        self.conv1 = WeightNormConv(d, d, 1, rng=next(params))
        self.conv2 = WeightNormConv(d, d, 3, pad_t=1, rng=next(params))
        self.conv3 = WeightNormConv(d, d, 1, rng=next(params))
        self.conv4 = WeightNormConv(d, d, 3, pad_t=1, rng=next(params))
        self.dropout_p = dropout_p
        self._drop_rngs = [next(drops) for _ in range(4)]

    def _drop(self, x: Tensor, site: int, mode: str) -> Tensor:
        return T.dropout(x, self.dropout_p, mode, self._drop_rngs[site])

    def forward(self, x: Tensor, mode: str) -> Tensor:
        h1 = T.gelu(self._drop(self.conv1.forward(x), 0, mode))
        h2 = T.gelu(self._drop(T.add(self.conv2.forward(h1), x), 1, mode))
        h3 = T.gelu(self._drop(self.conv3.forward(h2), 2, mode))
        return T.gelu(self._drop(T.add(self.conv4.forward(h3), h2), 3, mode))


class DFEICOMBlock(Module):
    """Attention + downsampling block: halves temporal length.

    a = gelu(drop(x + WNConv1x1(attention(x))));
    b = gelu(drop(WNConv3x1-stride2(a)));
    c = gelu(drop(WNConv3x1(b)));
    out = c + maxpool3x1-stride2(x).
    Both halving paths share the floor((L-1)/2)+1 length rule, so the final
    add is always shape-consistent.
    """

    def __init__(self, d: int, heads: int, dropout_p: float, params: _Streams, drops: _Streams):
        self.attn = MultiHeadAttention(d, heads, rng=next(params))
        self.conv_mix = WeightNormConv(d, d, 1, rng=next(params))
        self.conv_down = WeightNormConv(d, d, 3, stride_t=2, pad_t=1, rng=next(params))
        self.conv_post = WeightNormConv(d, d, 3, pad_t=1, rng=next(params))
        self.dropout_p = dropout_p
        self._drop_rngs = [next(drops) for _ in range(3)]

    def _drop(self, x: Tensor, site: int, mode: str) -> Tensor:
        return T.dropout(x, self.dropout_p, mode, self._drop_rngs[site])

    def forward(self, x: Tensor, mode: str) -> Tensor:
        if x.shape[2] < 2:
            raise SequenceTooShortError(
                f"downsampling block needs temporal length >= 2, got {x.shape[2]}"
            )
        mixed = self.conv_mix.forward(self.attn.forward_per_variate(x))
        a = T.gelu(self._drop(T.add(x, mixed), 0, mode))
        b = T.gelu(self._drop(self.conv_down.forward(a), 1, mode))
        c = T.gelu(self._drop(self.conv_post.forward(b), 2, mode))
        return T.add(c, T.maxpool_time(x, 3, 2, 1))


class _Branch(Module):
    """One focal branch: embedding, block stack, flatten, linear head.

    `work` sums the temporal lengths entering its blocks, the branch's share
    of a forward's cost.
    """

    def __init__(self, index: int, length: int, depth: int, variant: str, d: int,
                 l_out: int, heads: int, dropout_p: float,
                 params: _Streams, drops: _Streams):
        self.depth = depth
        self.embed = ValueEmbedding(d, rng=next(params))
        if variant == "fdnet":
            self.blocks = [DFEInitialBlock(d, dropout_p, params, drops)
                           for _ in range(depth)]
            self.out_length = length
            self.work = length * depth
        else:
            self.blocks = []
            current = length
            self.work = 0
            for _ in range(depth):
                if current < 2:
                    raise SequenceTooShortError(
                        f"branch {index}: length {length} cannot survive {depth} halvings"
                    )
                self.blocks.append(DFEICOMBlock(d, heads, dropout_p, params, drops))
                self.work += current
                current = halved_length(current)
            self.out_length = current
        self.head = LinearHead(d * self.out_length, l_out, rng=next(params))

    def representation(self, x_slice: Tensor, mode: str) -> Tensor:
        """Post-stack, pre-flatten features (B, D, out_length, V)."""
        h = self.embed.forward(x_slice)
        for block in self.blocks:
            h = block.forward(h, mode)
        return h

    def forward(self, x_slice: Tensor, mode: str) -> tuple[Tensor, Tensor]:
        h = self.representation(x_slice, mode)
        batch, d, length, variates = h.shape
        # channel-major flatten: feature index = channel * length + time
        flat = T.reshape(h, (batch, d * length, variates))
        return self.head.forward(flat), h


def _run_branches(pairs, mode: str) -> list[tuple[Tensor, Tensor]]:
    return [branch.forward(x_slice, mode) for branch, x_slice in pairs]


def _sum_branches(results):
    """(pred, branch outputs, representations); pred sums oldest to newest."""
    outputs = [y for y, _ in results]
    pred = outputs[0]
    for y in outputs[1:]:
        pred = T.add(pred, y)
    return pred, outputs, [h for _, h in results]


class _FocalModel(Module):
    """Shared machinery for both model variants."""

    variant = ""

    def __init__(self, plan: FocalPlan, embed_dim: int, l_out: int, seed: int, heads: int,
                 dropout_p: float):
        if plan.variant != self.variant:
            raise ShapeError(f"plan variant {plan.variant!r} does not fit {self.variant!r}")
        self.plan = plan
        self.embed_dim = embed_dim
        self.l_out = l_out
        self.seed = seed
        self.heads = heads
        self.dropout_p = dropout_p
        params = _streams(seed, _PARAM_DOMAIN)
        drops = _streams(seed, _DROPOUT_DOMAIN)
        self.branches = [
            _Branch(i, length, depth, self.variant, embed_dim, l_out, heads,
                    dropout_p, params, drops)
            for i, (length, depth) in enumerate(zip(plan.lengths, plan.depths))
        ]
        # branches [:cut] go to the helper thread; cut where the larger group is least
        work = [branch.work for branch in self.branches]
        self._cut = min(range(1, len(work)),
                        key=lambda k: max(sum(work[:k]), sum(work[k:])), default=0)
        # Batch halves when the cut's larger side holds over 0.54 of the work.
        # On the 2-vCPU Xeon the benchmark runs on (L_in 672, V 7, embed 8), a
        # B 16 train step with halves took 1.04-1.15x the branch-lane step at
        # larger-side shares 0.501-0.525, 0.80-0.98x at 0.556-0.609 and
        # 0.58-0.62x at f 1; shares 0.534-0.548 read 1.01-1.10x, FUNet's 0.500
        # 0.92-1.04x (BENCH_20.json `plans`).
        self._halves = max(sum(work[:self._cut]), sum(work[self._cut:])) > 0.54 * sum(work)

    @property
    def config(self) -> dict:
        """The settings that rebuild this model through `model_from_config`."""
        return {
            "variant": self.variant,
            "l_in": self.plan.l_in,
            "l_out": self.l_out,
            "f": self.plan.f,
            "alpha": self.plan.alpha,
            "n_layers": max(self.plan.depths),
            "embed_dim": self.embed_dim,
            "heads": self.heads,
            "dropout": self.dropout_p,
            "seed": self.seed,
            "plan_lengths": list(self.plan.lengths),
            "plan_depths": list(self.plan.depths),
        }

    def _check_input(self, x: Tensor):
        if x.data.ndim != 4 or x.shape[1] != 1:
            raise ShapeError(f"model expects (B, 1, L_in, V), got {x.shape}")
        if x.shape[2] != self.plan.l_in:
            raise ShapeError(
                f"input length {x.shape[2]} does not match plan length {self.plan.l_in}"
            )
        if not np.isfinite(x.data).all():
            raise NumericError("model input contains non-finite values")

    def forward(self, x: Tensor, mode: str = "eval") -> tuple[Tensor, list[Tensor]]:
        """Predict (B, L_out, V); also return the per-branch predictions."""
        pred, branch_outputs, _ = self._run(x, mode)
        return pred, branch_outputs

    def representations(self, x: Tensor, mode: str = "eval") -> list[Tensor]:
        """Per-branch post-stack features, for export and analysis."""
        _, _, reprs = self._run(x, mode)
        return reprs

    def _run(self, x: Tensor, mode: str):
        self._check_input(x)
        batch, _, l_in, variates = x.shape
        large = batch * l_in * variates * self.embed_dim >= PARALLEL_MIN_ELEMENTS
        if large and batch >= 4 and self._halves and not x.requires_grad:
            return self._run_halves(x, mode)
        if self._cut == 0 or not large:
            return self._run_serial(x, mode)
        pairs = list(zip(self.branches, slice_input(x, self.plan)))
        head, tail = T._run_two(functools.partial(_run_branches, pairs[:self._cut], mode),
                                functools.partial(_run_branches, pairs[self._cut:], mode))
        return _sum_branches(head + tail)

    def _run_serial(self, x: Tensor, mode: str, branches=None):
        pairs = zip(branches or self.branches, slice_input(x, self.plan))
        return _sum_branches(_run_branches(pairs, mode))

    def _run_halves(self, x: Tensor, mode: str):
        """The serial loop on each batch half, as `_run_two`'s two functions, joined.

        Windows are independent. However `_run_two` runs the halves, every
        GEMM has the same shape. In train mode the later half runs on twin
        branches (see the module docstring).
        """
        lead = x.shape[0] // 2
        branches, clones = self.branches, {}
        if mode == "train":
            clones = {rng: T.TailGenerator(rng, lead) for branch in self.branches
                      for block in branch.blocks for rng in block._drop_rngs}
            memo = {id(p): p.twin() for p in self.parameters()}
            memo.update((id(rng), clone) for rng, clone in clones.items())
            branches = copy.deepcopy(self.branches, memo)
        (pa, ya, ha), (pb, yb, hb) = T._run_two(
            functools.partial(self._run_serial, Tensor(x.data[:lead]), mode),
            functools.partial(self._run_serial, Tensor(x.data[lead:]), mode, branches))
        for rng, clone in clones.items():
            rng.bit_generator.state = clone.bit_generator.state
        return (T.concat((pa, pb)), list(map(T.concat, zip(ya, yb))),
                list(map(T.concat, zip(ha, hb))))

    def param_count(self) -> dict[str, int]:
        """Exact parameter tallies by group, via tensor enumeration."""
        groups = {
            "embedding": [b.embed for b in self.branches],
            "blocks": [block for b in self.branches for block in b.blocks],
            "head": [b.head for b in self.branches],
        }
        counts = {name: sum(p.size for m in modules for p in m.parameters())
                  for name, modules in groups.items()}
        counts["total"] = sum(counts.values())
        return counts


class FDNetModel(_FocalModel):
    """Plain variant: length-preserving conv stacks, deeper toward the present."""

    variant = "fdnet"


class FUNetModel(_FocalModel):
    """Downsampling variant: farther branches pass through more halving blocks."""

    variant = "funet"


def build_model(variant: str, l_in: int, l_out: int, f: int, alpha: float,
                n_layers: int, embed_dim: int, seed: int, heads: int = 1,
                dropout_p: float = 0.1):
    """Construct either model from scalar hyper-parameters."""
    plan = make_focal_plan(l_in, f, alpha, n_layers, variant)
    if min(embed_dim, heads, l_out) < 1 or seed < 0:
        raise InvalidParameterError(f"embed_dim, heads and l_out must be >= 1 and seed >= 0, "
                                    f"got {embed_dim}, {heads}, {l_out} and {seed}")
    if not 0.0 <= dropout_p < 1.0:
        raise InvalidParameterError(f"dropout must lie in [0, 1), got {dropout_p}")
    cls = FDNetModel if variant == "fdnet" else FUNetModel
    return cls(plan, embed_dim, l_out, seed, heads, dropout_p)


def model_from_config(config) -> _FocalModel:
    """`build_model` from `_FocalModel.config`'s keys, which `fdnet.cli.RunConfig` shares.

    Configs saved before `heads` and `dropout` were stored get 1 and 0.1.
    """
    return build_model(config["variant"], config["l_in"], config["l_out"], config["f"],
                       config["alpha"], config["n_layers"], config["embed_dim"],
                       config["seed"], config.get("heads", 1), config.get("dropout", 0.1))
