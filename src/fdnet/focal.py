"""Focal input-sequence decomposition: branch lengths and depth schedules.

The input window is split into consecutive sub-sequences whose proportions
follow a geometric series in temporal distance from the prediction window:
oldest to newest {a, a^2, ..., a^(f-1), a^(f-1)}, the two newest equal so the
proportions sum to 1 when a = 0.5. Nearer branches are shorter and (in the
plain variant) deeper; the downsampling variant reverses the depth order so
farther branches are pooled to coarser resolutions.

Pure functions over immutable data; freely shareable across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .errors import InvalidParameterError, InvalidPlanError, ShapeError
from .tensor import Tensor

VARIANTS = ("fdnet", "funet")


@dataclass(frozen=True)
class FocalPlan:
    """Per-branch lengths and depths, ordered oldest to newest."""

    f: int
    alpha: float
    lengths: tuple[int, ...]
    depths: tuple[int, ...]
    variant: str

    @property
    def l_in(self) -> int:
        return sum(self.lengths)

    def offsets(self) -> list[tuple[int, int]]:
        """Half-open [start, stop) time ranges of each branch."""
        spans = []
        start = 0
        for length in self.lengths:
            spans.append((start, start + length))
            start += length
        return spans


def make_focal_plan(l_in: int, f: int, alpha: float = 0.5, n_layers: int = 5,
                    variant: str = "fdnet") -> FocalPlan:
    """Build the branch length/depth schedule for an input of length l_in.

    Lengths: floor(l_in * proportion) for every branch but the oldest, which
    absorbs the rounding residual (it is the least prediction-relevant, so
    length jitter there is least harmful). Depths: the plain variant counts
    up to n_layers at the newest branch ({max(n-f+1,1), ..., n-1, n}); the
    downsampling variant counts down to 1 ({f-1, ..., 2, 1, 1}); both clip
    below at 1.
    """
    if variant not in VARIANTS:
        raise InvalidParameterError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if f < 1:
        raise InvalidParameterError(f"branch count must be >= 1, got {f}")
    if n_layers < 1:
        raise InvalidParameterError(f"depth bound must be >= 1, got {n_layers}")
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError(f"ratio must lie in (0, 1), got {alpha}")
    short = InvalidPlanError(
        f"input length {l_in} cannot feed {f} non-empty branches at ratio {alpha}"
    )
    if f > l_in:  # before the per-branch lists below, whose size f sets
        raise short

    if f == 1:
        lengths = [l_in]
    else:
        proportions = [alpha ** min(i + 1, f - 1) for i in range(f)]
        rest = [int(l_in * p) for p in proportions[1:]]
        lengths = [l_in - sum(rest), *rest]
    if any(length < 1 for length in lengths):
        raise short

    if variant == "fdnet":
        depths = [max(n_layers - (f - 1 - i), 1) for i in range(f)]
    else:
        depths = [max(f - 1 - i, 1) for i in range(f)]
    return FocalPlan(f=f, alpha=alpha, lengths=tuple(lengths), depths=tuple(depths),
                     variant=variant)


def slice_input(x: Tensor, plan: FocalPlan) -> list[Tensor]:
    """Split (B, 1, L_in, V) into the plan's contiguous temporal slices.

    Slices are non-overlapping, ordered oldest to newest, and concatenate
    back to the input exactly.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"slice_input expects (B, 1, L, V), got {x.shape}")
    if x.shape[2] != plan.l_in:
        raise ShapeError(
            f"input length {x.shape[2]} does not match plan length {plan.l_in}"
        )
    return [T.slice_time(x, start, stop) for start, stop in plan.offsets()]
