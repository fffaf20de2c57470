"""Training loop, Adam optimizer, and binary checkpointing.

Recipe: MSE loss, Adam, learning rate halved every epoch, batch size 16,
dropout active only in train mode, early stopping on validation MSE with the
best-validation parameters restored at the end. Runs are bitwise
reproducible given (seed, config, data): batch shuffling, parameter init and
dropout all draw from named seeded streams. One trainer owns the model
exclusively while training.

Checkpoint format (little-endian): 8-byte magic b"FDNETCK1", uint32 version,
uint32-length-prefixed UTF-8 JSON config blob, uint32 tensor count, then per
tensor a uint32-length-prefixed UTF-8 name, uint32 rank, uint64 dims and the
raw float64 payload. Round trips are bit-exact.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import Standardizer, WindowSampler
from .errors import (
    CorruptCheckpointError,
    ForecastError,
    IncompatibleCheckpointError,
    InvalidParameterError,
    ShapeError,
    TrainingDivergedError,
)
from .models import model_from_config
from .tensor import Tensor

CHECKPOINT_MAGIC = b"FDNETCK1"
CHECKPOINT_VERSION = 1

_SHUFFLE_DOMAIN = 2


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements; differentiable through pred."""
    if pred.shape != target.shape:
        raise ShapeError(f"mse_loss shapes differ: {pred.shape} vs {target.shape}")
    diff = T.sub(pred, target)
    return T.mean_all(T.mul(diff, diff))


def lr_for_epoch(base_lr: float, epoch: int) -> float:
    """Halve-per-epoch schedule: base_lr / 2**epoch, exactly, at any epoch."""
    if epoch < 0:
        raise InvalidParameterError(f"epoch must be >= 0, got {epoch}")
    return math.ldexp(base_lr, -epoch)


class Adam:
    """Adam with bias correction; moments live alongside the parameters.

    A parameter off the loss path (`.grad` None) steps with a zero gradient.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: list[Tensor]):
        self.params = list(params)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr: float):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            # moments in place, rounded as beta * m + (1 - beta) * g; p.data is rebound
            # because a caller may hold the old array
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            step = np.sqrt(v / bc2)
            step += self.eps
            np.divide(lr * (m / bc1), step, out=step)
            p.data = p.data - step

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 16
    max_epochs: int = 10
    patience: int = 3
    seed: int = 4321

    def __post_init__(self):
        if not math.isfinite(self.learning_rate):
            raise InvalidParameterError(f"learning rate must be finite, got {self.learning_rate}")
        if min(self.learning_rate, self.batch_size, self.max_epochs, self.patience) <= 0:
            raise InvalidParameterError("all training settings must be positive")
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {self.seed}")


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_mse: float
    val_mse: float


@dataclass
class TrainResult:
    history: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    best_val_mse: float = float("inf")
    steps: int = 0


def evaluate_mse(model, windows: WindowSampler) -> float:
    """Eval-mode MSE over all windows, in batches of 64, accumulated in window order."""
    total_sq = 0.0
    count = 0
    with T.no_grad():
        for xb, yb in windows.batches(64):
            pred, _ = model.forward(Tensor(xb), "eval")
            total_sq += float(((pred.data - yb) ** 2).sum())
            count += yb.size
    return total_sq / count


# numpy's overflow and invalid-value warnings would only repeat what train's
# own checks report as one TrainingDivergedError
@np.errstate(over="ignore", invalid="ignore")
def train(model, train_windows: WindowSampler, val_windows: WindowSampler,
          config: TrainConfig) -> TrainResult:
    """Fit the model in place and return the per-epoch history.

    Each epoch shuffles the training windows with a seeded stream, iterates
    batches (final partial batch included), and records eval-mode train/val
    MSE after its updates. The best-validation parameters are restored into
    the model before returning. A non-finite step loss, or a non-finite
    train or val MSE after an epoch (the epoch's last update comes after its
    loss), raises TrainingDivergedError.
    """
    if len(train_windows) < 1 or len(val_windows) < 1:
        raise InvalidParameterError("training and validation need at least one window each")
    params = model.parameters()
    optimizer = Adam(params)
    shuffle_rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, _SHUFFLE_DOMAIN, 0])
    )
    result = TrainResult()
    best_params: list[np.ndarray] | None = None
    bad_epochs = 0

    for epoch in range(config.max_epochs):
        lr = lr_for_epoch(config.learning_rate, epoch)
        order = shuffle_rng.permutation(len(train_windows))
        for start in range(0, len(order), config.batch_size):
            xb, yb = train_windows.batch(order[start : start + config.batch_size])
            optimizer.zero_grad()
            # no other name holds the step's graph, so it goes with `loss`,
            # even when the caller keeps the exception and its frames
            loss = mse_loss(model.forward(Tensor(xb), "train")[0], Tensor(yb))
            if not np.isfinite(loss.data):
                del loss
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, step {result.steps}"
                )
            loss.backward()
            optimizer.step(lr)
            result.steps += 1

        train_mse = evaluate_mse(model, train_windows)
        val_mse = evaluate_mse(model, val_windows)
        if not (math.isfinite(train_mse) and math.isfinite(val_mse)):
            raise TrainingDivergedError(
                f"non-finite eval MSE after epoch {epoch}: train {train_mse!r}, val {val_mse!r}"
            )
        result.history.append(EpochRecord(epoch, lr, train_mse, val_mse))
        if val_mse < result.best_val_mse:
            result.best_val_mse = val_mse
            result.best_epoch = epoch
            best_params = [p.data.copy() for p in params]
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break

    if best_params is not None:
        for p, data in zip(params, best_params):
            p.data = data
    return result


def write_history_csv(path, history: list[EpochRecord]):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,lr,train_mse,val_mse\n")
        for rec in history:
            fh.write(f"{rec.epoch},{rec.lr!r},{rec.train_mse!r},{rec.val_mse!r}\n")


@dataclass
class Checkpoint:
    model: object
    standardizer: Standardizer
    config: dict
    meta: dict


def _collect_tensors(model, standardizer: Standardizer) -> dict[str, np.ndarray]:
    tensors = {name: p.data for name, p in model.named_parameters().items()}
    tensors["standardizer.mean"] = standardizer.mean
    tensors["standardizer.std"] = standardizer.std
    return tensors


def save_checkpoint(path, model, standardizer: Standardizer, meta: dict | None = None):
    """Write model parameters, plan and standardizer as one binary file."""
    config = dict(model.config)
    config["variates"] = int(standardizer.mean.shape[0])
    blob = json.dumps({"config": config, "meta": meta or {}}).encode("utf-8")
    tensors = _collect_tensors(model, standardizer)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(fh, n: int, end: int) -> bytes:
    # n is read from the file itself: compare it with the bytes left before reading
    left = end - fh.tell()
    if n > left:
        raise CorruptCheckpointError(f"truncated checkpoint: wanted {n} bytes, {left} left")
    return fh.read(n)


def load_checkpoint(path) -> Checkpoint:
    """Rebuild the model plus standardizer from a checkpoint file.

    The model is rebuilt from the config blob before any tensor is read, so
    each stored tensor's name and shape are checked before its payload is.
    """
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise IncompatibleCheckpointError(f"bad checkpoint magic: {magic!r}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, end))
        if version != CHECKPOINT_VERSION:
            raise IncompatibleCheckpointError(
                f"checkpoint version {version} unsupported (expected {CHECKPOINT_VERSION})"
            )
        (blob_len,) = struct.unpack("<I", _read_exact(fh, 4, end))
        try:
            payload = json.loads(_read_exact(fh, blob_len, end).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise CorruptCheckpointError(f"unreadable config blob: {exc}") from None
        try:
            config, meta = payload["config"], payload["meta"]
        except (KeyError, TypeError):
            raise CorruptCheckpointError("config blob lacks 'config' or 'meta'") from None
        try:
            model = model_from_config(config)
            stored_plan = (config["plan_lengths"], config["plan_depths"])
        except (KeyError, TypeError, ValueError, ArithmeticError, ForecastError) as exc:
            raise CorruptCheckpointError(f"unusable checkpoint config: {exc!r}") from None
        except MemoryError:
            raise CorruptCheckpointError(
                "checkpoint config asks for a model that cannot be allocated") from None
        if stored_plan != (list(model.plan.lengths), list(model.plan.depths)):
            raise CorruptCheckpointError("stored focal plan does not match rebuilt plan")
        named = model.named_parameters()
        expected = {name: param.data.shape for name, param in named.items()}
        expected["standardizer.mean"] = expected["standardizer.std"] = (config.get("variates"),)

        tensors: dict[str, np.ndarray] = {}
        (n_tensors,) = struct.unpack("<I", _read_exact(fh, 4, end))
        for _ in range(n_tensors):
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4, end))
            # a name that is not UTF-8 matches no expected tensor and is rejected
            name = _read_exact(fh, name_len, end).decode("utf-8", errors="replace")
            (ndim,) = struct.unpack("<I", _read_exact(fh, 4, end))
            shape = struct.unpack(f"<{ndim}Q", _read_exact(fh, 8 * ndim, end))
            if name in tensors or shape != expected.get(name):
                raise CorruptCheckpointError(f"tensor {name} is stored twice, unknown or has "
                                             f"shape {shape}, expected {expected.get(name)}")
            raw = _read_exact(fh, 8 * math.prod(shape), end)
            tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            if not np.isfinite(tensors[name]).all():
                raise CorruptCheckpointError(f"tensor {name} holds non-finite values")
            if name == "standardizer.std" and not (tensors[name] > 0.0).all():
                raise CorruptCheckpointError(f"tensor {name} holds a value <= 0")
        if fh.read(1):
            raise CorruptCheckpointError("trailing bytes after the last tensor")

    if len(tensors) != len(expected):
        raise CorruptCheckpointError(
            f"checkpoint lacks tensors {sorted(set(expected) - set(tensors))[:3]}")
    for name, param in named.items():
        param.data = tensors[name]
    standardizer = Standardizer(mean=tensors["standardizer.mean"],
                                std=tensors["standardizer.std"])
    return Checkpoint(model=model, standardizer=standardizer, config=config, meta=meta)
