"""Command-line entry point.

Subcommands: train, evaluate, predict, kstest, gradcheck, params,
export-repr. Configuration resolves in three layers: built-in defaults, then
a plain key=value config file (--config), then explicit flags. Machine-
readable outputs go to files and stdout; progress and diagnostics go to
stderr. Every command is deterministic given its full flag set, and any
package error exits with code 1 and a one-line diagnosis.
"""

from __future__ import annotations

import argparse
import contextlib
import re
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .data import SplitSpec, Standardizer, load_csv, make_windows, split
from .errors import (
    ForecastError,
    IncompatibleDataError,
    InvalidParameterError,
    InvalidWindowError,
)
from .kstest import shift_report
from .metrics import check_periodicity, evaluate_run
from .models import model_from_config
from .tensor import Tensor, no_grad
from .training import (
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
    write_history_csv,
)
from .verification import DEFAULT_TOLERANCE, run_gradient_checks

PRESETS = {
    # default hyper-parameters; the exchange preset drops focal decomposition
    # and shortens the input window
    "default": {},
    "exchange": {"l_in": 96, "f": 1},
}


@dataclass
class RunConfig:
    """Every setting of a run; each field is also a `--flag` and a config-file key.

    A field's type is the type of its default, and its metadata is passed to
    argparse (help text).
    """

    data: str = field(default="", metadata={"help": "dataset CSV path"})
    target: str = field(default="OT", metadata={"help": "target column name"})
    variant: str = "fdnet"
    l_in: int = 672
    l_out: int = 96
    f: int = 5
    alpha: float = 0.5
    n_layers: int = 5
    embed_dim: int = 8
    heads: int = field(default=1, metadata={
        "help": "attention heads (FUNet only; FDNet has no attention and ignores it)"})
    dropout: float = 0.1
    lr: float = 1e-4
    batch_size: int = 16
    max_epochs: int = 10
    patience: int = 3
    seed: int = 4321
    split: str = field(default="ratio:0.7,0.1,0.2",
                       metadata={"help": "ratio:0.7,0.1,0.2 | months:12,4,4,1h | rows:a,b"})
    split_part: str = "test"
    out_dir: str = "."
    checkpoint: str = ""
    at: int = 0
    m: int = field(default=1, metadata={"help": "seasonal periodicity for MASE/OWA"})
    alpha_ks: float = 0.05
    windows: int = 1000
    window_len: int = 96

    def apply(self, key: str, raw: str):
        key = key.strip().replace("-", "_")
        if key == "preset":
            preset = raw.strip()
            if preset not in PRESETS:
                raise InvalidParameterError(f"unknown preset {preset!r}")
            for k, v in PRESETS[preset].items():
                setattr(self, k, v)
            return
        kinds = {f.name: type(f.default) for f in fields(self)}
        if key not in kinds:
            raise InvalidParameterError(f"unknown config key {key!r}")
        try:
            setattr(self, key, kinds[key](raw.strip()))
        except ValueError:
            raise InvalidParameterError(
                f"{key} must be {kinds[key].__name__}, got {raw.strip()!r}"
            ) from None

    def load_file(self, path: str):
        try:
            text = Path(path).read_text(encoding="utf-8-sig")
        except UnicodeDecodeError as exc:
            raise InvalidParameterError(f"{path}: config file is not UTF-8: {exc}") from None
        self.load_text(text, path)

    def load_text(self, text: str, source: str):
        """Apply `key=value` lines; `#` starts a comment at a line's start or after whitespace."""
        for line_no, line in enumerate(text.splitlines(), 1):
            line = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidParameterError(f"{source}:{line_no}: expected key=value")
            key, raw = line.split("=", 1)
            self.apply(key, raw)

    def snapshot(self) -> str:
        """Every field as a `key=value` line; raises InvalidParameterError unless they reload."""
        text = "".join(f"{f.name}={getattr(self, f.name)}\n" for f in fields(self))
        again = RunConfig()
        with contextlib.suppress(InvalidParameterError):
            again.load_text(text, "snapshot")
        for f in fields(self):
            if str(getattr(again, f.name)) != str(getattr(self, f.name)):
                raise InvalidParameterError(
                    f"{f.name}={getattr(self, f.name)!r} would not reload from config.txt "
                    f"(a line break, surrounding whitespace or whitespace before '#')")
        return text

    def split_spec(self) -> SplitSpec:
        kind, _, rest = self.split.partition(":")
        parts = [p for p in rest.split(",") if p]
        try:
            if kind == "ratio":
                tr, va, te = (float(p) for p in parts)
                return SplitSpec.ratio(tr, va, te)
            if kind == "months":
                tr, va, te, frequency = parts
                return SplitSpec.by_months(int(tr), int(va), int(te), frequency)
            if kind == "rows":
                train_end, val_end = parts
                return SplitSpec.rows(int(train_end), int(val_end))
        except ValueError:
            raise InvalidParameterError(f"malformed split spec {self.split!r}") from None
        raise InvalidParameterError(f"unknown split spec {self.split!r}")

    def train_config(self) -> TrainConfig:
        return TrainConfig(learning_rate=self.lr, batch_size=self.batch_size,
                           max_epochs=self.max_epochs, patience=self.patience,
                           seed=self.seed)


def _log(message: str):
    print(message, file=sys.stderr)


def _out_dir(cfg: RunConfig) -> Path:
    path = Path(cfg.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _standardized_splits(cfg: RunConfig):
    spec = cfg.split_spec()
    frame = load_csv(cfg.data, cfg.target)
    train_f, val_f, test_f = split(frame, spec)
    standardizer = Standardizer.fit(train_f)
    return frame, standardizer, {
        "train": standardizer.transform(train_f),
        "val": standardizer.transform(val_f),
        "test": standardizer.transform(test_f),
    }


def _build_model(cfg: RunConfig, l_out: int):
    return model_from_config({**vars(cfg), "l_out": l_out})


def cmd_train(cfg: RunConfig) -> int:
    # bad settings fail before any data loads, a bad --out-dir before training
    snapshot = cfg.snapshot()
    model = _build_model(cfg, cfg.l_out)
    train_config = cfg.train_config()
    out = _out_dir(cfg)
    _, standardizer, parts = _standardized_splits(cfg)
    train_windows = make_windows(parts["train"], cfg.l_in, cfg.l_out)
    val_windows = make_windows(parts["val"], cfg.l_in, cfg.l_out)
    _log(f"training {cfg.variant} on {len(train_windows)} windows "
         f"({cfg.max_epochs} epochs max)")
    result = train(model, train_windows, val_windows, train_config)
    save_checkpoint(out / "checkpoint.ckpt", model, standardizer,
                    meta={"best_epoch": result.best_epoch,
                          "best_val_mse": result.best_val_mse,
                          "steps": result.steps})
    write_history_csv(out / "history.csv", result.history)
    (out / "config.txt").write_text(snapshot)
    _log(f"best val MSE {result.best_val_mse:.6f} at epoch {result.best_epoch}; "
         f"wrote {out / 'checkpoint.ckpt'}")
    return 0


def _load_for_inference(cfg: RunConfig):
    ckpt = load_checkpoint(cfg.checkpoint)
    frame = load_csv(cfg.data, cfg.target)
    expected_v = ckpt.config["variates"]
    if frame.n_variates != expected_v:
        raise IncompatibleDataError(
            f"dataset has {frame.n_variates} variates, checkpoint expects {expected_v}"
        )
    return ckpt, frame


def cmd_evaluate(cfg: RunConfig) -> int:
    part_names = ("train", "val", "test")
    if cfg.split_part not in part_names:
        raise InvalidParameterError(f"split part must be train/val/test, got {cfg.split_part!r}")
    spec = cfg.split_spec()
    check_periodicity(cfg.m)
    ckpt, frame = _load_for_inference(cfg)
    parts = dict(zip(part_names, split(frame, spec)))
    part = ckpt.standardizer.transform(parts[cfg.split_part])
    windows = make_windows(part, ckpt.config["l_in"], ckpt.config["l_out"])
    report = evaluate_run(ckpt.model, windows, ckpt.standardizer, m=cfg.m)
    out = _out_dir(cfg)
    (out / "metrics.json").write_text(report.to_json())
    (out / "metrics.csv").write_text(report.to_csv())
    print(f"mse={report.mse!r} mae={report.mae!r} smape={report.smape!r} "
          f"mase={report.mase!r} owa={report.owa!r}")
    return 0


def _window_at(cfg: RunConfig):
    """Load the checkpoint and its standardized input window starting at `--at`."""
    ckpt, frame = _load_for_inference(cfg)
    l_in = ckpt.config["l_in"]
    if not 0 <= cfg.at <= frame.n_rows - l_in:
        raise InvalidWindowError(
            f"window start {cfg.at} out of range for {frame.n_rows} rows and input {l_in}"
        )
    segment = ckpt.standardizer.transform_values(frame.values[cfg.at : cfg.at + l_in])
    return ckpt, frame, Tensor(segment[np.newaxis, np.newaxis, :, :])


def cmd_predict(cfg: RunConfig) -> int:
    ckpt, frame, x = _window_at(cfg)
    with no_grad():
        pred = ckpt.model.forward(x, "eval")[0].data[0]
    forecast = ckpt.standardizer.inverse_values(pred)
    out = _out_dir(cfg)
    path = out / "forecast.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(frame.columns) + "\n")
        for row in forecast:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    _log(f"wrote {path}")
    return 0


def cmd_kstest(cfg: RunConfig) -> int:
    frame = load_csv(cfg.data, cfg.target)
    series = frame.column(cfg.target)
    report = shift_report(series, n_windows=cfg.windows, window_len=cfg.window_len,
                          alpha=cfg.alpha_ks, seed=cfg.seed)
    out = _out_dir(cfg)
    (out / "ks_report.csv").write_text(report.to_csv())
    print(f"rr={report.reject_rate!r} mean={report.mean_p!r} std={report.std_p!r}")
    return 0


def cmd_gradcheck(cfg: RunConfig, corrupt_op: str | None = None) -> int:
    results = run_gradient_checks(corrupt_op=corrupt_op)
    covered = sorted({op for r in results for op in r.ops})
    failures = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} max_rel_err={r.error:.3e} tol={DEFAULT_TOLERANCE:g} "
              f"ops={','.join(r.ops)}")
    print(f"ops covered: {','.join(covered)}")
    if failures:
        _log(f"gradient check failed for: {', '.join(r.name for r in failures)}")
        return 1
    return 0


def cmd_params(cfg: RunConfig) -> int:
    counts = _build_model(cfg, cfg.l_out).param_count()
    counts_720 = _build_model(cfg, 720).param_count()
    for horizon, tally in ((cfg.l_out, counts), (720, counts_720)):
        print(f"horizon={horizon} " + " ".join(f"{k}={v}" for k, v in tally.items()))
    delta = counts_720["total"] - counts["total"]
    head_delta = counts_720["head"] - counts["head"]
    print(f"delta total={delta} head={head_delta} non_head={delta - head_delta}")
    return 0


def cmd_export_repr(cfg: RunConfig) -> int:
    ckpt, frame, x = _window_at(cfg)
    target = frame.target_index()
    with no_grad():  # no layer mixes variates, so the target's column alone will do
        reprs = ckpt.model.representations(Tensor(x.data[..., target:target + 1]), "eval")
    d = ckpt.config["embed_dim"]
    out = _out_dir(cfg)
    path = out / "representations.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("branch,time_index," + ",".join(f"f{k}" for k in range(d)) + "\n")
        for branch_idx, rep in enumerate(reprs):
            features = rep.data[0, :, :, 0]  # (D, length)
            for t in range(features.shape[1]):
                cells = ",".join(repr(float(features[k, t])) for k in range(d))
                fh.write(f"{branch_idx},{t},{cells}\n")
    _log(f"wrote {path}")
    return 0


def _add_common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--preset", choices=sorted(PRESETS))
    for f in fields(RunConfig):
        parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                            type=type(f.default), **f.metadata)


_COMMANDS = {
    "train": (cmd_train, "fit a model and write checkpoint + history"),
    "evaluate": (cmd_evaluate, "score a checkpoint on a dataset split"),
    "predict": (cmd_predict, "forecast one window in original scale"),
    "kstest": (cmd_kstest, "distribution-shift audit of one column"),
    "gradcheck": (cmd_gradcheck, "finite-difference verification of every op"),
    "params": (cmd_params, "parameter counts and horizon-growth report"),
    "export-repr": (cmd_export_repr, "dump per-branch representations to CSV"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdnet",
        description="Focal-decomposition time series forecasting toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
        if name == "gradcheck":
            p.add_argument("--corrupt-op", dest="corrupt_op",
                           help="harness hook: break one op's backward")
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg.load_file(args.config)
    if getattr(args, "preset", None):
        cfg.apply("preset", args.preset)
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg, corrupt_op=args.corrupt_op)
        return _COMMANDS[args.command][0](cfg)
    except (ForecastError, OSError) as exc:  # an OSError's text names its file
        _log(f"error: {exc}")
        return 1
    except MemoryError as exc:
        _log(f"error: out of memory: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
