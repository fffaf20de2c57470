"""One process of one benchmark run of one workload.

`run.py` starts this script, several times per run; it is not meant to be
run by hand. The process limits its own address space, builds its data from
the seed, drives only fdnet's public API and writes one JSON result file.
It has three parts:

1. set-up: write the CSV, `load_csv`, split, standardise, build the model,
   round-trip it through a checkpoint and warm it up with one eval forward;
2. the timed region: one `train` epoch over a fixed train slice, then
   rounds until `--seconds` have passed (exactly N rounds with `--rounds N`).
   A round is one `evaluate_run` over the fixed test windows, five
   `shift_report` audits and one `run_gradient_checks`;
3. with `--checks`, output checks, outside the timed region.

At its start and after each phase, outside the timed samples, the process
times the reference kernel in `probe.py`; `run.py` scales the samples by it.
The result keeps, per phase, the kernel calls just before and after it.

Untraced processes hook one thing: a timestamp when each `Adam.step`
returns. They never call `gc.collect()` and never drop references the
program holds, so the memory the program keeps between steps shows in the
peak RSS.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np

import probe
import synth
from tracer import GROUPS, MIB, MODEL_PHASES, MODULES, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# The default fdnet configuration; workloads override what differs.
MODEL = dict(alpha=0.5, n_layers=5, embed_dim=8, heads=1, dropout_p=0.1, seed=4321)
LEARNING_RATE = 1e-4
TRAIN_BATCH = 16
EVAL_BATCH = 64
AUDIT = dict(n_windows=1000, window_len=96, alpha=0.05)
AUDITS_PER_ROUND = 5  # an audit takes ~0.1-0.2 s
GRADCHECK_TOLERANCE = 1e-3
PHASES = ("setup", "train", "eval", "audit", "gradcheck")
DIGEST_SEED = 0  # csv_digests.json holds the CSV digests of this seed

# Both workloads: the default config (L_in 672, f=5, L_out 96) on the
# ETTh1-shaped series; test windows are one eval batch, 16 rows apart.
SIZES = dict(rows=synth.ROWS, l_in=672, l_out=96, f=5, val_windows=16,
             test_windows=EVAL_BATCH, test_stride=16, m=24)
WORKLOADS = {
    "fdnet-etth1": dict(variant="fdnet", train_windows=64),
    # two steps: the second already shows the first step's graph still held;
    # a third plus train()'s own eval pass needs ~5.5 GiB on an 8 GiB machine
    "funet-etth1": dict(variant="funet", train_windows=32),
}
# Tiny sizes for `run.py --smoke`: same code paths, seconds per process.
SMOKE = dict(rows=1500, l_in=96, l_out=24, train_windows=32, test_windows=16, test_stride=4)
SMOKE_AUDIT = dict(n_windows=200, window_len=24)


def limit_address_space() -> int:
    """Cap this process's address space at 3/4 of physical memory.

    Running out then raises MemoryError inside the process, which the run
    counts as failed operations, instead of exhausting the machine.
    """
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    cap = physical * 3 // 4
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    for limit in (soft, hard):
        if limit != resource.RLIM_INFINITY:
            cap = min(cap, limit)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    return cap


def _blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, or None if unknown."""
    import ctypes
    import glob

    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
    }


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode("utf-8"))
    return h.hexdigest()


def param_digest(model) -> str:
    return digest(*(item for name, p in model.named_parameters().items()
                    for item in (name, p.data.astype("<f8").tobytes())))


class Run:
    """State of one process: inputs, samples, operation counts, checks."""

    def __init__(self, fdnet, name: str, seed: int, smoke: bool, tracer, workdir: Path):
        self.fd = fdnet
        self.name = name
        self.seed = seed
        self.smoke = smoke
        self.tracer = tracer
        self.workdir = workdir
        self.cfg = {**SIZES, **WORKLOADS[name], **(SMOKE if smoke else {})}
        self.audit = {**AUDIT, **(SMOKE_AUDIT if smoke else {})}
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.samples: dict[str, list[float]] = {phase: [] for phase in PHASES}
        # per phase: the kernel calls just before and after each of its runs
        self.probe_s: dict[str, list[float]] = {}
        self.last_probe = probe.probe()
        self.step_stamps: list[float] = []
        self.reports = []
        self.audits = []
        self.gradchecks = []
        self.train_result = None

    # -- bookkeeping -----------------------------------------------------

    def attempt(self, what: str, ops: int, fn):
        """Run one call counting `ops` operations; a raise fails them all."""
        self.attempted += ops
        try:
            return fn()
        except Exception:  # noqa: BLE001 - the run counts the failure and goes on
            print(f"[{self.name}] {what} failed:", file=sys.stderr)
            traceback.print_exc()
            self.failed += ops
            return None

    def check(self, name: str, fn):
        self.attempted += 1
        try:
            ok = bool(fn())
        except Exception:  # noqa: BLE001 - a check that raises has failed
            traceback.print_exc()
            ok = False
        if not ok:
            print(f"[{self.name}] output check failed: {name}", file=sys.stderr)
            self.failed += 1
        self.checks[name] = ok

    @contextlib.contextmanager
    def phase(self, name: str):
        """One phase, between two probes of the reference kernel."""
        calls = self.probe_s.setdefault(name, [])
        calls += self.last_probe
        with self.tracer.phase(name) if self.tracer else contextlib.nullcontext():
            yield
        self.last_probe = probe.probe()
        calls += self.last_probe

    # -- set-up ----------------------------------------------------------

    def setup(self):
        fd, cfg = self.fd, self.cfg
        start = time.perf_counter()
        with self.phase("setup"):
            csv_path = self.workdir / f"{self.name}.csv"
            self.csv_sha256 = synth.write_csv(csv_path, self.seed, cfg["rows"])
            frame = fd.data.load_csv(csv_path, "OT")
            parts = fd.data.split(frame, fd.data.SplitSpec.ratio(0.7, 0.1, 0.2))
            standardizer = fd.data.Standardizer.fit(parts[0])
            train_f, val_f, test_f = (standardizer.transform(p) for p in parts)
            l_in, l_out = cfg["l_in"], cfg["l_out"]

            def windows(part, count, stride=1):
                part = part.rows(0, l_in + l_out + (count - 1) * stride)
                return fd.data.make_windows(part, l_in, l_out, stride)

            self.train_w = windows(train_f, cfg["train_windows"])
            self.val_w = windows(val_f, cfg["val_windows"])
            self.test_w = windows(test_f, cfg["test_windows"], cfg["test_stride"])
            # the first test windows, one train batch of them, for the output checks
            self.check_w = windows(test_f, min(TRAIN_BATCH, cfg["test_windows"]),
                                   cfg["test_stride"])
            self.series = frame.column("OT")
            model = fd.models.build_model(cfg["variant"], l_in, l_out, cfg["f"], **MODEL)
            ckpt = self.round_trip(model, standardizer, "setup")
            self.model, self.standardizer = ckpt.model, ckpt.standardizer
            with fd.tensor.no_grad():
                xb, _ = self.train_w.batch(range(min(TRAIN_BATCH, len(self.train_w))))
                self.model.forward(fd.tensor.Tensor(xb), "eval")
            self.samples["setup"].append(time.perf_counter() - start)
        if self.tracer:
            self.tracer.instrument_model(self.model)

    def round_trip(self, model, standardizer, tag: str):
        path = self.workdir / f"{tag}.ckpt"
        self.fd.training.save_checkpoint(path, model, standardizer, meta={"tag": tag})
        if self.tracer:
            self.tracer.counters["checkpoint_bytes"] = path.stat().st_size
        return self.fd.training.load_checkpoint(path)

    # -- timed phases ----------------------------------------------------

    def train_steps(self) -> int:
        return math.ceil(len(self.train_w) / TRAIN_BATCH)

    def train(self):
        fd = self.fd
        config = fd.training.TrainConfig(learning_rate=LEARNING_RATE, batch_size=TRAIN_BATCH,
                                         max_epochs=1, patience=1, seed=MODEL["seed"])
        expected = self.train_steps()
        self.step_stamps.clear()
        with self.phase("train"):
            if self.tracer:  # memory numbers of the traced run cover training only
                tracemalloc.start()
            start = time.perf_counter()
            self.attempted += expected
            try:
                self.train_result = fd.training.train(self.model, self.train_w, self.val_w,
                                                      config)
            except Exception:  # noqa: BLE001 - steps not completed count as failed
                traceback.print_exc()
                self.failed += expected - len(self.step_stamps)
            tracemalloc.stop()
            # a step runs from one Adam.step return to the next; the first one
            # from the train() call
            stamps = [start] + self.step_stamps
            self.samples["train"] += [b - a for a, b in zip(stamps, stamps[1:])]

    def one_round(self):
        fd = self.fd
        with self.phase("eval"):
            start = time.perf_counter()
            report = self.attempt("evaluate_run", 1, lambda: fd.metrics.evaluate_run(
                self.model, self.test_w, self.standardizer, m=self.cfg["m"],
                batch_size=EVAL_BATCH))
            if report is not None:
                self.samples["eval"].append(time.perf_counter() - start)
                self.reports.append(report)
        for _ in range(AUDITS_PER_ROUND):  # a phase each: a probe after every audit
            with self.phase("audit"):
                start = time.perf_counter()
                audit = self.attempt("shift_report", 1, lambda: fd.kstest.shift_report(
                    self.series, seed=self.seed, **self.audit))
                if audit is not None:
                    self.samples["audit"].append(time.perf_counter() - start)
                    self.audits.append(audit)
        with self.phase("gradcheck"):
            n_checks = len(fd.verification.check_names())
            start = time.perf_counter()
            results = self.attempt("run_gradient_checks", n_checks,
                                   fd.verification.run_gradient_checks)
            if results is not None:
                self.samples["gradcheck"].append(time.perf_counter() - start)
                self.gradchecks.append(results)
                self.failed += sum(not r.error < GRADCHECK_TOLERANCE for r in results)
            if self.tracer:
                self.tracer.end_gradient_checks()

    def timed(self, seconds: float, rounds: int | None) -> tuple[float, float]:
        """The measured region; returns (wall seconds, peak RSS MiB at its end)."""
        start = time.perf_counter()
        self.train()
        done = 0
        while True:
            self.one_round()
            done += 1
            finished = done >= rounds if rounds else time.perf_counter() - start >= seconds
            if finished:
                break
        wall = time.perf_counter() - start
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return wall, peak_mib

    # -- outputs ---------------------------------------------------------

    def outputs(self) -> dict:
        """Digests of everything the program returned, to compare across processes."""
        return {
            "params": param_digest(self.model),
            "eval": digest(self.reports[0].to_json()) if self.reports else None,
            "audit": digest(repr(self.audits[0])) if self.audits else None,
            "gradcheck": digest([(r.name, r.error) for r in self.gradchecks[0]])
            if self.gradchecks else None,
        }

    def check_outputs(self, recorded_digests: dict, full: bool):
        fd = self.fd
        self.check("steps_completed",
                   lambda: len(self.step_stamps) == self.train_steps()
                   and self.train_result is not None
                   and self.train_result.steps == self.train_steps())
        self.check("losses_finite", lambda: all(
            math.isfinite(r.train_mse) and math.isfinite(r.val_mse)
            for r in self.train_result.history) and all(
            np.isfinite(p.data).all() for p in self.model.parameters()))
        self.check("gradient_checks_pass", lambda: self.gradchecks and all(
            [r.name for r in results] == fd.verification.check_names()
            and all(r.error < GRADCHECK_TOLERANCE for r in results)
            for results in self.gradchecks))
        self.check("repeat_calls_agree", lambda: all(
            r.to_json() == self.reports[0].to_json() for r in self.reports)
            and all(a == self.audits[0] for a in self.audits))
        if full:
            # the generator still writes the recorded bytes, whatever this run's seed
            key = f"{DIGEST_SEED}/{self.cfg['rows']}"
            self.check("csv_digest_recorded", lambda: synth.write_csv(
                self.workdir / "recorded.csv", DIGEST_SEED, self.cfg["rows"])
                == recorded_digests[key])
            with self.phase("checks"):
                self.check("checkpoint_reproduces_eval", self._check_checkpoint)
                self.check("evaluate_run_matches_numpy", self._check_eval)
                self.check("ks_matches_scipy", self._check_ks)

    def _eval_forward(self, model):
        """One eval forward over the check windows: (predictions, truth)."""
        fd = self.fd
        xb, yb = self.check_w.batch(range(len(self.check_w)))
        with fd.tensor.no_grad():
            return model.forward(fd.tensor.Tensor(xb), "eval")[0].data, yb

    def _check_checkpoint(self) -> bool:
        ckpt = self.attempt("checkpoint round trip", 1,
                            lambda: self.round_trip(self.model, self.standardizer, "trained"))
        if ckpt is None:
            return False
        original, _ = self._eval_forward(self.model)
        reloaded, _ = self._eval_forward(ckpt.model)
        return (param_digest(ckpt.model) == param_digest(self.model)
                and original.tobytes() == reloaded.tobytes())

    def _check_eval(self) -> bool:
        """evaluate_run's MSE and MAE over the check windows match a numpy
        recomputation from the model's forward."""
        report = self.attempt("evaluate_run", 1, lambda: self.fd.metrics.evaluate_run(
            self.model, self.check_w, self.standardizer, m=self.cfg["m"],
            batch_size=EVAL_BATCH))
        if report is None:
            return False
        pred, truth = self._eval_forward(self.model)
        err = pred - truth
        # evaluate_run sums per horizon step first, so the last bits may differ
        return (report.window_count == len(self.check_w)
                and math.isclose(report.mse, float(np.mean(err * err)), rel_tol=1e-9)
                and math.isclose(report.mae, float(np.mean(np.abs(err))), rel_tol=1e-9))

    def _check_ks(self) -> bool:
        """Every D of the audit equals scipy's; the report follows from them."""
        import scipy.stats

        fd = self.fd
        if not self.audits:
            return False
        report = self.audits[0]
        n, wl, alpha = self.audit["n_windows"], self.audit["window_len"], self.audit["alpha"]
        series = np.asarray(self.series, dtype=float)
        # shift_report's documented sampling: uniform starts from SeedSequence([seed])
        rng = np.random.default_rng(np.random.SeedSequence([self.seed]))
        starts = rng.integers(0, series.size - wl + 1, size=n)
        reference = series[starts[0]: starts[0] + wl]
        p_values = np.empty(n - 1)
        for k, start in enumerate(starts[1:]):
            other = series[start: start + wl]
            d = fd.kstest.ecdf_sup_distance(reference, other)
            if d != scipy.stats.ks_2samp(reference, other, method="asymp").statistic:
                return False
            p_values[k] = fd.kstest.ks_p_value(d, wl, wl)
        return (report.reject_rate == float((p_values < alpha).mean())
                and report.mean_p == float(p_values.mean())
                and report.std_p == float(p_values.std()))


def per_layer_metrics(tracer: Tracer, run: Run) -> dict:
    """Per-module numbers from the traced process's spans and counters.

    Op, layer and model times sum over the train and eval phases only, so the
    gradient checks' thousands of tiny ops do not drown the model's; those
    show in `tensor.dispatch_us` and `verification.*` instead.
    """
    table, dur = tracer.aggregate()

    def total(name, phases=None, column=0):
        return sum(row[column] for (span, phase), row in table.items()
                   if span == name and (phases is None or phase in phases))

    out = {}
    for group in GROUPS:
        out[f"tensor.{group}.fwd_s"] = (total(f"tensor.{group}", MODEL_PHASES), "s")
        out[f"tensor.{group}.bwd_s"] = (total(f"tensor.{group}.bwd", MODEL_PHASES), "s")
        out[f"tensor.{group}.calls"] = (total(f"tensor.{group}", MODEL_PHASES, 2), "count")
    steps = max(tracer.counters["train_steps"], 1)
    out["tensor.graph_mib"] = (tracer.graph_bytes["train"] / steps / MIB, "MiB")
    out["tensor.graph_nodes"] = (tracer.graph_nodes["train"] / steps, "count")
    out["tensor.backward_s"] = (total("tensor.backward", ("train",)), "s")
    out["tensor.backward_overhead_s"] = (total("tensor.backward", ("train",), 1), "s")
    op_calls = sum(total(f"tensor.{g}", ("gradcheck",), 2) for g in GROUPS)
    op_time = sum(total(f"tensor.{g}", ("gradcheck",)) for g in GROUPS)
    out["tensor.dispatch_us"] = (op_time / op_calls * 1e6 if op_calls else 0.0, "us")

    for cls in ("WeightNormConv", "MultiHeadAttention", "LinearHead", "ValueEmbedding"):
        out[f"layers.{cls}.fwd_s"] = (total(f"layers.{cls}.forward", MODEL_PHASES), "s")
    out["layers.WeightNormConv.calls"] = (
        total("layers.WeightNormConv.forward", MODEL_PHASES, 2), "count")

    branches = [total(f"models.branch{i}", MODEL_PHASES) for i in range(5)]
    for i, seconds in enumerate(branches):
        out[f"models.branch{i}.fwd_s"] = (seconds, "s")
    out["models.branch_max_share"] = (
        max(branches) / sum(branches) if sum(branches) else 0.0, "ratio")
    for cls in ("DFEInitialBlock", "DFEICOMBlock"):
        out[f"models.{cls}.fwd_s"] = (total(f"models.{cls}.forward", MODEL_PHASES), "s")
    for mode in ("train", "eval"):
        out[f"models.forward_{mode}_s"] = (total(f"models.forward.{mode}", MODEL_PHASES), "s")
    out["focal.slice_input_s"] = (total("focal.slice_input", MODEL_PHASES), "s")

    out["data.load_csv_s"] = (total("data.load_csv", ("setup",)), "s")
    out["data.batch_s"] = (total("data.batch", MODEL_PHASES), "s")
    out["data.batch_calls"] = (total("data.batch", MODEL_PHASES, 2), "count")
    out["data.standardize_s"] = (total("data.standardize", ("setup",)), "s")

    out["training.adam_step_s"] = (total("training.adam_step", ("train",)), "s")
    out["training.mse_loss_s"] = (total("training.mse_loss", ("train",)), "s")
    out["training.evaluate_mse_s"] = (total("training.evaluate_mse", ("train",)), "s")
    out["training.save_checkpoint_s"] = (total("training.save_checkpoint", ("setup",)), "s")
    out["training.load_checkpoint_s"] = (total("training.load_checkpoint", ("setup",)), "s")
    out["training.checkpoint_mib"] = (tracer.counters["checkpoint_bytes"] / MIB, "MiB")
    out["training.step_peak_traced_mib"] = (
        max(tracer.step_peak_bytes, default=0) / MIB, "MiB")
    out["training.dead_graph_mib"] = (max(tracer.dead_graph_bytes, default=0) / MIB, "MiB")

    out["metrics.evaluate_run.self_s"] = (total("metrics.evaluate_run", ("eval",), 1), "s")
    out["metrics.evaluate_run.forward_s"] = (
        tracer.sum_children(dur, "metrics.evaluate_run", "models.forward.eval"), "s")
    out["metrics.evaluate_run.windows"] = (len(run.reports) * len(run.test_w), "count")

    out["kstest.ecdf_sup_distance_s"] = (total("kstest.ecdf_sup_distance", ("audit",)), "s")
    out["kstest.ecdf_sup_distance_calls"] = (
        total("kstest.ecdf_sup_distance", ("audit",), 2), "count")
    out["kstest.shift_report_s"] = (total("kstest.shift_report", ("audit",)), "s")

    names = run.fd.verification.check_names()
    per_check = [0.0] * len(names)
    for i, seconds in enumerate(tracer.check_seconds):
        per_check[i % len(names)] += seconds
    for name, seconds in zip(names, per_check):
        out[f"verification.check.{name}_s"] = (seconds, "s")
    out["verification.f_evals"] = (tracer.counters["f_evals"], "count")

    for module in MODULES:
        out[f"{module}.self_s"] = (sum(
            row[1] for (span, phase), row in table.items()
            if span.startswith(module + ".") and phase not in ("checks", "none")), "s")
    out["trace.spans"] = (tracer.span_count(), "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep running rounds until the timed region lasts this long")
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many rounds instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--train-only", action="store_true",
                        help="set up and train; report the parameter digest")
    parser.add_argument("--checks", action="store_true",
                        help="also run the costly output checks after the timed region")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    cap = limit_address_space()
    sys.path.insert(0, str(ROOT / "src"))
    import fdnet
    import fdnet.verification  # noqa: F401 - the package root does not import it

    env = environment()
    env["address_space_limit_mib"] = cap / MIB
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        print(f"refusing to run: {env['blas_threads']} BLAS threads on {env['nproc']} "
              f"CPUs", file=sys.stderr)
        return 3

    tracer = None
    if args.trace:
        tracer = Tracer(run_id=f"{args.workload}-{args.seed}")
        tracer.install(fdnet)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=BENCH_DIR / "out"))
    run = Run(fdnet, args.workload, args.seed, args.smoke, tracer, workdir)
    step = fdnet.training.Adam.step

    def timed_step(optimizer, lr):
        step(optimizer, lr)
        run.step_stamps.append(time.perf_counter())

    fdnet.training.Adam.step = timed_step

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "env": env}
    try:
        run.setup()
        if args.train_only:
            run.train()
            run.check("steps_completed", lambda: len(run.step_stamps) == run.train_steps())
        else:
            result["timed_wall_s"], result["peak_rss_mib"] = run.timed(args.seconds,
                                                                       args.rounds)
            run.check_outputs(json.loads((BENCH_DIR / "csv_digests.json").read_text()),
                              full=args.checks)
            result["outputs"] = run.outputs()
            if tracer:
                tracer.uninstall()
                result["metrics"] = per_layer_metrics(tracer, run)
                spans = BENCH_DIR / "out" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
                tracer.write(spans)
                result["spans_file"] = str(spans.relative_to(ROOT))
        result["param_digest"] = param_digest(run.model)
        result["csv_sha256"] = run.csv_sha256
        result["test_windows"] = len(run.test_w)
        result["train_windows"] = len(run.train_w)
    except Exception:  # noqa: BLE001 - report the broken run instead of dying silently
        traceback.print_exc()
        run.attempted += 1
        run.failed += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(attempted=run.attempted, failed=run.failed, checks=run.checks,
                  samples=run.samples, probe_s=run.probe_s)
    Path(args.out).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
