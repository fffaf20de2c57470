"""Span tracing for the benchmark's traced run.

Spans are recorded around calls into fdnet's public functions by wrapping
them from outside the package; nothing in `fdnet` changes. Each span holds
its name, start, end, parent span, phase and the run id, and stays in memory
until `write` puts them all into one file at the end of the run.

Tensor ops get one span per forward call and one per backward call. The
backward span comes from wrapping the output's `_backward` closure, the same
hook `fdnet.verification` uses to corrupt a backward on purpose.
"""

from __future__ import annotations

import contextlib
import gc
import gzip
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

MIB = float(1 << 20)

# fdnet.tensor function -> op group reported in the per-layer metrics
OP_GROUPS = {
    "conv2d_time": "conv2d_time",
    "maxpool_time": "maxpool_time",
    "matmul": "matmul",
    "gelu": "gelu",
    "dropout": "dropout",
    "softmax_lastdim": "softmax_lastdim",
    "add": "elementwise",
    "sub": "elementwise",
    "mul": "elementwise",
    "div": "elementwise",
    "neg": "elementwise",
    "reshape": "shape",
    "transpose": "shape",
    "slice_time": "shape",
    "tensor_sum": "sum",
    "sqrt": "sqrt",
}
GROUPS = tuple(dict.fromkeys(OP_GROUPS.values()))

# spans of these phases run the model; op and layer metrics sum over them
MODEL_PHASES = ("train", "eval")
MODULES = ("tensor", "layers", "models", "focal", "data", "training", "metrics",
           "kstest", "verification")


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span, in parallel lists: cheap to append on hot paths
        self._name: list[int] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._parent: list[int] = []
        self._phase: list[int] = []
        self._stack: list[int] = []
        self.phase_names: list[str] = []
        self._phase_now = self._intern_phase("none")
        self.graph_nodes: dict[str, int] = defaultdict(int)
        self.graph_bytes: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.step_peak_bytes: list[int] = []
        self.dead_graph_bytes: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._check_frame = None
        self.check_seconds: list[float] = []

    # -- recording -------------------------------------------------------

    def _intern(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _intern_phase(self, name: str) -> int:
        if name not in self.phase_names:
            self.phase_names.append(name)
        return self.phase_names.index(name)

    def _open(self, name_idx: int) -> int:
        sid = len(self._name)
        self._name.append(name_idx)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._phase.append(self._phase_now)
        self._end.append(0.0)
        self._stack.append(sid)
        self._start.append(time.perf_counter())
        return sid

    def _close(self, sid: int):
        self._end[sid] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def phase(self, name: str):
        """A root span whose descendants belong to one workload phase."""
        previous = self._phase_now
        self._phase_now = self._intern_phase(name)
        sid = self._open(self._intern(f"phase.{name}"))
        try:
            yield
        finally:
            self._close(sid)
            self._phase_now = previous

    def _wrapped(self, fn, name: str):
        name_idx = self._intern(name)
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open(name_idx)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid)

        return traced

    def _op_wrapped(self, fn, group: str):
        fwd_idx = self._intern(f"tensor.{group}")
        bwd_idx = self._intern(f"tensor.{group}.bwd")
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open(fwd_idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            backward = out._backward
            if backward is not None:
                phase = tracer.phase_names[tracer._phase_now]
                tracer.graph_nodes[phase] += 1
                tracer.graph_bytes[phase] += out.data.nbytes

                def timed_backward():
                    bsid = tracer._open(bwd_idx)
                    try:
                        backward()
                    finally:
                        tracer._close(bsid)

                out._backward = timed_backward
            return out

        return traced

    # -- installing wrappers ---------------------------------------------

    def _patch(self, owner, attr: str, replacement):
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, staticmethod):
            replacement = staticmethod(replacement)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _wrap_attr(self, owner, attr: str, name: str):
        self._patch(owner, attr, self._wrapped(getattr(owner, attr), name))

    def install(self, fdnet):
        """Wrap the public entry points of every fdnet module."""
        T = fdnet.tensor
        for fn_name, group in OP_GROUPS.items():
            self._patch(T, fn_name, self._op_wrapped(getattr(T, fn_name), group))
        self._wrap_attr(T.Tensor, "backward", "tensor.backward")
        self._patch(T, "grad_check", self._grad_check_wrapper(T.grad_check,
                                                              fdnet.verification))

        layers = fdnet.layers
        for cls in (layers.WeightNormConv, layers.MultiHeadAttention, layers.LinearHead,
                    layers.ValueEmbedding):
            self._wrap_attr(cls, "forward", f"layers.{cls.__name__}.forward")
        for cls in (fdnet.models.DFEInitialBlock, fdnet.models.DFEICOMBlock):
            self._wrap_attr(cls, "forward", f"models.{cls.__name__}.forward")
        # models looks slice_input up in its own namespace
        self._wrap_attr(fdnet.models, "slice_input", "focal.slice_input")

        data = fdnet.data
        self._wrap_attr(data, "load_csv", "data.load_csv")
        self._wrap_attr(data.WindowSampler, "batch", "data.batch")
        self._wrap_attr(data.Standardizer, "fit", "data.standardize")
        self._wrap_attr(data.Standardizer, "transform", "data.standardize")

        training = fdnet.training
        for attr in ("train", "mse_loss", "evaluate_mse", "save_checkpoint",
                     "load_checkpoint"):
            self._wrap_attr(training, attr, f"training.{attr}")
        self._patch(training.Adam, "step", self._adam_step_wrapper(training.Adam.step))

        self._wrap_attr(fdnet.metrics, "evaluate_run", "metrics.evaluate_run")
        self._wrap_attr(fdnet.kstest, "shift_report", "kstest.shift_report")
        self._wrap_attr(fdnet.kstest, "ecdf_sup_distance", "kstest.ecdf_sup_distance")
        self._wrap_attr(fdnet.verification, "run_gradient_checks",
                        "verification.run_gradient_checks")

    def instrument_model(self, model):
        """Wrap one model instance's forward and each of its branches."""
        forward = model.forward
        names = {mode: self._intern(f"models.forward.{mode}") for mode in ("train", "eval")}
        tracer = self

        def traced_forward(x, mode="eval"):
            sid = tracer._open(names[mode])
            try:
                return forward(x, mode)
            finally:
                tracer._close(sid)

        model.forward = traced_forward
        for i, branch in enumerate(model.branches):
            branch.forward = self._wrapped(branch.forward, f"models.branch{i}")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _adam_step_wrapper(self, step):
        name_idx = self._intern("training.adam_step")
        gc_idx = self._intern("bench.gc_collect")
        tracer = self

        def traced_step(optimizer, lr):
            sid = tracer._open(name_idx)
            try:
                step(optimizer, lr)
            finally:
                tracer._close(sid)
            if tracer.phase_names[tracer._phase_now] != "train":
                return
            tracer.counters["train_steps"] += 1
            if tracemalloc.is_tracing():
                tracer.step_peak_bytes.append(tracemalloc.get_traced_memory()[1])
                # what a collection right after the step frees: dead graphs
                # that only the cyclic collector can reclaim
                gsid = tracer._open(gc_idx)
                before = tracemalloc.get_traced_memory()[0]
                gc.collect()
                tracer.dead_graph_bytes.append(before - tracemalloc.get_traced_memory()[0])
                tracer._close(gsid)
                tracemalloc.reset_peak()

        return traced_step

    def _grad_check_wrapper(self, grad_check, verification):
        """Time grad_check calls and attribute them to the check that made them.

        A check is the frame called directly by run_gradient_checks; a new such
        frame starts the next entry of `check_seconds`.
        """
        runner_code = verification.run_gradient_checks.__code__
        name_idx = self._intern("tensor.grad_check")
        tracer = self

        def traced_grad_check(f, points, *args, **kwargs):
            frame = sys._getframe(1)
            while frame is not None and (frame.f_back is None
                                         or frame.f_back.f_code is not runner_code):
                frame = frame.f_back
            if frame is not None and frame is not tracer._check_frame:
                tracer._check_frame = frame
                tracer.check_seconds.append(0.0)
            del frame

            def counted_f():
                tracer.counters["f_evals"] += 1
                return f()

            start = time.perf_counter()
            sid = tracer._open(name_idx)
            try:
                return grad_check(counted_f, points, *args, **kwargs)
            finally:
                tracer._close(sid)
                if tracer._check_frame is not None and tracer.check_seconds:
                    tracer.check_seconds[-1] += time.perf_counter() - start

        return traced_grad_check

    def end_gradient_checks(self):
        self._check_frame = None

    # -- output ----------------------------------------------------------

    def span_count(self) -> int:
        return len(self._name)

    def write(self, path):
        """Write every span as one CSV row; done once, after timing ends."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("run,id,parent,phase,name,start_s,end_s\n")
            names, phases = self.names, self.phase_names
            for sid in range(len(self._name)):
                fh.write(f"{self.run_id},{sid},{self._parent[sid]},"
                         f"{phases[self._phase[sid]]},{names[self._name[sid]]},"
                         f"{self._start[sid]:.9f},{self._end[sid]:.9f}\n")

    def aggregate(self):
        """Total time, self time and count per (name, phase).

        Self time is a span's duration minus the durations of its children.
        Returns dict[(name, phase)] -> [total_s, self_s, calls] and the
        per-span durations for parent-specific sums.
        """
        n = len(self._name)
        dur = [self._end[i] - self._start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                child[p] += dur[i]
        table: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0.0, 0.0, 0])
        for i in range(n):
            row = table[(self.names[self._name[i]], self.phase_names[self._phase[i]])]
            row[0] += dur[i]
            row[1] += dur[i] - child[i]
            row[2] += 1
        return table, dur

    def sum_children(self, dur, parent_name: str, child_name: str) -> float:
        """Total duration of `child_name` spans directly under `parent_name` spans."""
        parent_idx = self._name_ids.get(parent_name)
        child_idx = self._name_ids.get(child_name)
        if parent_idx is None or child_idx is None:
            return 0.0
        return sum(dur[i] for i in range(len(self._name))
                   if self._name[i] == child_idx and self._parent[i] >= 0
                   and self._name[self._parent[i]] == parent_idx)
