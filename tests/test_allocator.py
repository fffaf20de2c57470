"""The glibc malloc setting made when fdnet.tensor is imported (`_keep_freed_memory`)."""

import ctypes
import os
import platform
import subprocess
import sys

import pytest

import fdnet
from fdnet import tensor as T

ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(fdnet.__file__))}

# Two identical FDNet train steps whose activations are ~2.4 MB each, well over
# glibc's 128 KiB default mmap threshold, and whose forward is large enough to
# run its branch groups on two threads when the process may use two CPUs.
TWO_STEPS = """
import resource
import numpy as np
from fdnet.models import build_model
from fdnet.tensor import Tensor
from fdnet.training import mse_loss

model = build_model("fdnet", 336, 24, 5, 0.5, 5, 8, 4321)
rng = np.random.default_rng(0)
x = Tensor(rng.standard_normal((16, 1, 336, 7)))
y = Tensor(rng.standard_normal((16, 24, 7)))
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    pred, _ = model.forward(x, "train")
    mse_loss(pred, y).backward()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the setting is glibc's")
def test_second_train_step_reuses_the_first_steps_pages():
    done = subprocess.run([sys.executable, "-c", TWO_STEPS], env=ENV, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    first, second = map(int, done.stdout.split())
    # without the setting the second step faults in over half as many pages
    # as the first (glibc trims the heap the first step's graph was freed
    # into); with it, under 1%
    assert second < 0.1 * first, (first, second)


class _Libc:
    """A C library whose mallopt returns `result` and records its calls."""

    def __init__(self, result):
        self.result, self.calls = result, []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return self.result


def _call_with(monkeypatch, lib, libc_name="glibc"):
    monkeypatch.setattr(platform, "libc_ver", lambda: (libc_name, "2.36"))
    monkeypatch.setattr(ctypes, "CDLL", lambda name: lib)
    T._keep_freed_memory()


def test_both_thresholds_set_mmap_first(monkeypatch):
    lib = _Libc(1)
    _call_with(monkeypatch, lib)
    assert lib.calls == [(-3, 32 << 20), (-1, 1 << 30)]


def test_no_trim_threshold_when_the_mmap_threshold_is_refused(monkeypatch):
    # a trim threshold alone would stop glibc's dynamic mmap threshold at
    # 128 KiB, and every activation would be mmapped and unmapped
    lib = _Libc(0)
    _call_with(monkeypatch, lib)
    assert lib.calls == [(-3, 32 << 20)]


def test_other_c_libraries_left_alone(monkeypatch):
    lib = _Libc(1)
    _call_with(monkeypatch, lib, libc_name="")
    assert lib.calls == []


def test_import_works_without_mallopt():
    code = "\n".join([
        "import ctypes",
        "real = ctypes.CDLL",
        "ctypes.CDLL = lambda name, *a, **k: object() if name is None else real(name, *a, **k)",
        "import numpy as np",
        "from fdnet import tensor as T",
        "print(T.mul(T.Tensor(np.ones(2)), T.Tensor(np.ones(2))).data.sum())",
    ])
    done = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "2.0\n"
