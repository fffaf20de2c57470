"""Golden outputs: eval predictions and one train step's gradients, pinned.

`tests/fixtures/golden_<variant>.npz` holds, for FDNet and for FUNet with two
attention heads, a B=64 eval forward's predictions and the loss and every
parameter's gradient of one B=64 train step, at fixed seeds. At L_in 96,
V 7 and embed 8 the input has 64 * 96 * 7 * 8 = 2^18.4 elements, so both
forwards are large (see `fdnet.models`). FDNet's branch cut is balanced
(0.516 of the work on its larger side), so its eval forward and train step
run its branch groups as two lanes, bitwise the whole batch's serial loop;
FUNet's (0.556) splits the batch of both, so its stored gradients are the
sum of the two halves'. Under one CPU all run serially and must agree.

The comparison allows 1e-12 relative error, because another CPU's OpenBLAS
kernels may round the last bits differently. On the machine that wrote the
files the results were bitwise equal. `tests/test_oracle.py` checks the same
forwards against a plain-numpy oracle, independently of these files. After
a change that is meant to move these numbers, regenerate the files of the
variants it moved with

    PYTHONPATH=src python tests/test_golden.py [fdnet] [funet]

(no argument rewrites both). Name only the variants that moved:
`np.savez_compressed` stamps each entry with the time it was written, so
rewriting a file whose numbers did not change still changes its bytes.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from fdnet import tensor as T
from fdnet.models import build_model
from fdnet.tensor import Tensor
from fdnet.training import mse_loss

FIXTURES = Path(__file__).parent / "fixtures"
HEADS = {"fdnet": 1, "funet": 2}
BATCH, L_IN, L_OUT, VARIATES = 64, 96, 24, 7


def golden(variant: str) -> dict[str, np.ndarray]:
    """Eval predictions, train loss and train gradients (`grad/<param>`)."""
    rng = np.random.default_rng(1313)
    x = rng.normal(size=(BATCH, 1, L_IN, VARIATES))
    y = rng.normal(size=(BATCH, L_OUT, VARIATES))
    model = build_model(variant, l_in=L_IN, l_out=L_OUT, f=5, alpha=0.5, n_layers=5,
                        embed_dim=8, seed=4321, heads=HEADS[variant])
    with T.no_grad():
        pred, _ = model.forward(Tensor(x), "eval")
    out = {"eval_pred": pred.data}
    params = model.named_parameters()
    loss = mse_loss(model.forward(Tensor(x), "train")[0], Tensor(y))
    grads = T.gradients(loss, params.values())
    out["train_loss"] = loss.data
    out.update((f"grad/{name}", g) for name, g in zip(params, grads))
    return out


@pytest.mark.parametrize("variant", list(HEADS))
def test_matches_golden(variant):
    with np.load(FIXTURES / f"golden_{variant}.npz") as stored:
        expected = dict(stored)
    actual = golden(variant)
    assert list(actual) == list(expected)
    for key, want in expected.items():
        scale = float(np.abs(want).max())
        np.testing.assert_allclose(actual[key], want, rtol=1e-12, atol=1e-12 * scale,
                                   err_msg=key)


if __name__ == "__main__":
    for name in sys.argv[1:] or HEADS:
        np.savez_compressed(FIXTURES / f"golden_{name}.npz", **golden(name))
