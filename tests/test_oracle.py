"""Whole-model forwards against `tests/oracle.py`, a plain-numpy reading of the architecture.

The oracle shares no code with `fdnet` beyond the checkpoint names it reads
parameters by, so these tests check the golden files' numbers from outside
the package: a change meant to keep outputs must keep passing here, and a
change meant to move them (a new initialisation, say) must still pass.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from fdnet.models import build_model
from fdnet.tensor import Tensor

ORACLE = settings(derandomize=True, deadline=None, database=None, max_examples=60)


@st.composite
def tiny_configs(draw):
    variant = draw(st.sampled_from(["fdnet", "funet"]))
    heads = draw(st.integers(1, 2))
    config = {
        "variant": variant,
        "l_in": draw(st.integers(4, 40)),
        "l_out": draw(st.integers(1, 5)),
        "f": draw(st.integers(1, 4)),
        "alpha": draw(st.floats(0.3, 0.7)),
        "n_layers": draw(st.integers(1, 3)),
        "embed_dim": heads * draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 2 ** 16)),
        "heads": heads,
        "dropout_p": draw(st.sampled_from([0.0, 0.1, 0.5])),
    }
    lengths, depths = oracle.focal_plan(config["l_in"], config["f"], config["alpha"],
                                        config["n_layers"], variant)
    # FUNet halves a branch once per block, each from a length of at least 2
    fits = [length >= (2 ** (depth - 1) + 1 if variant == "funet" else 1)
            for length, depth in zip(lengths, depths)]
    assume(all(fits))
    return config


def run_both(config, x, mode):
    model = build_model(**config)
    pred, outputs = model.forward(Tensor(x), mode)
    params = {name: p.data for name, p in model.named_parameters().items()}
    want, want_outputs = oracle.forward(
        params, x, variant=config["variant"], f=config["f"], alpha=config["alpha"],
        n_layers=config["n_layers"], heads=config["heads"], dropout=config["dropout_p"],
        seed=config["seed"], mode=mode)
    return model, [pred.data] + [y.data for y in outputs], [want] + want_outputs


def assert_close(actual, expected):
    assert len(actual) == len(expected)
    for a, b in zip(actual, expected):
        scale = float(np.abs(b).max())
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * scale)


@ORACLE
@given(config=tiny_configs(), batch=st.integers(1, 3), variates=st.integers(1, 3),
       mode=st.sampled_from(["eval", "train"]))
def test_forward_matches_oracle(config, batch, variates, mode):
    x = np.random.default_rng(config["seed"]).normal(size=(batch, 1, config["l_in"], variates))
    model, actual, expected = run_both(config, x, mode)
    lengths, depths = oracle.focal_plan(config["l_in"], config["f"], config["alpha"],
                                        config["n_layers"], config["variant"])
    assert (model.config["plan_lengths"], model.config["plan_depths"]) == (lengths, depths)
    assert_close(actual, expected)


def test_default_funet_matches_oracle_in_train_mode():
    """Two heads, four branches and dropout 0.1 at once, on two windows."""
    config = dict(variant="funet", l_in=48, l_out=6, f=4, alpha=0.5, n_layers=3,
                  embed_dim=4, seed=7, heads=2, dropout_p=0.1)
    x = np.random.default_rng(7).normal(size=(2, 1, 48, 2))
    _, actual, expected = run_both(config, x, "train")
    assert_close(actual, expected)
