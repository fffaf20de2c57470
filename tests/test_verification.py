import pytest

from fdnet.errors import InvalidParameterError
from fdnet.tensor import DIFFERENTIABLE_OPS
from fdnet.verification import (
    DEFAULT_TOLERANCE,
    check_names,
    run_gradient_checks,
)


class TestSuite:
    def test_clean_run_all_pass(self):
        results = run_gradient_checks()
        failures = [r.name for r in results if not r.passed]
        assert failures == []

    def test_traced_ops_cover_registry_and_declarations(self):
        # every registered op runs under some check, and every traced op is registered
        results = run_gradient_checks()
        observed_union = {op for r in results for op in r.ops}
        assert observed_union == set(DIFFERENTIABLE_OPS)
        assert [r.name for r in results] == check_names()

    def test_attention_check_traces_fused_op(self):
        attention = [r for r in run_gradient_checks() if r.name == "attention"][0]
        assert "attention_time" in attention.ops
        assert "softmax_lastdim" not in attention.ops

    def test_tiny_models_included(self):
        names = check_names()
        assert "fdnet_tiny_end_to_end" in names
        assert "funet_tiny_end_to_end" in names

    def test_default_tolerance_value(self):
        assert DEFAULT_TOLERANCE == 1e-3

    @pytest.mark.parametrize("op", ["gelu", "conv2d_time", "matmul", "sum", "attention_time",
                                    "sqrt", "weight_norm", "concat"])
    def test_corrupted_op_detected(self, op):
        results = run_gradient_checks(corrupt_op=op)
        failing = {r.name for r in results if not r.passed}
        covering = {r.name for r in results if op in r.ops}
        assert failing, f"corrupting {op} went undetected"
        assert failing <= covering

    def test_corruption_is_scoped_to_run(self):
        run_gradient_checks(corrupt_op="gelu")
        results = run_gradient_checks()
        assert all(r.passed for r in results)

    def test_unknown_corrupt_op_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_gradient_checks(corrupt_op="not_an_op")
