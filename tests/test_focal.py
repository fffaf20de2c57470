import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdnet.errors import InvalidParameterError, InvalidPlanError, ShapeError
from fdnet.focal import FocalPlan, make_focal_plan, slice_input
from fdnet.tensor import Tensor


class TestMakeFocalPlan:
    def test_default_config_lengths_and_depths(self):
        plan = make_focal_plan(672, 5, 0.5, 5, "fdnet")
        assert plan.lengths == (336, 168, 84, 42, 42)
        assert plan.depths == (1, 2, 3, 4, 5)

    def test_single_branch_fdnet(self):
        plan = make_focal_plan(100, 1, 0.5, 5, "fdnet")
        assert plan.lengths == (100,)
        assert plan.depths == (5,)

    def test_single_branch_funet(self):
        plan = make_focal_plan(100, 1, 0.5, 5, "funet")
        assert plan.depths == (1,)

    def test_four_branch_proportions(self):
        # proportions {1/2, 1/4, 1/8, 1/8}
        plan = make_focal_plan(96, 4, 0.5, 5, "fdnet")
        assert plan.lengths == (48, 24, 12, 12)

    def test_funet_depths(self):
        plan = make_focal_plan(672, 5, 0.5, 5, "funet")
        assert plan.depths == (4, 3, 2, 1, 1)

    def test_oldest_absorbs_residual(self):
        plan = make_focal_plan(100, 3, 0.5, 3, "fdnet")
        # floor(25)=25, floor(25)=25, oldest = 100-50 = 50
        assert plan.lengths == (50, 25, 25)
        assert sum(plan.lengths) == 100

    def test_non_dyadic_lengths_sum(self):
        plan = make_focal_plan(97, 4, 0.5, 4, "fdnet")
        assert sum(plan.lengths) == 97
        assert all(l >= 1 for l in plan.lengths)

    def test_too_short_raises(self):
        with pytest.raises(InvalidPlanError):
            make_focal_plan(7, 5, 0.5, 5, "fdnet")

    def test_more_branches_than_steps_rejected_before_any_list_is_built(self):
        # a per-branch list of 3,000,000 entries took ~1 s and ~237 MiB before
        # the empty branches were found
        tracemalloc.start()
        try:
            with pytest.raises(InvalidPlanError, match="cannot feed 3000000"):
                make_focal_plan(16, 3_000_000, 0.5, 2, "fdnet")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_depth_clipping_when_f_exceeds_n(self):
        plan = make_focal_plan(128, 4, 0.5, 2, "fdnet")
        assert plan.depths == (1, 1, 1, 2)

    def test_invalid_args(self):
        with pytest.raises(InvalidParameterError):
            make_focal_plan(64, 0, 0.5, 5, "fdnet")
        with pytest.raises(InvalidParameterError):
            make_focal_plan(64, 2, 1.5, 5, "fdnet")
        with pytest.raises(InvalidParameterError):
            make_focal_plan(64, 2, 0.5, 0, "fdnet")
        with pytest.raises(InvalidParameterError):
            make_focal_plan(64, 2, 0.5, 5, "other")

    @given(st.integers(1, 6), st.integers(1, 8), st.integers(5, 11))
    @settings(max_examples=80, deadline=None)
    def test_depth_monotonicity(self, f, n, lpow):
        l_in = 2 ** lpow
        fd = make_focal_plan(l_in, f, 0.5, n, "fdnet")
        assert fd.depths[-1] == n
        assert all(a <= b for a, b in zip(fd.depths, fd.depths[1:]))
        if f <= n:
            assert all(a < b for a, b in zip(fd.depths, fd.depths[1:]))
        fu = make_focal_plan(l_in, f, 0.5, n, "funet")
        assert fu.depths[-1] == 1
        assert all(a >= b for a, b in zip(fu.depths, fu.depths[1:]))
        if f >= 2:
            assert fu.depths[-2] == fu.depths[-1] == 1

    @given(st.integers(1, 6), st.integers(5, 11))
    @settings(max_examples=60, deadline=None)
    def test_dyadic_lengths_are_exact(self, f, lpow):
        l_in = 2 ** lpow
        plan = make_focal_plan(l_in, f, 0.5, 5, "fdnet")
        if f > 1:
            expected = [l_in >> min(i + 1, f - 1) for i in range(f)]
            assert list(plan.lengths) == expected
        assert sum(plan.lengths) == l_in

    @given(st.integers(2, 6), st.floats(0.2, 0.8), st.integers(100, 2000))
    @settings(max_examples=80, deadline=None)
    def test_partition_property_generic_alpha(self, f, alpha, l_in):
        try:
            plan = make_focal_plan(l_in, f, alpha, 5, "fdnet")
        except InvalidPlanError:
            return
        assert sum(plan.lengths) == l_in
        assert all(l >= 1 for l in plan.lengths)


class TestSliceInput:
    def test_partition_roundtrip_bitwise(self):
        plan = make_focal_plan(32, 3, 0.5, 3, "fdnet")
        x = np.random.default_rng(0).normal(size=(2, 1, 32, 4))
        slices = slice_input(Tensor(x), plan)
        rebuilt = np.concatenate([s.data for s in slices], axis=2)
        assert np.array_equal(rebuilt, x)

    def test_newest_slice_is_last_steps(self):
        plan = make_focal_plan(32, 3, 0.5, 3, "fdnet")
        x = np.arange(32, dtype=float).reshape(1, 1, 32, 1)
        slices = slice_input(Tensor(x), plan)
        assert np.array_equal(slices[-1].data.ravel(), np.arange(24, 32))

    def test_shapes_match_plan(self):
        plan = make_focal_plan(672, 5, 0.5, 5, "fdnet")
        x = Tensor(np.zeros((1, 1, 672, 2)))
        for s, length in zip(slice_input(x, plan), plan.lengths):
            assert s.shape == (1, 1, length, 2)

    def test_single_branch_slice_is_whole_input(self):
        plan = make_focal_plan(24, 1, 0.5, 3, "fdnet")
        x = np.random.default_rng(9).normal(size=(1, 1, 24, 2))
        slices = slice_input(Tensor(x), plan)
        assert len(slices) == 1
        assert np.array_equal(slices[0].data, x)

    def test_length_mismatch(self):
        plan = make_focal_plan(32, 2, 0.5, 2, "fdnet")
        with pytest.raises(ShapeError):
            slice_input(Tensor(np.zeros((1, 1, 30, 2))), plan)

    def test_offsets_cover_and_are_disjoint(self):
        plan = make_focal_plan(97, 4, 0.5, 4, "fdnet")
        spans = plan.offsets()
        assert spans[0][0] == 0 and spans[-1][1] == 97
        for (_, stop), (start, _) in zip(spans, spans[1:]):
            assert stop == start
