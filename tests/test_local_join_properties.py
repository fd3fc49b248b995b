"""Property-based tests (hypothesis) for the local band-join algorithms."""

from __future__ import annotations

import shutil
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.data.storage import SpillArena
from repro.geometry.band import BandCondition
from repro.local_join import kernels, native
from repro.local_join.auto import AutoJoin
from repro.local_join.base import canonical_pair_order
from repro.local_join.iejoin_local import IEJoinLocal
from repro.local_join.index_nested_loop import IndexNestedLoopJoin
from repro.local_join.nested_loop import NestedLoopJoin
from repro.local_join.sort_band import SortSweepJoin


def _value_arrays(max_rows: int = 24, dims: int = 2):
    return npst.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(0, max_rows), st.just(dims)),
        elements=st.floats(-20, 20, allow_nan=False, allow_infinity=False, width=32),
    )


@settings(max_examples=60, deadline=None)
@given(s=_value_arrays(), t=_value_arrays(), eps=st.floats(0, 3))
def test_all_algorithms_agree_on_random_inputs(s, t, eps):
    """Every local algorithm returns exactly the reference pair set."""
    condition = BandCondition.symmetric(["A1", "A2"], eps)
    reference = canonical_pair_order(NestedLoopJoin().join(s, t, condition))
    for algorithm in (IndexNestedLoopJoin(), SortSweepJoin(), IEJoinLocal(), AutoJoin()):
        result = canonical_pair_order(algorithm.join(s, t, condition))
        np.testing.assert_array_equal(result, reference)


@settings(max_examples=40, deadline=None)
@given(
    s=_value_arrays(),
    t=_value_arrays(),
    eps_left=st.floats(0, 2),
    eps_right=st.floats(0, 2),
)
def test_asymmetric_bands_agree_under_tiny_budgets(s, t, eps_left, eps_right):
    """Asymmetric widths and minimal chunk budgets never change the pair set."""
    condition = BandCondition({"A1": (eps_left, eps_right), "A2": (eps_right, eps_left)})
    reference = canonical_pair_order(NestedLoopJoin().join(s, t, condition))
    for algorithm in (
        SortSweepJoin(memory_budget=64),
        IEJoinLocal(memory_budget=64),
        IndexNestedLoopJoin(memory_budget=64),
    ):
        result = canonical_pair_order(algorithm.join(s, t, condition))
        np.testing.assert_array_equal(result, reference)
        assert algorithm.count(s, t, condition) == reference.shape[0]


@settings(max_examples=40, deadline=None)
@given(s=_value_arrays(dims=1), t=_value_arrays(dims=1), eps=st.floats(0, 5))
def test_output_symmetry_of_symmetric_band(s, t, eps):
    """For a symmetric band condition, join(S, T) and join(T, S) are transposes."""
    condition = BandCondition.symmetric(["A1"], eps)
    algorithm = IndexNestedLoopJoin()
    forward = canonical_pair_order(algorithm.join(s, t, condition))
    backward = canonical_pair_order(algorithm.join(t, s, condition)[:, ::-1])
    np.testing.assert_array_equal(canonical_pair_order(forward), canonical_pair_order(backward))


@settings(max_examples=40, deadline=None)
@given(s=_value_arrays(dims=1), eps_small=st.floats(0, 1), eps_extra=st.floats(0, 2))
def test_output_monotone_in_band_width(s, eps_small, eps_extra):
    """Widening the band can only add output pairs (Figure 1's spectrum)."""
    t = s + 0.25  # deterministic second input derived from the first
    small = BandCondition.symmetric(["A1"], eps_small)
    large = BandCondition.symmetric(["A1"], eps_small + eps_extra)
    algorithm = IndexNestedLoopJoin()
    assert algorithm.count(s, t, large) >= algorithm.count(s, t, small)


@settings(max_examples=40, deadline=None)
@given(values=_value_arrays(dims=2), eps=st.floats(0.01, 3))
def test_self_join_is_reflexive(values, eps):
    """Every tuple joins with itself in a self band-join (diagonal always present)."""
    condition = BandCondition.symmetric(["A1", "A2"], eps)
    pairs = IndexNestedLoopJoin().join(values, values, condition)
    if values.shape[0] == 0:
        assert pairs.shape[0] == 0
        return
    pair_set = {(int(a), int(b)) for a, b in pairs}
    assert all((i, i) in pair_set for i in range(values.shape[0]))


# --------------------------------------------------------------------- #
# Native fused scan versus the numpy kernel (the oracle)
# --------------------------------------------------------------------- #

#: Grid step that is not a binary fraction, so sums and differences of grid
#: values tie with epsilon multiples only up to float rounding.
_STEP = 0.1
_SPECIAL_VALUES = [0.0, -0.0, 1e15, -1e15, 1e15 + 0.125, 1e15 - 0.25]

requires_compiler = pytest.mark.skipif(
    shutil.which("gcc") is None and shutil.which("cc") is None,
    reason="no C compiler: the native tier cannot be built",
)


@contextmanager
def _numpy_tier():
    """Route the kernels through the numpy path by hiding the native loader."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "library", lambda: None)
        yield


@st.composite
def _tie_heavy_case(draw):
    d = draw(st.integers(2, 4))
    element = st.one_of(
        st.integers(-6, 6).map(lambda k: k * _STEP),
        st.sampled_from(_SPECIAL_VALUES),
    )

    def side():
        rows = draw(
            npst.arrays(np.float64, st.tuples(st.integers(0, 30), st.just(d)), elements=element)
        )
        # Explicit duplicate rows on top of the ties the small grid produces.
        copies = draw(st.integers(0, 4))
        return np.concatenate([rows] + [rows[:3]] * copies) if rows.shape[0] else rows

    s, t = side(), side()
    width = st.integers(0, 4).map(lambda m: m * _STEP)
    symmetric = draw(st.booleans())
    widths = {}
    for i in range(d):
        left = draw(width)
        widths[f"A{i + 1}"] = (left, left if symmetric else draw(width))
    return (
        s,
        t,
        BandCondition(widths),
        draw(st.integers(0, d - 1)),
        draw(st.booleans()),
        # 1..10 candidates per chunk force oversized windows into slices
        # and overlapping windows into re-sorted (slice-mapped) chunks.
        draw(st.sampled_from([32, 64, 96, 160, 320, kernels.DEFAULT_MEMORY_BUDGET])),
        draw(st.booleans()),
    )


def _kernel_answers(s, t, condition, dim, probe_is_s, budget, spill):
    arena = SpillArena() if spill else None
    try:
        # Threshold 0 spills every permuted side to a scratch memory map.
        with kernels.kernel_scratch(arena, 0) if spill else nullcontext():
            pairs = kernels.interval_join(s, t, condition, dim, probe_is_s, budget)
            count = kernels.interval_count(s, t, condition, dim, probe_is_s, budget)
    finally:
        if arena is not None:
            arena.cleanup()
    return canonical_pair_order(pairs), count


@requires_compiler
@settings(max_examples=150, deadline=None)
@given(case=_tie_heavy_case())
def test_native_scan_matches_numpy_kernel(case):
    """The native tier returns exactly the numpy kernel's pair set, ties
    included, in both orientations, under tiny budgets and on mmap sides."""
    assert native.library() is not None
    native_pairs, native_count = _kernel_answers(*case)
    with _numpy_tier():
        numpy_pairs, numpy_count = _kernel_answers(*case)
    np.testing.assert_array_equal(native_pairs, numpy_pairs)
    assert native_count == native_pairs.shape[0]
    assert numpy_count == numpy_pairs.shape[0]
