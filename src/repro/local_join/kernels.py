"""Vectorized primitives shared by the local band-join kernels.

Every fast local algorithm in this package reduces to the same three steps:

1. **Windows** — sort one side on a chosen dimension and compute, with one
   ``np.searchsorted`` pair, the contiguous ``[lo, hi)`` window of that side
   that can still satisfy the band predicate of each probe tuple.
2. **Chunked expansion** — consecutive probe rows are grouped so the summed
   window sizes stay under a configurable *memory budget*; each chunk's
   candidate pairs are expanded with ``np.repeat``/``np.arange`` (never the
   full candidate set at once).
3. **Residual filtering** — the remaining band dimensions are verified with
   vectorized masks over the candidate chunk.

Steps 2 and 3 run fused in one native call per chunk when the C tier
(:mod:`repro.local_join.native`) could be built: it walks each window and
writes only the surviving pairs, with the GIL released.  Without a C
compiler the numpy expansion and masks above run instead; they are the
oracle the native scan is tested against.

Counting never materializes pairs: a one-dimensional condition is answered
purely from the window arithmetic (``sum(hi - lo)``, no per-row allocation at
all), and multi-dimensional counts accumulate ``mask.sum()`` chunk by chunk,
so the transient allocation is bounded by the memory budget rather than by
the output size.

The functions here are deliberately orientation-agnostic: the *probe* side
may be S (sort-sweep's view: for each s, a window of T) or T (IEJoin's view:
for each t, a rank interval of S) — only the asymmetric epsilon widths swap.
"""

from __future__ import annotations

import functools
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

from repro import faults
from repro.data.storage import block_spans, madvise_dontneed
from repro.geometry.band import BandCondition
from repro.local_join import native
from repro.local_join.base import empty_pairs
from repro.obs.kernelprof import kernel_profile_start, publish_kernel_profile

__all__ = [
    "DEFAULT_MEMORY_BUDGET",
    "CANDIDATE_BYTES",
    "max_candidates",
    "window_bounds",
    "chunk_spans",
    "residual_mask",
    "interval_join",
    "interval_count",
    "kernel_scratch",
    "native_available",
]

#: Default candidate-buffer budget (bytes) of one kernel invocation.  Chosen
#: so a single worker's transient expansion stays far below typical per-core
#: memory while chunks stay large enough to amortize numpy call overhead.
DEFAULT_MEMORY_BUDGET: int = 64 * 1024 * 1024

#: Approximate bytes held per candidate pair during expansion + filtering
#: (two int64 position arrays, one float64 diff, one bool mask, slack).
#: The native scan holds only its two int64 output buffers (16 B); the
#: budget keeps the numpy figure so both tiers cut identical chunks.
CANDIDATE_BYTES: int = 32


def max_candidates(memory_budget: int) -> int:
    """Translate a byte budget into the per-chunk candidate-pair cap."""
    if memory_budget < 1:
        raise ValueError("memory_budget must be positive")
    return max(1, int(memory_budget) // CANDIDATE_BYTES)


# --------------------------------------------------------------------- #
# Out-of-core scratch context
# --------------------------------------------------------------------- #

_SCRATCH = threading.local()


@contextmanager
def kernel_scratch(arena, threshold_bytes: int):
    """Let kernels on this thread spill large permuted copies to ``arena``.

    The kernels sort each side with one permutation gather
    (``arr[order]``); inside an active scratch context, gathers larger than
    ``threshold_bytes`` land in scratch memory maps filled block by block
    (resident pages recycled as they go) instead of on the heap.  The chunk
    loop then reads slices of the mmap exactly as it reads slices of an
    in-memory array — the byte-budget chunking is unchanged.
    """
    previous = getattr(_SCRATCH, "ctx", None)
    _SCRATCH.ctx = (arena, int(threshold_bytes))
    try:
        yield
    finally:
        _SCRATCH.ctx = previous


def _permuted(arr: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Return ``arr[order]``, spilled to scratch when large and allowed."""
    ctx = getattr(_SCRATCH, "ctx", None)
    if ctx is None or arr.nbytes <= ctx[1]:
        return arr[order]
    arena, _ = ctx
    out = arena.empty_matrix(arr.dtype, arr.shape[0], arr.shape[1], prefix="sorted")
    block_rows = max(1, (4 * 1024 * 1024) // max(1, arr.shape[1] * arr.itemsize))
    for index, (b0, b1) in enumerate(block_spans(arr.shape[0], block_rows)):
        out[b0:b1] = arr[order[b0:b1]]
        if index % 4 == 3:
            madvise_dontneed(out)
            madvise_dontneed(arr)
    madvise_dontneed(arr)
    return out


def _recycle(*arrays: np.ndarray) -> None:
    """Drop resident pages of any memory-mapped operands (no-op otherwise)."""
    for arr in arrays:
        if isinstance(arr, np.memmap):
            madvise_dontneed(arr)


def window_bounds(
    sorted_keys: np.ndarray,
    probe_keys: np.ndarray,
    below: float,
    above: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Return per-probe ``[lo, hi)`` windows of ``sorted_keys`` in
    ``[probe - below, probe + above]`` (one ``np.searchsorted`` pair total)."""
    lows = np.searchsorted(sorted_keys, probe_keys - below, side="left")
    highs = np.searchsorted(sorted_keys, probe_keys + above, side="right")
    # Non-negative widths make hi >= lo already; guard against pathological
    # float rounding when probe +- eps collapses.
    return lows, np.maximum(highs, lows)


def chunk_spans(counts: np.ndarray, candidate_cap: int) -> Iterator[tuple[int, int]]:
    """Yield consecutive ``(start, stop)`` probe-row spans whose summed
    window sizes stay within ``candidate_cap``.

    Each span holds at least one row, so a single window larger than the cap
    forms its own span (``_candidate_blocks`` slices those further).
    The span boundaries are found with ``searchsorted`` over the running sum
    — no per-row Python loop.
    """
    n = int(counts.shape[0])
    if n == 0:
        return
    cumulative = np.cumsum(counts, dtype=np.int64)
    start = 0
    while start < n:
        consumed = int(cumulative[start - 1]) if start else 0
        stop = int(np.searchsorted(cumulative, consumed + candidate_cap, side="right"))
        stop = min(max(stop, start + 1), n)
        # Chaos hook: a fired ``task_slow`` point stalls this chunk,
        # simulating a straggling worker mid-kernel.
        faults.maybe_slow()
        yield start, stop
        start = stop


def _candidate_blocks(
    lows: np.ndarray, counts: np.ndarray, candidate_cap: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray, int]]:
    """Yield ``(row_start, block_lows, block_counts, total)`` candidate
    blocks of at most ``candidate_cap`` candidates each, without expanding.

    Rows ``row_start, row_start + 1, ...`` own the windows
    ``[block_lows[k], block_lows[k] + block_counts[k])``; ``total`` is their
    summed size.  Oversized single windows are cut into cap-sized slices so
    the cap holds for *every* block, keeping peak transient memory bounded.
    """
    for start, stop in chunk_spans(counts, candidate_cap):
        if stop == start + 1 and counts[start] > candidate_cap:
            lo = int(lows[start])
            hi = lo + int(counts[start])
            for piece in range(lo, hi, candidate_cap):
                size = min(candidate_cap, hi - piece)
                yield start, np.array([piece], np.int64), np.array([size], np.int64), size
            continue
        block_counts = counts[start:stop]
        total = int(block_counts.sum())
        if total:
            yield start, lows[start:stop], block_counts, total


def _expand(
    row_start: int, block_lows: np.ndarray, block_counts: np.ndarray, total: int
) -> tuple[np.ndarray, np.ndarray]:
    """Expand one candidate block into ``(probe_pos, window_pos)`` arrays."""
    probe_pos = np.repeat(
        np.arange(row_start, row_start + block_counts.shape[0], dtype=np.int64),
        block_counts,
    )
    # One fused repeat: each row contributes lows[row] - (elements emitted
    # before it), so adding arange(total) walks its window left to right.
    shifts = block_lows - (np.cumsum(block_counts) - block_counts)
    return probe_pos, np.repeat(shifts, block_counts) + np.arange(total, dtype=np.int64)


def residual_mask(
    s_arr: np.ndarray,
    s_pos: np.ndarray,
    t_arr: np.ndarray,
    t_pos: np.ndarray,
    eps_left: np.ndarray,
    eps_right: np.ndarray,
    skip_dim: int,
) -> np.ndarray:
    """Return the boolean mask of candidates satisfying every dimension but
    ``skip_dim`` (already decided by the window), testing ``t - s`` against
    the asymmetric widths exactly like the reference nested loop."""
    keep = np.ones(s_pos.size, dtype=bool)
    for i in range(s_arr.shape[1]):
        if i == skip_dim:
            continue
        diff = t_arr[t_pos, i] - s_arr[s_pos, i]
        keep &= (diff >= -eps_left[i]) & (diff <= eps_right[i])
    return keep


def _oriented(condition: BandCondition, dim: int, probe_is_s: bool) -> tuple[float, float]:
    """:func:`_oriented_widths` on the condition's cached epsilon vectors."""
    eps_left, eps_right = condition.eps_arrays()
    return _oriented_widths(eps_left, eps_right, dim, probe_is_s)


def _iter_matches(
    probe_side: np.ndarray,
    sorted_side: np.ndarray,
    lows: np.ndarray,
    counts: np.ndarray,
    condition: BandCondition,
    dim: int,
    probe_is_s: bool,
    candidate_cap: int,
    profile: dict | None = None,
    materialize: bool = True,
):
    """Yield fully verified ``(kept, probe_pos, window_pos)`` chunks.

    ``probe_side`` must be sorted on ``dim`` (so the ``[lo, hi)`` windows are
    monotone and each chunk's windows union into one contiguous slice of the
    sorted side).  Beyond the plain expand-then-mask plan, each chunk picks
    its *expansion dimension* adaptively: the chunk's window slice is
    re-sorted on each residual dimension (one ``argsort`` of the slice, one
    ``searchsorted`` pair for the chunk's probes) and the dimension with the
    fewest candidates wins.  When another dimension is locally much more
    selective than the sweep dimension — common for skewed data where a
    single-dimension window covers a large value cluster — this cuts the
    expanded candidate count by orders of magnitude; the skipped dimension is
    recovered by the residual mask, which always verifies every dimension
    except the expanded one.

    Each candidate block is scanned and filtered by one call into the native
    tier (:mod:`repro.local_join.native`) when it is available and both
    sides are C-contiguous float64; otherwise :func:`_numpy_scan` expands
    and masks it.  Both apply the same float test and emit survivors in the
    same order.  Without ``materialize`` the native tier only counts, and
    the positions are ``None``.
    """
    d = probe_side.shape[1]
    eps_left, eps_right = condition.eps_arrays()
    scan = native.library() if _native_eligible(probe_side, sorted_side) else None
    if scan is None:
        scan_block = _numpy_scan
    else:
        scan_block = functools.partial(scan.scan, materialize=materialize)
    highs = lows + counts
    for start, stop in chunk_spans(counts, candidate_cap):
        chunk_counts = counts[start:stop]
        total0 = int(chunk_counts.sum())
        if total0 == 0:
            continue
        nonzero = np.nonzero(chunk_counts)[0]
        lo = int(lows[start + nonzero[0]])
        hi = int(highs[start + nonzero[-1]])

        expand_dim = dim
        window_lows = lows[start:stop]
        window_counts = chunk_counts
        slice_map: np.ndarray | None = None
        # Probing the residual dimensions costs one slice argsort each; only
        # worthwhile when the slice is smaller than the pending expansion.
        if d > 1 and hi - lo < total0:
            best_total = total0
            for i in range(d):
                if i == dim:
                    continue
                if profile is not None:
                    profile["resort_probes"] += 1
                sort_idx = np.argsort(sorted_side[lo:hi, i], kind="stable")
                column = sorted_side[lo:hi, i][sort_idx]
                below, above = _oriented_widths(eps_left, eps_right, i, probe_is_s)
                alt_lows = np.searchsorted(
                    column, probe_side[start:stop, i] - below, side="left"
                )
                alt_highs = np.searchsorted(
                    column, probe_side[start:stop, i] + above, side="right"
                )
                alt_counts = np.maximum(alt_highs, alt_lows) - alt_lows
                alt_total = int(alt_counts.sum())
                if alt_total < best_total:
                    best_total = alt_total
                    expand_dim = i
                    window_lows = alt_lows
                    window_counts = alt_counts
                    slice_map = sort_idx
        if profile is not None and slice_map is not None:
            profile["resort_wins"] += 1
        for row_start, block_lows, block_counts, total in _candidate_blocks(
            window_lows, window_counts, candidate_cap
        ):
            if profile is not None:
                profile["chunks"] += 1
                profile["candidates"] += total
                if total > profile["max_chunk"]:
                    profile["max_chunk"] = total
            kept, probe_pos, window_pos = scan_block(
                probe_side, sorted_side, start + row_start, block_lows,
                block_counts, total, slice_map, lo, eps_left, eps_right,
                expand_dim, probe_is_s,
            )
            if kept == 0:
                continue
            if profile is not None:
                profile["pairs"] += kept
            yield kept, probe_pos, window_pos
        # Memory-mapped sides: drop the pages this chunk touched before
        # moving on, so a full pass stays within a bounded resident set.
        _recycle(probe_side, sorted_side)


def _numpy_scan(
    probe_side: np.ndarray,
    sorted_side: np.ndarray,
    start: int,
    block_lows: np.ndarray,
    block_counts: np.ndarray,
    total: int,
    slice_map: np.ndarray | None,
    lo: int,
    eps_left: np.ndarray,
    eps_right: np.ndarray,
    expand_dim: int,
    probe_is_s: bool,
) -> tuple[int, np.ndarray, np.ndarray]:
    """The numpy form of :meth:`repro.local_join.native.BandScan.scan`:
    expand one candidate block with ``repeat``/``arange``, then keep the
    pairs passing :func:`residual_mask` (positions are always returned)."""
    probe_pos, window_local = _expand(start, block_lows, block_counts, total)
    window_pos = window_local if slice_map is None else slice_map[window_local] + lo
    if probe_is_s:
        keep = residual_mask(
            probe_side, probe_pos, sorted_side, window_pos, eps_left, eps_right, expand_dim
        )
    else:
        keep = residual_mask(
            sorted_side, window_pos, probe_side, probe_pos, eps_left, eps_right, expand_dim
        )
    probe_pos = probe_pos[keep]
    return int(probe_pos.size), probe_pos, window_pos[keep]


def _native_eligible(*sides: np.ndarray) -> bool:
    """Whether the native scan can read ``sides`` in place."""
    return all(
        side.dtype == np.float64 and side.flags.c_contiguous for side in sides
    )


def native_available() -> bool:
    """Whether the native fused scan is built and loaded in this process."""
    return native.library() is not None


def _oriented_widths(
    eps_left: np.ndarray, eps_right: np.ndarray, dim: int, probe_is_s: bool
) -> tuple[float, float]:
    """Return the (below, above) window widths of the probe side on ``dim``.

    The band predicate reads ``-eps_left <= t - s <= eps_right``; probing
    with s means t in ``[s - eps_left, s + eps_right]``, probing with t means
    s in ``[t - eps_right, t + eps_left]``.
    """
    if probe_is_s:
        return float(eps_left[dim]), float(eps_right[dim])
    return float(eps_right[dim]), float(eps_left[dim])


def interval_count(
    s_arr: np.ndarray,
    t_arr: np.ndarray,
    condition: BandCondition,
    dim: int,
    probe_is_s: bool = True,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> int:
    """Count band-join pairs without materializing any of them.

    One-dimensional conditions are pure window arithmetic: sort the indexed
    side's keys, one ``searchsorted`` pair, ``sum(hi - lo)`` — no boolean
    masks, no candidate expansion, no O(output) allocation.  Further
    dimensions fall back to chunk-wise expansion + masked counting under the
    memory budget.
    """
    probe_arr, sorted_arr = (s_arr, t_arr) if probe_is_s else (t_arr, s_arr)
    if probe_arr.shape[0] == 0 or sorted_arr.shape[0] == 0:
        return 0
    profile = kernel_profile_start()
    if profile is not None:
        wall, t0 = time.time(), time.perf_counter()
    below, above = _oriented(condition, dim, probe_is_s)
    if condition.dimensionality == 1:
        keys = np.sort(sorted_arr[:, dim])
        # Sorted probes keep the binary searches cache-local (~5x faster).
        lows, highs = window_bounds(keys, np.sort(probe_arr[:, dim]), below, above)
        total = int((highs - lows).sum())
        if profile is not None:
            profile["pairs"] = total
            publish_kernel_profile(
                profile, "count", 1, max_candidates(memory_budget),
                time.perf_counter() - t0, start=wall,
            )
        return total

    sorted_order = np.argsort(sorted_arr[:, dim], kind="stable")
    sorted_side = _permuted(sorted_arr, sorted_order)
    # Sorting the probe side makes the chunk windows monotone (a requirement
    # of the adaptive chunk driver) and keeps every gather slice-local.
    probe_side = _permuted(probe_arr, np.argsort(probe_arr[:, dim], kind="stable"))
    lows, highs = window_bounds(sorted_side[:, dim], probe_side[:, dim], below, above)
    _recycle(probe_side, sorted_side)
    total = 0
    for kept, _, _ in _iter_matches(
        probe_side,
        sorted_side,
        lows,
        highs - lows,
        condition,
        dim,
        probe_is_s,
        max_candidates(memory_budget),
        profile=profile,
        materialize=False,
    ):
        total += kept
    if profile is not None:
        publish_kernel_profile(
            profile, "count", int(probe_arr.shape[1]),
            max_candidates(memory_budget), time.perf_counter() - t0, start=wall,
        )
    return total


def interval_join(
    s_arr: np.ndarray,
    t_arr: np.ndarray,
    condition: BandCondition,
    dim: int,
    probe_is_s: bool = True,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> np.ndarray:
    """Materialize the band-join pairs through the chunked interval kernel.

    Returns ``(m, 2)`` ``(s_index, t_index)`` pairs in implementation order.
    Multi-dimensional inputs sort the probe side on ``dim`` as well, so each
    chunk's windows union into one contiguous slice of the sorted side (the
    monotonicity the adaptive chunk driver relies on, and cache-local
    gathers for free).
    """
    probe_arr, sorted_arr = (s_arr, t_arr) if probe_is_s else (t_arr, s_arr)
    if probe_arr.shape[0] == 0 or sorted_arr.shape[0] == 0:
        return empty_pairs()
    profile = kernel_profile_start()
    if profile is not None:
        wall, t0 = time.time(), time.perf_counter()
    below, above = _oriented(condition, dim, probe_is_s)

    sorted_order = np.argsort(sorted_arr[:, dim], kind="stable")
    sorted_side = _permuted(sorted_arr, sorted_order)

    if condition.dimensionality == 1:
        # Every candidate is a result: expand straight into the output array
        # (the transients are output-sized, which materialization implies
        # anyway).  Probes are sorted for cache-local binary searches; the
        # original row ids come back through one fused repeat.
        probe_order = np.argsort(probe_arr[:, dim], kind="stable")
        lows, highs = window_bounds(
            sorted_side[:, dim], probe_arr[probe_order, dim], below, above
        )
        counts = highs - lows
        total = int(counts.sum())
        if total == 0:
            pairs = empty_pairs()
        else:
            shifts = lows - (np.cumsum(counts) - counts)
            window_pos = np.repeat(shifts, counts) + np.arange(
                total, dtype=np.int64
            )
            pairs = np.empty((total, 2), dtype=np.int64)
            pairs[:, 0 if probe_is_s else 1] = np.repeat(probe_order, counts)
            pairs[:, 1 if probe_is_s else 0] = sorted_order[window_pos]
        if profile is not None:
            profile["chunks"] = 1 if total else 0
            profile["candidates"] = total
            profile["pairs"] = total
            profile["max_chunk"] = total
            publish_kernel_profile(
                profile, "join", 1, max_candidates(memory_budget),
                time.perf_counter() - t0, start=wall,
            )
        return pairs

    probe_order = np.argsort(probe_arr[:, dim], kind="stable")
    probe_side = _permuted(probe_arr, probe_order)
    lows, highs = window_bounds(sorted_side[:, dim], probe_side[:, dim], below, above)
    _recycle(probe_side, sorted_side)

    chunks: list[np.ndarray] = []
    for _, probe_pos, window_pos in _iter_matches(
        probe_side,
        sorted_side,
        lows,
        highs - lows,
        condition,
        dim,
        probe_is_s,
        max_candidates(memory_budget),
        profile=profile,
    ):
        probe_idx = probe_order[probe_pos]
        window_idx = sorted_order[window_pos]
        if probe_is_s:
            chunks.append(np.column_stack([probe_idx, window_idx]))
        else:
            chunks.append(np.column_stack([window_idx, probe_idx]))
    if chunks:
        pairs = np.concatenate(chunks).astype(np.int64, copy=False)
    else:
        pairs = empty_pairs()
    if profile is not None:
        publish_kernel_profile(
            profile, "join", int(probe_arr.shape[1]),
            max_candidates(memory_budget), time.perf_counter() - t0, start=wall,
        )
    return pairs
