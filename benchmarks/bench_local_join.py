"""Benchmark of the vectorized local-join kernel layer.

Pits the **seed per-tuple loop kernels** (the sort-sweep window loop and
IEJoin bit-array loop the repository started with, preserved verbatim below
as reference implementations) against the vectorized chunked-``searchsorted``
kernels of :mod:`repro.local_join`, per input size and dimensionality, on a
Table-2-style Pareto workload.

Besides the rendered table the benchmark emits a machine-readable perf
record to ``BENCH_local_join.json`` at the repository root (override with
``REPRO_BENCH_LOCAL_JOIN_OUT``):

* per-kernel ``join()`` and ``count()`` seconds per workload,
* the vectorized-over-loop speedups (the acceptance gate: the vectorized
  sort-sweep must beat the seed loop by >= 5x at 100k x 100k rows, with the
  exact same canonically ordered pair set),
* a proof that the 1-D ``count()`` path performs no candidate expansion at
  all (the expansion hook is patched to fail, the count must still answer).

Run standalone for the full-size measurement (two sizes up to 100k tuples
per side)::

    PYTHONPATH=src python benchmarks/bench_local_join.py

or pass ``--smoke`` for the small CI configuration.  The per-tuple loop
kernels are only timed up to ``LOOP_ROWS_CAP`` rows except the sort-sweep
loop (the acceptance comparison), which always runs — the caps are recorded
in the output rather than silently applied.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # standalone execution
    sys.path.insert(0, str(_SRC))

from repro.data.generators import pareto_relation  # noqa: E402
from repro.geometry.band import BandCondition  # noqa: E402
from repro.local_join import (  # noqa: E402
    AutoJoin,
    IEJoinLocal,
    IndexNestedLoopJoin,
    SortSweepJoin,
    kernels,
)
from repro.local_join.base import (  # noqa: E402
    LocalJoinAlgorithm,
    as_matrix,
    canonical_pair_order,
    empty_pairs,
)
from repro.metrics.report import format_table  # noqa: E402

#: Full-size benchmark shapes: (rows per side, dimensionality, band width).
FULL_WORKLOADS = (
    (20_000, 1, 0.001),
    (20_000, 2, 0.01),
    (100_000, 1, 0.0002),
    (100_000, 2, 0.01),
)
#: CI smoke shapes.
SMOKE_WORKLOADS = (
    (4_000, 1, 0.005),
    (4_000, 2, 0.02),
)
SKEW = 1.5

#: The quadratic-ish loop kernels other than the acceptance pair are only
#: timed up to this size (the seed IEJoin loop scans an O(n) bit-array
#: prefix per T-tuple — minutes at 100k rows).
LOOP_ROWS_CAP = 20_000

#: Acceptance gate of the vectorized sort-sweep over the seed loop.
ACCEPTANCE_ROWS = 100_000
ACCEPTANCE_SPEEDUP = 5.0


# --------------------------------------------------------------------- #
# Seed loop kernels (reference; preserved from the pre-vectorization tree)
# --------------------------------------------------------------------- #
class LoopSortSweepJoin(LocalJoinAlgorithm):
    """The seed per-S-row window sweep (verbatim reference implementation)."""

    name = "loop-sort-sweep"

    def join(self, s_values, t_values, condition):
        pairs, _ = self._sweep(s_values, t_values, condition, materialize=True)
        return pairs

    def count(self, s_values, t_values, condition):
        _, total = self._sweep(s_values, t_values, condition, materialize=False)
        return total

    def _sweep(self, s_values, t_values, condition, materialize):
        d = condition.dimensionality
        s_arr = as_matrix(s_values, d)
        t_arr = as_matrix(t_values, d)
        if s_arr.shape[0] == 0 or t_arr.shape[0] == 0:
            return empty_pairs(), 0
        pred = condition.predicates[0]
        s_order = np.argsort(s_arr[:, 0], kind="stable")
        t_order = np.argsort(t_arr[:, 0], kind="stable")
        s_sorted = s_arr[s_order]
        t_sorted = t_arr[t_order]
        t_keys = t_sorted[:, 0]
        other_dims = list(range(1, d))
        chunks, total = [], 0
        window_lo = window_hi = 0
        n_t = t_sorted.shape[0]
        for pos, s_row in enumerate(s_sorted):
            low_bound = s_row[0] - pred.eps_left
            high_bound = s_row[0] + pred.eps_right
            while window_lo < n_t and t_keys[window_lo] < low_bound:
                window_lo += 1
            if window_hi < window_lo:
                window_hi = window_lo
            while window_hi < n_t and t_keys[window_hi] <= high_bound:
                window_hi += 1
            if window_lo >= window_hi:
                continue
            window = slice(window_lo, window_hi)
            keep = np.ones(window_hi - window_lo, dtype=bool)
            for i in other_dims:
                other_pred = condition.predicates[i]
                diff = t_sorted[window, i] - s_row[i]
                keep &= (diff >= -other_pred.eps_left) & (diff <= other_pred.eps_right)
            matched = np.nonzero(keep)[0]
            if matched.size == 0:
                continue
            if materialize:
                s_idx = np.full(matched.size, s_order[pos], dtype=np.int64)
                chunks.append(np.column_stack([s_idx, t_order[window_lo + matched]]))
            else:
                total += int(matched.size)
        if materialize:
            if not chunks:
                return empty_pairs(), 0
            pairs = np.concatenate(chunks)
            return pairs, int(pairs.shape[0])
        return empty_pairs(), total


class LoopIEJoin(LocalJoinAlgorithm):
    """The seed per-T-tuple IEJoin bit-array loop (verbatim reference)."""

    name = "loop-iejoin"

    def join(self, s_values, t_values, condition):
        pairs, _ = self._iejoin(s_values, t_values, condition, materialize=True)
        return pairs

    def count(self, s_values, t_values, condition):
        _, total = self._iejoin(s_values, t_values, condition, materialize=False)
        return total

    def _iejoin(self, s_values, t_values, condition, materialize):
        d = condition.dimensionality
        s_arr = as_matrix(s_values, d)
        t_arr = as_matrix(t_values, d)
        n_s, n_t = s_arr.shape[0], t_arr.shape[0]
        if n_s == 0 or n_t == 0:
            return empty_pairs(), 0
        pred = condition.predicates[0]
        other_dims = list(range(1, d))
        s_x = s_arr[:, 0]
        t_x = t_arr[:, 0] + pred.eps_left
        t_y = t_arr[:, 0] - pred.eps_right
        s_by_x = np.argsort(s_x, kind="stable")
        s_by_y_desc = np.argsort(-s_x, kind="stable")
        y_rank_of_s = np.empty(n_s, dtype=np.int64)
        y_rank_of_s[s_by_y_desc] = np.arange(n_s)
        s_y_desc_values = s_x[s_by_y_desc]
        t_by_x = np.argsort(t_x, kind="stable")
        insert_limits = np.searchsorted(s_x[s_by_x], t_x[t_by_x], side="right")
        scan_limits = np.searchsorted(-s_y_desc_values, -t_y[t_by_x], side="right")
        bit_array = np.zeros(n_s, dtype=bool)
        inserted = 0
        chunks, total = [], 0
        for k in range(n_t):
            t_original = t_by_x[k]
            limit = insert_limits[k]
            while inserted < limit:
                bit_array[y_rank_of_s[s_by_x[inserted]]] = True
                inserted += 1
            scan = scan_limits[k]
            if scan == 0:
                continue
            hits = np.nonzero(bit_array[:scan])[0]
            if hits.size == 0:
                continue
            s_candidates = s_by_y_desc[hits]
            if other_dims:
                keep = np.ones(s_candidates.size, dtype=bool)
                for i in other_dims:
                    other_pred = condition.predicates[i]
                    diff = t_arr[t_original, i] - s_arr[s_candidates, i]
                    keep &= (diff >= -other_pred.eps_left) & (diff <= other_pred.eps_right)
                s_candidates = s_candidates[keep]
                if s_candidates.size == 0:
                    continue
            if materialize:
                t_column = np.full(s_candidates.size, t_original, dtype=np.int64)
                chunks.append(np.column_stack([s_candidates.astype(np.int64), t_column]))
            else:
                total += int(s_candidates.size)
        if materialize:
            if not chunks:
                return empty_pairs(), 0
            pairs = np.concatenate(chunks)
            return pairs, int(pairs.shape[0])
        return empty_pairs(), total


# --------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------- #
def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _build(rows: int, dims: int, band_width: float):
    s = pareto_relation("S", rows, dimensions=dims, z=SKEW, seed=31)
    t = pareto_relation("T", rows, dimensions=dims, z=SKEW, seed=32)
    condition = BandCondition.symmetric([f"A{i+1}" for i in range(dims)], band_width)
    return (
        s.join_matrix(condition.attributes),
        t.join_matrix(condition.attributes),
        condition,
    )


def _time(fn, *args, repeat: int = 2) -> tuple[float, object]:
    """Return (best-of-``repeat`` seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def verify_count_never_expands() -> bool:
    """Prove the 1-D count path performs no candidate expansion.

    The candidate-block source that both kernel tiers (native scan and numpy
    expansion) draw from is replaced by one that fails; every kernel's
    1-D ``count()`` must still answer correctly — i.e. purely from the
    ``searchsorted`` window arithmetic, with no O(output) allocation.
    """
    rng = np.random.default_rng(0)
    s, t = rng.uniform(0, 4, size=(2000, 1)), rng.uniform(0, 4, size=(2000, 1))
    condition = BandCondition.symmetric(["A1"], 0.05)
    expected = SortSweepJoin().count(s, t, condition)
    original = kernels._candidate_blocks

    class _Expanded(Exception):
        pass

    def _forbidden(*args, **kwargs):
        raise _Expanded("1-D count must not expand candidate pairs")

    kernels._candidate_blocks = _forbidden
    try:
        for algorithm in (SortSweepJoin(), IEJoinLocal(), IndexNestedLoopJoin()):
            if algorithm.count(s, t, condition) != expected:
                return False
    except _Expanded:
        return False
    finally:
        kernels._candidate_blocks = original
    return True


def run_local_join_benchmark(workloads=FULL_WORKLOADS) -> dict:
    """Time every kernel on every workload and return the perf record."""
    record: dict = {
        "benchmark": "local-join-kernels",
        "machine": {
            "cpus": _cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "skew": SKEW,
        "loop_rows_cap": LOOP_ROWS_CAP,
        "workloads": [],
        "count_zero_materialization_verified": verify_count_never_expands(),
    }
    vector_kernels = {
        "sort-sweep": SortSweepJoin(),
        "iejoin-local": IEJoinLocal(),
        "index-nested-loop": IndexNestedLoopJoin(),
        "auto": AutoJoin(),
    }
    for rows, dims, band_width in workloads:
        s_matrix, t_matrix, condition = _build(rows, dims, band_width)
        entry: dict = {
            "rows": rows,
            "dims": dims,
            "band_width": band_width,
            "join_seconds": {},
            "count_seconds": {},
        }
        # Warm-up (page faults, allocator growth) outside the timings.
        SortSweepJoin().count(s_matrix, t_matrix, condition)

        loop_sweep = LoopSortSweepJoin()
        loop_join_seconds, loop_pairs = _time(
            loop_sweep.join, s_matrix, t_matrix, condition
        )
        loop_count_seconds, loop_count = _time(
            loop_sweep.count, s_matrix, t_matrix, condition
        )
        entry["join_seconds"][loop_sweep.name] = loop_join_seconds
        entry["count_seconds"][loop_sweep.name] = loop_count_seconds
        reference = canonical_pair_order(loop_pairs)
        entry["output"] = int(reference.shape[0])
        assert loop_count == reference.shape[0]

        if rows <= LOOP_ROWS_CAP:
            loop_ie = LoopIEJoin()
            entry["join_seconds"][loop_ie.name], ie_pairs = _time(
                loop_ie.join, s_matrix, t_matrix, condition
            )
            entry["count_seconds"][loop_ie.name], _ = _time(
                loop_ie.count, s_matrix, t_matrix, condition
            )
            if not np.array_equal(canonical_pair_order(ie_pairs), reference):
                raise AssertionError(f"loop-iejoin pair set diverged at {rows}x{rows}")
        else:
            entry["loop_iejoin_skipped"] = (
                f"seed IEJoin loop capped at {LOOP_ROWS_CAP:,} rows "
                "(O(n) bit-array prefix scan per tuple)"
            )

        for name, algorithm in vector_kernels.items():
            join_seconds, pairs = _time(algorithm.join, s_matrix, t_matrix, condition)
            count_seconds, count = _time(algorithm.count, s_matrix, t_matrix, condition)
            entry["join_seconds"][name] = join_seconds
            entry["count_seconds"][name] = count_seconds
            if not np.array_equal(canonical_pair_order(pairs), reference):
                raise AssertionError(f"{name} pair set diverged at {rows}x{rows} d={dims}")
            if count != reference.shape[0]:
                raise AssertionError(f"{name} count diverged at {rows}x{rows} d={dims}")
        entry["pairs_identical"] = True
        entry["speedup_sort_sweep"] = (
            loop_join_seconds / entry["join_seconds"]["sort-sweep"]
            if entry["join_seconds"]["sort-sweep"] > 0
            else float("inf")
        )
        entry["auto_choice"] = vector_kernels["auto"].last_choice
        record["workloads"].append(entry)

    gate = [
        w
        for w in record["workloads"]
        if w["rows"] >= ACCEPTANCE_ROWS and w["pairs_identical"]
    ]
    if gate:
        worst = min(w["speedup_sort_sweep"] for w in gate)
        record["acceptance"] = {
            "rows": max(w["rows"] for w in gate),
            "min_speedup_sort_sweep": worst,
            "threshold": ACCEPTANCE_SPEEDUP,
            "passed": worst >= ACCEPTANCE_SPEEDUP,
        }
    return record


def render(record: dict) -> str:
    """Render the perf record as an aligned table."""
    rows = []
    for entry in record["workloads"]:
        rows.append(
            [
                f"{entry['rows']:,} x d{entry['dims']}",
                entry["output"],
                entry["join_seconds"]["loop-sort-sweep"],
                entry["join_seconds"]["sort-sweep"],
                entry["speedup_sort_sweep"],
                entry["count_seconds"]["sort-sweep"],
                entry["join_seconds"]["iejoin-local"],
                entry["auto_choice"],
            ]
        )
    title = (
        f"local-join kernels: seed loops vs vectorized "
        f"({record['machine']['cpus']} CPUs; counts never materialize pairs: "
        f"{record['count_zero_materialization_verified']})"
    )
    return format_table(
        [
            "workload",
            "output",
            "loop sweep [s]",
            "vec sweep [s]",
            "speedup",
            "vec count [s]",
            "vec iejoin [s]",
            "auto picked",
        ],
        rows,
        title=title,
    )


def record_path() -> Path:
    """Return the output path of the JSON perf record."""
    override = os.environ.get("REPRO_BENCH_LOCAL_JOIN_OUT")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent.parent / "BENCH_local_join.json"


def write_record(record: dict) -> Path:
    """Write the JSON perf record and return its path."""
    path = record_path()
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def test_local_join_kernel_comparison():
    """Vectorized kernels agree with the seed loops and beat them soundly."""
    from conftest import bench_scale, write_report

    scale = bench_scale()
    workloads = tuple(
        (max(2_000, int(rows * scale)), dims, band_width)
        for rows, dims, band_width in FULL_WORKLOADS
    )
    record = run_local_join_benchmark(workloads)
    assert record["count_zero_materialization_verified"]
    assert all(w["pairs_identical"] for w in record["workloads"])
    assert all(w["speedup_sort_sweep"] > 1.0 for w in record["workloads"])
    path = write_record(record)
    write_report("local_join_kernels", render(record) + f"\n[record written to {path}]")


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    perf_record = run_local_join_benchmark(SMOKE_WORKLOADS if smoke else FULL_WORKLOADS)
    print(render(perf_record))
    print(f"\n[record written to {write_record(perf_record)}]")
    if not perf_record["count_zero_materialization_verified"]:
        sys.exit("FAIL: 1-D count path materialized candidates")
    if smoke:
        # CI gate: vectorized must always win, even at smoke sizes.
        slowest = min(w["speedup_sort_sweep"] for w in perf_record["workloads"])
        if slowest < 2.0:
            sys.exit(f"FAIL: vectorized sort-sweep only {slowest:.1f}x over the seed loop")
    elif "acceptance" in perf_record and not perf_record["acceptance"]["passed"]:
        sys.exit(
            "FAIL: vectorized sort-sweep speedup "
            f"{perf_record['acceptance']['min_speedup_sort_sweep']:.1f}x "
            f"< {ACCEPTANCE_SPEEDUP}x at {ACCEPTANCE_ROWS:,} rows"
        )
