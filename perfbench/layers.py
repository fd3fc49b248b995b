"""Per-layer metrics folded from a traced run.

Every ``*_s`` metric is seconds per traced op (summed over the op's spans),
every ``*.calls`` metric is calls per traced op, and shares and ratios are
taken over the whole run.  A metric whose layer a workload never enters
reads 0.
"""

from __future__ import annotations

import statistics

from perfbench.spans import children_of, fold, uncovered

#: Per-layer metrics, in the order ``BENCHMARK.json`` lists them, with units.
PER_LAYER = {
    "core.partition_s": "s",
    "core.partition_calls": "count",
    "core.load_overhead": "ratio",
    "core.dup_overhead": "ratio",
    "sampling.self_s": "s",
    "plan_cache.hit_rate": "ratio",
    "plan_cache.self_s": "s",
    "routing.self_s": "s",
    "routing.copies_per_row": "ratio",
    "backends.self_s": "s",
    "backends.overlap": "ratio",
    "backends.retries": "count",
    "local_join.self_s": "s",
    "local_join.calls": "count",
    "local_join.useful_frac": "ratio",
    "engine.merge_s": "s",
    "prepared.path_share.result_cache": "ratio",
    "prepared.path_share.plan_cache": "ratio",
    "prepared.path_share.cold": "ratio",
    "prepared.path_share.delta": "ratio",
    "prepared.result_hit_rate": "ratio",
    "prepared.delta_p50_s": "s",
    "prepared.cold_p50_s": "s",
    "scheduler.wait_s": "s",
    "catalog.append_p50_s": "s",
    "catalog.compactions": "count",
    "catalog.compact_s": "s",
    "storage.write_amp": "ratio",
    "storage.segments_max": "count",
    "trace.overhead": "ratio",
    "trace.uncovered_share": "ratio",
}

PATHS = ("result_cache", "plan_cache", "cold", "delta")


def overhead(traced, untraced) -> float:
    """Traced minus untraced median op time, as a share of the untraced median."""
    if not traced or not untraced:
        return 0.0
    return statistics.median(traced) / statistics.median(untraced) - 1.0


#: Process-wide program counters the fold reads (as deltas over the run).
COUNTERS = (
    "repro_kernel_candidates_total",
    "repro_kernel_pairs_total",
    "repro_task_retries_total",
)


def counter_snapshot() -> dict[str, float]:
    """Return the current totals of :data:`COUNTERS`."""
    from repro import obs

    out = {}
    for name in COUNTERS:
        metric = obs.registry().get(name)
        out[name] = metric.total() if metric is not None else 0.0
    return out


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def fold_layers(
    spans,
    roots,
    traced_ops: int,
    *,
    overhead: float,
    counters_before: dict,
    load_overhead: float,
    dup_overhead: float,
    plan_hit_rate: float,
    paths: dict,
    result_hit_rate: float = 0.0,
    delta_seconds=(),
    cold_seconds=(),
    wait_s: float = 0.0,
    write_amp: float = 0.0,
    segments_max: int = 0,
) -> dict:
    """Fold one traced run's spans and counters into :data:`PER_LAYER` values."""
    per_op = 1.0 / max(1, traced_ops)
    rows = fold(spans)

    def self_s(name: str) -> float:
        return rows.get(name, {}).get("self_s", 0.0) * per_op

    def total_s(name: str) -> float:
        return rows.get(name, {}).get("total_s", 0.0) * per_op

    def calls(name: str) -> int:
        return rows.get(name, {}).get("calls", 0)

    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    runs = by_name.get("backends", [])
    run_wall = sum(s.duration for s in runs)
    run_local = sum(s.result or 0.0 for s in runs)
    executes = [s.result for s in by_name.get("engine.execute", []) if s.result is not None]
    routed_in = sum(e.total_input for e in executes)
    routed_base = sum(e.baseline_input for e in executes)
    outer_kernels = [
        s for s in by_name.get("local_join", [])
        if s.parent is None or s.parent.name != "local_join"
    ]
    now = counter_snapshot()
    counters = {k: now[k] - counters_before.get(k, 0.0) for k in COUNTERS}
    candidates = counters["repro_kernel_candidates_total"]
    compacts = by_name.get("catalog.compact", [])
    op_wall = sum(r.duration for r in roots)
    kids = children_of(spans)
    n_paths = sum(paths.values())

    out = {
        "core.partition_s": total_s("core.partition"),
        "core.partition_calls": calls("core.partition") * per_op,
        "core.load_overhead": load_overhead,
        "core.dup_overhead": dup_overhead,
        "sampling.self_s": self_s("sampling"),
        "plan_cache.hit_rate": plan_hit_rate,
        "plan_cache.self_s": self_s("plan_cache"),
        "routing.self_s": self_s("routing"),
        "routing.copies_per_row": routed_in / routed_base if routed_base else 0.0,
        "backends.self_s": self_s("backends"),
        "backends.overlap": run_local / run_wall if run_wall else 0.0,
        "backends.retries": counters["repro_task_retries_total"],
        "local_join.self_s": self_s("local_join"),
        "local_join.calls": len(outer_kernels) * per_op,
        "local_join.useful_frac": (
            counters["repro_kernel_pairs_total"] / candidates if candidates else 0.0
        ),
        "engine.merge_s": sum(e.merge_s for e in executes) * per_op,
        **{
            f"prepared.path_share.{p}": paths.get(p, 0) / n_paths if n_paths else 0.0
            for p in PATHS
        },
        "prepared.result_hit_rate": result_hit_rate,
        "prepared.delta_p50_s": _median(list(delta_seconds)),
        "prepared.cold_p50_s": _median(list(cold_seconds)),
        "scheduler.wait_s": wait_s,
        # Self time: a synchronous compaction (and its re-plan) runs inside
        # the append that crossed the staleness threshold.
        "catalog.append_p50_s": _median(
            [uncovered(s, kids) for s in by_name.get("catalog.append", [])]
        ),
        "catalog.compactions": len(compacts),
        "catalog.compact_s": _median([s.duration for s in compacts]),
        "storage.write_amp": write_amp,
        "storage.segments_max": segments_max,
        "trace.overhead": overhead,
        "trace.uncovered_share": (
            sum(uncovered(r, kids) for r in roots) / op_wall if op_wall else 0.0
        ),
    }
    if list(out) != list(PER_LAYER):
        raise RuntimeError("per-layer metrics out of step with PER_LAYER")
    return out
