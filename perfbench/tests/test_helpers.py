"""Tests of the benchmark's own helpers.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from perfbench import measure, spans, workloads
from perfbench.checker import Reference, check_pairs
from repro.geometry.band import BandCondition


# ---------------------------------------------------------------------- #
# percentile rule
# ---------------------------------------------------------------------- #
def _beyond(samples, q):
    cut = measure.percentile(samples, q)
    return sum(1 for v in samples if v > cut)


@pytest.mark.parametrize("n", [20, 21, 57, 100, 333, 999, 1000, 1001, 5000])
def test_tail_quantile_is_highest_percentile_with_ten_beyond(n):
    samples = list(np.random.default_rng(n).permutation(n).astype(float))
    q = measure.tail_quantile(n)
    assert _beyond(samples, q) >= 10
    # From the percentile that lands on the tenth-largest sample upward,
    # fewer than ten samples lie beyond; the rule stays below it.
    q_lim = 100.0 * (n - 10) / (n - 1) * (1 + 1e-12)
    assert _beyond(samples, q_lim) < 10
    assert q < q_lim
    assert q == 99.0 or _beyond(samples, q) == 10


def test_tail_quantile_caps_and_floors():
    assert measure.tail_quantile(1000) == 99.0
    assert measure.tail_quantile(10**6) == 99.0
    assert measure.tail_quantile(100) == pytest.approx(90.0)
    assert measure.tail_quantile(20) == 50.0
    assert measure.tail_quantile(3) == 50.0
    with pytest.raises(ValueError):
        measure.tail_quantile(0)


def test_percentile_matches_numpy():
    values = np.random.default_rng(0).random(37)
    for q in (0, 12.5, 50, 90, 99, 100):
        assert measure.percentile(values, q) == pytest.approx(np.percentile(values, q))


# ---------------------------------------------------------------------- #
# self-time folding
# ---------------------------------------------------------------------- #
def _span(i, name, parent, thread, start, end):
    return spans.Span(id=i, name=name, parent=parent, request=1, thread=thread,
                      start=start, end=end)


def test_fold_subtracts_union_of_cross_thread_children():
    op = _span(1, "op", None, 0, 0.0, 10.0)
    run = _span(2, "backends", op, 0, 1.0, 9.0)
    # Two kernels on two pool threads overlap in [4, 6]; a third outlives
    # its parent and is clipped to it.
    k1 = _span(3, "local_join", run, 1, 2.0, 6.0)
    k2 = _span(4, "local_join", run, 2, 4.0, 8.0)
    k3 = _span(5, "local_join", run, 1, 8.5, 9.5)
    rows = spans.fold([op, run, k1, k2, k3])
    assert rows["backends"]["self_s"] == pytest.approx(8.0 - (6.0 + 0.5))
    assert rows["local_join"]["self_s"] == pytest.approx(4.0 + 4.0 + 1.0)
    assert rows["local_join"]["calls"] == 3
    assert rows["op"]["self_s"] == pytest.approx(2.0)
    assert spans.uncovered(op, spans.children_of([op, run, k1, k2, k3])) == pytest.approx(2.0)


def test_union_length():
    assert spans.union_length([], 0, 1) == 0.0
    assert spans.union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4.0)
    assert spans.union_length([(-5, 20)], 0, 10) == pytest.approx(10.0)


class _Task:
    pass


def test_recorder_adopts_pool_thread_kernels_under_backend_run():
    rec = spans.Recorder()

    def kernel(task):
        return 1

    wrapped_kernel = rec.wrap(kernel, "local_join")
    execute = rec.wrap_execute_task(lambda task: wrapped_kernel(task))

    class Outcome:
        local_seconds = 0.25

    def run(backend, tasks):
        with ThreadPoolExecutor(max_workers=2) as pool:
            for future in [pool.submit(execute, t) for t in tasks]:
                future.result()
        return [Outcome() for _ in tasks]

    run_wrapped = rec.wrap_backend_run(run, "backends")
    root = rec.begin("op")
    run_wrapped(None, [_Task() for _ in range(4)])
    rec.end(root)

    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    (run_span,) = by_name["backends"]
    kernels = by_name["local_join"]
    assert len(kernels) == 4
    assert all(k.parent is run_span for k in kernels)
    assert all(k.request == root.request for k in kernels)
    assert any(k.thread != threading.get_ident() for k in kernels)
    assert run_span.result == pytest.approx(1.0)


# ---------------------------------------------------------------------- #
# seeded op sequences
# ---------------------------------------------------------------------- #
_OPS_SNIPPET = (
    "import json, sys; sys.path[:0] = ['.', 'src'];"
    "from perfbench import workloads as w;"
    "print(json.dumps([w.paper_cold_ops(7), w.serve_mixed_ops(7, 500),"
    " w.append_rows(7, 3)['A2'].tolist()]))"
)


def test_seeded_op_sequences_repeat_across_processes():
    outputs = [
        subprocess.run([sys.executable, "-c", _OPS_SNIPPET], capture_output=True,
                       text=True, check=True, timeout=120).stdout
        for _ in range(2)
    ]
    assert outputs[0] == outputs[1]
    here = json.loads(json.dumps([
        workloads.paper_cold_ops(7),
        workloads.serve_mixed_ops(7, 500),
        workloads.append_rows(7, 3)["A2"].tolist(),
    ]))
    assert json.loads(outputs[0]) == here


def test_seeded_op_sequences_differ_by_seed():
    assert workloads.paper_cold_ops(7) != workloads.paper_cold_ops(8)
    assert workloads.serve_mixed_ops(7, 500) != workloads.serve_mixed_ops(8, 500)
    assert workloads.append_rows(7, 3)["A1"].tolist() != workloads.append_rows(8, 3)["A1"].tolist()


def test_op_count_depends_only_on_rate_and_seconds():
    assert workloads.op_count(100, 15, 50) == 1500
    assert workloads.op_count(0.7, 15, 4) == 12
    assert workloads.op_count(1.25, 15, 1) == 19
    assert workloads.op_count(0.01, 1, 4) == 4
    assert workloads.paper_cold_ops(7, 15) == workloads.paper_cold_ops(7, 15)


def test_paper_cold_ops_never_repeat_a_band_on_a_dataset():
    ops = workloads.paper_cold_ops(3)
    assert len(set(ops)) == len(ops)
    assert [kind for kind, _, _ in ops[:4]] == ["d1", "d3", "d1", "d3"]
    for kind, _, eps in ops:
        if kind == "d1":
            assert round(eps * 1e5) == pytest.approx(eps * 1e5, abs=1e-9)


def test_serve_mixed_appends_one_percent():
    ops = workloads.serve_mixed_ops(5, 1000)
    appends = [op for op in ops if op[0] == "append"]
    assert len(appends) == 10
    assert [op[1] for op in appends[:4]] == ["S", "T", "S", "T"]


# ---------------------------------------------------------------------- #
# answer checker
# ---------------------------------------------------------------------- #
def _instance(d=2, seed=0):
    rng = np.random.default_rng(seed)
    s = np.round(rng.pareto(1.5, (400, d)) + 1, 1)
    t = np.round(rng.pareto(1.5, (300, d)) + 1, 1)
    cond = BandCondition({f"A{j}": (0.1 * (j + 1), 0.2) for j in range(d)})
    full = cond.matches(s[:, None, :], t[None, :, :])
    pairs = np.column_stack(np.nonzero(full))
    return s, t, cond, pairs


@pytest.mark.parametrize("d", [1, 2, 3])
def test_reference_counts_match_brute_force_on_ties(d):
    for seed in range(3):
        s, t, cond, pairs = _instance(d, seed)
        ref = Reference(s, t, cond)
        assert ref.count == len(pairs)
        assert check_pairs(pairs, ref).ok


def test_checker_flags_out_of_band_pair():
    s, t, cond, pairs = _instance()
    ref = Reference(s, t, cond)
    full = cond.matches(s[:, None, :], t[None, :, :])
    far = np.argwhere(~full)[0]
    verdict = check_pairs(np.vstack([pairs, far]), ref)
    assert not verdict.ok and verdict.out_of_band == 1 and not verdict.tie_only


def test_checker_flags_duplicated_pair():
    s, t, cond, pairs = _instance()
    verdict = check_pairs(np.vstack([pairs, pairs[:1]]), Reference(s, t, cond))
    assert not verdict.ok and verdict.duplicates == 1 and not verdict.tie_only


def test_checker_flags_dropped_pair():
    s, t, cond, pairs = _instance()
    ref = Reference(s, t, cond)
    # Drop a pair well inside the band: not a float tie.
    inner = np.nonzero(
        np.all(np.abs(s[pairs[:, 0]] - t[pairs[:, 1]]) < 0.05, axis=1)
    )[0][0]
    verdict = check_pairs(np.delete(pairs, inner, axis=0), ref)
    assert not verdict.ok and verdict.missing == 1 and not verdict.tie_only


def test_checker_classifies_boundary_disagreement_as_tie():
    # Grid data with eps a multiple of the grid step: evaluating the band as
    # ``|t - s| <= eps`` instead of ``matches`` moves boundary pairs only.
    rng = np.random.default_rng(1)
    s = np.round(rng.random((500, 1)) * 3 + 1, 1)
    t = np.round(rng.random((500, 1)) * 3 + 1, 1)
    cond = BandCondition.symmetric(["A1"], 0.3)
    other = np.abs(t[None, :, 0] - s[:, None, 0]) <= 0.3
    pairs = np.column_stack(np.nonzero(other))
    verdict = check_pairs(pairs, Reference(s, t, cond))
    assert not verdict.ok
    assert verdict.tie_only
