"""The benchmark's three seeded workloads.

Each workload builds its inputs from the seed with the generators of
:mod:`repro.data.generators`, sets up the program through its public entry
points (``ParallelJoinEngine.join`` or ``BandJoinService``), runs one
closed-loop client over a fixed op list, and checks every answer outside the
timed region (:mod:`perfbench.checker`).  The op list depends only on the
seed and ``--seconds`` (a nominal op rate sizes it to about that much timed
work), never on timing, and the client runs alone, so two runs of one seed
attempt the same ops and fail the same ones.  ``perfbench/README.md``
documents sizes, settings and the reason for each workload.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from perfbench import measure
from perfbench.checker import Reference, check_pairs

#: Partition-worker budget of every query (the library default).
WORKERS = 8

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: paper_cold's set-up is short (about 0.3 s), so it repeats more often.
COLD_SETUP_REPEATS = 9
#: Its warm-up joins run on every COLD_WARM_STEP-th row.  On a 5% slice the
#: set-up took 0.13 s of mostly fixed per-query overhead, and its median
#: moved by a third between sets of runs of the same code; on a quarter of
#: the rows the join work dominates.
COLD_WARM_STEP = 4

#: Pareto shape of every generated column (the paper's pareto-1.5).
PARETO_Z = 1.5

#: A run whose op time passes this many times ``--seconds`` stops at the
#: next group boundary: a guard for machines far slower than the nominal
#: rates assume, so every run ends in time.
LIMIT_FACTOR = 4


def op_count(per_second: float, seconds: float, group: int) -> int:
    """Ops in a run: ``per_second * seconds``, in whole groups, at least one."""
    return group * max(1, round(per_second * seconds / group))


@dataclass
class RunResult:
    """What one workload run measured."""

    attempted: int
    failed: int
    unexplained_wrong: int
    metrics: dict
    info: dict
    layers: dict = field(default_factory=dict)


class Tally:
    """Per-op outcome accounting shared by the workloads."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: Counter = Counter()
        self.wrong_tie = 0
        self.wrong_other = 0
        self.stale = 0
        self.latencies: list[float] = []   # query ops
        self.op_seconds: list[float] = []  # every completed op

    def error(self, exc: BaseException) -> None:
        self.errors[type(exc).__name__] += 1

    def verdict(self, verdict, ops: int = 1) -> None:
        """Count the ``ops`` ops that received one checked answer."""
        if verdict.ok:
            return
        if verdict.tie_only:
            self.wrong_tie += ops
        else:
            self.wrong_other += ops

    @property
    def failed(self) -> int:
        return sum(self.errors.values()) + self.wrong_tie + self.wrong_other + self.stale

    def result(self, setup_times, measured_s: float, peak, info: dict) -> RunResult:
        lat = self.latencies
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": len(self.op_seconds) / measured_s,
            "p99_s": measure.percentile(lat, measure.tail_quantile(len(lat))),
            "peak_rss_mb": peak.growth_mb(),
        }
        info = {
            "query_samples": len(lat),
            "query_p50_s": measure.percentile(lat, 50),
            "p99_s_percentile": measure.tail_quantile(len(lat)),
            "failed_frac": self.failed / self.attempted,
            "errors": dict(self.errors),
            "wrong_tie": self.wrong_tie,
            "wrong_other": self.wrong_other,
            "stale": self.stale,
            **info,
        }
        return RunResult(
            attempted=self.attempted,
            failed=self.failed,
            unexplained_wrong=self.wrong_other,
            metrics=metrics,
            info=info,
        )


class Trace:
    """Layer tracing of one run, or a no-op when tracing is off.

    Tracing alternates between groups of ops, so a traced run also measures
    untraced ops; the difference of their median times is
    the tracing overhead.
    """

    def __init__(self, on: bool) -> None:
        self.on = on
        self.rec = None
        self.roots: list = []
        self.latencies: dict[bool, list[float]] = {True: [], False: []}
        self.counters: dict = {}
        if on:
            from repro import obs

            from perfbench import spans

            obs.enable()  # the kernels publish their candidate counters
            self.rec = spans.install()
            self.rec.enabled = False

    def start(self) -> None:
        """Mark the start of the timed phase (counters are deltas from here)."""
        if self.on:
            from perfbench import layers

            self.counters = layers.counter_snapshot()

    def set(self, traced: bool) -> None:
        if self.on:
            self.rec.enabled = traced

    def begin(self):
        return self.rec.begin("op") if self.on and self.rec.enabled else None

    def end(self, root, traced: bool, elapsed: float) -> None:
        if root is not None:
            self.rec.end(root)
            self.roots.append(root)
        if self.on:
            self.latencies[traced].append(elapsed)

    def fold(self, **kwargs) -> dict:
        from perfbench import layers

        self.rec.uninstall()
        return layers.fold_layers(
            self.rec.spans, self.roots, len(self.latencies[True]),
            overhead=layers.overhead(self.latencies[True], self.latencies[False]),
            counters_before=self.counters,
            **kwargs,
        )


class ClosedLoop:
    """One client issuing a fixed op list back to back.

    Iterating yields ``(op, result, seconds)`` after each successful op;
    whatever the caller does between yields (answer checks) is outside the
    timed region and outside every peak-RSS window.  Ops run in groups of
    ``group``: tracing toggles, and a run past ``limit_s`` of op time stops,
    only between groups.  Only ops for which ``is_query(op)`` holds add a
    latency sample.
    """

    def __init__(self, ops, execute, group, limit_s, tally, peak, trace,
                 is_query=lambda op: True) -> None:
        self.ops, self.execute, self.group, self.limit_s = ops, execute, group, limit_s
        self.tally, self.peak, self.trace, self.is_query = tally, peak, trace, is_query
        self.measured = 0.0

    def __iter__(self):
        self.trace.start()
        for i in range(0, len(self.ops), self.group):
            if self.measured >= self.limit_s:
                break
            traced = (i // self.group) % 2 == 0
            self.trace.set(traced)
            for op in self.ops[i : i + self.group]:
                self.tally.attempted += 1
                self.peak.resume()
                root = self.trace.begin()
                start = time.perf_counter()
                try:
                    result = self.execute(op)
                except Exception as exc:  # a failed op, counted; the run goes on
                    self.tally.error(exc)
                    result = None
                elapsed = time.perf_counter() - start
                self.peak.pause()
                self.trace.end(root, traced, elapsed)
                self.measured += elapsed
                if result is None:
                    continue
                if self.is_query(op):
                    self.tally.latencies.append(elapsed)
                self.tally.op_seconds.append(elapsed)
                yield op, result, elapsed
        self.trace.set(False)


def _seeds(seed: int, n: int) -> list[int]:
    """Independent integer sub-seeds of ``seed`` (same seed, same inputs)."""
    return [int(x) for x in np.random.SeedSequence(seed).generate_state(n)]


def _setup(repeats: int, build):
    """Run ``build()`` ``repeats`` times; return its last value and the times."""
    times, value = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        value = build()
        times.append(time.perf_counter() - start)
    return value, times


def _plan_overheads(s, t, cond, ref: Reference, job, weights) -> tuple[float, float]:
    """The paper's ``(L_m - L_0) / L_0`` and ``(I - |S| - |T|) / (|S| + |T|)``."""
    from repro.cost.lower_bounds import compute_lower_bounds

    bounds = compute_lower_bounds(s, t, cond, WORKERS, weights, output_size=ref.count)
    return (
        bounds.load_overhead(job.max_worker_load(weights)),
        bounds.input_overhead(job.total_input),
    )


def _mean_pair(values) -> tuple[float, float]:
    return tuple(float(np.mean([v[i] for v in values])) for i in range(2))


# ---------------------------------------------------------------------- #
# paper_cold
# ---------------------------------------------------------------------- #

#: Table-2a: 1-D pareto-1.5, values rounded to 5 decimals, eps = k * 1e-5.
COLD_1D_ROWS = 200_000
COLD_1D_DECIMALS = 5
COLD_1D_STEPS = range(2, 17)
#: Table-2b: 3-D pareto-1.5 (continuous values).
COLD_3D_ROWS = 50_000
COLD_3D_EPS = (0.002, 0.03)
#: Independent datasets per dimensionality; queries rotate over them, so a
#: run's figures average over several inputs rather than hinge on one.
COLD_DATASETS = 3
#: Nominal (1-D, 3-D) query pairs per second of ``--seconds``.
COLD_PAIRS_PER_S = 1.25


#: Consecutive pairs in which the band widths cover their range evenly, so
#: the short prefix a run consumes has the same mix of cheap and dear queries
#: whatever the seed.
COLD_BLOCK = 5


def _spread_order(rng, values, block: int) -> list:
    """Permute ``values`` so every ``block`` consecutive entries take one from
    each of ``block`` equal strata of the sorted values."""
    strata = [list(rng.permutation(part)) for part in np.array_split(sorted(values), block)]
    order = []
    while any(strata):
        for j in rng.permutation(block):
            if strata[j]:
                order.append(strata[j].pop())
    return order


def paper_cold_ops(seed: int, pairs: int = 90) -> list[tuple[str, int, float]]:
    """The seeded query sequence ``(kind, dataset, eps)``, alternating 1-D and 3-D.

    No (dataset, band width) repeats, so every query misses the plan cache.
    1-D widths are whole multiples of the data grid step.
    """
    rng = np.random.default_rng(_seeds(seed, 2 * COLD_DATASETS + 1)[-1])
    n_steps = len(COLD_1D_STEPS)
    rounds = -(-pairs // (COLD_DATASETS * n_steps))
    steps = [
        [
            k + r * n_steps
            for r in range(rounds)
            for k in _spread_order(rng, COLD_1D_STEPS, COLD_BLOCK)
        ]
        for _ in range(COLD_DATASETS)
    ]
    lo, hi = COLD_3D_EPS
    strata = np.concatenate(
        [rng.permutation(COLD_BLOCK) for _ in range(-(-pairs // COLD_BLOCK))]
    )[:pairs]
    eps3 = lo + (hi - lo) * (strata + rng.random(pairs)) / COLD_BLOCK
    ops = []
    for i in range(pairs):
        k = i % COLD_DATASETS
        ops.append(("d1", k, int(steps[k][i // COLD_DATASETS]) / 10**COLD_1D_DECIMALS))
        ops.append(("d3", k, float(eps3[i])))
    return ops


def paper_cold(seed: int, seconds: float, trace: bool) -> RunResult:
    from repro.data.generators import pareto_relation
    from repro.engine.engine import ParallelJoinEngine
    from repro.geometry.band import BandCondition

    sub = _seeds(seed, 2 * COLD_DATASETS + 1)
    data = {}
    for k in range(COLD_DATASETS):
        s_seed, t_seed = sub[2 * k], sub[2 * k + 1]
        data["d1", k] = tuple(
            pareto_relation(n, COLD_1D_ROWS, 1, PARETO_Z, seed=x, decimals=COLD_1D_DECIMALS)
            for n, x in (("S", s_seed), ("T", t_seed))
        )
        data["d3", k] = tuple(
            pareto_relation(n, COLD_3D_ROWS, 3, PARETO_Z, seed=x + 1)
            for n, x in (("S", s_seed), ("T", t_seed))
        )
    ops = paper_cold_ops(seed, op_count(COLD_PAIRS_PER_S, seconds, 1))
    peak = measure.PeakTracker()
    tracer = Trace(trace)

    def build():
        # Engine construction plus a warm-up cold join per dimensionality on
        # a quarter of one dataset, at a band width outside the op sequence.
        engine = ParallelJoinEngine(backend="threads")
        for kind, eps in (("d1", 1e-5), ("d3", 0.05)):
            s, t = data[kind, 0]
            rows = np.arange(0, len(s), COLD_WARM_STEP)
            cond = BandCondition.symmetric(s.column_names, eps)
            engine.join(s.take(rows), t.take(rows), cond, workers=WORKERS, materialize=True)
        return engine

    engine, setup_times = _setup(COLD_SETUP_REPEATS, build)

    def execute(op):
        kind, k, eps = op
        s, t = data[kind, k]
        cond = BandCondition.symmetric(s.column_names, eps)
        return engine.join(s, t, cond, workers=WORKERS, materialize=True)

    tally = Tally()
    overheads = []
    paths: Counter = Counter()
    # Ops run in (1-D, 3-D) pairs so every run has both kinds in equal number.
    loop = ClosedLoop(ops, execute, 2, LIMIT_FACTOR * seconds, tally, peak, tracer)
    for (kind, k, eps), result, _ in loop:
        paths["plan_cache" if result.plan_from_cache else "cold"] += 1
        s, t = data[kind, k]
        cond = BandCondition.symmetric(s.column_names, eps)
        ref = Reference(s.join_matrix(cond.attributes), t.join_matrix(cond.attributes), cond)
        tally.verdict(check_pairs(result.pairs, ref))
        if trace:
            overheads.append(_plan_overheads(s, t, cond, ref, result.job, engine.weights))
        del result, ref

    out = tally.result(setup_times, loop.measured, peak, {"paths": dict(paths)})
    if trace:
        load, dup = _mean_pair(overheads)
        out.layers = tracer.fold(
            load_overhead=load, dup_overhead=dup,
            plan_hit_rate=paths["plan_cache"] / max(1, sum(paths.values())),
            paths=dict(paths), cold_seconds=tally.latencies,
        )
    return out


# ---------------------------------------------------------------------- #
# big_join
# ---------------------------------------------------------------------- #

BIG_ROWS = 200_000
BIG_DIMS = 2
BIG_EPS = 0.01
#: Independent datasets the op loop rotates over; averaging over several
#: plans keeps one unlucky plan from setting a run's figures.
BIG_DATASETS = 4
#: Nominal joins per second of ``--seconds``.
BIG_OPS_PER_S = 0.7


def big_join(seed: int, seconds: float, trace: bool) -> RunResult:
    from repro.core.recpart import RecPartPartitioner
    from repro.data.generators import pareto_relation
    from repro.engine.engine import ParallelJoinEngine
    from repro.geometry.band import BandCondition

    sub = _seeds(seed, 2 * BIG_DATASETS)
    data = [
        (
            pareto_relation("S", BIG_ROWS, BIG_DIMS, PARETO_Z, seed=sub[2 * k]),
            pareto_relation("T", BIG_ROWS, BIG_DIMS, PARETO_Z, seed=sub[2 * k + 1]),
        )
        for k in range(BIG_DATASETS)
    ]
    cond = BandCondition.symmetric(data[0][0].column_names, BIG_EPS)
    peak = measure.PeakTracker()
    tracer = Trace(trace)

    def build():
        # Engine construction plus one RecPart plan per dataset.
        engine = ParallelJoinEngine(backend="threads")
        partitioner = RecPartPartitioner(weights=engine.weights)
        for s, t in data:
            engine.plan_cache.get_or_build(partitioner, s, t, cond, WORKERS)
        return engine

    engine, setup_times = _setup(SETUP_REPEATS, build)
    refs = [
        Reference(s.join_matrix(cond.attributes), t.join_matrix(cond.attributes), cond)
        for s, t in data
    ]
    overheads = {}

    def execute(k):
        s, t = data[k]
        return engine.join(s, t, cond, workers=WORKERS, materialize=True)

    tally = Tally()
    paths: Counter = Counter()
    ops = [i % BIG_DATASETS for i in range(op_count(BIG_OPS_PER_S, seconds, BIG_DATASETS))]
    loop = ClosedLoop(ops, execute, BIG_DATASETS, LIMIT_FACTOR * seconds, tally, peak, tracer)
    for k, result, _ in loop:
        paths["plan_cache" if result.plan_from_cache else "cold"] += 1
        tally.verdict(check_pairs(result.pairs, refs[k]))
        if trace and k not in overheads:
            s, t = data[k]
            overheads[k] = _plan_overheads(s, t, cond, refs[k], result.job, engine.weights)
        del result

    out = tally.result(setup_times, loop.measured, peak, {"paths": dict(paths)})
    if trace:
        load, dup = _mean_pair(list(overheads.values()))
        out.layers = tracer.fold(
            load_overhead=load, dup_overhead=dup,
            plan_hit_rate=paths["plan_cache"] / max(1, sum(paths.values())),
            paths=dict(paths),
        )
    return out


# ---------------------------------------------------------------------- #
# serve_mixed
# ---------------------------------------------------------------------- #

SERVE_ROWS = 50_000
#: Join attributes of the two prepared queries over relations S and T.
SERVE_QUERIES = {"q2d": ("A1", "A2"), "q1d": ("A1",)}
#: Band widths of each query's bindings, most popular first.
SERVE_BINDINGS = {
    "q2d": [0.0010, 0.0014, 0.0008, 0.0012],
    "q1d": [4e-6, 6e-6, 3e-6, 5e-6],
}
SERVE_ZIPF = 1.1
#: Op APPEND_AT of every APPEND_EVERY appends APPEND_ROWS rows (1% of ops),
#: alternating between S and T.  With tracing groups of SERVE_GROUP = 50
#: ops, every append (and the compaction it may run) falls in a traced group.
APPEND_EVERY = 100
APPEND_AT = 25
APPEND_ROWS = 250
#: Departures from the ServiceConfig defaults (see perfbench/README.md).
SERVE_CONFIG = {
    "storage": "mmap",
    "spill_threshold_bytes": 256 * 1024,
    "staleness_threshold": 0.01,
    "compaction": "sync",
}
#: Nominal ops per second of ``--seconds``, and ops per tracing group.
SERVE_OPS_PER_S = 140
SERVE_GROUP = 50


def serve_mixed_ops(seed: int, n: int) -> list[tuple]:
    """The seeded op sequence: ``("query", name, eps)`` or ``("append", rel, k)``.

    ``k`` numbers the appends; :func:`append_rows` gives their rows.
    """
    rng = np.random.default_rng(_seeds(seed, 3)[2])
    names = sorted(SERVE_BINDINGS)
    ops = []
    appends = 0
    for i in range(n):
        if i % APPEND_EVERY == APPEND_AT:
            ops.append(("append", "ST"[appends % 2], appends))
            appends += 1
            continue
        name = names[int(rng.integers(len(names)))]
        w = 1.0 / np.arange(1, len(SERVE_BINDINGS[name]) + 1) ** SERVE_ZIPF
        k = int(rng.choice(len(w), p=w / w.sum()))
        ops.append(("query", name, SERVE_BINDINGS[name][k]))
    return ops


def append_rows(seed: int, k: int) -> dict:
    """Rows of the ``k``-th append (same seed, same rows)."""
    from repro.data.generators import pareto_values

    rng = np.random.default_rng([seed, k])
    return {a: pareto_values(APPEND_ROWS, PARETO_Z, rng) for a in ("A1", "A2")}


def serve_mixed(seed: int, seconds: float, trace: bool, workdir: str) -> RunResult:
    from repro.config import ServiceConfig
    from repro.data.generators import pareto_relation
    from repro.geometry.band import BandCondition
    from repro.service.service import BandJoinService

    s_seed, t_seed = _seeds(seed, 2)
    base = {
        "S": pareto_relation("S", SERVE_ROWS, 2, PARETO_Z, seed=s_seed),
        "T": pareto_relation("T", SERVE_ROWS, 2, PARETO_Z, seed=t_seed),
    }
    ops = serve_mixed_ops(seed, op_count(SERVE_OPS_PER_S, seconds, SERVE_GROUP))
    peak = measure.PeakTracker()
    tracer = Trace(trace)
    services = []

    def build():
        # Construction, mmap registration (a spill), prepare, and a warm-up
        # query of every binding.
        if services:
            services[-1].close()
            services[-1].catalog.cleanup()
        config = ServiceConfig(
            spill_dir=os.path.join(workdir, f"catalog-{len(services)}"), **SERVE_CONFIG
        )
        service = BandJoinService(config)
        services.append(service)
        for name, rel in base.items():
            service.register(name, rel)
        for q, bindings in SERVE_BINDINGS.items():
            service.prepare(q, "S", "T", attributes=SERVE_QUERIES[q], epsilons=bindings[0])
        return [((q, eps), service.query(q, eps))
                for q, bindings in SERVE_BINDINGS.items() for eps in bindings]

    io_start = measure.io_write_bytes()
    warm, setup_times = _setup(SETUP_REPEATS, build)
    service = services[-1]
    io_before = measure.io_write_bytes()
    plan0 = (service.engine.plan_cache.stats.hits, service.engine.plan_cache.stats.lookups)
    cache0 = [(r.hits, r.misses) for r in
              (service.prepared(q).result_cache_stats for q in SERVE_QUERIES)]

    appended = {"S": [], "T": []}        # rows in catalog append order

    def execute(op):
        if op[0] == "append":
            rows = append_rows(seed, op[2])
            snapshot = service.append(op[1], rows)
            appended[op[1]].append(rows)
            return snapshot
        return service.query(op[1], op[2])

    tally = Tally()
    answers: dict = {}                   # (id(pairs), key) -> [pairs, ops served]
    paths: Counter = Counter()
    path_seconds: dict = {}
    waits: list[float] = []
    loop = ClosedLoop(ops, execute, SERVE_GROUP, LIMIT_FACTOR * seconds, tally, peak,
                      tracer, is_query=lambda op: op[0] == "query")
    for op, result, elapsed in loop:
        if op[0] == "append":
            continue
        paths[result.path] += 1
        path_seconds.setdefault(result.path, []).append(result.seconds)
        waits.append(max(0.0, elapsed - result.seconds))
        if result.stale:
            tally.stale += 1
            continue
        key = (op[1], op[2], result.s_version, result.t_version)
        answers.setdefault((id(result.pairs), key), [result.pairs, 0])[1] += 1
    io_after = measure.io_write_bytes()

    # Check every distinct answer against the relations at its versions; a
    # wrong answer fails every op it was served to.
    refs: dict = {}
    for (_, key), (pairs, served) in answers.items():
        q, eps, sv, tv = key
        if key not in refs:
            attrs = SERVE_QUERIES[q]
            refs[key] = Reference(
                _at_version(base["S"], appended["S"], sv, attrs),
                _at_version(base["T"], appended["T"], tv, attrs),
                BandCondition.symmetric(attrs, eps),
            )
        tally.verdict(check_pairs(pairs, refs[key]), ops=served)
    n_appends = sum(len(v) for v in appended.values())
    info = {"paths": dict(paths), "appends": n_appends,
            "distinct_answers_checked": len(answers), "distinct_keys_checked": len(refs)}
    out = tally.result(setup_times, loop.measured, peak, info)
    if trace:
        stats = service.stats()
        plan = service.engine.plan_cache.stats
        hits = misses = 0
        for q, (h0, m0) in zip(SERVE_QUERIES, cache0):
            rc = service.prepared(q).result_cache_stats
            hits, misses = hits + rc.hits - h0, misses + rc.misses - m0
        # One set-up's writes (registration spills) plus the timed phase's.
        written = io_after - io_before + (io_before - io_start) / SETUP_REPEATS
        user_bytes = sum(rel.nbytes for rel in base.values()) + n_appends * APPEND_ROWS * 16
        load, dup = _mean_pair([
            _warm_overheads(base, q, eps, result) for (q, eps), result in warm
        ])
        out.layers = tracer.fold(
            load_overhead=load,
            dup_overhead=dup,
            plan_hit_rate=(plan.hits - plan0[0]) / max(1, plan.lookups - plan0[1]),
            paths=dict(paths),
            result_hit_rate=hits / max(1, hits + misses),
            delta_seconds=path_seconds.get("delta", []),
            cold_seconds=path_seconds.get("cold", []),
            wait_s=float(np.mean(waits)) if waits else 0.0,
            write_amp=written / user_bytes,
            segments_max=max(v["segments"] for v in stats["catalog"].values()),
        )
    service.close()
    service.catalog.cleanup()
    return out


def _at_version(base, appends, version: int, attrs) -> np.ndarray:
    """Join matrix of a relation at content ``version`` (``version - 1`` appends)."""
    parts = [base.join_matrix(attrs)]
    parts += [np.column_stack([rows[a] for a in attrs]) for rows in appends[: version - 1]]
    return np.concatenate(parts)


def _warm_overheads(base, q, eps, result) -> tuple[float, float]:
    """Plan overheads of one set-up (cold) query of ``serve_mixed``."""
    from repro.config import LoadWeights
    from repro.geometry.band import BandCondition

    attrs = SERVE_QUERIES[q]
    cond = BandCondition.symmetric(attrs, eps)
    ref = Reference(base["S"].join_matrix(attrs), base["T"].join_matrix(attrs), cond)
    return _plan_overheads(base["S"], base["T"], cond, ref, result.job, LoadWeights())


def scratch_dir(root: str) -> str:
    """A fresh scratch directory inside the checkout (removed by the caller)."""
    path = os.path.join(root, ".perfbench_tmp", f"run-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
