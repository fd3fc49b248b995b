"""Concurrent query scheduler: single-flight, micro-batching, admission control.

The scheduler is the serving layer's control plane.  Callers submit
``(prepared query, epsilons)`` requests and receive futures; a small pool of
worker threads drains the queue.  Three mechanisms keep heavy traffic
efficient:

**Single-flight deduplication** — a request identical to one already queued
or executing (same prepared-query key, same epsilons) does not enqueue a
second execution; it attaches to the in-flight future and both callers get
the same result.  Under a thundering herd of popular queries only one engine
dispatch runs.

**Micro-batching** — when a worker picks up a request it also drains queued
requests for the *same prepared query* with different epsilons (up to
``max_batch``).  The batch runs as one engine dispatch with the per-attribute
union of the epsilon bands; each member's exact answer is recovered by
filtering the wide pair set against its own band condition (exact, because
the filter re-checks the member's condition on the actual values — a pair
satisfies a narrower band iff its values do).

**Admission control** — at most ``max_pending`` requests may be queued or
executing; beyond that :meth:`QueryScheduler.submit` raises
:class:`~repro.exceptions.ServiceOverloadError` instead of letting queues
grow without bound.  Optionally the scheduler also prices each query by its
cheap sampled output estimate (:meth:`PreparedQuery.estimate_pairs`, powered
by the zero-materialization counting kernels) and rejects queries whose
estimate exceeds ``max_estimated_pairs`` — a runaway band width then fails
fast at submit time instead of tying a worker to an enormous dispatch.

Every request is timed (queue wait, execution, total) and counted per
execution path; :meth:`SchedulerMetrics.snapshot` reports the counters plus
latency percentiles over a sliding window.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

from repro.config import DEFAULT_MAX_BATCH, DEFAULT_MAX_PENDING, DEFAULT_SCHEDULER_WORKERS
from repro.engine import deadline as deadline_mod
from repro.exceptions import (
    BandConditionError,
    CorruptSegmentError,
    DeadlineExceededError,
    NonFiniteInputError,
    SchemaError,
    ServiceError,
    ServiceOverloadError,
)
from repro.obs import (
    DEFAULT_TIME_BUCKETS,
    NOOP_SPAN,
    MetricsRegistry,
    get_logger,
    peak_rss_bytes,
    percentile,
    tracer,
)
from repro.obs.workload.recorder import pair_fingerprint
from repro.service.prepared import (
    PATH_MICRO_BATCH,
    PreparedQuery,
    QueryResult,
    epsilon_union,
    gather_rows,
)

__all__ = ["QueryScheduler", "SchedulerMetrics"]

logger = get_logger(__name__)

#: Failure causes reported by ``repro_query_failures_total``.
FAILURE_CAUSES = (
    "overload", "worker_crash", "timeout", "corrupt_segment", "invalid_input", "internal"
)


def _failure_cause(exc: BaseException) -> str:
    """Classify an execution failure for the labeled failure counter."""
    if isinstance(exc, (BandConditionError, SchemaError, NonFiniteInputError)):
        return "invalid_input"
    if isinstance(exc, ServiceOverloadError):
        return "overload"
    if isinstance(exc, DeadlineExceededError):
        return "timeout"
    if isinstance(exc, BrokenProcessPool):
        return "worker_crash"
    if isinstance(exc, CorruptSegmentError):
        return "corrupt_segment"
    return "internal"


class SchedulerMetrics:
    """Scheduler accounting, backed by an obs :class:`MetricsRegistry`.

    Every counter lives in the registry (``repro_scheduler_*``), so one
    Prometheus scrape of the owning registry sees them; the integer
    properties (``submitted``, ``completed``, …) read the same counters for
    existing callers.  Exact latency percentiles additionally keep a sliding
    window of samples — registry histograms have fixed buckets, and the
    serving API promised exact p50/p95/p99.
    """

    def __init__(self, window: int = 2048, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._events = self.registry.counter(
            "repro_scheduler_events_total",
            "scheduler lifecycle events (submitted/completed/...)",
        )
        self._paths = self.registry.counter(
            "repro_scheduler_paths_total", "completed requests per execution path"
        )
        self._latency = self.registry.histogram(
            "repro_scheduler_latency_seconds",
            "request latency by stage",
            buckets=DEFAULT_TIME_BUCKETS,
        )
        self._peak_rss = self.registry.gauge(
            "repro_process_peak_rss_bytes",
            "peak resident set size of the serving process",
        )
        self._failures = self.registry.counter(
            "repro_query_failures_total",
            "request failures classified by cause "
            "(overload/worker_crash/timeout/corrupt_segment/invalid_input/internal)",
        )
        self._degraded = self.registry.counter(
            "repro_degraded_responses_total",
            "requests answered with a version-stale cached result under overload",
        )
        self._latencies: deque = deque(maxlen=window)  # (queue_s, exec_s, total_s)

    # -- write paths ---------------------------------------------------- #
    def record_submitted(self) -> None:
        self._events.inc(event="submitted")

    def record_deduplicated(self) -> None:
        self._events.inc(event="deduplicated")

    def record_rejected(self) -> None:
        self._events.inc(event="rejected")
        # Admission rejections are the scheduler's overload failures —
        # classified here even when degraded mode still answers the caller.
        self._failures.inc(cause="overload")

    def record_degraded(self) -> None:
        self._events.inc(event="degraded")
        self._degraded.inc()

    def record_batched(self, count: int) -> None:
        self._events.inc(count, event="batched")

    def record(self, path: str, queue_seconds: float, exec_seconds: float) -> None:
        """Record one completed request."""
        self._events.inc(event="completed")
        self._paths.inc(path=path)
        total = queue_seconds + exec_seconds
        self._latency.observe(queue_seconds, stage="queue")
        self._latency.observe(exec_seconds, stage="exec")
        self._latency.observe(total, stage="total")
        with self._lock:
            self._latencies.append((queue_seconds, exec_seconds, total))

    def record_failure(self, cause: str = "internal") -> None:
        self._events.inc(event="failed")
        self._failures.inc(cause=cause)

    def sample_rss(self) -> None:
        """Refresh the peak-RSS gauge (called after each executed batch)."""
        self._peak_rss.set(peak_rss_bytes())

    @property
    def peak_rss_bytes(self) -> int:
        return int(self._peak_rss.value())

    # -- read paths (API-compatible with the pre-registry counters) ----- #
    def _event(self, name: str) -> int:
        return int(self._events.value(event=name))

    @property
    def submitted(self) -> int:
        return self._event("submitted")

    @property
    def completed(self) -> int:
        return self._event("completed")

    @property
    def failed(self) -> int:
        return self._event("failed")

    @property
    def deduplicated(self) -> int:
        return self._event("deduplicated")

    @property
    def batched(self) -> int:
        return self._event("batched")

    @property
    def rejected(self) -> int:
        return self._event("rejected")

    @property
    def degraded(self) -> int:
        return self._event("degraded")

    @property
    def paths(self) -> dict[str, int]:
        return {labels.get("path", ""): int(count) for labels, count in self._paths.items()}

    @property
    def failures(self) -> dict[str, int]:
        """Return request failures keyed by classified cause."""
        return {
            labels.get("cause", ""): int(count)
            for labels, count in self._failures.items()
        }

    def latency_percentiles(self) -> dict:
        """Return p50/p95/p99 of total latency plus mean queue wait (seconds)."""
        with self._lock:
            totals = [total for _, _, total in self._latencies]
            queues = [queue for queue, _, _ in self._latencies]
        return {
            "p50": percentile(totals, 50),
            "p95": percentile(totals, 95),
            "p99": percentile(totals, 99),
            "mean_queue_seconds": sum(queues) / len(queues) if queues else 0.0,
            "samples": len(totals),
        }

    def snapshot(self) -> dict:
        """Return a JSON-friendly summary of every counter."""
        info = {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "deduplicated": self.deduplicated,
            "batched": self.batched,
            "rejected": self.rejected,
            "degraded": self.degraded,
            "failures": self.failures,
            "paths": self.paths,
            "peak_rss_bytes": self.peak_rss_bytes,
        }
        info["latency"] = self.latency_percentiles()
        return info


def _query_label(prepared) -> str:
    """Human-readable label of a prepared query (tolerates test stubs)."""
    return (
        f"{getattr(prepared, 's_name', '?')}⋈{getattr(prepared, 't_name', '?')}"
    )


def _query_name(prepared) -> str:
    """Capture identity of a prepared query: its registered service name
    when available (replayable), otherwise the human-readable label."""
    return getattr(prepared, "name", None) or _query_label(prepared)


@dataclass
class _Request:
    """One scheduled execution (shared by every deduplicated submitter)."""

    prepared: PreparedQuery
    ekey: tuple
    key: tuple
    future: Future
    submitted_at: float
    started_at: float = 0.0
    submitted_wall: float = 0.0
    span: object = NOOP_SPAN  # telemetry "query" span (NOOP when disabled)
    deadline_at: float | None = None  # monotonic; None = unbounded


class QueryScheduler:
    """Schedules prepared-query executions onto a worker-thread pool.

    Parameters
    ----------
    max_workers:
        Number of scheduler threads (each drives one engine dispatch at a
        time; the engine's own backend parallelizes within a dispatch).
    max_pending:
        Admission-control limit on requests queued or executing.
    max_batch:
        Maximum number of compatible requests served by one dispatch.
    max_estimated_pairs:
        Reject queries whose sampled output estimate exceeds this many
        pairs (``None`` disables output-size admission control).
    recorder:
        Optional :class:`~repro.obs.workload.recorder.QueryLogRecorder`;
        when present every request outcome (completed, deduplicated,
        rejected, failed) is captured as a structured workload event.
    calibration:
        Optional :class:`~repro.obs.explain.store.EstimateAccuracyTracker`;
        when present every *executed* completion (cache-served paths are
        skipped) is handed over for estimate-vs-actual accounting.
    """

    def __init__(
        self,
        max_workers: int = DEFAULT_SCHEDULER_WORKERS,
        max_pending: int = DEFAULT_MAX_PENDING,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_estimated_pairs: int | None = None,
        registry: MetricsRegistry | None = None,
        recorder=None,
        calibration=None,
        default_deadline: float | None = None,
        degraded_mode: str = "stale",
        drain_timeout: float = 5.0,
    ) -> None:
        if max_workers < 1:
            raise ServiceError("max_workers must be at least 1")
        if max_pending < 1:
            raise ServiceError("max_pending must be at least 1")
        if max_batch < 1:
            raise ServiceError("max_batch must be at least 1")
        if max_estimated_pairs is not None and max_estimated_pairs < 1:
            raise ServiceError("max_estimated_pairs must be positive when set")
        if default_deadline is not None and default_deadline <= 0:
            raise ServiceError("default_deadline must be positive seconds when set")
        if degraded_mode not in ("stale", "reject"):
            raise ServiceError(
                f"degraded_mode must be 'stale' or 'reject', got {degraded_mode!r}"
            )
        if drain_timeout < 0:
            raise ServiceError("drain_timeout must be non-negative")
        self.max_pending = max_pending
        self.max_batch = max_batch
        self.max_estimated_pairs = max_estimated_pairs
        self.default_deadline = default_deadline
        self.degraded_mode = degraded_mode
        self.drain_timeout = drain_timeout
        self.metrics = SchedulerMetrics(registry=registry)
        self.recorder = recorder
        self.calibration = calibration
        # Capture-template memo: everything about a completed query event
        # except its timings is determined by (query, epsilons, catalog
        # versions) — including the result fingerprint, which would
        # otherwise rehash the whole pair set per cache-served repeat.  Hot
        # repeats therefore capture at the cost of one dict copy.  Reads are
        # unlocked (a plain-dict get is atomic under the GIL); the lock only
        # serializes the insert/evict path.
        self._capture_lock = threading.Lock()
        self._capture_cache: dict[tuple, dict] = {}
        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._queue: deque[_Request] = deque()
        self._inflight: dict[tuple, _Request] = {}
        self._shutdown = False
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"bandjoin-sched-{i}", daemon=True
            )
            for i in range(max_workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------ #
    # Submission API
    # ------------------------------------------------------------------ #
    def submit(self, prepared: PreparedQuery, epsilons=None, deadline=None) -> Future:
        """Enqueue one query; returns a future resolving to a QueryResult.

        Identical in-flight requests share one future (single-flight); a
        full scheduler raises :class:`ServiceOverloadError` immediately, as
        does a query whose sampled output estimate exceeds
        ``max_estimated_pairs``.  The catalog versions at submit time are
        part of the request identity, so a query following an acknowledged
        append never attaches to an execution over the pre-append data.

        ``deadline`` (seconds; falls back to ``default_deadline``) bounds
        the request end to end: expired-in-queue requests fail with
        :class:`DeadlineExceededError`, and the remaining budget propagates
        into execution where backends bound their waits by it.

        Under overload with ``degraded_mode="stale"``, a request whose
        epsilon binding has *any* cached result is answered from it —
        explicitly marked stale with its version lag — instead of rejected.
        The rejection is still counted (the execution was refused); the
        degraded response is what the caller gets in its place.
        """
        ekey = prepared.epsilon_key(epsilons)
        key = (prepared.key, ekey, prepared.current_versions())
        deadline_at = self._resolve_deadline(deadline)
        try:
            with self._work_ready:
                existing = self._admit_locked(key)
                if existing is not None:
                    self._record_outcome(prepared, ekey, "deduplicated")
                    return existing
                if self.max_estimated_pairs is None:
                    return self._enqueue_locked(prepared, ekey, key, deadline_at)
        except ServiceOverloadError:
            degraded = self._degraded_future(prepared, ekey)
            if degraded is not None:
                return degraded
            self._record_outcome(prepared, ekey, "rejected", reason="saturated")
            raise
        # Priced outside the scheduler lock (the probe reads the catalog) and
        # after the saturation check, so overload never pays for probes; a
        # duplicate landing meanwhile is caught by the re-admission below.
        estimate = prepared.estimate_pairs(ekey)
        if estimate > self.max_estimated_pairs:
            self.metrics.record_rejected()
            logger.info(
                "rejected %s: estimated %.0f pairs over limit %d",
                _query_label(prepared), estimate, self.max_estimated_pairs,
            )
            degraded = self._degraded_future(prepared, ekey)
            if degraded is not None:
                return degraded
            self._record_outcome(prepared, ekey, "rejected", reason="estimated_pairs")
            raise ServiceOverloadError(
                f"estimated output of ~{estimate:,.0f} pairs exceeds the "
                f"admission limit of {self.max_estimated_pairs:,} pairs; "
                "narrow the band or raise max_estimated_pairs"
            )
        try:
            with self._work_ready:
                existing = self._admit_locked(key)
                if existing is not None:
                    self._record_outcome(prepared, ekey, "deduplicated")
                    return existing
                return self._enqueue_locked(prepared, ekey, key, deadline_at)
        except ServiceOverloadError:
            degraded = self._degraded_future(prepared, ekey)
            if degraded is not None:
                return degraded
            self._record_outcome(prepared, ekey, "rejected", reason="saturated")
            raise

    def _resolve_deadline(self, deadline) -> float | None:
        """Turn a relative deadline (seconds) into a monotonic timestamp."""
        seconds = deadline if deadline is not None else self.default_deadline
        if seconds is None:
            return None
        seconds = float(seconds)
        if seconds <= 0:
            raise ServiceError("deadline must be positive seconds")
        return time.monotonic() + seconds

    def _degraded_future(self, prepared, ekey) -> Future | None:
        """Under overload, try answering from a version-stale cached result.

        Returns a pre-resolved future holding the stale-marked result, or
        ``None`` when degraded mode is off, the prepared object cannot serve
        stale results (test stubs), or nothing usable is cached — the caller
        then rejects as before.  Correctness note: the result is *marked*
        (``stale``/``version_lag``), never silently passed off as fresh.
        """
        if self.degraded_mode != "stale":
            return None
        stale_fn = getattr(prepared, "stale_result", None)
        if stale_fn is None:
            return None
        try:
            result = stale_fn(ekey)
        except Exception:  # noqa: BLE001 - degrade is best-effort by definition
            return None
        if result is None:
            return None
        self.metrics.record_degraded()
        logger.info(
            "degraded %s: serving stale cached result (version lag %d)",
            _query_label(prepared), result.version_lag,
        )
        self._record_outcome(prepared, ekey, "degraded")
        future: Future = Future()
        future.set_result(result)
        return future

    def _admit_locked(self, key: tuple) -> Future | None:
        """Admission gate (caller holds the lock): returns the in-flight
        future of a duplicate, raises on shutdown or saturation, and returns
        ``None`` when the request may enqueue."""
        if self._shutdown:
            raise ServiceError("scheduler is shut down")
        existing = self._inflight.get(key)
        if existing is not None:
            self.metrics.record_deduplicated()
            return existing.future
        if len(self._inflight) >= self.max_pending:
            self.metrics.record_rejected()
            logger.info("rejected: scheduler saturated at %d pending", self.max_pending)
            raise ServiceOverloadError(
                f"scheduler is saturated ({self.max_pending} pending queries); "
                "retry once in-flight work drains"
            )
        return None

    def _enqueue_locked(
        self,
        prepared: PreparedQuery,
        ekey: tuple,
        key: tuple,
        deadline_at: float | None = None,
    ) -> Future:
        """Enqueue an admitted request (caller holds the lock)."""
        request = _Request(
            prepared=prepared,
            ekey=ekey,
            key=key,
            future=Future(),
            submitted_at=time.perf_counter(),
            submitted_wall=time.time(),
            # Root (or, under the server's request span, child) of this
            # request's trace; ended by the worker thread after set_result
            # readiness, or on failure/shutdown.
            span=tracer().span("query", query=_query_label(prepared)),
            deadline_at=deadline_at,
        )
        self._inflight[key] = request
        self._queue.append(request)
        self.metrics.record_submitted()
        self._work_ready.notify()
        return request.future

    def query(
        self, prepared: PreparedQuery, epsilons=None, timeout=None, deadline=None
    ) -> QueryResult:
        """Synchronous submit-and-wait."""
        return self.submit(prepared, epsilons, deadline=deadline).result(timeout)

    # ------------------------------------------------------------------ #
    # Workload capture
    # ------------------------------------------------------------------ #
    def _record_outcome(self, prepared, ekey, outcome: str, reason: str | None = None) -> None:
        """Capture a request that never reached execution (dedup/rejection)."""
        if self.recorder is None:
            return
        self.recorder.record_query(
            query=_query_name(prepared),
            epsilons=ekey,
            outcome=outcome,
            s_name=getattr(prepared, "s_name", "?"),
            t_name=getattr(prepared, "t_name", "?"),
            reason=reason,
        )

    def _capture_template(self, key, prepared, ekey, result: QueryResult) -> dict:
        """Build (and memoize) the static part of a completed-query capture event.

        Memoized per (query, epsilons, result versions): those determine the
        relation row counts, the output size and the content fingerprint, so
        cache-served repeats skip the catalog lookups and the pair-set hash.
        """
        template = {
            "type": "query",
            "query": _query_name(prepared),
            "epsilons": [list(pair) for pair in ekey],
            "outcome": "ok",
            "s": result.s_name,
            "t": result.t_name,
            "s_version": result.s_version,
            "t_version": result.t_version,
            "pairs": result.n_pairs,
            "fingerprint": pair_fingerprint(result.pairs),
        }
        catalog = getattr(prepared, "catalog", None)
        if catalog is not None:
            try:
                template["s_rows"] = catalog.get(result.s_name).rows
                template["t_rows"] = catalog.get(result.t_name).rows
            except Exception:  # noqa: BLE001 - capture must never fail a query
                pass
        with self._capture_lock:
            cache = self._capture_cache
            if len(cache) >= 512:
                # Evict the oldest half (insertion order) in one sweep rather
                # than paying LRU bookkeeping on every hot-path hit.
                for old in list(cache)[:256]:
                    del cache[old]
            cache[key] = template
        return template

    def _record_completed(self, request: _Request, result: QueryResult, done: float) -> None:
        """Capture one completed request with its latencies and fingerprint."""
        recorder = self.recorder
        if recorder is None:
            return
        prepared, ekey = request.prepared, request.ekey
        key = (getattr(prepared, "key", None), ekey, result.s_version, result.t_version)
        template = self._capture_cache.get(key)
        if template is None:
            template = self._capture_template(key, prepared, ekey, result)
        recorder.record_completed(
            template,
            request.submitted_wall,
            request.started_at - request.submitted_at,
            done - request.started_at,
            result.path,
        )

    @property
    def pending(self) -> int:
        """Return the number of requests currently queued or executing."""
        with self._lock:
            return len(self._inflight)

    # ------------------------------------------------------------------ #
    # Worker loop
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        while True:
            with self._work_ready:
                while not self._queue and not self._shutdown:
                    self._work_ready.wait()
                if not self._queue:  # shutdown with a drained queue
                    return
                head = self._queue.popleft()
                batch = [head]
                if self.max_batch > 1 and self._queue:
                    remaining: deque[_Request] = deque()
                    for request in self._queue:
                        if (
                            len(batch) < self.max_batch
                            and request.prepared.key == head.prepared.key
                        ):
                            batch.append(request)
                        else:
                            remaining.append(request)
                    self._queue = remaining
                now = time.perf_counter()
                for request in batch:
                    request.started_at = now
            try:
                self._execute_batch(batch)
            finally:
                with self._work_ready:
                    for request in batch:
                        self._inflight.pop(request.key, None)
                    # Wake a graceful close() waiting for in-flight work to
                    # drain (and idle peers re-checking the shutdown flag).
                    self._work_ready.notify_all()

    def _fail_request(self, request: _Request, exc: Exception, cause: str) -> None:
        """Resolve one request's future with a classified failure."""
        self.metrics.record_failure(cause=cause)
        if self.recorder is not None:
            self.recorder.record_query(
                query=_query_name(request.prepared),
                epsilons=request.ekey,
                outcome="failed",
                s_name=getattr(request.prepared, "s_name", "?"),
                t_name=getattr(request.prepared, "t_name", "?"),
                ts=request.submitted_wall,
                error=str(exc),
            )
        request.span.set(error=str(exc))
        request.span.end()
        request.future.set_exception(exc)

    def _execute_batch(self, batch: list[_Request]) -> None:
        # Deadlines expired while queued fail fast — a worker slot is never
        # spent computing an answer the caller has already given up on.
        live: list[_Request] = []
        for request in batch:
            if (
                request.deadline_at is not None
                and time.monotonic() >= request.deadline_at
            ):
                self._fail_request(
                    request,
                    DeadlineExceededError("deadline expired while queued"),
                    "timeout",
                )
            else:
                live.append(request)
        if not live:
            return
        batch = live
        prepared = batch[0].prepared
        head = batch[0]
        for request in batch:
            if request.span.context is not None:
                tracer().record(
                    "queue",
                    request.span.context,
                    start=request.submitted_wall,
                    duration=max(0.0, request.started_at - request.submitted_at),
                )
        exec_wall = time.time()
        exec_span = (
            tracer().span("execute", parent=head.span.context, batch=len(batch))
            if head.span.context is not None
            else NOOP_SPAN
        )
        # One dispatch serves the whole batch, so it runs under the *most
        # permissive* member deadline (any unbounded member unbinds it);
        # members whose own deadline lapsed meanwhile still fail below.
        deadlines = [request.deadline_at for request in batch]
        batch_deadline = None if any(d is None for d in deadlines) else max(deadlines)
        try:
            with exec_span, deadline_mod.deadline_scope(batch_deadline):
                if len(batch) == 1:
                    results = [prepared.execute(head.ekey)]
                else:
                    results = self._dispatch_batch(prepared, batch)
        except Exception as exc:  # noqa: BLE001 - failures propagate via futures
            cause = _failure_cause(exc)
            logger.warning(
                "query %s failed (%s): %s", _query_label(prepared), cause, exc
            )
            for request in batch:
                self._fail_request(request, exc, cause)
            return
        done = time.perf_counter()
        for request, result in zip(batch, results):
            self.metrics.record(
                result.path,
                queue_seconds=request.started_at - request.submitted_at,
                exec_seconds=done - request.started_at,
            )
            self._record_completed(request, result, done)
            if self.calibration is not None:
                # observe() itself skips cache-served paths and never raises.
                self.calibration.observe(
                    request.prepared, request.ekey, result, done - request.started_at
                )
        if len(batch) > 1:
            self.metrics.record_batched(len(batch) - 1)
        self.metrics.sample_rss()
        # Telemetry is finalised before the futures resolve: a caller ending
        # the enclosing request span right after .result() must find every
        # member's "query" span already ended.
        for request, result in zip(batch, results):
            if request is not head and request.span.context is not None:
                tracer().record(
                    "execute",
                    request.span.context,
                    start=exec_wall,
                    duration=done - request.started_at,
                    batched=True,
                    path=result.path,
                )
            request.span.set(path=result.path)
            request.span.end()
        for request, result in zip(batch, results):
            request.future.set_result(result)

    def _dispatch_batch(
        self, prepared: PreparedQuery, batch: list[_Request]
    ) -> list[QueryResult]:
        """Serve a micro-batch from one wide engine dispatch.

        The snapshot pair is pinned once so every member answers from the
        same catalog state even if appends land mid-batch.
        """
        snapshots = prepared.snapshots()
        widest = epsilon_union([request.ekey for request in batch])
        wide = prepared.execute(widest, snapshots=snapshots)
        s_values = t_values = None
        if wide.pairs.shape[0]:
            s_values = gather_rows(snapshots[0].full, prepared.attributes, wide.pairs[:, 0])
            t_values = gather_rows(snapshots[1].full, prepared.attributes, wide.pairs[:, 1])
        results: list[QueryResult] = []
        for request in batch:
            if request.ekey == widest:
                results.append(wide)
                continue
            pairs = wide.pairs
            if pairs.shape[0]:
                condition = prepared.condition(request.ekey)
                pairs = pairs[condition.matches(s_values, t_values)]
            narrowed = replace(wide, pairs=pairs, path=PATH_MICRO_BATCH)
            prepared.store_result(request.ekey, narrowed)
            results.append(narrowed)
        return results

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self, wait: bool = True) -> None:
        """Stop accepting work, drain in-flight requests, join the workers.

        Shutdown is graceful: new admissions are blocked immediately, but
        queued and executing requests get up to ``drain_timeout`` seconds to
        finish normally (workers keep serving the queue).  Whatever is still
        queued when the budget runs out fails with
        ``ServiceError("scheduler shut down")``.
        """
        with self._work_ready:
            if self._shutdown:
                return
            self._shutdown = True
            self._work_ready.notify_all()  # idle workers must see the flag
            if wait and self.drain_timeout > 0:
                drain_until = time.monotonic() + self.drain_timeout
                while self._inflight:
                    budget = drain_until - time.monotonic()
                    if budget <= 0:
                        break
                    self._work_ready.wait(budget)
            abandoned = list(self._queue)
            self._queue.clear()
            for request in abandoned:
                self._inflight.pop(request.key, None)
                request.span.set(error="scheduler shut down")
                request.span.end()
                request.future.set_exception(ServiceError("scheduler shut down"))
            self._work_ready.notify_all()
        if wait:
            for thread in self._threads:
                thread.join()

    def __enter__(self) -> "QueryScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"QueryScheduler(workers={len(self._threads)}, "
            f"max_pending={self.max_pending}, max_batch={self.max_batch})"
        )
