"""The synchronous band-join service facade.

:class:`BandJoinService` wires the serving subsystem together: one
:class:`~repro.service.catalog.RelationCatalog` (data plane), one
:class:`~repro.engine.engine.ParallelJoinEngine` with a shared thread-safe
plan cache (execution plane), a registry of named
:class:`~repro.service.prepared.PreparedQuery` objects, and one
:class:`~repro.service.scheduler.QueryScheduler` (control plane) that all
queries flow through — so even single-caller usage benefits from
single-flight deduplication, and concurrent callers share dispatches.

Appends that push a relation past the staleness threshold trigger
compaction (merging the delta into a new base) plus plan re-optimization
for every prepared query over that relation; with the default
``compaction="background"`` both happen on a maintenance thread while
queries keep answering through the delta path.
"""

from __future__ import annotations

import threading

import numpy as np

import repro.obs as obs
from repro import faults
from repro.config import ServiceConfig
from repro.engine.engine import ParallelJoinEngine
from repro.engine.plan_cache import PlanCache
from repro.exceptions import ServiceError
from repro.obs import MetricsRegistry, bind_plan_cache, bind_prepared_query, get_logger
from repro.obs.explain import CalibrationStore, EstimateAccuracyTracker
from repro.obs.workload import (
    SLO,
    QueryLogRecorder,
    SLOMonitor,
    Workload,
    service_probes,
)
from repro.service.catalog import RelationCatalog, RelationSnapshot, _as_relation
from repro.service.prepared import PreparedQuery, QueryResult
from repro.service.scheduler import QueryScheduler

__all__ = ["BandJoinService"]

logger = get_logger(__name__)


class BandJoinService:
    """A long-running, concurrent band-join serving facade.

    Parameters
    ----------
    config:
        A :class:`~repro.config.ServiceConfig`; defaults apply when omitted.
    partitioner:
        Optimizer shared by prepared queries that do not bring their own
        (RecPart by default, chosen lazily per query).

    Examples
    --------
    >>> service = BandJoinService()
    >>> service.register("S", {"A1": s_values})
    >>> service.register("T", {"A1": t_values})
    >>> service.prepare("close_pairs", "S", "T", attributes=["A1"], epsilons=0.01)
    >>> service.query("close_pairs").n_pairs          # cold: optimize + join
    >>> service.query("close_pairs").path             # 'result_cache'
    >>> service.append("S", {"A1": new_values})
    >>> service.query("close_pairs").path             # 'delta'
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        partitioner=None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        if self.config.telemetry:
            obs.enable()
        #: Deterministic chaos: the configured fault spec installs a
        #: process-wide injector for this service's lifetime (uninstalled by
        #: :meth:`close`); pool workers re-install it from initargs.
        self._fault_injector = None
        if self.config.inject_faults:
            self._fault_injector = faults.install(
                faults.FaultInjector(
                    faults.parse_fault_spec(self.config.inject_faults),
                    seed=self.config.fault_seed,
                )
            )
            logger.info("fault injection active: %r", self._fault_injector)
        if self.config.trace_ring_size is not None:
            obs.tracer().resize(self.config.trace_ring_size)
        #: Workload capture (``None`` when ``config.capture`` is off); the
        #: scheduler records every request outcome here, the service adds
        #: catalog mutations — with column data when spooling, so the
        #: capture is replayable.
        self.recorder = (
            QueryLogRecorder(
                capacity=self.config.capture_ring_size,
                spool_path=self.config.capture_log,
            )
            if self.config.capture
            else None
        )
        #: Per-service metric scope: scheduler counters and cache adapters
        #: land here, so concurrently running services never mix series.
        self.registry = MetricsRegistry()
        self.engine = ParallelJoinEngine(
            backend=self.config.backend,
            algorithm=self.config.local_algorithm,
            plan_cache=PlanCache(max_entries=self.config.plan_cache_size),
            memory_budget=self.config.kernel_memory_budget,
            spill_dir=self.config.spill_dir,
        )
        bind_plan_cache(self.registry, self.engine.plan_cache)
        self.catalog = RelationCatalog(
            staleness_threshold=self.config.staleness_threshold,
            on_stale=self._on_stale if self.config.compaction != "off" else None,
            storage=self.config.storage,
            spill_dir=self.config.spill_dir,
            spill_threshold_bytes=self.config.spill_threshold_bytes,
        )
        #: Persistent (estimate, actual, features) spool when a calibration
        #: log is configured; in-memory otherwise.  ``calibrate()`` on it
        #: refits the running-time betas from analyzed runs.
        self.calibration_store = CalibrationStore(
            path=self.config.calibration_log,
            max_records=self.config.calibration_max_records,
        )
        #: Live estimate-vs-actual accounting: the scheduler hands it every
        #: executed completion; it feeds the ``repro_estimate_qerror``
        #: histogram, the ``estimate_qerror`` SLO probe and the store.
        self.calibration = EstimateAccuracyTracker(
            registry=self.registry, store=self.calibration_store
        )
        self.scheduler = QueryScheduler(
            max_workers=self.config.scheduler_workers,
            max_pending=self.config.max_pending,
            max_batch=self.config.max_batch,
            max_estimated_pairs=self.config.max_estimated_pairs,
            registry=self.registry,
            recorder=self.recorder,
            calibration=self.calibration,
            default_deadline=self.config.default_deadline_seconds,
            degraded_mode=self.config.degraded_mode,
            drain_timeout=self.config.shutdown_drain_seconds,
        )
        self.partitioner = partitioner
        self._prepared: dict[str, PreparedQuery] = {}
        self._prepared_lock = threading.Lock()
        self._maintenance_lock = threading.Lock()
        self._maintenance: list[threading.Thread] = []
        self._compacting: set[str] = set()
        self._closed = False
        self.monitor = SLOMonitor(
            objectives=self._slo_objectives(),
            probes=service_probes(self),
            interval=self.config.slo_interval,
            registry=self.registry,
            recorder=self.recorder,
        )
        self.monitor.start()

    def _slo_objectives(self) -> list[SLO]:
        """Translate the config's scalar SLO fields into objectives."""
        objectives = []
        if self.config.slo_p99_seconds is not None:
            objectives.append(
                SLO("p99_latency", "p99_latency_seconds", self.config.slo_p99_seconds)
            )
        if self.config.slo_error_rate is not None:
            objectives.append(SLO("error_rate", "error_rate", self.config.slo_error_rate))
        if self.config.slo_cache_hit_floor is not None:
            objectives.append(
                SLO("cache_hit_floor", "cache_hit_rate", self.config.slo_cache_hit_floor)
            )
        if self.config.slo_queue_depth is not None:
            objectives.append(
                SLO("queue_depth", "queue_depth", float(self.config.slo_queue_depth))
            )
        if self.config.slo_max_estimate_qerror is not None:
            objectives.append(
                SLO(
                    "estimate_qerror",
                    "estimate_qerror",
                    self.config.slo_max_estimate_qerror,
                )
            )
        return objectives

    # ------------------------------------------------------------------ #
    # Data plane
    # ------------------------------------------------------------------ #
    def register(self, name: str, data, replace: bool = False) -> RelationSnapshot:
        """Register a relation (a Relation instance or a column mapping)."""
        self._check_open()
        relation = _as_relation(name, data)
        snapshot = self.catalog.register(name, relation, replace=replace)
        if self.recorder is not None:
            self.recorder.record_register(
                name,
                rows=snapshot.rows,
                version=snapshot.version,
                columns=_spool_columns(relation) if self.recorder.spooling else None,
            )
        return snapshot

    def append(self, name: str, rows) -> RelationSnapshot:
        """Append rows to a registered relation's delta."""
        self._check_open()
        relation = _as_relation(name, rows)
        snapshot = self.catalog.append(name, relation)
        if self.recorder is not None:
            self.recorder.record_append(
                name,
                rows=len(relation),
                version=snapshot.version,
                total_rows=snapshot.rows,
                columns=_spool_columns(relation) if self.recorder.spooling else None,
            )
        return snapshot

    # ------------------------------------------------------------------ #
    # Query plane
    # ------------------------------------------------------------------ #
    def prepare(
        self,
        query_name: str,
        s: str,
        t: str,
        attributes,
        epsilons=None,
        workers: int | None = None,
        partitioner=None,
        replace: bool = False,
    ) -> PreparedQuery:
        """Create and register a prepared query under ``query_name``."""
        self._check_open()
        prepared = PreparedQuery(
            catalog=self.catalog,
            engine=self.engine,
            s_name=s,
            t_name=t,
            attributes=attributes,
            default_epsilons=epsilons,
            workers=workers if workers is not None else self.config.workers,
            partitioner=partitioner if partitioner is not None else self.partitioner,
            result_cache_size=self.config.result_cache_size,
        )
        with self._prepared_lock:
            if query_name in self._prepared and not replace:
                raise ServiceError(
                    f"prepared query {query_name!r} already exists; "
                    "pass replace=True to overwrite"
                )
            self._prepared[query_name] = prepared
        prepared.name = query_name
        bind_prepared_query(self.registry, query_name, prepared)
        if self.recorder is not None:
            self.recorder.record_prepare(
                query_name,
                s_name=s,
                t_name=t,
                attributes=attributes,
                epsilons=prepared.default_epsilons,
                workers=prepared.workers,
            )
        logger.info(
            "prepared %r: %s ⋈ %s on %s", query_name, s, t, list(attributes)
        )
        return prepared

    def prepared(self, query_name: str) -> PreparedQuery:
        """Return the prepared query registered under ``query_name``."""
        with self._prepared_lock:
            try:
                return self._prepared[query_name]
            except KeyError:
                raise ServiceError(
                    f"unknown prepared query {query_name!r}; "
                    f"registered: {sorted(self._prepared)}"
                ) from None

    def prepared_queries(self) -> dict[str, PreparedQuery]:
        """Return a point-in-time copy of the prepared-query registry."""
        with self._prepared_lock:
            return dict(self._prepared)

    def query(
        self, query_name: str, epsilons=None, timeout=None, deadline=None
    ) -> QueryResult:
        """Answer one prepared query synchronously (through the scheduler).

        ``deadline`` (seconds, falling back to the configured
        ``default_deadline_seconds``) bounds the request end to end.
        """
        self._check_open()
        return self.scheduler.query(
            self.prepared(query_name), epsilons, timeout=timeout, deadline=deadline
        )

    def submit(self, query_name: str, epsilons=None, deadline=None):
        """Enqueue one prepared query; returns a future (asynchronous callers)."""
        self._check_open()
        return self.scheduler.submit(self.prepared(query_name), epsilons, deadline=deadline)

    def explain(self, query_name: str, epsilons=None, analyze: bool = False):
        """EXPLAIN (ANALYZE) one prepared query.

        Returns the :class:`~repro.obs.explain.report.QueryPlanReport`:
        the chosen partitioning with per-worker cost-model estimates, the
        plan-cache provenance and the kernel selector's decision.  With
        ``analyze=True`` the query executes *through the scheduler* (so
        analyzed runs share single-flight, admission control and the
        calibration accounting) and every estimate node carries the measured
        actual plus its q-error.

        Once the calibration store holds enough analyzed runs, the plan is
        priced with the refit running-time model (in seconds); before that
        the cost-model node reports abstract load units.
        """
        self._check_open()
        prepared = self.prepared(query_name)
        try:
            model = self.calibration_store.calibrate().model
        except Exception:  # noqa: BLE001 - pricing falls back to load units
            model = None
        return prepared.explain(
            epsilons,
            analyze=analyze,
            execute=lambda ekey: self.scheduler.query(prepared, ekey),
            model=model,
        )

    def calibrate(self, min_records: int | None = None):
        """Refit the cost-model betas from the calibration store's records.

        Returns the :class:`~repro.obs.explain.store.CalibrationReport`;
        raises :class:`~repro.exceptions.CostModelError` until enough
        executed runs have been recorded.
        """
        if min_records is not None:
            return self.calibration_store.calibrate(min_records=min_records)
        return self.calibration_store.calibrate()

    # ------------------------------------------------------------------ #
    # Staleness maintenance
    # ------------------------------------------------------------------ #
    def _on_stale(self, name: str) -> None:
        if self.config.compaction == "sync":
            self._compact_and_replan(name)
            return
        # One compaction per relation at a time: appends keep reporting the
        # relation stale until the merge lands, and each re-optimization is
        # expensive — a burst of appends must not fan out into a thread storm.
        with self._maintenance_lock:
            if self._closed or name in self._compacting:
                return
            self._compacting.add(name)
            self._maintenance = [t for t in self._maintenance if t.is_alive()]
            thread = threading.Thread(
                target=self._background_compact,
                args=(name,),
                name=f"bandjoin-compact-{name}",
                daemon=True,
            )
            self._maintenance.append(thread)
        thread.start()

    def _background_compact(self, name: str) -> None:
        try:
            self._compact_and_replan(name)
        finally:
            with self._maintenance_lock:
                self._compacting.discard(name)
        # Appends that landed while we were compacting were skipped by the
        # in-progress guard; pick them up if they crossed the threshold again.
        if not self._closed and name in self.catalog.stale_names():
            self._on_stale(name)

    def _compact_and_replan(self, name: str) -> None:
        """Merge a stale relation's delta and re-optimize affected plans."""
        logger.info("compacting relation %r", name)
        self.catalog.compact(name)
        with self._prepared_lock:
            affected = [
                prepared
                for prepared in self._prepared.values()
                if name in (prepared.s_name, prepared.t_name)
                and prepared.default_epsilons is not None
            ]
        for prepared in affected:
            prepared.ensure_plan()

    def drain_maintenance(self) -> None:
        """Block until every background compaction has finished (tests/benchmarks)."""
        while True:
            with self._maintenance_lock:
                if not self._maintenance:
                    return
                thread = self._maintenance.pop()
            thread.join()

    # ------------------------------------------------------------------ #
    # Introspection and lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Return a JSON-friendly snapshot of every layer of the service."""
        with self._prepared_lock:
            prepared = {name: p.describe() for name, p in self._prepared.items()}
        return {
            "catalog": self.catalog.describe(),
            "prepared": prepared,
            "scheduler": self.scheduler.metrics.snapshot(),
            "plan_cache": {
                "entries": len(self.engine.plan_cache),
                **self.engine.plan_cache.stats.as_dict(),
            },
            "backend": self.engine.backend.name,
            "telemetry": obs.is_enabled(),
            "capture": self.recorder.describe() if self.recorder is not None else None,
            "calibration": self.calibration.describe(),
        }

    def health(self) -> dict:
        """Evaluate every configured SLO now and return the health report.

        Beyond the SLO verdicts, the report carries the classified failure
        counters (``repro_query_failures_total`` by cause), the degraded
        (stale-served) response count, and — when chaos is configured — the
        fault injector's firing statistics.
        """
        report = self.monitor.health()
        report["failures"] = self.scheduler.metrics.failures
        report["degraded_responses"] = self.scheduler.metrics.degraded
        if self._fault_injector is not None:
            report["fault_injection"] = self._fault_injector.stats()
        return report

    def workload_snapshot(self) -> Workload:
        """Summarize the captured traffic currently in the recorder ring."""
        if self.recorder is None:
            raise ServiceError(
                "workload capture is disabled (ServiceConfig.capture=False)"
            )
        return Workload.from_recorder(self.recorder)

    def metrics_snapshot(self) -> dict:
        """Return the full metric dump: this service's registry plus the
        process-wide one (kernel counters)."""
        return {
            "service": self.registry.snapshot(),
            "process": obs.registry().snapshot(),
        }

    def prometheus(self) -> str:
        """Return the Prometheus text exposition of every metric scope."""
        return self.registry.render_prometheus() + obs.registry().render_prometheus()

    def traces(self, n: int | None = None) -> list[dict]:
        """Return recent finished query traces (span trees, newest first)."""
        return obs.tracer().recent(n)

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("service is closed")

    def close(self) -> None:
        """Shut the scheduler down and finish pending maintenance."""
        with self._maintenance_lock:
            if self._closed:
                return
            self._closed = True
        self.monitor.stop()
        self.scheduler.close()
        self.drain_maintenance()
        self.catalog.cleanup()
        if self.recorder is not None:
            self.recorder.close()
        if self._fault_injector is not None and faults.active() is self._fault_injector:
            faults.uninstall()

    def __enter__(self) -> "BandJoinService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"BandJoinService(backend={self.engine.backend.name!r}, "
            f"relations={self.catalog.names()}, "
            f"prepared={sorted(self._prepared)})"
        )


def _spool_columns(relation) -> dict:
    """Serialize a relation's columns for the replayable JSONL spool."""
    return {
        name: np.asarray(relation.column(name)).tolist()
        for name in relation.column_names
    }
