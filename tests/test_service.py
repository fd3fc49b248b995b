"""Tests for the online band-join serving layer (repro.service).

The load-bearing property is delta-append correctness: serving a query
after appends through the delta path (cached base result + appended rows
routed through the existing partitioning) must produce exactly the pair
set of a from-scratch join over the full data — for every partitioner and
engine backend.  On top of that: catalog versioning and staleness
maintenance, result-cache invalidation on append, scheduler single-flight /
micro-batching / admission control, and the service facade + line protocol.
"""

from __future__ import annotations

import io
import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.grid import GridEpsilonPartitioner
from repro.baselines.one_bucket import OneBucketPartitioner
from repro.config import ServiceConfig
from repro.core.recpart import RecPartPartitioner
from repro.data.generators import uniform_relation
from repro.data.relation import Relation
from repro.engine import ParallelJoinEngine
from repro.exceptions import NonFiniteInputError, ServiceError, ServiceOverloadError
from repro.geometry.band import BandCondition
from repro.local_join.base import canonical_pair_order
from repro.service import (
    PATH_COLD,
    PATH_DELTA,
    PATH_MICRO_BATCH,
    PATH_PLAN_CACHE,
    PATH_RESULT_CACHE,
    BandJoinService,
    PreparedQuery,
    QueryScheduler,
    RelationCatalog,
    epsilon_union,
    serve_lines,
)


def _columns(rng: np.random.Generator, n: int, low: float = 0.0, high: float = 1.0):
    return {"A1": rng.uniform(low, high, n)}


def _reference_pairs(s: Relation, t: Relation, eps: float) -> np.ndarray:
    condition = BandCondition.symmetric(["A1"], eps)
    result = ParallelJoinEngine(backend="serial").join(
        s, t, condition, workers=4, materialize=True
    )
    return canonical_pair_order(result.pairs)


def sync_service(**overrides) -> BandJoinService:
    defaults = dict(compaction="sync", scheduler_workers=2)
    defaults.update(overrides)
    return BandJoinService(ServiceConfig(**defaults))


class TestRelationCatalog:
    def test_register_and_get(self):
        catalog = RelationCatalog()
        snapshot = catalog.register("S", {"A1": np.arange(5.0)})
        assert snapshot.version == 1 and snapshot.base_version == 1
        assert snapshot.rows == 5 and snapshot.delta_rows == 0
        assert catalog.get("S") is snapshot
        assert "S" in catalog and "T" not in catalog

    def test_duplicate_register_needs_replace(self):
        catalog = RelationCatalog()
        catalog.register("S", {"A1": np.arange(3.0)})
        with pytest.raises(ServiceError):
            catalog.register("S", {"A1": np.arange(3.0)})
        replaced = catalog.register("S", {"A1": np.arange(4.0)}, replace=True)
        assert replaced.version == 2 and replaced.base_version == 2

    def test_unknown_lookup_and_drop(self):
        catalog = RelationCatalog()
        with pytest.raises(ServiceError):
            catalog.get("missing")
        with pytest.raises(ServiceError):
            catalog.append("missing", {"A1": np.arange(2.0)})
        with pytest.raises(ServiceError):
            catalog.drop("missing")
        catalog.register("S", {"A1": np.arange(2.0)})
        catalog.drop("S")
        assert "S" not in catalog

    def test_append_accumulates_delta_and_bumps_version(self):
        catalog = RelationCatalog(staleness_threshold=10.0)
        catalog.register("S", {"A1": np.arange(4.0)})
        first = catalog.append("S", {"A1": np.array([10.0, 11.0])})
        second = catalog.append("S", {"A1": np.array([12.0])})
        assert (first.version, second.version) == (2, 3)
        assert second.base_version == 1
        assert second.delta_rows == 3
        np.testing.assert_array_equal(
            second.full["A1"], [0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0]
        )

    def test_append_schema_checked(self):
        catalog = RelationCatalog()
        catalog.register("S", {"A1": np.arange(3.0), "A2": np.arange(3.0)})
        with pytest.raises(ServiceError):
            catalog.append("S", {"A1": np.arange(2.0)})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_register_rejects_non_finite_values(self, bad):
        catalog = RelationCatalog()
        with pytest.raises(NonFiniteInputError, match="non-finite"):
            catalog.register("S", {"A1": [0.5, bad, 1.5]})
        assert "S" not in catalog

    def test_register_rejects_non_finite_mmap_relation(self, tmp_path):
        values = np.arange(5000.0)
        values[4321] = np.nan
        relation = Relation("S", {"A1": values}).spill(
            str(tmp_path / "s"), segment_bytes=4096
        )
        catalog = RelationCatalog()
        with pytest.raises(NonFiniteInputError, match="row 4321"):
            catalog.register("S", relation)
        assert "S" not in catalog

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_append_rejects_non_finite_values(self, bad):
        catalog = RelationCatalog(staleness_threshold=10.0)
        snapshot = catalog.register("S", {"A1": np.arange(3.0)})
        with pytest.raises(NonFiniteInputError):
            catalog.append("S", {"A1": [4.0, bad]})
        assert catalog.get("S") is snapshot

    def test_empty_append_is_a_noop(self):
        catalog = RelationCatalog()
        snapshot = catalog.register("S", {"A1": np.arange(3.0)})
        assert catalog.append("S", {"A1": np.empty(0)}) is snapshot

    def test_staleness_threshold_fires_callback(self):
        stale: list[str] = []
        catalog = RelationCatalog(staleness_threshold=0.5, on_stale=stale.append)
        catalog.register("S", {"A1": np.arange(10.0)})
        catalog.append("S", {"A1": np.arange(4.0)})
        assert stale == []
        catalog.append("S", {"A1": np.arange(2.0)})
        assert stale == ["S"]
        assert catalog.stale_names() == ["S"]

    def test_compact_merges_delta_and_keeps_content_version(self):
        catalog = RelationCatalog(staleness_threshold=10.0)
        catalog.register("S", {"A1": np.arange(4.0)})
        appended = catalog.append("S", {"A1": np.array([9.0])})
        compacted = catalog.compact("S")
        assert compacted.version == appended.version  # same rows, same version
        assert compacted.base_version == appended.base_version + 1
        assert compacted.delta is None and len(compacted.base) == 5
        # Compacting an already-clean relation is a no-op.
        assert catalog.compact("S") is compacted


class TestPreparedQueryPaths:
    def test_cold_then_result_cache(self):
        rng = np.random.default_rng(3)
        with sync_service() as service:
            service.register("S", _columns(rng, 800))
            service.register("T", _columns(rng, 800))
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.02)
            first = service.query("q")
            second = service.query("q")
            assert first.path == PATH_COLD
            assert second.path == PATH_RESULT_CACHE
            np.testing.assert_array_equal(
                canonical_pair_order(first.pairs), canonical_pair_order(second.pairs)
            )

    def test_new_epsilon_misses_result_cache_but_not_new_plan_for_same_eps(self):
        rng = np.random.default_rng(4)
        with sync_service() as service:
            service.register("S", _columns(rng, 600))
            service.register("T", _columns(rng, 600))
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.02)
            assert service.query("q").path == PATH_COLD
            assert service.query("q", 0.01).path == PATH_COLD
            assert service.query("q", 0.01).path == PATH_RESULT_CACHE

    def test_append_invalidates_result_cache_via_versions(self):
        rng = np.random.default_rng(5)
        with sync_service(staleness_threshold=10.0) as service:
            service.register("S", _columns(rng, 700))
            service.register("T", _columns(rng, 700))
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.02)
            service.query("q")
            service.append("T", _columns(rng, 30))
            after_append = service.query("q")
            assert after_append.path == PATH_DELTA
            assert service.query("q").path == PATH_RESULT_CACHE

    def test_delta_path_matches_full_reference_with_out_of_bounds_values(self):
        rng = np.random.default_rng(6)
        with sync_service(staleness_threshold=10.0) as service:
            service.register("S", _columns(rng, 900))
            service.register("T", _columns(rng, 900))
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.03)
            service.query("q")
            # Deltas on both sides, partly far outside the original bounds.
            service.append("S", _columns(rng, 60, low=-1.0, high=2.5))
            service.append("T", _columns(rng, 45, low=1.5, high=3.0))
            result = service.query("q")
            assert result.path == PATH_DELTA
            s_full = service.catalog.get("S").full
            t_full = service.catalog.get("T").full
            np.testing.assert_array_equal(
                canonical_pair_order(result.pairs),
                _reference_pairs(s_full, t_full, 0.03),
            )
            assert result.job is not None
            assert result.job.total_output == result.n_pairs

    def test_self_join_delta(self):
        rng = np.random.default_rng(7)
        with sync_service(staleness_threshold=10.0) as service:
            service.register("R", _columns(rng, 500))
            service.prepare("q", "R", "R", attributes=["A1"], epsilons=0.01)
            service.query("q")
            service.append("R", _columns(rng, 40))
            result = service.query("q")
            assert result.path == PATH_DELTA
            full = service.catalog.get("R").full
            np.testing.assert_array_equal(
                canonical_pair_order(result.pairs), _reference_pairs(full, full, 0.01)
            )

    def test_compaction_re_partitions_and_preserves_answers(self):
        rng = np.random.default_rng(8)
        with sync_service(staleness_threshold=0.05) as service:
            service.register("S", _columns(rng, 600))
            service.register("T", _columns(rng, 600))
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.02)
            before = service.query("q")
            service.append("S", _columns(rng, 120))  # past the threshold
            snapshot = service.catalog.get("S")
            assert snapshot.delta is None  # sync compaction already ran
            assert snapshot.base_version == 2
            after = service.query("q")
            # Plan was re-built by the compaction hook, so the full join runs
            # under a cached plan rather than paying optimization again.
            assert after.path == PATH_PLAN_CACHE
            s_full = service.catalog.get("S").full
            t_full = service.catalog.get("T").full
            np.testing.assert_array_equal(
                canonical_pair_order(after.pairs), _reference_pairs(s_full, t_full, 0.02)
            )
            assert after.n_pairs >= before.n_pairs

    def test_background_compaction_drains(self):
        rng = np.random.default_rng(9)
        with BandJoinService(
            ServiceConfig(compaction="background", staleness_threshold=0.05)
        ) as service:
            service.register("S", _columns(rng, 400))
            service.register("T", _columns(rng, 400))
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.02)
            service.query("q")
            service.append("S", _columns(rng, 100))
            service.drain_maintenance()
            assert service.catalog.get("S").delta is None

    def test_epsilon_binding_forms(self):
        rng = np.random.default_rng(10)
        with sync_service() as service:
            service.register("S", _columns(rng, 200))
            service.register("T", _columns(rng, 200))
            prepared = service.prepare("q", "S", "T", attributes=["A1"])
            assert prepared.epsilon_key(0.5) == ((0.5, 0.5),)
            assert prepared.epsilon_key([0.5]) == ((0.5, 0.5),)
            assert prepared.epsilon_key({"A1": (0.1, 0.2)}) == ((0.1, 0.2),)
            with pytest.raises(ServiceError):
                prepared.epsilon_key(None)  # no defaults configured
            with pytest.raises(ServiceError):
                prepared.epsilon_key([0.1, 0.2])  # wrong arity
            with pytest.raises(ServiceError):
                prepared.epsilon_key({"A2": 0.1})  # wrong attribute

    def test_prepare_validates_attributes_and_names(self):
        rng = np.random.default_rng(11)
        with sync_service() as service:
            service.register("S", _columns(rng, 100))
            service.register("T", _columns(rng, 100))
            with pytest.raises(ServiceError):
                service.prepare("q", "S", "T", attributes=["missing"])
            with pytest.raises(ServiceError):
                service.prepare("q", "S", "nope", attributes=["A1"])
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.1)
            with pytest.raises(ServiceError):
                service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.1)
            with pytest.raises(ServiceError):
                service.query("unknown")


PARTITIONERS = {
    "RecPart": lambda: RecPartPartitioner(),
    "Grid-eps": lambda: GridEpsilonPartitioner(),
    "1-Bucket": lambda: OneBucketPartitioner(),
}


class TestDeltaAppendEquivalence:
    """(register A; append B; query) == (register A∪B; query), exactly."""

    @pytest.mark.parametrize("partitioner_name", sorted(PARTITIONERS))
    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    def test_across_partitioners_and_backends(self, partitioner_name, backend):
        rng = np.random.default_rng(12)
        base_s = _columns(rng, 500)
        base_t = _columns(rng, 450)
        delta_s = _columns(rng, 80, low=-0.5, high=1.8)
        delta_t = _columns(rng, 50, low=0.4, high=2.2)
        eps = 0.05

        with sync_service(backend=backend, staleness_threshold=10.0) as incremental:
            incremental.register("S", {k: v.copy() for k, v in base_s.items()})
            incremental.register("T", {k: v.copy() for k, v in base_t.items()})
            incremental.prepare(
                "q",
                "S",
                "T",
                attributes=["A1"],
                epsilons=eps,
                partitioner=PARTITIONERS[partitioner_name](),
            )
            incremental.query("q")  # materialize + cache the base result
            incremental.append("S", delta_s)
            incremental.append("T", delta_t)
            result = incremental.query("q")
            assert result.path == PATH_DELTA

        with sync_service(backend=backend, staleness_threshold=10.0) as scratch:
            scratch.register(
                "S", {"A1": np.concatenate([base_s["A1"], delta_s["A1"]])}
            )
            scratch.register(
                "T", {"A1": np.concatenate([base_t["A1"], delta_t["A1"]])}
            )
            scratch.prepare(
                "q",
                "S",
                "T",
                attributes=["A1"],
                epsilons=eps,
                partitioner=PARTITIONERS[partitioner_name](),
            )
            expected = scratch.query("q")

        np.testing.assert_array_equal(
            canonical_pair_order(result.pairs), canonical_pair_order(expected.pairs)
        )

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        base_rows=st.integers(50, 400),
        delta_rows=st.integers(1, 120),
        eps=st.floats(0.001, 0.2),
    )
    def test_property_random_workloads(self, seed, base_rows, delta_rows, eps):
        rng = np.random.default_rng(seed)
        base = rng.uniform(0, 1, base_rows)
        delta = rng.uniform(-0.5, 1.5, delta_rows)
        t_values = rng.uniform(0, 1, base_rows)

        catalog = RelationCatalog(staleness_threshold=10.0)
        engine = ParallelJoinEngine(backend="serial")
        catalog.register("S", {"A1": base})
        catalog.register("T", {"A1": t_values})
        prepared = PreparedQuery(
            catalog, engine, "S", "T", attributes=["A1"], default_epsilons=eps
        )
        prepared.execute()
        catalog.append("S", {"A1": delta})
        incremental = prepared.execute()
        assert incremental.path == PATH_DELTA

        s_full = Relation("S", {"A1": np.concatenate([base, delta])})
        t_full = Relation("T", {"A1": t_values})
        np.testing.assert_array_equal(
            canonical_pair_order(incremental.pairs),
            _reference_pairs(s_full, t_full, eps),
        )


class _StubPrepared:
    """Minimal PreparedQuery stand-in for scheduler unit tests."""

    def __init__(self, name="stub", block: threading.Event | None = None):
        self.key = (name,)
        self.block = block
        self.calls = 0
        self.attributes = ("A1",)
        self.versions = (1, 1)
        self.started = threading.Event()

    def epsilon_key(self, epsilons=None):
        value = 0.1 if epsilons is None else float(epsilons)
        return ((value, value),)

    def current_versions(self):
        return self.versions

    def execute(self, epsilons=None, snapshots=None):
        from repro.service.prepared import QueryResult

        self.calls += 1
        self.started.set()
        if self.block is not None:
            self.block.wait(timeout=30)
        return QueryResult(
            pairs=np.empty((0, 2), dtype=np.int64),
            path=PATH_COLD,
            s_name="S",
            t_name="T",
            s_version=1,
            t_version=1,
            seconds=0.0,
        )

    def snapshots(self):
        return (None, None)

    def condition(self, epsilons=None):  # pragma: no cover - no pairs to filter
        raise AssertionError("empty wide results never reach the filter")

    def store_result(self, ekey, result):
        pass


class TestQueryScheduler:
    def test_single_flight_shares_one_execution(self):
        gate = threading.Event()
        stub = _StubPrepared(block=gate)
        with QueryScheduler(max_workers=2, max_pending=8) as scheduler:
            futures = [scheduler.submit(stub, 0.5) for _ in range(5)]
            assert len({id(f) for f in futures}) == 1
            gate.set()
            futures[0].result(timeout=30)
            assert stub.calls == 1
            assert scheduler.metrics.deduplicated == 4

    def test_admission_control_rejects_when_saturated(self):
        gate = threading.Event()
        stub = _StubPrepared(block=gate)
        scheduler = QueryScheduler(max_workers=1, max_pending=2)
        try:
            first = scheduler.submit(stub, 0.1)
            second = scheduler.submit(stub, 0.2)
            with pytest.raises(ServiceOverloadError):
                scheduler.submit(stub, 0.3)
            assert scheduler.metrics.rejected == 1
            gate.set()
            first.result(timeout=30)
            second.result(timeout=30)
        finally:
            gate.set()
            scheduler.close()

    def test_version_change_bypasses_single_flight(self):
        """A query after an acknowledged append must not attach to an
        in-flight execution over the pre-append data."""
        gate = threading.Event()
        stub = _StubPrepared(block=gate)
        with QueryScheduler(max_workers=1, max_pending=8) as scheduler:
            stale = scheduler.submit(stub, 0.5)
            assert stub.started.wait(timeout=30)  # pinned to the v1 snapshots
            stub.versions = (2, 1)  # an append was acknowledged meanwhile
            fresh = scheduler.submit(stub, 0.5)
            assert fresh is not stale
            gate.set()
            stale.result(timeout=30)
            fresh.result(timeout=30)
            assert stub.calls == 2
            assert scheduler.metrics.deduplicated == 0

    def test_background_compactions_do_not_stack(self):
        rng = np.random.default_rng(19)
        with BandJoinService(
            ServiceConfig(compaction="background", staleness_threshold=0.05)
        ) as service:
            service.register("S", _columns(rng, 400))
            service.register("T", _columns(rng, 400))
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.02)
            service.query("q")
            for _ in range(6):  # burst of stale appends
                service.append("S", _columns(rng, 60))
            service.drain_maintenance()
            assert service.catalog.get("S").delta is None
            assert service.catalog.get("S").rows == 400 + 6 * 60

    def test_submit_after_close_raises(self):
        scheduler = QueryScheduler(max_workers=1)
        scheduler.close()
        with pytest.raises(ServiceError):
            scheduler.submit(_StubPrepared(), 0.1)

    def test_micro_batch_filters_are_exact(self):
        rng = np.random.default_rng(13)
        with sync_service(scheduler_workers=1, max_batch=8) as service:
            service.register("S", _columns(rng, 800))
            service.register("T", _columns(rng, 800))
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.02)
            gate_future = service.submit("q", 0.015)  # occupies the single worker
            burst = [service.submit("q", e) for e in (0.02, 0.01, 0.005)]
            results = [f.result(timeout=60) for f in [gate_future, *burst]]
            paths = {r.path for r in results}
            assert PATH_MICRO_BATCH in paths or service.scheduler.metrics.batched == 0
            for eps, result in zip((0.02, 0.01, 0.005), results[1:]):
                direct = service.prepared("q").execute(eps)
                np.testing.assert_array_equal(
                    canonical_pair_order(result.pairs),
                    canonical_pair_order(direct.pairs),
                )

    def test_epsilon_union(self):
        assert epsilon_union([((0.1, 0.2),), ((0.3, 0.05),)]) == ((0.3, 0.2),)
        with pytest.raises(ServiceError):
            epsilon_union([])

    def test_concurrent_mixed_queries_are_consistent(self):
        rng = np.random.default_rng(14)
        with sync_service(scheduler_workers=4, max_batch=4) as service:
            service.register("S", _columns(rng, 600))
            service.register("T", _columns(rng, 600))
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.01)
            epsilons = [0.005, 0.01, 0.02, 0.005, 0.01, 0.02] * 4
            futures = [service.submit("q", e) for e in epsilons]
            counts = {}
            for eps, future in zip(epsilons, futures):
                counts.setdefault(eps, set()).add(future.result(timeout=60).n_pairs)
            # Every execution of the same epsilon returns the same pair count.
            assert all(len(values) == 1 for values in counts.values())
            snapshot = service.scheduler.metrics.snapshot()
            assert snapshot["completed"] == snapshot["submitted"]
            assert snapshot["latency"]["samples"] == snapshot["completed"]


class TestServiceFacadeAndServer:
    def test_stats_shape(self):
        rng = np.random.default_rng(15)
        with sync_service() as service:
            service.register("S", _columns(rng, 300))
            service.register("T", _columns(rng, 300))
            service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.02)
            service.query("q")
            service.query("q")
            stats = service.stats()
            assert stats["catalog"]["S"]["rows"] == 300
            assert stats["prepared"]["q"]["stats"]["executions"] == 2
            assert stats["prepared"]["q"]["stats"]["result_cached"] == 1
            assert stats["scheduler"]["completed"] == 2
            assert stats["plan_cache"]["entries"] >= 1

    def test_closed_service_rejects_work(self):
        service = sync_service()
        service.close()
        with pytest.raises(ServiceError):
            service.register("S", {"A1": np.arange(2.0)})

    def test_line_protocol_round_trip(self):
        rng = np.random.default_rng(16)
        requests = [
            {"op": "ping"},
            {"op": "register", "name": "S", "columns": {"A1": rng.random(300).tolist()}},
            {"op": "register", "name": "T", "columns": {"A1": rng.random(300).tolist()}},
            {
                "op": "prepare",
                "query": "q",
                "s": "S",
                "t": "T",
                "attributes": ["A1"],
                "epsilons": [0.02],
            },
            {"op": "query", "query": "q", "sample": 2},
            {"op": "query", "query": "q"},
            {"op": "append", "name": "S", "columns": {"A1": rng.random(10).tolist()}},
            {"op": "query", "query": "q", "epsilons": [[0.01, 0.03]]},
            {"op": "catalog"},
            {"op": "stats"},
            {"op": "nope"},
            {"op": "quit"},
            {"op": "ping"},  # never reached: quit ends the session
        ]
        out = io.StringIO()
        with sync_service(staleness_threshold=10.0) as service:
            answered = serve_lines(
                service, [json.dumps(r) for r in requests], out
            )
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert answered == len(responses) == len(requests) - 1
        assert responses[0] == {"ok": True, "op": "pong"}
        assert responses[4]["ok"] and responses[4]["path"] == "cold"
        assert len(responses[4]["sample"]) <= 2
        assert responses[5]["path"] == "result_cache"
        assert responses[7]["ok"]  # asymmetric epsilons over the delta path
        assert responses[8]["catalog"]["S"]["delta_rows"] == 10
        assert not responses[10]["ok"] and "nope" in responses[10]["error"]
        assert responses[11] == {"ok": True, "op": "quit"}

    def test_line_protocol_rejects_non_finite_columns(self):
        lines = [
            '{"op": "register", "name": "S", "columns": {"A1": [0.1, NaN]}}',
            '{"op": "register", "name": "S", "columns": {"A1": [0.1, 0.2]}}',
            '{"op": "append", "name": "S", "columns": {"A1": [Infinity]}}',
            '{"op": "append", "name": "S", "columns": {"A1": [-Infinity, 0.3]}}',
            '{"op": "catalog"}',
        ]
        out = io.StringIO()
        with sync_service() as service:
            serve_lines(service, lines, out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [r["ok"] for r in responses] == [False, True, False, False, True]
        for response in (responses[0], responses[2], responses[3]):
            assert "non-finite" in response["error"]
        assert responses[4]["catalog"]["S"]["rows"] == 2
        assert responses[4]["catalog"]["S"]["version"] == 1

    def test_malformed_lines_keep_the_session_alive(self):
        out = io.StringIO()
        with sync_service() as service:
            serve_lines(service, ["garbage", "[1, 2]", "", '{"op": "ping"}'], out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [r["ok"] for r in responses] == [False, False, True]

    def test_tcp_transport(self):
        import socket

        from repro.service import LineProtocolServer

        rng = np.random.default_rng(17)
        with sync_service() as service:
            server = LineProtocolServer(("127.0.0.1", 0), service)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                with socket.create_connection(server.server_address[:2], timeout=10) as conn:
                    stream = conn.makefile("rw", encoding="utf-8")
                    for request in (
                        {"op": "register", "name": "S", "columns": {"A1": rng.random(100).tolist()}},
                        {"op": "register", "name": "T", "columns": {"A1": rng.random(100).tolist()}},
                        {"op": "prepare", "query": "q", "s": "S", "t": "T",
                         "attributes": ["A1"], "epsilons": [0.05]},
                        {"op": "query", "query": "q"},
                    ):
                        stream.write(json.dumps(request) + "\n")
                        stream.flush()
                        response = json.loads(stream.readline())
                        assert response["ok"], response
                    assert response["pairs"] > 0
            finally:
                server.shutdown()
                server.server_close()

    def test_cli_serve_stdio(self, monkeypatch, capsys):
        from repro import cli

        rng = np.random.default_rng(18)
        requests = [
            {"op": "register", "name": "S", "columns": {"A1": rng.random(120).tolist()}},
            {"op": "register", "name": "T", "columns": {"A1": rng.random(120).tolist()}},
            {"op": "prepare", "query": "q", "s": "S", "t": "T",
             "attributes": ["A1"], "epsilons": [0.05]},
            {"op": "query", "query": "q"},
            {"op": "quit"},
        ]
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("\n".join(json.dumps(r) for r in requests) + "\n")
        )
        assert cli.main(["serve", "--backend", "serial"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        ready = json.loads(lines[0])
        assert ready["op"] == "ready" and ready["transport"] == "stdio"
        replies = [json.loads(line) for line in lines[1:]]
        assert all(r["ok"] for r in replies)
        assert replies[3]["pairs"] > 0


class TestOutputAdmissionControl:
    """max_estimated_pairs prices queries before they reach a worker."""

    def test_oversized_estimate_is_rejected_narrow_passes(self):
        rng = np.random.default_rng(3)
        with sync_service(max_estimated_pairs=1000, workers=2) as service:
            service.register("S", _columns(rng, 400))
            service.register("T", _columns(rng, 400))
            service.prepare("q", "S", "T", attributes=["A1"])
            # A band covering everything estimates ~160k pairs: rejected.
            with pytest.raises(ServiceOverloadError):
                service.query("q", epsilons=10.0)
            assert service.scheduler.metrics.rejected == 1
            # A narrow band estimates well under the limit: served.
            result = service.query("q", epsilons=0.0005)
            assert result.n_pairs == _reference_pairs(
                service.catalog.get("S").full, service.catalog.get("T").full, 0.0005
            ).shape[0]

    def test_cached_result_prices_exactly(self):
        """After a result is cached, admission uses its exact cardinality."""
        rng = np.random.default_rng(7)
        with sync_service(workers=2) as service:
            service.register("S", _columns(rng, 300))
            service.register("T", _columns(rng, 300))
            prepared = service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.01)
            exact = service.query("q").n_pairs
            assert prepared.estimate_pairs() == float(exact)

    def test_estimate_pairs_sanity(self):
        """The sampled estimate lands within a small factor of the truth."""
        rng = np.random.default_rng(11)
        with sync_service(workers=2) as service:
            service.register("S", _columns(rng, 2000))
            service.register("T", _columns(rng, 2000))
            prepared = service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.01)
            estimate = prepared.estimate_pairs()
            exact = prepared.count()
            assert 0.3 * exact <= estimate <= 3.0 * exact

    def test_count_matches_materialized_query(self):
        rng = np.random.default_rng(13)
        with sync_service(workers=2) as service:
            service.register("S", _columns(rng, 500))
            service.register("T", _columns(rng, 500))
            prepared = service.prepare("q", "S", "T", attributes=["A1"], epsilons=0.02)
            assert prepared.count() == service.query("q").n_pairs
