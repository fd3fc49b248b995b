"""Tests for the parallel execution engine (repro.engine).

The central property is backend equivalence: whatever backend executes the
reduce phase, the produced pair set must be exactly the serial reference's
(and therefore exactly the single-machine join, which the integration tests
pin down).  The plan cache must hit on byte-identical queries and miss as
soon as data, condition, budget or method change.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.grid import GridEpsilonPartitioner
from repro.baselines.one_bucket import OneBucketPartitioner
from repro.config import EngineConfig
from repro.core.recpart import RecPartPartitioner
from repro.data.generators import correlated_pair, uniform_relation
from repro.data.relation import Relation
from repro.engine import (
    ParallelJoinEngine,
    PlanCache,
    SerialBackend,
    ThreadPoolBackend,
    available_backends,
    build_worker_tasks,
    condition_key,
    gather_task_inputs,
    get_backend,
    plan_key,
    relation_fingerprint,
    route_side,
    unit_offset_step,
    worker_input_counts,
)
from repro.exceptions import ExecutionError
from repro.geometry.band import BandCondition
from repro.local_join.base import canonical_pair_order
from repro.local_join.index_nested_loop import IndexNestedLoopJoin

REAL_BACKENDS = ("serial", "threads", "processes")


def _small_problem(seed: int = 5, n: int = 1200, dims: int = 2):
    s, t = correlated_pair(n, n + 150, dimensions=dims, z=1.5, seed=seed)
    condition = BandCondition.symmetric([f"A{i + 1}" for i in range(dims)], 0.08)
    return s, t, condition


def _reference_pairs(s, t, condition) -> np.ndarray:
    algorithm = IndexNestedLoopJoin()
    return canonical_pair_order(
        algorithm.join(
            s.join_matrix(condition.attributes), t.join_matrix(condition.attributes), condition
        )
    )


class TestRouting:
    def test_route_side_groups_every_copy(self):
        s, t, condition = _small_problem()
        partitioning = RecPartPartitioner().partition(s, t, condition, workers=4)
        matrix = s.join_matrix(condition.attributes)
        routed = route_side(partitioning, matrix, "S")
        rows, units = partitioning.route(matrix, "S")
        assert routed.n_copies == rows.size
        assert routed.bounds[0] == 0 and routed.bounds[-1] == rows.size
        for unit in range(partitioning.n_units):
            expected = np.sort(rows[units == unit])
            np.testing.assert_array_equal(np.sort(routed.unit_rows(unit)), expected)

    def test_worker_tasks_cover_every_unit_once(self):
        s, t, condition = _small_problem()
        partitioning = OneBucketPartitioner().partition(s, t, condition, workers=5)
        s_matrix = s.join_matrix(condition.attributes)
        t_matrix = t.join_matrix(condition.attributes)
        s_routed = route_side(partitioning, s_matrix, "S")
        t_routed = route_side(partitioning, t_matrix, "T")
        step = unit_offset_step(s_matrix, t_matrix, condition)
        tasks = build_worker_tasks(partitioning, s_routed, t_routed, step)
        assert sum(task.n_units for task in tasks) == partitioning.n_units
        assert len({task.worker_id for task in tasks}) == len(tasks)
        assert sum(task.s_rows.size for task in tasks) == s_routed.n_copies
        assert sum(task.t_rows.size for task in tasks) == t_routed.n_copies

    def test_gather_applies_unit_offsets(self):
        s, t, condition = _small_problem(n=400)
        partitioning = RecPartPartitioner().partition(s, t, condition, workers=3)
        s_matrix = s.join_matrix(condition.attributes)
        t_matrix = t.join_matrix(condition.attributes)
        s_routed = route_side(partitioning, s_matrix, "S")
        t_routed = route_side(partitioning, t_matrix, "T")
        step = unit_offset_step(s_matrix, t_matrix, condition)
        tasks = build_worker_tasks(partitioning, s_routed, t_routed, step)
        task = max(tasks, key=lambda x: x.n_units)
        worker_s, _ = gather_task_inputs(task, s_matrix, t_matrix)
        np.testing.assert_allclose(
            worker_s[:, 0], s_matrix[task.s_rows, 0] + task.s_offsets
        )
        # Gathering must not mutate the shared join matrix.
        np.testing.assert_array_equal(s_matrix, s.join_matrix(condition.attributes))

    def test_worker_input_counts_match_executor_accounting(self):
        s, t, condition = _small_problem()
        partitioning = RecPartPartitioner().partition(s, t, condition, workers=4)
        result = ParallelJoinEngine("serial").execute(s, t, condition, partitioning)
        s_routed = route_side(partitioning, s.join_matrix(condition.attributes), "S")
        counts = worker_input_counts(partitioning, s_routed)
        for stats in result.job.workers:
            assert stats.input_s == counts[stats.worker_id]


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", REAL_BACKENDS)
    @pytest.mark.parametrize("seed", [5, 23])
    def test_exact_pair_set_on_random_workloads(self, backend, seed):
        """Every backend produces the exact pair set of the single-machine join."""
        s, t, condition = _small_problem(seed=seed)
        partitioning = RecPartPartitioner(seed=seed).partition(s, t, condition, workers=5)
        engine = ParallelJoinEngine(backend=backend)
        result = engine.execute(s, t, condition, partitioning, materialize=True)
        np.testing.assert_array_equal(
            canonical_pair_order(result.pairs), _reference_pairs(s, t, condition)
        )

    @pytest.mark.parametrize("backend", REAL_BACKENDS)
    def test_exact_pair_set_under_grid_partitioning(self, backend):
        s, t, condition = _small_problem(seed=9)
        partitioning = GridEpsilonPartitioner().partition(s, t, condition, workers=4)
        engine = ParallelJoinEngine(backend=backend)
        result = engine.execute(s, t, condition, partitioning, materialize=True)
        np.testing.assert_array_equal(
            canonical_pair_order(result.pairs), _reference_pairs(s, t, condition)
        )

    @pytest.mark.parametrize("backend", REAL_BACKENDS)
    def test_counts_match_without_materialisation(self, backend):
        s, t, condition = _small_problem(seed=13)
        partitioning = OneBucketPartitioner().partition(s, t, condition, workers=6)
        engine = ParallelJoinEngine(backend=backend)
        result = engine.execute(s, t, condition, partitioning)
        assert result.pairs is None
        assert result.total_output == _reference_pairs(s, t, condition).shape[0]

    @pytest.mark.parametrize("backend", REAL_BACKENDS)
    def test_empty_output(self, backend):
        s = uniform_relation("S", 300, dimensions=1, low=0.0, high=1.0, seed=0)
        t = uniform_relation("T", 300, dimensions=1, low=10.0, high=11.0, seed=1)
        condition = BandCondition.symmetric(["A1"], 0.05)
        partitioning = RecPartPartitioner().partition(s, t, condition, workers=3)
        result = ParallelJoinEngine(backend=backend).execute(
            s, t, condition, partitioning, materialize=True
        )
        assert result.total_output == 0
        assert result.pairs.shape == (0, 2)

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_job_stats_match_serial_reference(self, backend):
        """Every backend reports the serial reference's paper measures."""
        s, t, condition = _small_problem(seed=3)
        partitioning = RecPartPartitioner().partition(s, t, condition, workers=4)
        serial = ParallelJoinEngine(backend="serial").execute(s, t, condition, partitioning)
        other = ParallelJoinEngine(backend=backend).execute(s, t, condition, partitioning)
        assert other.total_input == serial.total_input
        assert other.total_output == serial.total_output
        assert other.max_worker_input == serial.max_worker_input
        assert other.max_worker_output == serial.max_worker_output
        assert other.max_worker_load == serial.max_worker_load
        assert other.duplication_ratio == pytest.approx(serial.duplication_ratio)
        summary = other.summary()
        assert summary["backend"] == backend
        assert summary["total_output"] == serial.total_output


class TestPlanCache:
    def test_repeated_query_hits_cache(self):
        s, t, condition = _small_problem(seed=17, n=800)
        engine = ParallelJoinEngine(backend="serial")
        first = engine.join(s, t, condition, workers=4)
        second = engine.join(s, t, condition, workers=4)
        assert not first.plan_from_cache
        assert second.plan_from_cache
        assert second.partitioning is first.partitioning
        assert second.total_output == first.total_output
        assert engine.plan_cache.stats.hits == 1
        assert engine.plan_cache.stats.misses == 1

    def test_data_change_invalidates(self):
        s, t, condition = _small_problem(seed=17, n=800)
        engine = ParallelJoinEngine(backend="serial")
        engine.join(s, t, condition, workers=4)
        columns = s.to_dict()
        columns["A1"] = columns["A1"].copy()
        columns["A1"][0] += 1e-9
        s_changed = Relation("S", columns)
        changed = engine.join(s_changed, t, condition, workers=4)
        assert not changed.plan_from_cache
        assert engine.plan_cache.stats.misses == 2

    def test_condition_and_budget_changes_invalidate(self):
        s, t, condition = _small_problem(seed=17, n=800)
        engine = ParallelJoinEngine(backend="serial")
        engine.join(s, t, condition, workers=4)
        wider = BandCondition.symmetric(condition.attributes, 0.09)
        assert not engine.join(s, t, wider, workers=4).plan_from_cache
        assert not engine.join(s, t, condition, workers=5).plan_from_cache
        # The original query is still cached.
        assert engine.join(s, t, condition, workers=4).plan_from_cache

    def test_partitioner_configuration_is_part_of_the_key(self):
        """Differently configured partitioners of the same class never share plans."""
        s, t, condition = _small_problem(seed=17, n=800)
        engine = ParallelJoinEngine(backend="serial")
        first = engine.join(s, t, condition, workers=4, partitioner=RecPartPartitioner(seed=1))
        other_seed = engine.join(
            s, t, condition, workers=4, partitioner=RecPartPartitioner(seed=2)
        )
        assert not other_seed.plan_from_cache
        # An identically configured fresh instance does share the plan.
        same = engine.join(s, t, condition, workers=4, partitioner=RecPartPartitioner(seed=1))
        assert same.plan_from_cache
        assert same.partitioning is first.partitioning

    def test_method_is_part_of_the_key(self):
        s, t, condition = _small_problem(seed=17, n=800)
        engine = ParallelJoinEngine(backend="serial")
        engine.join(s, t, condition, workers=4, partitioner=RecPartPartitioner())
        other = engine.join(s, t, condition, workers=4, partitioner=OneBucketPartitioner())
        assert not other.plan_from_cache

    def test_lru_eviction(self):
        s, t, condition = _small_problem(seed=17, n=500)
        cache = PlanCache(max_entries=2)
        engine = ParallelJoinEngine(backend="serial", plan_cache=cache)
        engine.join(s, t, condition, workers=2)
        engine.join(s, t, condition, workers=3)
        engine.join(s, t, condition, workers=4)  # evicts the workers=2 plan
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert not engine.join(s, t, condition, workers=2).plan_from_cache

    def test_fingerprint_and_keys_are_stable(self):
        s, t, condition = _small_problem(seed=17, n=300)
        attrs = condition.attributes
        assert relation_fingerprint(s, attrs) == relation_fingerprint(s, attrs)
        assert relation_fingerprint(s, attrs) != relation_fingerprint(t, attrs)
        assert condition_key(condition) == condition_key(
            BandCondition.symmetric(attrs, 0.08)
        )
        key = plan_key(s, t, condition, 4, "RecPart")
        assert key == plan_key(s, t, condition, 4, "RecPart")
        assert key != plan_key(s, t, condition, 4, "1-Bucket")

    def test_cache_validation(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)

    def test_concurrent_access_is_safe(self):
        """Regression: the LRU dict is shared by scheduler threads.

        Without the internal lock, concurrent get/put on an OrderedDict
        corrupts its linked list (move_to_end during popitem) and raises.
        """
        import threading

        cache = PlanCache(max_entries=4)
        keys = [(f"k{i}",) for i in range(12)]
        errors: list[Exception] = []

        def hammer(worker_id: int) -> None:
            try:
                for i in range(400):
                    key = keys[(worker_id * 7 + i) % len(keys)]
                    if cache.get(key) is None:
                        cache.put(key, object())
                    if i % 50 == 0:
                        len(cache)
                    if i % 97 == 0:
                        cache.clear()
            except Exception as exc:  # pragma: no cover - only on regression
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(cache) <= 4
        stats = cache.stats
        assert stats.lookups == stats.hits + stats.misses == 8 * 400


class TestExecutorEngineIntegration:
    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_executor_verifies_pairs_on_engine_backend(self, backend):
        s, t, condition = _small_problem(seed=29)
        partitioning = RecPartPartitioner().partition(s, t, condition, workers=4)
        engine = ParallelJoinEngine(backend=backend)
        result = engine.execute(s, t, condition, partitioning, verify="pairs")
        assert result.backend == backend
        assert result.execution_seconds >= 0
        assert result.pairs is not None  # "pairs" implies materialisation
        assert result.exact_output == result.total_output

    def test_verify_count_on_streamed_relations(self, tmp_path):
        s, t, condition = _small_problem(seed=30)
        partitioning = RecPartPartitioner().partition(s, t, condition, workers=3)
        s_mmap = s.spill(str(tmp_path / "s"))
        t_mmap = t.spill(str(tmp_path / "t"))
        result = ParallelJoinEngine("serial").execute(
            s_mmap, t_mmap, condition, partitioning, verify="count"
        )
        assert result.pairs is None
        assert result.exact_output == result.total_output

    @pytest.mark.parametrize("verify", ["count", "pairs"])
    def test_verify_rejects_wrong_output(self, verify):
        """The single-machine oracle catches a kernel that drops pairs."""

        class DroppingJoin(IndexNestedLoopJoin):
            def join(self, *args, **kwargs):
                return super().join(*args, **kwargs)[1:]

            def count(self, *args, **kwargs):
                return max(0, super().count(*args, **kwargs) - 1)

        s, t, condition = _small_problem(seed=33, n=400)
        partitioning = RecPartPartitioner().partition(s, t, condition, workers=3)
        engine = ParallelJoinEngine("serial", algorithm=DroppingJoin())
        with pytest.raises(ExecutionError, match="single-machine join"):
            engine.execute(s, t, condition, partitioning, verify=verify)

    def test_per_worker_accounting_matches_serial(self):
        s, t, condition = _small_problem(seed=31)
        partitioning = RecPartPartitioner().partition(s, t, condition, workers=4)
        serial = ParallelJoinEngine("serial").execute(s, t, condition, partitioning)
        threaded = ParallelJoinEngine("threads").execute(s, t, condition, partitioning)
        assert threaded.total_input == serial.total_input
        assert threaded.total_output == serial.total_output
        per_worker_serial = sorted(
            (w.worker_id, w.input_s, w.input_t, w.output, w.units)
            for w in serial.job.workers
        )
        per_worker_threads = sorted(
            (w.worker_id, w.input_s, w.input_t, w.output, w.units)
            for w in threaded.job.workers
        )
        assert per_worker_serial == per_worker_threads
        assert sum(w.units for w in serial.job.workers) == partitioning.n_units

    def test_engine_runs_the_caller_supplied_algorithm(self):
        """A caller-supplied algorithm instance is honoured on real backends."""

        class CountingJoin(IndexNestedLoopJoin):
            def __init__(self):
                super().__init__()
                self.calls = 0

            def count(self, *args, **kwargs):
                self.calls += 1
                return super().count(*args, **kwargs)

        s, t, condition = _small_problem(seed=37, n=400)
        partitioning = RecPartPartitioner().partition(s, t, condition, workers=3)
        algorithm = CountingJoin()
        ParallelJoinEngine("threads", algorithm=algorithm).execute(
            s, t, condition, partitioning
        )
        assert algorithm.calls > 0

    def test_unknown_backend_rejected(self):
        with pytest.raises(ExecutionError):
            ParallelJoinEngine(backend="gpu")
        with pytest.raises(ExecutionError):
            ParallelJoinEngine(backend="simulated")
        with pytest.raises(ExecutionError):
            get_backend("gpu")

    def test_backend_registry(self):
        assert set(REAL_BACKENDS) == set(available_backends())
        assert isinstance(get_backend("serial"), SerialBackend)
        backend = ThreadPoolBackend(max_workers=3)
        assert get_backend(backend) is backend


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.backend == "serial"
        assert config.plan_cache_size >= 1

    def test_engine_from_config(self):
        config = EngineConfig(backend="threads", max_parallelism=2, plan_cache_size=7)
        engine = ParallelJoinEngine.from_config(config)
        assert engine.backend.name == "threads"
        assert engine.plan_cache.max_entries == 7
        assert ParallelJoinEngine.from_config(EngineConfig()).backend.name == "serial"

    def test_invalid_backend(self):
        for backend in ("gpu", "simulated"):
            with pytest.raises(ValueError):
                EngineConfig(backend=backend)

    def test_invalid_parallelism(self):
        with pytest.raises(ValueError):
            EngineConfig(backend="threads", max_parallelism=0)

    def test_invalid_cache_size(self):
        with pytest.raises(ValueError):
            EngineConfig(plan_cache_size=0)


class TestKernelSelectionAndBudget:
    """Local-algorithm names and kernel memory budgets through the engine."""

    @pytest.mark.parametrize(
        "algorithm", ["index-nested-loop", "sort-sweep", "iejoin-local", "auto"]
    )
    def test_named_kernels_produce_the_reference_pair_set(self, algorithm):
        s, t, condition = _small_problem(seed=17)
        partitioning = RecPartPartitioner(seed=17).partition(s, t, condition, workers=4)
        engine = ParallelJoinEngine(backend="serial", algorithm=algorithm)
        result = engine.execute(s, t, condition, partitioning, materialize=True)
        np.testing.assert_array_equal(
            canonical_pair_order(result.pairs), _reference_pairs(s, t, condition)
        )

    def test_engine_rejects_unknown_kernel_names(self):
        with pytest.raises(ValueError):
            ParallelJoinEngine(backend="serial", algorithm="no-such-kernel")

    def test_backend_splits_memory_budget_across_pool(self):
        from repro.engine.backends import ThreadPoolBackend
        from repro.local_join import kernels
        from repro.local_join.sort_band import SortSweepJoin

        backend = ThreadPoolBackend(max_workers=4, memory_budget=4 * 1024 * 1024)
        algorithm = SortSweepJoin()
        bound = backend._budgeted(algorithm, concurrency=4)
        assert bound.memory_budget == 1024 * 1024
        assert algorithm.memory_budget == kernels.DEFAULT_MEMORY_BUDGET  # untouched

    def test_tiny_budget_does_not_change_results(self):
        s, t, condition = _small_problem(seed=21)
        partitioning = RecPartPartitioner(seed=21).partition(s, t, condition, workers=3)
        reference = _reference_pairs(s, t, condition)
        engine = ParallelJoinEngine(
            backend="serial", algorithm="sort-sweep", memory_budget=4096
        )
        result = engine.execute(s, t, condition, partitioning, materialize=True)
        np.testing.assert_array_equal(canonical_pair_order(result.pairs), reference)

    def test_engine_config_carries_kernel_settings(self):
        config = EngineConfig(
            backend="serial", local_algorithm="auto", kernel_memory_budget=1 << 20
        )
        engine = ParallelJoinEngine.from_config(config)
        assert engine.algorithm.name == "auto"
        assert engine.backend.memory_budget == 1 << 20

    def test_engine_config_rejects_bad_kernel_settings(self):
        with pytest.raises(ValueError):
            EngineConfig(local_algorithm="bogus")
        with pytest.raises(ValueError):
            EngineConfig(kernel_memory_budget=0)
