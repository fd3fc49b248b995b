"""Real parallel execution engine with pluggable backends and plan caching.

This subpackage executes the distributed band-join on actual hardware and
is the library's only execution path; the planning layer (the partitioners
of :mod:`repro.core` and :mod:`repro.baselines`) stays separate:

* :mod:`repro.engine.routing` — vectorised batch routing: all tuples are
  routed and grouped per partition unit with numpy masks, then gathered
  into one batched local-join task per worker.
* :mod:`repro.engine.backends` — pluggable execution backends: ``serial``
  (reference), ``threads`` (``ThreadPoolExecutor``, exploiting numpy's GIL
  release) and ``processes`` (``ProcessPoolExecutor`` fed through shared
  memory so join matrices are never pickled per task).
* :mod:`repro.engine.plan_cache` — a partitioning cache keyed by relation
  content fingerprints, band condition and worker budget, so repeated
  queries over the same data skip the optimization phase entirely.
* :mod:`repro.engine.engine` — :class:`ParallelJoinEngine`, which ties the
  above together and reports :class:`EngineResult` objects carrying the
  per-worker :class:`~repro.distributed.stats.JobStats` accounting.

Quickstart
----------
>>> from repro import correlated_pair, BandCondition
>>> from repro.engine import ParallelJoinEngine
>>> s, t = correlated_pair(50_000, 50_000, dimensions=2, z=1.5, seed=0)
>>> condition = BandCondition.symmetric(["A1", "A2"], 0.05)
>>> engine = ParallelJoinEngine(backend="threads")
>>> first = engine.join(s, t, condition, workers=8)   # optimizes with RecPart
>>> again = engine.join(s, t, condition, workers=8)   # served from the plan cache
>>> again.plan_from_cache
True
"""

from repro.engine.backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    TaskOutcome,
    ThreadPoolBackend,
    available_backends,
    get_backend,
)
from repro.engine.engine import EngineResult, ParallelJoinEngine
from repro.engine.plan_cache import (
    PlanCache,
    PlanCacheStats,
    condition_key,
    plan_key,
    relation_fingerprint,
)
from repro.engine.routing import (
    RoutedSide,
    WorkerTask,
    build_worker_tasks,
    gather_task_inputs,
    route_side,
    unit_offset_step,
    worker_input_counts,
)

__all__ = [
    # engine
    "ParallelJoinEngine",
    "EngineResult",
    # backends
    "ExecutionBackend",
    "SerialBackend",
    "ThreadPoolBackend",
    "ProcessPoolBackend",
    "TaskOutcome",
    "available_backends",
    "get_backend",
    # plan cache
    "PlanCache",
    "PlanCacheStats",
    "plan_key",
    "condition_key",
    "relation_fingerprint",
    # routing
    "RoutedSide",
    "WorkerTask",
    "route_side",
    "build_worker_tasks",
    "gather_task_inputs",
    "unit_offset_step",
    "worker_input_counts",
]
