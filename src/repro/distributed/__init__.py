"""Per-worker and per-job accounting of a distributed band-join.

The paper runs its band-joins as MapReduce jobs on an Amazon EMR cluster;
this library executes the same map -> shuffle -> reduce job on
:class:`~repro.engine.engine.ParallelJoinEngine`.  Every execution reports
its per-worker input, output and local-join time as :class:`WorkerStats`,
folded into one :class:`JobStats`.  The success measures of the paper
(``I``, ``I_m``, ``O_m``, max worker load, overheads vs. the lower bounds)
and the running-time model's predicted join time are computed from it.
"""

from repro.distributed.stats import JobStats, WorkerStats

__all__ = [
    "JobStats",
    "WorkerStats",
]
