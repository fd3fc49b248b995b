"""Success measures used throughout the paper's evaluation.

The two headline measures (Section 2, "System Model and Measures of
Success") are the relative overheads over the lower bounds:

* input-duplication overhead ``(I - (|S| + |T|)) / (|S| + |T|)`` — how much
  more data is shuffled than strictly necessary, and
* max-worker-load overhead ``(L_m - L_0) / L_0`` — how much longer the most
  loaded worker works compared to a perfectly balanced, duplication-free
  execution.

Figure 4 / Figure 10 of the paper plot one point per (method, workload) in
this overhead plane; :class:`OverheadPoint` is that point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.config import LoadWeights
from repro.cost.lower_bounds import LowerBounds
from repro.exceptions import ReproError

if TYPE_CHECKING:
    from repro.engine.engine import EngineResult


def input_duplication_overhead(total_input: float, baseline_input: float) -> float:
    """Return ``(I - (|S|+|T|)) / (|S|+|T|)``."""
    if baseline_input <= 0:
        raise ReproError("baseline input must be positive")
    return (total_input - baseline_input) / baseline_input


def load_overhead(max_worker_load: float, lower_bound_load: float) -> float:
    """Return ``(L_m - L_0) / L_0``."""
    if lower_bound_load <= 0:
        raise ReproError("lower-bound load must be positive")
    return (max_worker_load - lower_bound_load) / lower_bound_load


def replication_rate(total_input: float, baseline_input: float) -> float:
    """Return the average number of copies made per input tuple (1.0 = none)."""
    if baseline_input <= 0:
        raise ReproError("baseline input must be positive")
    return total_input / baseline_input


@dataclass(frozen=True)
class OverheadPoint:
    """One point of the Figure 4 / Figure 10 scatter plot.

    Attributes
    ----------
    method:
        Partitioning method that produced the point.
    workload:
        Workload label (dataset, band width, workers).
    duplication_overhead:
        x-axis value ``I / (|S|+|T|) - 1``.
    load_overhead:
        y-axis value ``L_m / L_0 - 1``.
    """

    method: str
    workload: str
    duplication_overhead: float
    load_overhead: float

    @property
    def within_ten_percent(self) -> bool:
        """Return ``True`` when the point is within 10% of both lower bounds."""
        return self.duplication_overhead <= 0.10 and self.load_overhead <= 0.10


def overhead_point(
    result: EngineResult,
    bounds: LowerBounds,
    workload: str,
    weights: LoadWeights | None = None,
) -> OverheadPoint:
    """Build the Figure-4 point of one executed partitioning."""
    weights = weights if weights is not None else result.weights
    return OverheadPoint(
        method=result.partitioning.method,
        workload=workload,
        duplication_overhead=input_duplication_overhead(
            result.total_input, bounds.total_input
        ),
        load_overhead=load_overhead(result.max_worker_load, bounds.max_worker_load),
    )
