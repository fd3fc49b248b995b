"""Integration tests: every partitioner must produce the exact join result.

This is the central correctness property of the whole system (paper
Definition 1): under any of the implemented partitionings, the union of the
workers' local join outputs equals the single-machine band-join, with no
output pair produced twice.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.csio import CSIOPartitioner
from repro.baselines.grid import GridEpsilonPartitioner
from repro.baselines.grid_star import GridStarPartitioner
from repro.baselines.iejoin import IEJoinPartitioner
from repro.baselines.one_bucket import OneBucketPartitioner
from repro.config import LoadWeights
from repro.core.recpart import RecPartPartitioner, RecPartSPartitioner
from repro.cost.model import default_running_time_model
from repro.data.generators import correlated_pair, uniform_relation
from repro.data.synthetic_real import ebird_cloud_pair
from repro.engine import ParallelJoinEngine
from repro.exceptions import ExecutionError
from repro.experiments.runner import run_method
from repro.geometry.band import BandCondition
from repro.local_join.sort_band import SortSweepJoin

ALL_PARTITIONERS = [
    RecPartPartitioner(),
    RecPartSPartitioner(),
    OneBucketPartitioner(),
    GridEpsilonPartitioner(),
    GridStarPartitioner(),
    CSIOPartitioner(),
    IEJoinPartitioner(size_per_block=400),
]


def _partitioner_id(partitioner) -> str:
    return partitioner.name


class TestExactOutputAcrossPartitioners:
    @pytest.mark.parametrize("partitioner", ALL_PARTITIONERS, ids=_partitioner_id)
    def test_pareto_2d(self, partitioner):
        s, t = correlated_pair(1500, 1500, dimensions=2, z=1.5, seed=41)
        condition = BandCondition.symmetric(["A1", "A2"], 0.1)
        partitioning = partitioner.partition(s, t, condition, workers=5)
        result = ParallelJoinEngine("serial").execute(
            s, t, condition, partitioning, verify="pairs"
        )
        assert result.exact_output == result.total_output

    @pytest.mark.parametrize("partitioner", ALL_PARTITIONERS, ids=_partitioner_id)
    def test_asymmetric_band_condition(self, partitioner):
        s, t = correlated_pair(800, 900, dimensions=1, z=1.5, seed=42)
        condition = BandCondition({"A1": (0.02, 0.3)})
        partitioning = partitioner.partition(s, t, condition, workers=3)
        ParallelJoinEngine("serial").execute(s, t, condition, partitioning, verify="pairs")

    @pytest.mark.parametrize("partitioner", ALL_PARTITIONERS, ids=_partitioner_id)
    def test_unequal_input_sizes(self, partitioner):
        s, t = correlated_pair(300, 2500, dimensions=2, z=1.0, seed=43)
        condition = BandCondition.symmetric(["A1", "A2"], 0.2)
        partitioning = partitioner.partition(s, t, condition, workers=4)
        ParallelJoinEngine("serial").execute(s, t, condition, partitioning, verify="pairs")

    @pytest.mark.parametrize(
        "partitioner",
        [p for p in ALL_PARTITIONERS if not isinstance(p, (GridEpsilonPartitioner, GridStarPartitioner))],
        ids=_partitioner_id,
    )
    def test_equi_join(self, partitioner):
        """Band width zero (grid methods are undefined there, everything else works)."""
        rng = np.random.default_rng(0)
        s_values = rng.integers(0, 50, 800).astype(float)
        t_values = rng.integers(0, 50, 800).astype(float)
        from repro.data.relation import Relation

        s = Relation("S", {"A1": s_values})
        t = Relation("T", {"A1": t_values})
        condition = BandCondition.symmetric(["A1"], 0.0)
        partitioning = partitioner.partition(s, t, condition, workers=4)
        ParallelJoinEngine("serial").execute(s, t, condition, partitioning, verify="pairs")

    @pytest.mark.parametrize(
        "partitioner", [RecPartPartitioner(), CSIOPartitioner(), OneBucketPartitioner()],
        ids=_partitioner_id,
    )
    def test_spatiotemporal_join(self, partitioner):
        s, t = ebird_cloud_pair(1200, seed=3)
        condition = BandCondition.symmetric(["time", "latitude", "longitude"], 5.0)
        partitioning = partitioner.partition(s, t, condition, workers=4)
        ParallelJoinEngine("serial").execute(s, t, condition, partitioning, verify="count")

    @pytest.mark.parametrize("partitioner", ALL_PARTITIONERS, ids=_partitioner_id)
    def test_empty_output_join(self, partitioner):
        s = uniform_relation("S", 400, dimensions=1, low=0.0, high=1.0, seed=0)
        t = uniform_relation("T", 400, dimensions=1, low=10.0, high=11.0, seed=1)
        condition = BandCondition.symmetric(["A1"], 0.1)
        partitioning = partitioner.partition(s, t, condition, workers=3)
        result = ParallelJoinEngine("serial").execute(
            s, t, condition, partitioning, verify="count"
        )
        assert result.total_output == 0


class TestExecutorBehaviour:
    def test_invalid_verify_mode(self):
        s, t = correlated_pair(200, 200, dimensions=1, seed=0)
        condition = BandCondition.symmetric(["A1"], 0.1)
        partitioning = OneBucketPartitioner().partition(s, t, condition, workers=2)
        with pytest.raises(ExecutionError):
            ParallelJoinEngine("serial").execute(
                s, t, condition, partitioning, verify="everything"
            )

    def test_predicted_join_time_attached(self):
        s, t = correlated_pair(800, 800, dimensions=1, seed=0)
        condition = BandCondition.symmetric(["A1"], 0.05)
        model = default_running_time_model()
        result = run_method(
            RecPartSPartitioner(), s, t, condition, 3, None,
            ParallelJoinEngine("serial"), cost_model=model,
        )
        assert result.predicted_join_time is not None
        assert result.predicted_join_time > 0
        assert result.predicted_join_time == model.predict(
            result.total_input, result.max_worker_input, result.max_worker_output
        )

    def test_alternative_local_algorithm(self):
        s, t = correlated_pair(800, 800, dimensions=1, seed=1)
        condition = BandCondition.symmetric(["A1"], 0.05)
        engine = ParallelJoinEngine("serial", algorithm=SortSweepJoin())
        partitioning = RecPartSPartitioner().partition(s, t, condition, workers=3)
        result = engine.execute(s, t, condition, partitioning, verify="count")
        assert result.exact_output == result.total_output

    def test_summary_contains_paper_measures(self, weights):
        s, t = correlated_pair(600, 600, dimensions=1, seed=2)
        condition = BandCondition.symmetric(["A1"], 0.05)
        partitioning = CSIOPartitioner().partition(s, t, condition, workers=3)
        result = ParallelJoinEngine("serial", weights=weights).execute(
            s, t, condition, partitioning
        )
        summary = result.summary()
        for key in ("total_input", "max_worker_input", "max_worker_output", "method"):
            assert key in summary
        assert summary["method"] == "CSIO"

    def test_per_worker_input_counts_once_per_worker(self):
        """Definition 1 counts a tuple once per worker even if the worker holds it
        in several partition units (e.g. IEJoin block pairs)."""
        s, t = correlated_pair(1000, 1000, dimensions=1, z=1.5, seed=3)
        condition = BandCondition.symmetric(["A1"], 0.05)
        # One worker: all block pairs land on it, so its input must be exactly
        # |S| + |T| even though blocks participate in many pairs.
        partitioning = IEJoinPartitioner(size_per_block=200).partition(s, t, condition, 1)
        result = ParallelJoinEngine("serial").execute(s, t, condition, partitioning)
        assert result.total_input == len(s) + len(t)

    def test_worker_stats_sum_to_totals(self, weights):
        s, t = correlated_pair(900, 900, dimensions=2, z=1.5, seed=4)
        condition = BandCondition.symmetric(["A1", "A2"], 0.1)
        partitioning = RecPartPartitioner().partition(s, t, condition, workers=4)
        result = ParallelJoinEngine("serial", weights=weights).execute(
            s, t, condition, partitioning, verify="count"
        )
        assert sum(w.output for w in result.job.workers) == result.total_output
        assert sum(w.input_total for w in result.job.workers) == result.total_input
