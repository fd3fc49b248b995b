"""Tests for the RecPart optimizer (repro.core.recpart)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import LoadWeights, RecPartConfig
from repro.core.recpart import RecPartPartitioner, RecPartSPartitioner
from repro.core.split_tree import SplitTreePartitioning
from repro.cost.lower_bounds import compute_lower_bounds
from repro.data.generators import correlated_pair, uniform_relation
from repro.engine import ParallelJoinEngine
from repro.exceptions import PartitioningError
from repro.geometry.band import BandCondition


@pytest.fixture(scope="module")
def pareto_3d():
    return correlated_pair(4000, 4000, dimensions=3, z=1.5, seed=17)


@pytest.fixture(scope="module")
def condition_3d_wide():
    return BandCondition.symmetric(["A1", "A2", "A3"], 0.1)


class TestRecPartBasics:
    def test_produces_split_tree_partitioning(self, pareto_3d, condition_3d_wide):
        s, t = pareto_3d
        partitioning = RecPartSPartitioner().partition(s, t, condition_3d_wide, workers=4)
        assert isinstance(partitioning, SplitTreePartitioning)
        assert partitioning.workers == 4
        assert partitioning.n_units >= 1
        assert partitioning.method == "RecPart-S"
        assert partitioning.stats.optimization_seconds > 0
        assert partitioning.stats.iterations >= 1

    def test_symmetric_variant_name(self, pareto_3d, condition_3d_wide):
        s, t = pareto_3d
        partitioning = RecPartPartitioner().partition(s, t, condition_3d_wide, workers=4)
        assert partitioning.method == "RecPart"

    def test_number_of_leaves_is_small_multiple_of_workers(self, pareto_3d, condition_3d_wide):
        """Paper Section 4.3: iterations (and leaves) stay within a small multiple of w."""
        s, t = pareto_3d
        workers = 4
        partitioning = RecPartSPartitioner().partition(s, t, condition_3d_wide, workers=workers)
        assert partitioning.n_leaves <= 32 * workers

    def test_routing_covers_all_input(self, pareto_3d, condition_3d_wide):
        s, t = pareto_3d
        partitioning = RecPartSPartitioner().partition(s, t, condition_3d_wide, workers=4)
        attrs = condition_3d_wide.attributes
        partitioning.check_coverage(s.join_matrix(attrs), "S")
        partitioning.check_coverage(t.join_matrix(attrs), "T")

    def test_invalid_worker_count(self, pareto_3d, condition_3d_wide):
        s, t = pareto_3d
        with pytest.raises(PartitioningError):
            RecPartSPartitioner().partition(s, t, condition_3d_wide, workers=0)

    def test_single_worker_is_trivial(self, pareto_3d, condition_3d_wide):
        s, t = pareto_3d
        partitioning = RecPartSPartitioner().partition(s, t, condition_3d_wide, workers=1)
        result = ParallelJoinEngine("serial").execute(s, t, condition_3d_wide, partitioning)
        # One worker receives everything exactly once: no duplication possible.
        assert result.total_input == len(s) + len(t)

    def test_deterministic_given_rng(self, pareto_3d, condition_3d_wide):
        s, t = pareto_3d
        first = RecPartSPartitioner().partition(
            s, t, condition_3d_wide, workers=4, rng=np.random.default_rng(3)
        )
        second = RecPartSPartitioner().partition(
            s, t, condition_3d_wide, workers=4, rng=np.random.default_rng(3)
        )
        assert first.n_units == second.n_units
        matrix = s.join_matrix(condition_3d_wide.attributes)
        np.testing.assert_array_equal(
            first.route(matrix, "S")[1], second.route(matrix, "S")[1]
        )


class TestRecPartQuality:
    def test_beats_trivial_partitioning_on_skewed_data(self, pareto_3d, condition_3d_wide):
        s, t = pareto_3d
        workers = 4
        weights = LoadWeights()
        bounds = compute_lower_bounds(s, t, condition_3d_wide, workers, weights=weights)
        partitioning = RecPartSPartitioner(weights=weights).partition(
            s, t, condition_3d_wide, workers=workers
        )
        result = ParallelJoinEngine("serial", weights=weights).execute(
            s, t, condition_3d_wide, partitioning, verify="count"
        )
        # Far better than "everything on one worker" (overhead w - 1 = 3).
        assert bounds.load_overhead(result.max_worker_load) < 1.0
        # Input duplication stays moderate.
        assert bounds.input_overhead(result.total_input) < 0.5

    def test_low_duplication_on_equi_join(self, rng):
        """With band width 0 nothing ever needs to be duplicated across splits."""
        s, t = correlated_pair(3000, 3000, dimensions=1, z=1.5, seed=3)
        condition = BandCondition.symmetric(["A1"], 0.0)
        partitioning = RecPartSPartitioner().partition(s, t, condition, workers=4)
        result = ParallelJoinEngine("serial").execute(s, t, condition, partitioning)
        assert result.total_input == len(s) + len(t)

    def test_correct_output_on_uniform_data(self):
        s = uniform_relation("S", 1500, dimensions=2, seed=5)
        t = uniform_relation("T", 1500, dimensions=2, seed=6)
        condition = BandCondition.symmetric(["A1", "A2"], 0.05)
        partitioning = RecPartPartitioner().partition(s, t, condition, workers=4)
        ParallelJoinEngine("serial").execute(s, t, condition, partitioning, verify="pairs")

    def test_correct_output_on_skewed_data(self, pareto_3d, condition_3d_wide):
        s, t = pareto_3d
        partitioning = RecPartSPartitioner().partition(s, t, condition_3d_wide, workers=4)
        ParallelJoinEngine("serial").execute(s, t, condition_3d_wide, partitioning, verify="count")

    def test_symmetric_splits_help_on_reverse_pareto(self):
        """Paper Tables 9/14: on anti-correlated data RecPart (symmetric) achieves a
        much lower max worker load than RecPart-S."""
        s, t = correlated_pair(4000, 4000, dimensions=1, z=1.5, reverse=True, seed=9)
        condition = BandCondition.symmetric(["A1"], 2.0)
        weights = LoadWeights()
        engine = ParallelJoinEngine("serial", weights=weights)
        asymmetric = engine.execute(
            s, t, condition, RecPartSPartitioner(weights=weights).partition(s, t, condition, 4)
        )
        symmetric = engine.execute(
            s, t, condition, RecPartPartitioner(weights=weights).partition(s, t, condition, 4)
        )
        assert symmetric.max_worker_load <= asymmetric.max_worker_load * 1.05


class TestRecPartConfiguration:
    def test_theoretical_termination(self, pareto_3d, condition_3d_wide):
        s, t = pareto_3d
        config = RecPartConfig(termination="theoretical")
        partitioning = RecPartSPartitioner(config=config).partition(
            s, t, condition_3d_wide, workers=4
        )
        assert partitioning.stats.extra["termination"] == "theoretical"
        assert partitioning.n_units >= 1

    def test_iteration_cap_respected(self, pareto_3d, condition_3d_wide):
        s, t = pareto_3d
        config = RecPartConfig(max_iterations=3)
        partitioning = RecPartSPartitioner(config=config).partition(
            s, t, condition_3d_wide, workers=4
        )
        assert partitioning.stats.iterations <= 3

    def test_recpart_s_forces_asymmetric_config(self):
        partitioner = RecPartSPartitioner(config=RecPartConfig(symmetric=True))
        assert partitioner.config.symmetric is False

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RecPartConfig(sample_size=1)
        with pytest.raises(ValueError):
            RecPartConfig(termination="bogus")
        with pytest.raises(ValueError):
            RecPartConfig(improvement_threshold=0.0)
        with pytest.raises(ValueError):
            RecPartConfig(small_partition_factor=0.0)

    def test_small_sample_still_works(self, pareto_3d, condition_3d_wide):
        s, t = pareto_3d
        config = RecPartConfig(sample_size=64)
        partitioning = RecPartSPartitioner(config=config).partition(
            s, t, condition_3d_wide, workers=4
        )
        ParallelJoinEngine("serial").execute(
            s, t, condition_3d_wide, partitioning, verify="count"
        )

    def test_grid_mode_used_when_band_width_huge(self):
        """When the whole space is smaller than twice the band width, the root is a
        small partition and RecPart falls back to internal 1-Bucket refinement."""
        s = uniform_relation("S", 2000, dimensions=1, low=0.0, high=1.0, seed=1)
        t = uniform_relation("T", 2000, dimensions=1, low=0.0, high=1.0, seed=2)
        condition = BandCondition.symmetric(["A1"], 10.0)
        partitioning = RecPartSPartitioner().partition(s, t, condition, workers=4)
        info = partitioning.describe()
        assert info["small_leaves_in_grid_mode"] >= 1
        assert partitioning.n_units > partitioning.n_leaves
