"""Empirical checks of the paper's analytical results (Lemmas 1-3).

These are not proofs, of course — they verify that the implemented grid
machinery exhibits exactly the behaviour the lemmas predict on constructed
and random inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.grid import GridEpsilonPartitioner
from repro.config import LoadWeights
from repro.cost.lower_bounds import compute_lower_bounds
from repro.data.generators import pareto_relation, uniform_relation
from repro.data.relation import Relation
from repro.engine import ParallelJoinEngine
from repro.geometry.band import BandCondition
from repro.local_join.base import join_pair_count


class TestLemma1LowerBounds:
    def test_no_partitioning_beats_the_lower_bounds(self):
        """Lemma 1: every partitioning ships at least |S|+|T| tuples and some
        worker carries at least 1/w of the total load."""
        from repro.core.recpart import RecPartPartitioner
        from repro.baselines.one_bucket import OneBucketPartitioner
        from repro.baselines.csio import CSIOPartitioner

        s = pareto_relation("S", 2000, dimensions=2, z=1.5, seed=0)
        t = pareto_relation("T", 2000, dimensions=2, z=1.5, seed=1)
        condition = BandCondition.symmetric(["A1", "A2"], 0.05)
        weights = LoadWeights()
        workers = 4
        bounds = compute_lower_bounds(s, t, condition, workers, weights=weights)
        engine = ParallelJoinEngine("serial", weights=weights)
        for partitioner in (RecPartPartitioner(), OneBucketPartitioner(), CSIOPartitioner()):
            partitioning = partitioner.partition(s, t, condition, workers)
            result = engine.execute(s, t, condition, partitioning)
            assert result.total_input >= bounds.total_input
            assert result.max_worker_load >= bounds.max_worker_load * (1 - 1e-9)


class TestLemma2GridDensityFloor:
    def test_dense_epsilon_range_forces_a_heavy_grid_cell(self):
        """Lemma 2: if some epsilon-range holds n T-tuples, every grid partitioning
        has a partition with at least n T-tuples — no matter the grid size."""
        rng = np.random.default_rng(0)
        epsilon = 1.0
        # Cluster of n T-tuples packed inside one epsilon-range.
        n_dense = 500
        dense = rng.uniform(50.0, 50.0 + epsilon, n_dense)
        sparse = rng.uniform(0.0, 1000.0, 2000)
        t = Relation("T", {"A1": np.concatenate([dense, sparse])})
        s = Relation("S", {"A1": rng.uniform(0.0, 1000.0, 2000)})
        condition = BandCondition.symmetric(["A1"], epsilon)

        for multiplier in (1.0, 2.0, 5.0, 10.0):
            partitioner = GridEpsilonPartitioner(multiplier=multiplier)
            partitioning = partitioner.partition(s, t, condition, workers=8)
            rows, units = partitioning.route(t.join_matrix(["A1"]), "T")
            # Count T-tuples (with duplicates) per grid cell and find the densest.
            per_unit = np.bincount(units, minlength=partitioning.n_units)
            assert per_unit.max() >= n_dense

    def test_finer_grid_does_not_dilute_the_dense_cell(self):
        """The stronger reading of Lemma 2: refining the grid cannot push the
        densest cell below the epsilon-range population."""
        rng = np.random.default_rng(1)
        epsilon = 0.5
        dense = rng.uniform(10.0, 10.0 + epsilon, 300)
        t = Relation("T", {"A1": np.concatenate([dense, rng.uniform(0, 200, 1000)])})
        s = Relation("S", {"A1": rng.uniform(0, 200, 1000)})
        condition = BandCondition.symmetric(["A1"], epsilon)
        maxima = []
        for multiplier in (4.0, 2.0, 1.0):
            partitioning = GridEpsilonPartitioner(multiplier=multiplier).partition(
                s, t, condition, workers=4
            )
            _, units = partitioning.route(t.join_matrix(["A1"]), "T")
            maxima.append(int(np.bincount(units).max()))
        assert min(maxima) >= 300


class TestLemma3GridUpperBound:
    def test_epsilon_range_fraction_shrinks_with_input_size(self):
        """Lemma 3: for self-similar inputs with bounded output/input ratio, the
        largest epsilon-range input fraction decreases like 1/sqrt(|S|)."""
        epsilon = 0.01
        condition = BandCondition.symmetric(["A1"], epsilon)
        fractions = {}
        for n in (2000, 8000, 32_000):
            s = uniform_relation("S", n, dimensions=1, seed=3)
            values = np.sort(s["A1"])
            # Densest window of width epsilon (sliding-window count).
            right = np.searchsorted(values, values + epsilon, side="right")
            densest = int((right - np.arange(n)).max())
            fractions[n] = densest / n
        assert fractions[32_000] < fractions[8000] < fractions[2000]
        # The densest-window fraction keeps shrinking as the input grows (it
        # converges toward the window width itself for uniform data).
        assert fractions[32_000] < 0.8 * fractions[2000]

    def test_output_bounded_by_constant_times_input_precondition(self):
        """Sanity-check the lemma's precondition machinery: for a narrow band on
        uniform data, output stays within a small constant times input."""
        s = uniform_relation("S", 5000, dimensions=1, seed=4)
        t = uniform_relation("T", 5000, dimensions=1, seed=5)
        condition = BandCondition.symmetric(["A1"], 1e-4)
        output = join_pair_count(s.join_matrix(["A1"]), t.join_matrix(["A1"]), condition)
        assert output <= 3 * (len(s) + len(t))
