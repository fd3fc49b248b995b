"""Tests for the 1-Bucket baseline (repro.baselines.one_bucket)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.one_bucket import (
    OneBucketPartitioner,
    OneBucketPartitioning,
    choose_matrix_shape,
)
from repro.core.partitioner import PartitioningStats
from repro.data.generators import correlated_pair
from repro.engine import ParallelJoinEngine
from repro.exceptions import PartitioningError
from repro.geometry.band import BandCondition


class TestMatrixShape:
    def test_square_for_equal_inputs(self):
        rows, cols = choose_matrix_shape(1000, 1000, 16)
        assert rows * cols <= 16
        assert rows == cols == 4

    def test_skewed_inputs_prefer_rectangular_shape(self):
        rows, cols = choose_matrix_shape(100_000, 100, 16)
        # Large S should get many rows so each cell receives a small S share.
        assert rows > cols

    def test_single_worker(self):
        assert choose_matrix_shape(10, 10, 1) == (1, 1)

    def test_invalid_workers(self):
        with pytest.raises(PartitioningError):
            choose_matrix_shape(10, 10, 0)

    def test_prime_worker_count_still_uses_most_workers(self):
        rows, cols = choose_matrix_shape(1000, 1000, 7)
        assert rows * cols <= 7
        assert rows * cols >= 6  # 1x7 (or 7x1) is the best factorisation


class TestRouting:
    def test_replication_factors(self, rng):
        """S is shipped to every column of its row; T to every row of its column."""
        partitioning = OneBucketPartitioning(rows=3, cols=4, workers=12, seed=1)
        values = rng.uniform(0, 1, size=(50, 2))
        s_rows, s_units = partitioning.route(values, "S")
        t_rows, t_units = partitioning.route(values, "T")
        assert s_rows.size == 50 * 4
        assert t_rows.size == 50 * 3
        assert np.unique(s_units).size <= 12

    def test_every_pair_of_cells_is_covered(self, rng):
        """Any (s, t) combination meets in exactly one cell: the intersection of
        s's row and t's column — this is what makes 1-Bucket correct for any
        join condition."""
        partitioning = OneBucketPartitioning(rows=3, cols=3, workers=9, seed=5)
        values = rng.uniform(0, 1, size=(30, 1))
        s_rows, s_units = partitioning.route(values, "S")
        t_rows, t_units = partitioning.route(values, "T")
        s_map = {}
        for row, unit in zip(s_rows, s_units):
            s_map.setdefault(int(row), set()).add(int(unit))
        t_map = {}
        for row, unit in zip(t_rows, t_units):
            t_map.setdefault(int(row), set()).add(int(unit))
        for i in range(30):
            for j in range(30):
                assert len(s_map[i] & t_map[j]) == 1

    def test_route_is_deterministic(self, rng):
        partitioning = OneBucketPartitioning(rows=2, cols=2, workers=4, seed=3)
        values = rng.uniform(0, 1, size=(40, 1))
        first = partitioning.route(values, "S")
        second = partitioning.route(values, "S")
        np.testing.assert_array_equal(first[1], second[1])

    def test_invalid_shapes(self):
        with pytest.raises(PartitioningError):
            OneBucketPartitioning(rows=0, cols=2, workers=4, seed=0)
        with pytest.raises(PartitioningError):
            OneBucketPartitioning(rows=3, cols=3, workers=4, seed=0)

    def test_unit_workers_one_to_one(self):
        partitioning = OneBucketPartitioning(rows=2, cols=3, workers=8, seed=0)
        workers = partitioning.unit_workers()
        assert np.unique(workers).size == 6


class TestEndToEnd:
    def test_partition_and_execute(self):
        s, t = correlated_pair(2000, 2000, dimensions=2, z=1.5, seed=2)
        condition = BandCondition.symmetric(["A1", "A2"], 0.1)
        partitioner = OneBucketPartitioner()
        partitioning = partitioner.partition(s, t, condition, workers=8)
        assert isinstance(partitioning.stats, PartitioningStats)
        result = ParallelJoinEngine("serial").execute(
            s, t, condition, partitioning, verify="count"
        )
        # Input duplication is about sqrt(w): with an (2, 4) or (4, 2) shape the
        # total input is rows*|T| + cols*|S|, far above |S| + |T|.
        assert result.total_input > 1.5 * (len(s) + len(t))

    def test_load_balance_is_good_despite_duplication(self):
        """1-Bucket's selling point: near-perfect load balance for any condition."""
        s, t = correlated_pair(4000, 4000, dimensions=1, z=2.0, seed=3)
        condition = BandCondition.symmetric(["A1"], 0.05)
        partitioning = OneBucketPartitioner().partition(s, t, condition, workers=4)
        result = ParallelJoinEngine("serial").execute(s, t, condition, partitioning)
        assert result.job.load_imbalance(result.weights) < 1.5

    def test_independent_of_dimensionality(self):
        """The matrix cover ignores the join condition entirely (paper Table 2a vs 2b)."""
        s1, t1 = correlated_pair(1000, 1000, dimensions=1, seed=4)
        s3, t3 = correlated_pair(1000, 1000, dimensions=3, seed=4)
        one_d = OneBucketPartitioner().partition(
            s1, t1, BandCondition.symmetric(["A1"], 0.1), workers=8
        )
        three_d = OneBucketPartitioner().partition(
            s3, t3, BandCondition.symmetric(["A1", "A2", "A3"], 0.1), workers=8
        )
        assert (one_d.rows, one_d.cols) == (three_d.rows, three_d.cols)
