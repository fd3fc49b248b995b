"""Tests for the per-worker and per-job execution accounting."""

from __future__ import annotations

import pytest

from repro.distributed.stats import JobStats, WorkerStats
from repro.exceptions import ExecutionError


class TestJobStats:
    def _job(self) -> JobStats:
        workers = [
            WorkerStats(worker_id=0, input_s=100, input_t=100, output=50, local_seconds=0.5),
            WorkerStats(worker_id=1, input_s=300, input_t=100, output=10, local_seconds=0.2),
        ]
        return JobStats(workers=workers, total_output=60, baseline_input=500)

    def test_totals(self, weights):
        job = self._job()
        assert job.total_input == 600
        assert job.duplication == 100
        assert job.duplication_ratio == pytest.approx(0.2)
        assert job.n_workers == 2

    def test_max_worker_measures(self, weights):
        job = self._job()
        # Worker 1 has load 4*400 + 10 = 1610 > worker 0's 4*200 + 50 = 850.
        assert job.max_worker_load(weights) == pytest.approx(1610)
        assert job.max_worker_input(weights) == 400
        assert job.max_worker_output(weights) == 10

    def test_imbalance_and_times(self, weights):
        job = self._job()
        assert job.load_imbalance(weights) > 1.0
        assert job.max_local_seconds == pytest.approx(0.5)
        assert job.total_local_seconds == pytest.approx(0.7)

    def test_as_dict(self, weights):
        info = self._job().as_dict(weights)
        assert info["total_input"] == 600
        assert info["workers"] == 2

    def test_empty_job_rejected(self):
        with pytest.raises(ExecutionError):
            JobStats(workers=[], total_output=0, baseline_input=0)
