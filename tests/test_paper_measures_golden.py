"""Golden values of the paper's measures on a fixed set of table workloads.

One workload each from Tables 2a, 2b, 6 and 9, at 4% of the default input
size (2,000 rows per side), runs through :func:`run_workload` with every
default partitioner (RecPart-S, CSIO, 1-Bucket, Grid-eps).  The measures the
paper's tables report — ``I``, ``I_m``, ``O_m``, ``L_m`` and the output
count — are pinned as literals, so any change to routing, accounting or the
execution pipeline that moves one of them shows up here.

The Table 2a workload is 1-D Pareto data rounded to five decimals, so it is
tie-heavy: its output counts differ between partitioners.  The literals pin
today's behaviour; a fix of tie handling at region boundaries is expected to
change them (to one shared count).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments import workloads as wl
from repro.experiments.runner import run_workload

ROWS = 2_000

WORKLOADS = {
    "2a": wl.table2a_workloads()[1],  # pareto-1.5, d=1, eps=1e-4 (ties)
    "2b": wl.table2b_workloads()[1],  # pareto-1.5, d=3, eps=0.05
    "6": wl.table6_workloads()[0],  # pareto-2, d=3, eps=0.05
    "9": wl.table9_workloads()[0],  # pareto-1, d=3, eps=0.05
}

#: (I, I_m, O_m, L_m, output) per table and method.
GOLDEN = {
    "2a": {
        "RecPart-S": (4000, 511, 40, 2084.0, 497),
        "CSIO": (4217, 593, 26, 2398.0, 502),
        "1-Bucket": (12000, 1553, 70, 6282.0, 502),
        "Grid-eps": (7788, 982, 71, 3999.0, 498),
    },
    "2b": {
        "RecPart-S": (4175, 551, 38, 2242.0, 630),
        "CSIO": (5154, 749, 56, 3052.0, 630),
        "1-Bucket": (12000, 1553, 84, 6296.0, 630),
        "Grid-eps": (17815, 2244, 89, 9065.0, 630),
    },
    "6": {
        "RecPart-S": (4384, 497, 555, 2543.0, 1718),
        "CSIO": (5436, 781, 381, 3505.0, 1718),
        "1-Bucket": (12000, 1553, 233, 6445.0, 1718),
        "Grid-eps": (17727, 2236, 269, 9213.0, 1718),
    },
    "9": {
        "RecPart-S": (4072, 516, 4, 2068.0, 135),
        "CSIO": (4626, 626, 33, 2537.0, 135),
        "1-Bucket": (12000, 1553, 21, 6233.0, 135),
        "Grid-eps": (17864, 2263, 15, 9067.0, 135),
    },
}


@pytest.mark.parametrize("table", sorted(GOLDEN))
def test_paper_measures_match_golden_values(table):
    experiment = run_workload(replace(WORKLOADS[table], rows_per_input=ROWS))
    measured = {
        r.method: (
            r.total_input,
            r.max_worker_input,
            r.max_worker_output,
            r.max_worker_load,
            r.total_output,
        )
        for r in experiment.results
        if not r.failed
    }
    assert measured == GOLDEN[table]
