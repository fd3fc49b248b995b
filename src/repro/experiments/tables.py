"""Per-table reproductions of the paper's evaluation section.

Each ``table*`` function runs the corresponding experiment end-to-end (data
generation, optimization, execution on the parallel engine) and returns a
:class:`TableReproduction` whose ``format()`` prints the same row structure
the paper reports: per method the optimization time, the estimated join time
from the running-time model, the total input ``I`` including duplicates and
the input/output of the most loaded worker (``I_m``, ``O_m``).

All functions take a ``scale`` parameter (fraction of the default workload
size) so the same code drives both quick CI-sized runs and the full
benchmarks, plus a ``verify`` flag that cross-checks every distributed result
against a single-machine join.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.baselines.csio import CSIOPartitioner
from repro.baselines.grid import GridEpsilonPartitioner
from repro.baselines.grid_star import GridStarPartitioner
from repro.baselines.iejoin import IEJoinPartitioner
from repro.baselines.one_bucket import OneBucketPartitioner
from repro.config import LoadWeights, RecPartConfig
from repro.core.recpart import RecPartPartitioner, RecPartSPartitioner
from repro.cost.calibration import CalibrationResult, calibrate_running_time_model
from repro.cost.lower_bounds import compute_lower_bounds
from repro.cost.model import ModelCoefficients, RunningTimeModel, default_running_time_model
from repro.engine.engine import ParallelJoinEngine
from repro.exceptions import ReproError
from repro.experiments.runner import (
    ExperimentResult,
    MethodResult,
    default_partitioners,
    run_method,
    run_workload,
)
from repro.experiments import workloads as wl
from repro.experiments.workloads import Workload
from repro.metrics.measures import OverheadPoint
from repro.metrics.report import format_table


@dataclass
class TableReproduction:
    """One reproduced paper table: its experiments plus optional custom rows."""

    table_id: str
    title: str
    experiments: list[ExperimentResult] = field(default_factory=list)
    custom_headers: list[str] | None = None
    custom_rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def format(self) -> str:
        """Render the whole table reproduction as text."""
        sections = [f"=== {self.table_id}: {self.title} ==="]
        for experiment in self.experiments:
            sections.append(experiment.format())
        if self.custom_rows:
            sections.append(
                format_table(self.custom_headers or [], self.custom_rows, title=None)
            )
        for note in self.notes:
            sections.append(f"note: {note}")
        return "\n\n".join(sections)

    def overhead_points(self) -> list[OverheadPoint]:
        """Return every Figure-4 point contributed by this table."""
        points: list[OverheadPoint] = []
        for experiment in self.experiments:
            points.extend(experiment.overhead_points())
        return points

    def method_results(self, method: str) -> list[MethodResult]:
        """Return the per-workload results of one method across the table."""
        return [e.result_for(method) for e in self.experiments]


def _scaled(workload: Workload, scale: float) -> Workload:
    """Return the workload with its input size (and nothing else) scaled down."""
    if scale == 1.0:
        return workload
    rows = max(500, int(round(workload.rows_per_input * scale)))
    return replace(workload, rows_per_input=rows)


def _engine(weights: LoadWeights) -> ParallelJoinEngine:
    """Return the engine the tables execute on: the serial reference backend."""
    return ParallelJoinEngine(backend="serial", weights=weights)


def _run_table(
    table_id: str,
    title: str,
    workload_list: list[Workload],
    scale: float,
    verify: str,
    partitioners=None,
    weights: LoadWeights | None = None,
    cost_model: RunningTimeModel | None = None,
    seed: int = 0,
    notes: list[str] | None = None,
    **partitioner_flags,
) -> TableReproduction:
    """Shared driver: run every workload of a table with a partitioner set."""
    weights = weights if weights is not None else LoadWeights()
    cost_model = cost_model if cost_model is not None else default_running_time_model()
    experiments = []
    for workload in workload_list:
        scaled = _scaled(workload, scale)
        methods = (
            partitioners
            if partitioners is not None
            else default_partitioners(
                weights=weights, cost_model=cost_model, seed=seed, **partitioner_flags
            )
        )
        experiments.append(
            run_workload(
                scaled,
                partitioners=methods,
                weights=weights,
                cost_model=cost_model,
                verify=verify,
                seed=seed,
            )
        )
    return TableReproduction(
        table_id=table_id, title=title, experiments=experiments, notes=notes or []
    )


# ---------------------------------------------------------------------- #
# Table 2: impact of band width
# ---------------------------------------------------------------------- #
def table2a(scale: float = 1.0, verify: str = "none", seed: int = 0) -> TableReproduction:
    """Table 2a: 1D pareto-1.5, increasing band width."""
    return _run_table(
        "Table 2a",
        "pareto-1.5, d=1, varying band width",
        wl.table2a_workloads(),
        scale,
        verify,
        seed=seed,
        notes=["Grid-eps is undefined for band width 0 and reports 'failed' on that row."],
    )


def table2b(scale: float = 1.0, verify: str = "none", seed: int = 0) -> TableReproduction:
    """Table 2b: 3D pareto-1.5, increasing band width."""
    return _run_table(
        "Table 2b",
        "pareto-1.5, d=3, varying band width",
        wl.table2b_workloads(),
        scale,
        verify,
        seed=seed,
    )


def table2c(scale: float = 1.0, verify: str = "none", seed: int = 0) -> TableReproduction:
    """Table 2c: ebird joins cloud, d=3, increasing band width."""
    return _run_table(
        "Table 2c",
        "ebird joins cloud, d=3, varying band width",
        wl.table2c_workloads(),
        scale,
        verify,
        seed=seed,
    )


# ---------------------------------------------------------------------- #
# Table 3: skew resistance
# ---------------------------------------------------------------------- #
def table3(scale: float = 1.0, verify: str = "none", seed: int = 0) -> TableReproduction:
    """Table 3: pareto-z, d=3, increasing skew."""
    return _run_table(
        "Table 3",
        "skew resistance on pareto-z, d=3, band width 0.05",
        wl.table3_workloads(),
        scale,
        verify,
        seed=seed,
    )


# ---------------------------------------------------------------------- #
# Table 4: scalability
# ---------------------------------------------------------------------- #
def table4a(scale: float = 1.0, verify: str = "none", seed: int = 0) -> TableReproduction:
    """Table 4a: pareto-1.5 d=3, scaling input and workers together."""
    return _run_table(
        "Table 4a",
        "scalability on pareto-1.5, d=3 (input and workers scaled together)",
        wl.table4a_workloads(),
        scale,
        verify,
        seed=seed,
    )


def table4b(scale: float = 1.0, verify: str = "none", seed: int = 0) -> TableReproduction:
    """Table 4b: ebird joins cloud, scaling input and workers together."""
    return _run_table(
        "Table 4b",
        "scalability on ebird joins cloud (input and workers scaled together)",
        wl.table4b_workloads(),
        scale,
        verify,
        seed=seed,
    )


def table4c(scale: float = 1.0, verify: str = "none", seed: int = 0) -> TableReproduction:
    """Table 4c: 8D pareto-1.5, varying input size at fixed worker count."""
    return _run_table(
        "Table 4c",
        "8D pareto-1.5, varying input size",
        wl.table4c_workloads(),
        scale,
        verify,
        seed=seed,
        include_recpart_symmetric=True,
        notes=[
            "Grid-eps replication explodes exponentially with dimensionality; rows where it "
            "refuses to materialise the copies are reported as 'failed' (the paper's Grid-eps "
            "ran out of memory on its largest 8D workload)."
        ],
    )


def table4d(scale: float = 1.0, verify: str = "none", seed: int = 0) -> TableReproduction:
    """Table 4d: 8D pareto-1.5, varying the number of workers."""
    return _run_table(
        "Table 4d",
        "8D pareto-1.5, varying the number of workers",
        wl.table4d_workloads(),
        scale,
        verify,
        seed=seed,
        include_recpart_symmetric=True,
    )


# ---------------------------------------------------------------------- #
# Table 5: Grid-eps grid-size sweep vs Grid*
# ---------------------------------------------------------------------- #
def table5(scale: float = 1.0, verify: str = "none", seed: int = 0) -> TableReproduction:
    """Table 5: effect of grid size on Grid-eps, compared with Grid*, RecPart-S, CSIO, 1-Bucket."""
    weights = LoadWeights()
    cost_model = default_running_time_model()
    workload = _scaled(wl.table5_workload(), scale)
    s, t, condition = workload.build()
    engine = _engine(weights)
    bounds = compute_lower_bounds(s, t, condition, workload.workers, weights=weights)

    rows: list[list] = []
    for multiplier in wl.table5_grid_multipliers():
        partitioner = GridEpsilonPartitioner(multiplier=float(multiplier), weights=weights)
        result = run_method(
            partitioner, s, t, condition, workload.workers, bounds, engine,
            cost_model=cost_model, verify=verify,
        )
        label = f"Grid (cell = {multiplier} x eps)"
        if result.failed:
            rows.append([label, "failed", None, None, None, None])
        else:
            rows.append(
                [
                    label,
                    result.total_input,
                    result.max_worker_input,
                    result.max_worker_output,
                    result.predicted_join_time,
                    result.duplication_overhead,
                ]
            )
    comparison = [
        GridStarPartitioner(cost_model=cost_model, weights=weights),
        RecPartSPartitioner(cost_model=cost_model, weights=weights),
        CSIOPartitioner(weights=weights),
        OneBucketPartitioner(weights=weights),
    ]
    for partitioner in comparison:
        result = run_method(
            partitioner, s, t, condition, workload.workers, bounds, engine,
            cost_model=cost_model, verify=verify,
        )
        rows.append(
            [
                partitioner.name,
                result.total_input,
                result.max_worker_input,
                result.max_worker_output,
                result.predicted_join_time,
                result.duplication_overhead,
            ]
        )
    return TableReproduction(
        table_id="Table 5",
        title=f"Grid-eps grid-size sweep on {workload.name}",
        custom_headers=["method", "I", "I_m", "O_m", "est. join time", "dup overhead"],
        custom_rows=rows,
    )


# ---------------------------------------------------------------------- #
# Table 6: Grid* vs RecPart
# ---------------------------------------------------------------------- #
def table6(scale: float = 1.0, verify: str = "none", seed: int = 0) -> TableReproduction:
    """Table 6: Grid* vs RecPart on skewed and anti-correlated (reverse Pareto) data."""
    weights = LoadWeights()
    cost_model = default_running_time_model()
    partitioners = [
        RecPartPartitioner(cost_model=cost_model, weights=weights, seed=seed),
        GridStarPartitioner(cost_model=cost_model, weights=weights, seed=seed),
    ]
    return _run_table(
        "Table 6",
        "Grid* vs RecPart (skewed and reverse-Pareto data)",
        wl.table6_workloads(),
        scale,
        verify,
        partitioners=partitioners,
        weights=weights,
        cost_model=cost_model,
        seed=seed,
    )


# ---------------------------------------------------------------------- #
# Table 7 / Table 11: distributed IEJoin comparison
# ---------------------------------------------------------------------- #
def table7(scale: float = 1.0, verify: str = "none", seed: int = 0) -> TableReproduction:
    """Tables 7 and 11: RecPart-S vs distributed IEJoin across block sizes."""
    weights = LoadWeights()
    cost_model = default_running_time_model()
    engine = _engine(weights)
    rows: list[list] = []
    for workload in wl.table7_workloads():
        scaled = _scaled(workload, scale)
        s, t, condition = scaled.build()
        bounds = compute_lower_bounds(s, t, condition, scaled.workers, weights=weights)
        recpart = run_method(
            RecPartSPartitioner(cost_model=cost_model, weights=weights, seed=seed),
            s,
            t,
            condition,
            scaled.workers,
            bounds,
            engine,
            cost_model=cost_model,
            verify=verify,
        )
        rows.append(
            [
                scaled.name,
                "RecPart-S",
                None,
                recpart.predicted_join_time,
                recpart.total_input,
                recpart.max_worker_input,
                recpart.max_worker_output,
            ]
        )
        for block_size in wl.table7_block_sizes():
            scaled_block = max(50, int(round(block_size * scale)))
            iejoin = run_method(
                IEJoinPartitioner(size_per_block=scaled_block, weights=weights, seed=seed),
                s,
                t,
                condition,
                scaled.workers,
                bounds,
                engine,
                cost_model=cost_model,
                verify=verify,
            )
            rows.append(
                [
                    scaled.name,
                    "IEJoin",
                    scaled_block,
                    iejoin.predicted_join_time,
                    iejoin.total_input,
                    iejoin.max_worker_input,
                    iejoin.max_worker_output,
                ]
            )
    return TableReproduction(
        table_id="Table 7 / Table 11",
        title="RecPart-S vs distributed IEJoin (sizePerBlock sweep)",
        custom_headers=["workload", "method", "sizePerBlock", "est. join time", "I", "I_m", "O_m"],
        custom_rows=rows,
    )


# ---------------------------------------------------------------------- #
# Table 8 / Table 13: impact of the local-join cost ratio
# ---------------------------------------------------------------------- #
def table8(scale: float = 1.0, verify: str = "none", seed: int = 0) -> TableReproduction:
    """Tables 8 and 13: varying the shuffle-vs-local-cost ratio (beta2 / beta1).

    RecPart re-optimises for every ratio (its cost model changes), while the
    competitors ignore the ratio by design, so their partitionings are
    computed once.
    """
    weights = LoadWeights()
    workload = _scaled(wl.table8_workload(), scale)
    s, t, condition = workload.build()
    bounds = compute_lower_bounds(s, t, condition, workload.workers, weights=weights)

    rows: list[list] = []
    competitor_results: dict[str, MethodResult] = {}
    engine = _engine(weights)
    for partitioner in (
        CSIOPartitioner(weights=weights, seed=seed),
        OneBucketPartitioner(weights=weights, seed=seed),
        GridEpsilonPartitioner(weights=weights, seed=seed),
    ):
        competitor_results[partitioner.name] = run_method(
            partitioner, s, t, condition, workload.workers, bounds, engine, verify=verify
        )

    for ratio in wl.table8_beta_ratios():
        # beta1 (shuffle weight) fixed to 1, local weights scaled by the ratio.
        model = RunningTimeModel(
            ModelCoefficients(
                beta0=0.0,
                beta1=1.0,
                beta2=ratio * weights.beta_input,
                beta3=ratio * weights.beta_output,
            )
        )
        recpart = run_method(
            RecPartPartitioner(cost_model=model, weights=weights, seed=seed),
            s,
            t,
            condition,
            workload.workers,
            bounds,
            engine,
            cost_model=model,
            verify=verify,
        )
        local_overhead = (
            weights.beta_input * recpart.max_worker_input
            + weights.beta_output * recpart.max_worker_output
        )
        row = [ratio, recpart.total_input, local_overhead]
        for name in ("CSIO", "1-Bucket", "Grid-eps"):
            competitor = competitor_results[name]
            if competitor.failed:
                row.extend([None, None])
                continue
            competitor_local = (
                weights.beta_input * competitor.max_worker_input
                + weights.beta_output * competitor.max_worker_output
            )
            row.extend([competitor.total_input, competitor_local])
        rows.append(row)
    return TableReproduction(
        table_id="Table 8 / Table 13",
        title=f"Impact of the beta2/beta1 ratio on {workload.name}",
        custom_headers=[
            "beta2/beta1",
            "RecPart I",
            "RecPart 4*I_m+O_m",
            "CSIO I",
            "CSIO 4*I_m+O_m",
            "1-Bucket I",
            "1-Bucket 4*I_m+O_m",
            "Grid I",
            "Grid 4*I_m+O_m",
        ],
        custom_rows=rows,
        notes=[
            "As the local-cost weight grows, RecPart trades a little extra duplication for a "
            "lower max worker load; the competitors ignore the ratio."
        ],
    )


# ---------------------------------------------------------------------- #
# Table 9 / Table 14: symmetric partitioning
# ---------------------------------------------------------------------- #
def table9(scale: float = 1.0, verify: str = "none", seed: int = 0) -> TableReproduction:
    """Tables 9 and 14: RecPart-S vs RecPart (benefit of symmetric splits)."""
    weights = LoadWeights()
    cost_model = default_running_time_model()
    engine = _engine(weights)
    rows: list[list] = []
    for workload in wl.table9_workloads():
        scaled = _scaled(workload, scale)
        s, t, condition = scaled.build()
        bounds = compute_lower_bounds(s, t, condition, scaled.workers, weights=weights)
        row: list = [scaled.name]
        times: dict[str, float | None] = {}
        for partitioner in (
            RecPartSPartitioner(cost_model=cost_model, weights=weights, seed=seed),
            RecPartPartitioner(cost_model=cost_model, weights=weights, seed=seed),
        ):
            result = run_method(
                partitioner, s, t, condition, scaled.workers, bounds, engine,
                cost_model=cost_model, verify=verify,
            )
            imbalance = (
                result.max_worker_load
                / (weights.load(result.total_input, result.total_output) / scaled.workers)
                if result.total_input
                else 1.0
            )
            times[partitioner.name] = result.predicted_join_time
            row.extend(
                [
                    result.total_input,
                    result.max_worker_input,
                    result.max_worker_output,
                    imbalance,
                    result.predicted_join_time,
                ]
            )
        ratio = None
        if times.get("RecPart-S") and times.get("RecPart"):
            ratio = times["RecPart"] / times["RecPart-S"]
        row.append(ratio)
        rows.append(row)
    return TableReproduction(
        table_id="Table 9 / Table 14",
        title="RecPart-S vs RecPart (symmetric partitioning)",
        custom_headers=[
            "workload",
            "RecPart-S I",
            "RecPart-S I_m",
            "RecPart-S O_m",
            "RecPart-S imbalance",
            "RecPart-S est. time",
            "RecPart I",
            "RecPart I_m",
            "RecPart O_m",
            "RecPart imbalance",
            "RecPart est. time",
            "time ratio RecPart/RecPart-S",
        ],
        custom_rows=rows,
    )


# ---------------------------------------------------------------------- #
# Table 12 / Figure 9: running-time model accuracy
# ---------------------------------------------------------------------- #
def table12(
    scale: float = 1.0,
    verify: str = "none",
    seed: int = 0,
    calibration: CalibrationResult | None = None,
) -> TableReproduction:
    """Table 12: predicted vs measured join time for every method and workload.

    The model is calibrated on in-process local-join micro-benchmarks (the
    paper's procedure against this machine); the "actual" time of a
    distributed execution on the serial engine is the most loaded worker's measured local-join
    time plus the measured per-tuple shuffle proxy times the total input.
    """
    calibration = (
        calibration
        if calibration is not None
        else calibrate_running_time_model(n_queries=16, base_input=3000, seed=seed)
    )
    model = calibration.model
    weights = LoadWeights()
    engine = _engine(weights)

    rows: list[list] = []
    errors: list[float] = []
    for workload in wl.table12_workloads():
        scaled = _scaled(workload, scale)
        s, t, condition = scaled.build()
        bounds = compute_lower_bounds(s, t, condition, scaled.workers, weights=weights)
        for partitioner in default_partitioners(weights=weights, cost_model=model, seed=seed):
            try:
                partitioning = partitioner.partition(s, t, condition, scaled.workers)
                execution = engine.execute(s, t, condition, partitioning, verify=verify)
            except ReproError:
                rows.append([scaled.name, partitioner.name, None, None, None])
                continue
            predicted = model.predict(
                execution.total_input,
                execution.max_worker_input,
                execution.max_worker_output,
            )
            actual = (
                execution.job.max_local_seconds
                + calibration.shuffle_cost_per_tuple * execution.total_input
            )
            if actual <= 0:
                continue
            error = (predicted - actual) / actual
            errors.append(error)
            rows.append([scaled.name, partitioner.name, predicted, actual, error])
    return TableReproduction(
        table_id="Table 12 / Figure 9",
        title="Running-time model accuracy (predicted vs measured join time)",
        custom_headers=["workload", "method", "predicted [s]", "actual [s]", "relative error"],
        custom_rows=rows,
        notes=[
            f"mean absolute relative error: {float(np.mean(np.abs(errors))):.3f}"
            if errors
            else "no timings collected"
        ],
    )


# ---------------------------------------------------------------------- #
# Table 15: dimensionality sweep
# ---------------------------------------------------------------------- #
def table15(scale: float = 1.0, verify: str = "none", seed: int = 0) -> TableReproduction:
    """Table 15: multidimensional joins on pareto-1.5, d in {1, 2, 4, 8}."""
    return _run_table(
        "Table 15",
        "dimensionality sweep on pareto-1.5, band width 0.05 per dimension",
        wl.table15_workloads(),
        scale,
        verify,
        seed=seed,
        include_recpart_symmetric=True,
    )


# ---------------------------------------------------------------------- #
# Table 16: theoretical termination condition on PTF data
# ---------------------------------------------------------------------- #
def table16(scale: float = 1.0, verify: str = "none", seed: int = 0) -> TableReproduction:
    """Table 16: RecPart with the theoretical termination condition on PTF-like data."""
    weights = LoadWeights()
    cost_model = default_running_time_model()
    config = RecPartConfig(termination="theoretical")
    partitioners = [
        RecPartPartitioner(config=config, cost_model=cost_model, weights=weights, seed=seed),
        CSIOPartitioner(weights=weights, seed=seed),
        OneBucketPartitioner(weights=weights, seed=seed),
        GridEpsilonPartitioner(weights=weights, seed=seed),
    ]
    return _run_table(
        "Table 16",
        "PTF celestial matching, RecPart with the theoretical termination condition",
        wl.table16_workloads(),
        scale,
        verify,
        partitioners=partitioners,
        weights=weights,
        cost_model=cost_model,
        seed=seed,
    )


#: All table functions keyed by their public identifier (used by the CLI).
ALL_TABLES = {
    "2a": table2a,
    "2b": table2b,
    "2c": table2c,
    "3": table3,
    "4a": table4a,
    "4b": table4b,
    "4c": table4c,
    "4d": table4d,
    "5": table5,
    "6": table6,
    "7": table7,
    "8": table8,
    "9": table9,
    "12": table12,
    "15": table15,
    "16": table16,
}
