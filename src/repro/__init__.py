"""repro — reproduction of "Near-Optimal Distributed Band-Joins through
Recursive Partitioning" (Li, Gatterbauer, Riedewald; SIGMOD 2020).

The package implements the paper's contribution (the RecPart recursive
partitioner) together with every substrate its evaluation depends on:
synthetic and real-data-shaped workload generators, input/output sampling,
local band-join algorithms, the baseline partitioners (1-Bucket, Grid-eps,
Grid*, CSIO, distributed IEJoin), a parallel execution engine with
pluggable backends, per-worker accounting and plan caching
(:mod:`repro.engine`), the calibrated
running-time model, and an experiment harness that regenerates every table
and figure of the paper's evaluation section.

Quickstart
----------
>>> import repro
>>> s, t = repro.correlated_pair(20_000, 20_000, dimensions=3, z=1.5, seed=0)
>>> condition = repro.BandCondition.symmetric(["A1", "A2", "A3"], 0.05)
>>> partitioning = repro.RecPartPartitioner().partition(s, t, condition, workers=8)
>>> engine = repro.ParallelJoinEngine(backend="serial")
>>> result = engine.execute(s, t, condition, partitioning, verify="count")
>>> result.total_output == result.exact_output
True
>>> result.duplication_ratio < 0.1
True
"""

from repro.config import EngineConfig, LoadWeights, RecPartConfig, ServiceConfig
from repro.exceptions import (
    BandConditionError,
    CostModelError,
    ExecutionError,
    NonFiniteInputError,
    OptimizationError,
    PartitioningError,
    ReproError,
    SamplingError,
    SchemaError,
    ServiceError,
    ServiceOverloadError,
    WorkloadError,
)
from repro.geometry.band import BandCondition
from repro.geometry.region import Region
from repro.data.relation import Relation
from repro.data.generators import (
    clustered_relation,
    correlated_pair,
    normal_relation,
    pareto_relation,
    reverse_pareto_relation,
    uniform_relation,
    zipf_relation,
)
from repro.data.synthetic_real import (
    cloud_reports_like,
    ebird_cloud_pair,
    ebird_like,
    ptf_objects_like,
)
from repro.sampling.input_sampler import InputSample, draw_input_sample
from repro.sampling.output_sampler import OutputSample, draw_output_sample
from repro.local_join.nested_loop import NestedLoopJoin
from repro.local_join.index_nested_loop import IndexNestedLoopJoin
from repro.local_join.sort_band import SortSweepJoin
from repro.local_join.iejoin_local import IEJoinLocal
from repro.core.partitioner import JoinPartitioning, Partitioner, PartitioningStats
from repro.core.recpart import RecPartPartitioner, RecPartSPartitioner
from repro.core.split_tree import SplitTree, SplitTreePartitioning
from repro.baselines.one_bucket import OneBucketPartitioner
from repro.baselines.grid import GridEpsilonPartitioner
from repro.baselines.grid_star import GridStarPartitioner
from repro.baselines.csio import CSIOPartitioner
from repro.baselines.iejoin import IEJoinPartitioner
from repro.engine import EngineResult, ParallelJoinEngine, PlanCache, available_backends
from repro.service import (
    BandJoinService,
    PreparedQuery,
    QueryResult,
    QueryScheduler,
    RelationCatalog,
)
from repro.cost.model import ModelCoefficients, RunningTimeModel, default_running_time_model
from repro.cost.calibration import calibrate_running_time_model
from repro.cost.lower_bounds import LowerBounds, compute_lower_bounds
from repro.metrics.measures import OverheadPoint, overhead_point

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration / errors
    "LoadWeights",
    "RecPartConfig",
    "ReproError",
    "SchemaError",
    "BandConditionError",
    "PartitioningError",
    "OptimizationError",
    "SamplingError",
    "CostModelError",
    "ExecutionError",
    "NonFiniteInputError",
    "WorkloadError",
    # geometry and data
    "BandCondition",
    "Region",
    "Relation",
    "pareto_relation",
    "reverse_pareto_relation",
    "uniform_relation",
    "normal_relation",
    "zipf_relation",
    "clustered_relation",
    "correlated_pair",
    "ebird_like",
    "cloud_reports_like",
    "ebird_cloud_pair",
    "ptf_objects_like",
    # sampling
    "InputSample",
    "OutputSample",
    "draw_input_sample",
    "draw_output_sample",
    # local joins
    "NestedLoopJoin",
    "IndexNestedLoopJoin",
    "SortSweepJoin",
    "IEJoinLocal",
    # partitioners
    "Partitioner",
    "JoinPartitioning",
    "PartitioningStats",
    "RecPartPartitioner",
    "RecPartSPartitioner",
    "SplitTree",
    "SplitTreePartitioning",
    "OneBucketPartitioner",
    "GridEpsilonPartitioner",
    "GridStarPartitioner",
    "CSIOPartitioner",
    "IEJoinPartitioner",
    # execution
    "ParallelJoinEngine",
    "EngineResult",
    "PlanCache",
    "available_backends",
    "EngineConfig",
    # serving layer
    "BandJoinService",
    "RelationCatalog",
    "PreparedQuery",
    "QueryResult",
    "QueryScheduler",
    "ServiceConfig",
    "ServiceError",
    "ServiceOverloadError",
    # cost model and metrics
    "ModelCoefficients",
    "RunningTimeModel",
    "default_running_time_model",
    "calibrate_running_time_model",
    "LowerBounds",
    "compute_lower_bounds",
    "OverheadPoint",
    "overhead_point",
]
