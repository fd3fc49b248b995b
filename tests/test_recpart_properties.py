"""Property-based tests of RecPart's core invariants (hypothesis).

These drive the full optimizer + engine pipeline with randomly generated
small inputs and check the invariants that must hold for *any* input:

* every input tuple reaches at least one worker,
* the distributed output equals the single-machine join exactly,
* total input never drops below |S| + |T|,
* the partitioned (non-duplicated) side is never replicated by tree splits.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import RecPartConfig
from repro.core.recpart import RecPartPartitioner, RecPartSPartitioner
from repro.data.relation import Relation
from repro.engine import ParallelJoinEngine
from repro.geometry.band import BandCondition


@st.composite
def band_join_instances(draw):
    """Random small band-join instances: clustered or uniform values, 1-2 dims."""
    dims = draw(st.integers(1, 2))
    n_s = draw(st.integers(5, 120))
    n_t = draw(st.integers(5, 120))
    epsilon = draw(st.floats(0.0, 2.0))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    style = draw(st.sampled_from(["uniform", "clustered", "skewed"]))
    if style == "uniform":
        s_values = rng.uniform(0, 10, size=(n_s, dims))
        t_values = rng.uniform(0, 10, size=(n_t, dims))
    elif style == "clustered":
        centers = rng.uniform(0, 10, size=(3, dims))
        s_values = centers[rng.integers(0, 3, n_s)] + rng.normal(0, 0.5, (n_s, dims))
        t_values = centers[rng.integers(0, 3, n_t)] + rng.normal(0, 0.5, (n_t, dims))
    else:
        s_values = rng.pareto(1.5, size=(n_s, dims)) + 1.0
        t_values = rng.pareto(1.5, size=(n_t, dims)) + 1.0
    attrs = [f"A{i+1}" for i in range(dims)]
    s = Relation("S", {a: s_values[:, i] for i, a in enumerate(attrs)})
    t = Relation("T", {a: t_values[:, i] for i, a in enumerate(attrs)})
    condition = BandCondition.symmetric(attrs, epsilon)
    workers = draw(st.integers(1, 5))
    return s, t, condition, workers


_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@_SETTINGS
@given(instance=band_join_instances(), symmetric=st.booleans())
def test_recpart_produces_exact_output_on_any_input(instance, symmetric):
    s, t, condition, workers = instance
    partitioner_cls = RecPartPartitioner if symmetric else RecPartSPartitioner
    config = RecPartConfig(sample_size=256)
    partitioning = partitioner_cls(config=config).partition(s, t, condition, workers)
    result = ParallelJoinEngine("serial").execute(
        s, t, condition, partitioning, verify="pairs"
    )
    assert result.total_output == result.exact_output
    assert result.total_input >= len(s) + len(t)


@_SETTINGS
@given(instance=band_join_instances())
def test_recpart_s_never_duplicates_the_partitioned_side(instance):
    """RecPart-S only uses T-splits, so S-tuples reach exactly one leaf — its
    only possible replication comes from small-leaf 1-Bucket columns."""
    s, t, condition, workers = instance
    config = RecPartConfig(sample_size=256)
    partitioning = RecPartSPartitioner(config=config).partition(s, t, condition, workers)
    matrix = s.join_matrix(condition.attributes)
    counts = partitioning.replication_counts(matrix, "S")
    info = partitioning.describe()
    if info["small_leaves_in_grid_mode"] == 0:
        assert counts.max(initial=1) == 1
    assert counts.min(initial=1) >= 1


@_SETTINGS
@given(instance=band_join_instances())
def test_equi_join_never_duplicates(instance):
    """With all band widths zero nothing is ever within band width of a split."""
    s, t, _, workers = instance
    condition = BandCondition.symmetric(
        [f"A{i+1}" for i in range(len(s.column_names))], 0.0
    )
    config = RecPartConfig(sample_size=256)
    partitioning = RecPartPartitioner(config=config).partition(s, t, condition, workers)
    result = ParallelJoinEngine("serial").execute(s, t, condition, partitioning, verify="count")
    info = partitioning.describe()
    if info["small_leaves_in_grid_mode"] == 0:
        assert result.total_input == len(s) + len(t)
