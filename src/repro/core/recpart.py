"""RecPart: recursive partitioning for distributed band-joins (paper Algorithm 1).

The optimizer grows a split tree from a single root partition.  In every
iteration it pops the leaf with the highest split score from a priority
queue, applies that leaf's best split (a regular recursive split, or an
internal 1-Bucket grid refinement for small leaves), re-scores the affected
leaves, and records the quality of the resulting partitioning with a
termination tracker.  When the tracker signals convergence, the best
partitioning seen so far is frozen into an executable
:class:`~repro.core.split_tree.SplitTreePartitioning`.

Two public partitioner classes are exported:

* :class:`RecPartPartitioner` — the full algorithm with symmetric splits
  (may duplicate S or T at each boundary, whichever is cheaper),
* :class:`RecPartSPartitioner` — the restricted "RecPart-S" variant used in
  most of the paper's comparisons, which always duplicates T.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

from repro.config import DEFAULT_SEED, LoadWeights, RecPartConfig
from repro.core.partition import OptimizationContext
from repro.core.partitioner import Partitioner, PartitioningStats
from repro.core.split import find_best_split
from repro.core.split_tree import SplitTree, SplitTreePartitioning
from repro.core.termination import (
    CostModelTermination,
    TerminationTracker,
    TheoreticalTermination,
)
from repro.cost.model import RunningTimeModel, default_running_time_model
from repro.data.relation import Relation
from repro.exceptions import OptimizationError
from repro.geometry.band import BandCondition
from repro.sampling.input_sampler import draw_input_sample
from repro.sampling.output_sampler import draw_output_sample


class RecPartPartitioner(Partitioner):
    """Recursive partitioning of the join-attribute space (the paper's contribution).

    Parameters
    ----------
    config:
        Algorithm knobs (sample size, symmetric mode, termination condition,
        small-partition threshold); see :class:`repro.config.RecPartConfig`.
    cost_model:
        Running-time model used by the applied termination condition and by
        the quality tracking; a default cluster-shaped model is used when
        omitted.
    weights:
        Load weights (beta2, beta3); taken from ``config`` when omitted.
    seed:
        Seed of the default random generator (sampling, 1-Bucket hashing).
    """

    name = "RecPart"

    def __init__(
        self,
        config: RecPartConfig | None = None,
        cost_model: RunningTimeModel | None = None,
        weights: LoadWeights | None = None,
        seed: int = DEFAULT_SEED,
    ) -> None:
        self.config = config if config is not None else RecPartConfig()
        effective_weights = weights if weights is not None else self.config.weights
        super().__init__(weights=effective_weights, seed=seed)
        self.cost_model = (
            cost_model
            if cost_model is not None
            else default_running_time_model(beta_ratio=self.weights.ratio if np.isfinite(self.weights.ratio) else 4.0)
        )

    # ------------------------------------------------------------------ #
    # Partitioner API
    # ------------------------------------------------------------------ #
    def partition(
        self,
        s: Relation,
        t: Relation,
        condition: BandCondition,
        workers: int,
        rng: np.random.Generator | None = None,
    ) -> SplitTreePartitioning:
        self._validate_inputs(s, t, condition, workers)
        rng = self._rng(rng)
        start = time.perf_counter()

        ctx = self._build_context(s, t, condition, workers, rng)
        tree = SplitTree(ctx)
        tracker = self._build_tracker(ctx)
        iterations = self._grow_tree(tree, tracker, workers)

        snapshot = tracker.best_snapshot or tree.snapshot()
        optimization_seconds = time.perf_counter() - start
        stats = PartitioningStats(
            optimization_seconds=optimization_seconds,
            iterations=iterations,
            estimated_total_input=(
                tracker.best_estimate.total_input if tracker.best_estimate else None
            ),
            estimated_max_load=(
                tracker.best_estimate.max_worker_load if tracker.best_estimate else None
            ),
            estimated_output=ctx.output_sample.estimated_output,
            extra={
                "leaves": len(snapshot),
                "symmetric": ctx.symmetric,
                "termination": self.config.termination,
            },
        )
        return tree.build_partitioning(
            snapshot=snapshot,
            workers=workers,
            method=self.name,
            stats=stats,
            seed=int(rng.integers(0, 2**31 - 1)),
        )

    # ------------------------------------------------------------------ #
    # Building blocks
    # ------------------------------------------------------------------ #
    def _build_context(
        self,
        s: Relation,
        t: Relation,
        condition: BandCondition,
        workers: int,
        rng: np.random.Generator,
    ) -> OptimizationContext:
        """Draw the input and output samples and bundle the optimization context."""
        sample_size = self.config.sample_size
        input_sample = draw_input_sample(s, t, condition, sample_size, rng)
        output_sample = draw_output_sample(s, t, condition, max(1, sample_size // 2), rng)
        return OptimizationContext(
            condition=condition,
            workers=workers,
            weights=self.weights,
            input_sample=input_sample,
            output_sample=output_sample,
            symmetric=self.config.symmetric,
            small_partition_factor=self.config.small_partition_factor,
            scoring_mode=self.config.scoring,
        )

    def _build_tracker(self, ctx: OptimizationContext) -> TerminationTracker:
        """Instantiate the termination tracker selected in the configuration."""
        if self.config.termination == "theoretical":
            return TheoreticalTermination(ctx)
        # The paper uses a window of w iterations on its 30-60 node clusters;
        # for the small clusters used here the same "small multiple
        # of w" reasoning needs a floor, otherwise a brief plateau (e.g. while
        # several sparse leaves are trimmed before the dense core is split)
        # terminates the search prematurely.
        return CostModelTermination(
            ctx,
            cost_model=self.cost_model,
            window=max(2 * ctx.workers, 16),
            improvement_threshold=self.config.improvement_threshold,
        )

    def _grow_tree(
        self, tree: SplitTree, tracker: TerminationTracker, workers: int
    ) -> int:
        """Run the repeat-loop of Algorithm 1; returns the number of iterations."""
        ctx = tree.ctx
        heap: list[tuple[tuple[int, float], int, int, int]] = []
        counter = 0

        def push(leaf) -> None:
            nonlocal counter
            decision = find_best_split(leaf, ctx)
            leaf.best_split = decision
            leaf.top_score = decision.score if decision is not None else None
            if decision is None:
                return
            counter += 1
            # heapq is a min-heap; negate the score ordering key.
            key = (-decision.score.rank, -decision.score.value)
            heapq.heappush(heap, (key, counter, leaf.node_id, leaf.version))

        root_leaf = tree.root.leaf
        push(root_leaf)
        tracker.record(tree.leaves(), tree.snapshot())

        iteration = 0
        cap = self.config.iteration_cap(workers)
        while heap and iteration < cap:
            _, _, node_id, version = heapq.heappop(heap)
            leaf = tree.node(node_id).leaf
            if leaf.version != version or leaf.best_split is None:
                continue  # Stale queue entry (leaf already split or re-scored).
            affected = tree.apply_split(node_id, leaf.best_split)
            iteration += 1
            for new_leaf in affected:
                push(new_leaf)
            tracker.record(tree.leaves(), tree.snapshot())
            if tracker.should_stop():
                break
        return iteration


class RecPartSPartitioner(RecPartPartitioner):
    """RecPart-S: RecPart without symmetric partitioning (T is always duplicated).

    The paper uses this variant for most comparisons against the grid-style
    baselines so that all of RecPart's advantage is attributable to better
    split boundaries rather than to the symmetric-split extension.
    """

    name = "RecPart-S"

    def __init__(
        self,
        config: RecPartConfig | None = None,
        cost_model: RunningTimeModel | None = None,
        weights: LoadWeights | None = None,
        seed: int = DEFAULT_SEED,
    ) -> None:
        base = config if config is not None else RecPartConfig()
        forced = RecPartConfig(
            sample_size=base.sample_size,
            symmetric=False,
            small_partition_factor=base.small_partition_factor,
            max_iterations=base.max_iterations,
            termination=base.termination,
            improvement_threshold=base.improvement_threshold,
            scoring=base.scoring,
            weights=base.weights,
        )
        super().__init__(config=forced, cost_model=cost_model, weights=weights, seed=seed)


def _ensure_optimizer_invariants(partitioning: SplitTreePartitioning) -> None:
    """Internal sanity check used by tests: a partitioning must have at least one unit."""
    if partitioning.n_units < 1:
        raise OptimizationError("RecPart produced a partitioning without execution units")
