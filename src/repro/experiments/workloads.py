"""Workload definitions: scaled-down analogues of the paper's Table 1 / Table 10.

The paper evaluates on inputs of 200-800 million tuples on a 30-node EMR
cluster.  This reproduction uses the same data *distributions* at
laptop-scale cardinalities (default 50,000 tuples per input, 8 partition
workers) with band widths re-calibrated so that the output-size / input-size
ratios land in the same regimes as the corresponding paper workloads
(selective joins with output below input size up to heavy joins with output
tens of times the input).  DESIGN.md documents the substitution; the module
docstrings of :mod:`repro.data.generators` and
:mod:`repro.data.synthetic_real` describe the generators.

Every paper table has a ``table*_workloads()`` function here returning the
workloads that its reproduction in :mod:`repro.experiments.tables` runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.config import DEFAULT_SEED
from repro.data.generators import (
    pareto_relation,
    reverse_pareto_relation,
)
from repro.data.relation import Relation
from repro.data.synthetic_real import (
    SPATIOTEMPORAL_ATTRIBUTES,
    cloud_reports_like,
    ebird_like,
    ptf_objects_like,
)
from repro.exceptions import WorkloadError
from repro.geometry.band import BandCondition

#: Default tuples per input relation (the paper uses 200 million).
DEFAULT_ROWS_PER_INPUT: int = 50_000

#: Default number of partition workers (the paper uses 30 EMR nodes).
DEFAULT_WORKLOAD_WORKERS: int = 8

#: Decimal rounding applied to the 1D Pareto data so the equi-join
#: (band width 0) workload produces output, as in the paper.
PARETO_1D_DECIMALS: int = 5


@dataclass(frozen=True)
class Workload:
    """One band-join problem instance: dataset, band widths and cluster size.

    Attributes
    ----------
    name:
        Short unique identifier used in reports (e.g. ``"pareto-1.5-3d-w0.05"``).
    description:
        Human-readable description.
    dataset:
        Dataset family: ``"pareto"``, ``"rv-pareto"``, ``"ebird-cloud"`` or ``"ptf"``.
    dimensions:
        Number of join attributes.
    band_widths:
        Band width per join attribute.
    rows_per_input:
        Number of tuples generated per input relation.
    workers:
        Number of partition workers.
    skew:
        Pareto shape parameter ``z`` (ignored by the non-Pareto datasets).
    seed:
        Base random seed of the data generation.
    """

    name: str
    description: str
    dataset: str
    dimensions: int
    band_widths: tuple[float, ...]
    rows_per_input: int = DEFAULT_ROWS_PER_INPUT
    workers: int = DEFAULT_WORKLOAD_WORKERS
    skew: float = 1.5
    seed: int = DEFAULT_SEED
    decimals: int | None = None
    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.dataset not in ("pareto", "rv-pareto", "ebird-cloud", "ptf"):
            raise WorkloadError(f"unknown dataset family {self.dataset!r}")
        if len(self.band_widths) != self.dimensions:
            raise WorkloadError(
                f"workload {self.name!r}: {len(self.band_widths)} band widths for "
                f"{self.dimensions} dimensions"
            )
        if self.rows_per_input < 1:
            raise WorkloadError("rows_per_input must be positive")
        if self.workers < 1:
            raise WorkloadError("workers must be positive")

    # ------------------------------------------------------------------ #
    # Construction of the problem instance
    # ------------------------------------------------------------------ #
    def attributes(self) -> tuple[str, ...]:
        """Return the join attributes of the workload."""
        if self.dataset == "ebird-cloud":
            return SPATIOTEMPORAL_ATTRIBUTES
        if self.dataset == "ptf":
            return ("ra", "dec")
        return tuple(f"A{i + 1}" for i in range(self.dimensions))

    def condition(self) -> BandCondition:
        """Return the band condition of the workload."""
        return BandCondition.symmetric(self.attributes(), list(self.band_widths))

    def build(self) -> tuple[Relation, Relation, BandCondition]:
        """Generate the two input relations and the band condition."""
        n = self.rows_per_input
        if self.dataset == "pareto":
            rng = np.random.default_rng(self.seed)
            s = pareto_relation(
                "S", n, dimensions=self.dimensions, z=self.skew, seed=rng, decimals=self.decimals
            )
            t = pareto_relation(
                "T", n, dimensions=self.dimensions, z=self.skew, seed=rng, decimals=self.decimals
            )
        elif self.dataset == "rv-pareto":
            rng = np.random.default_rng(self.seed)
            s = pareto_relation("S", n, dimensions=self.dimensions, z=self.skew, seed=rng)
            t = reverse_pareto_relation("T", n, dimensions=self.dimensions, z=self.skew, seed=rng)
        elif self.dataset == "ebird-cloud":
            s = ebird_like(n, seed=self.seed)
            t = cloud_reports_like(n, seed=self.seed + 1)
        elif self.dataset == "ptf":
            # A single observation set split in half: both sides observe the
            # same underlying celestial sources, as in the paper's self-match.
            full = ptf_objects_like(2 * n, seed=self.seed)
            order = np.random.default_rng(self.seed + 7).permutation(2 * n)
            s = full.take(order[:n], name="ptf_S")
            t = full.take(order[n:], name="ptf_T")
        else:  # pragma: no cover - guarded by __post_init__
            raise WorkloadError(f"unknown dataset family {self.dataset!r}")
        return s, t, self.condition()

    # ------------------------------------------------------------------ #
    # Convenience derivation
    # ------------------------------------------------------------------ #
    def scaled(self, rows_per_input: int, workers: int, suffix: str = "") -> "Workload":
        """Return a copy with a different input size / cluster size (scalability runs)."""
        return replace(
            self,
            name=f"{self.name}{suffix or f'-{rows_per_input}x{workers}'}",
            rows_per_input=rows_per_input,
            workers=workers,
        )

    def label(self) -> str:
        """Return a compact label for figures: dataset, dimensionality, band width."""
        widths = ",".join(f"{w:g}" for w in self.band_widths)
        return f"{self.dataset}-d{self.dimensions}-eps({widths})-w{self.workers}"


# ---------------------------------------------------------------------- #
# Workload families mirroring paper Table 1 / Table 10
# ---------------------------------------------------------------------- #
def pareto_workload(
    band_width: float | tuple[float, ...],
    dimensions: int = 3,
    skew: float = 1.5,
    rows_per_input: int = DEFAULT_ROWS_PER_INPUT,
    workers: int = DEFAULT_WORKLOAD_WORKERS,
    reverse: bool = False,
    decimals: int | None = None,
    seed: int = DEFAULT_SEED,
) -> Workload:
    """Build one Pareto-family workload (the paper's ``pareto-z`` / ``rv-pareto-z``)."""
    widths = (
        tuple(float(band_width) for _ in range(dimensions))
        if isinstance(band_width, (int, float))
        else tuple(float(x) for x in band_width)
    )
    family = "rv-pareto" if reverse else "pareto"
    name = f"{family}-{skew:g}-d{dimensions}-eps{widths[0]:g}"
    return Workload(
        name=name,
        description=f"{family}-{skew:g}, d={dimensions}, band width {widths}",
        dataset=family,
        dimensions=dimensions,
        band_widths=widths,
        rows_per_input=rows_per_input,
        workers=workers,
        skew=skew,
        decimals=decimals,
        seed=seed,
    )


def ebird_cloud_workload(
    band_width: float | tuple[float, ...],
    rows_per_input: int = DEFAULT_ROWS_PER_INPUT,
    workers: int = DEFAULT_WORKLOAD_WORKERS,
    seed: int = DEFAULT_SEED,
) -> Workload:
    """Build one ebird-joins-cloud workload (3D spatio-temporal band-join)."""
    widths = (
        tuple(float(band_width) for _ in range(3))
        if isinstance(band_width, (int, float))
        else tuple(float(x) for x in band_width)
    )
    return Workload(
        name=f"ebird-cloud-eps{widths[0]:g}",
        description=f"ebird joins cloud on (time, lat, lon), band width {widths}",
        dataset="ebird-cloud",
        dimensions=3,
        band_widths=widths,
        rows_per_input=rows_per_input,
        workers=workers,
        seed=seed,
    )


def ptf_workload(
    band_width: float,
    rows_per_input: int = DEFAULT_ROWS_PER_INPUT,
    workers: int = DEFAULT_WORKLOAD_WORKERS,
    seed: int = DEFAULT_SEED,
) -> Workload:
    """Build one PTF celestial-object matching workload (2D band self-match)."""
    return Workload(
        name=f"ptf-eps{band_width:g}",
        description=f"PTF objects self-match on (ra, dec), band width {band_width:g}",
        dataset="ptf",
        dimensions=2,
        band_widths=(float(band_width), float(band_width)),
        rows_per_input=rows_per_input,
        workers=workers,
        seed=seed,
    )


# -------------------------- Table 2: band-width impact ------------------ #
def table2a_workloads() -> list[Workload]:
    """1D pareto-1.5 with increasing band width (paper Table 2a).

    The values are rounded to 5 decimals so the band-width-zero case is a
    real (skewed) equi-join, as in the paper.
    """
    return [
        pareto_workload(width, dimensions=1, decimals=PARETO_1D_DECIMALS)
        for width in (0.0, 1e-4, 2e-4, 3e-4)
    ]


def table2b_workloads() -> list[Workload]:
    """3D pareto-1.5 with increasing band width (paper Table 2b)."""
    return [pareto_workload(width, dimensions=3) for width in (0.0, 0.05, 0.09)]


def table2c_workloads() -> list[Workload]:
    """3D ebird-joins-cloud with increasing band width (paper Table 2c)."""
    return [ebird_cloud_workload(width) for width in (0.0, 2.0, 4.0, 8.0)]


# -------------------------- Table 3: skew resistance -------------------- #
def table3_workloads() -> list[Workload]:
    """3D pareto-z with fixed band width and increasing skew (paper Table 3)."""
    return [pareto_workload(0.05, dimensions=3, skew=z) for z in (0.5, 1.0, 1.5, 2.0)]


# -------------------------- Table 4: scalability ------------------------ #
def table4a_workloads() -> list[Workload]:
    """Scale input and workers together on 3D pareto-1.5 (paper Table 4a)."""
    base = pareto_workload(0.05, dimensions=3)
    return [
        base.scaled(25_000, 4),
        base.scaled(50_000, 8),
        base.scaled(100_000, 16),
    ]


def table4b_workloads() -> list[Workload]:
    """Scale input and workers together on ebird-cloud (paper Table 4b)."""
    base = ebird_cloud_workload(2.0)
    return [
        base.scaled(25_000, 4),
        base.scaled(50_000, 8),
        base.scaled(100_000, 16),
    ]


def table4c_workloads() -> list[Workload]:
    """8D pareto-1.5, varying input size at a fixed cluster size (paper Table 4c)."""
    base = pareto_workload(0.35, dimensions=8)
    return [base.scaled(n, DEFAULT_WORKLOAD_WORKERS) for n in (12_500, 25_000, 50_000, 100_000)]


def table4d_workloads() -> list[Workload]:
    """8D pareto-1.5, varying the number of workers at fixed input (paper Table 4d)."""
    base = pareto_workload(0.35, dimensions=8)
    return [base.scaled(DEFAULT_ROWS_PER_INPUT, w) for w in (1, 4, 8, 16)]


# -------------------------- Table 5 / 6: grid tuning --------------------- #
def table5_workload() -> Workload:
    """The workload of the Grid-eps grid-size sweep (paper Table 5)."""
    return pareto_workload(0.05, dimensions=3)


def table5_grid_multipliers() -> list[int]:
    """Grid-size multipliers swept by Table 5 (cell size = multiplier x band width)."""
    return [1, 2, 4, 8, 16, 32]


def table6_workloads() -> list[Workload]:
    """Grid* vs RecPart on skewed and anti-correlated data (paper Table 6)."""
    return [
        pareto_workload(0.05, dimensions=3, skew=2.0),
        pareto_workload(5.0, dimensions=3, reverse=True),
        pareto_workload(10.0, dimensions=3, reverse=True),
    ]


# -------------------------- Table 7 / 11: IEJoin ------------------------- #
def table7_workloads() -> list[Workload]:
    """Workloads of the distributed-IEJoin comparison (paper Tables 7 and 11)."""
    return [
        pareto_workload(0.0, dimensions=3, skew=1.5),
        pareto_workload(0.05, dimensions=3, skew=1.5),
        pareto_workload(0.05, dimensions=3, skew=1.0),
        pareto_workload(0.05, dimensions=3, skew=0.5),
    ]


def table7_block_sizes() -> list[int]:
    """``sizePerBlock`` values swept for distributed IEJoin (scaled from the paper)."""
    return [1_000, 2_500, 5_000, 10_000]


# -------------------------- Table 8 / 13: beta ratio --------------------- #
def table8_workload() -> Workload:
    """Workload of the local-join-cost-ratio study (paper Tables 8 and 13)."""
    return ebird_cloud_workload(2.0)


def table8_beta_ratios() -> list[float]:
    """Shuffle-vs-local cost ratios (beta2 / beta1) swept by Table 8."""
    return [0.0001, 0.01, 1.0, 100.0, 10_000.0]


# -------------------------- Table 9 / 14: symmetric splits --------------- #
def table9_workloads() -> list[Workload]:
    """RecPart-S vs RecPart workloads (paper Tables 9 and 14)."""
    return [
        pareto_workload(0.05, dimensions=3, skew=1.0),
        ebird_cloud_workload(2.0),
        ebird_cloud_workload(4.0),
        pareto_workload(5.0, dimensions=3, reverse=True),
        pareto_workload(10.0, dimensions=3, reverse=True),
        pareto_workload(2.0, dimensions=1, reverse=True),
        pareto_workload(50.0, dimensions=1, reverse=True),
    ]


# -------------------------- Table 12 / Figure 9: model accuracy ---------- #
def table12_workloads() -> list[Workload]:
    """Workloads used to validate the running-time model (paper Table 12, Figure 9)."""
    return [
        pareto_workload(1e-4, dimensions=1, decimals=PARETO_1D_DECIMALS),
        pareto_workload(2e-4, dimensions=1, decimals=PARETO_1D_DECIMALS),
        pareto_workload(0.05, dimensions=3),
        pareto_workload(0.09, dimensions=3),
        pareto_workload(0.05, dimensions=3, skew=1.0),
        pareto_workload(0.05, dimensions=3, skew=2.0),
        ebird_cloud_workload(2.0),
        ebird_cloud_workload(4.0),
    ]


# -------------------------- Table 15: dimensionality sweep --------------- #
def table15_workloads() -> list[Workload]:
    """Band width 0.05 in every dimension, d in {1, 2, 4, 8} (paper Table 15)."""
    return [pareto_workload(0.05, dimensions=d) for d in (1, 2, 4, 8)]


# -------------------------- Table 16: PTF / theoretical termination ------ #
def table16_workloads() -> list[Workload]:
    """PTF celestial matching with arc-second band widths (paper Table 16)."""
    return [ptf_workload(2.78e-4), ptf_workload(8.33e-4)]


# -------------------------- Figure 4 / Figure 10 ------------------------- #
def figure4_workloads() -> list[Workload]:
    """A broad cross-section of all workload families for the overhead scatter."""
    workloads = []
    workloads.extend(table2a_workloads()[1:3])
    workloads.extend(table2b_workloads()[1:])
    workloads.extend(table2c_workloads()[1:3])
    workloads.extend(table3_workloads())
    workloads.append(table4c_workloads()[1])
    workloads.extend(table16_workloads()[:1])
    # Deduplicate by name while preserving order.
    seen: set[str] = set()
    unique = []
    for w in workloads:
        if w.name not in seen:
            seen.add(w.name)
            unique.append(w)
    return unique
