"""Matrix characterisation metrics (Table I and Section VI-D).

The paper explains its per-matrix results with two scalar metrics:

* ``dependency = NNZ / nRows`` — average non-zeros per component; and
* ``parallelism = nRows / nLevels`` — average available concurrency per
  level.

This module computes those plus the structural statistics printed in
Table I, and classifies matrices into the scaling regimes discussed in the
scalability study (high-parallelism matrices benefit most from more GPUs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.dag import DependencyDag, build_dag
from repro.analysis.levels import LevelSets, compute_levels
from repro.sparse.csc import CscMatrix

__all__ = ["MatrixProfile", "profile_matrix", "scaling_class"]


@dataclass(frozen=True)
class MatrixProfile:
    """Structural profile of a lower-triangular SpTRSV input.

    Mirrors one row of Table I plus the Section VI-D metrics.
    """

    name: str
    n_rows: int
    nnz: int
    n_levels: int
    parallelism: float
    dependency: float
    max_level_width: int
    mean_level_width: float
    max_in_degree: int
    mean_in_degree: float

    def table_row(self) -> str:
        """Format as a Table I style row."""
        return (
            f"{self.name:<22s} {self.n_rows:>10,d} {self.nnz:>12,d} "
            f"{self.n_levels:>8,d} {self.parallelism:>12,.0f}"
        )

    @staticmethod
    def table_header() -> str:
        return (
            f"{'Name':<22s} {'#Rows':>10s} {'#Non-Zeros':>12s} "
            f"{'#Levels':>8s} {'Parallelism':>12s}"
        )


def profile_matrix(
    lower: CscMatrix,
    name: str = "",
    levels: LevelSets | None = None,
    dag: DependencyDag | None = None,
) -> MatrixProfile:
    """Compute the :class:`MatrixProfile` of a lower-triangular matrix.

    Pass the precomputed ``dag`` and ``levels`` of ``lower`` (for
    instance its artefact bundle's) to avoid re-running the analysis
    when the caller already has it.
    """
    if dag is None:
        dag = build_dag(lower)
    if levels is None:
        levels = compute_levels(dag)
    n = lower.shape[0]
    widths = levels.level_sizes()
    return MatrixProfile(
        name=name or "<unnamed>",
        n_rows=n,
        nnz=lower.nnz,
        n_levels=levels.n_levels,
        parallelism=levels.parallelism,
        dependency=lower.nnz / max(n, 1),
        max_level_width=int(widths.max(initial=0)),
        mean_level_width=float(widths.mean()) if len(widths) else 0.0,
        max_in_degree=int(dag.in_degree.max(initial=0)),
        mean_in_degree=float(dag.in_degree.mean()) if n else 0.0,
    )


def scaling_class(profile: MatrixProfile) -> str:
    """Classify a matrix into the paper's qualitative scaling regimes.

    Returns one of:

    * ``"scales"`` — low dependency and high parallelism: benefits from
      more GPUs (dc2, nlpkkt160, powersim, Wordnet3 in the paper).
    * ``"neutral"`` — moderate on both axes.
    * ``"serial-bound"`` — long dependency chains / low parallelism: extra
      GPUs mostly wait (chipcool0, pkustk14, shipsec1).

    The discriminant is the ratio ``parallelism / dependency`` — width per
    unit of per-component work — which cleanly separates the paper's two
    named groups on both the original Table I stats and the stand-ins.
    """
    ratio = profile.parallelism / max(profile.dependency, 1e-12)
    if ratio >= 200.0:
        return "scales"
    if ratio <= 30.0:
        return "serial-bound"
    return "neutral"
