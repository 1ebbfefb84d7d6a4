"""Shared benchmark harness: cached matrix contexts + scenario runners.

Benches regenerate the paper's figures by sweeping (matrix, machine,
design, distribution) combinations.  A :class:`MatrixContext` memoises
each suite matrix and its profile; the matrix's DAG, level sets and
cost tables live in its artefact bundle
(:func:`~repro.exec_model.artefacts.get_artefacts`), built once, so the
per-scenario cost is a single fast-model pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.analysis.metrics import MatrixProfile, profile_matrix
from repro.exec_model.artefacts import get_artefacts
from repro.exec_model.costmodel import Design
from repro.exec_model.timeline import ExecutionReport, simulate_execution
from repro.machine.node import MachineConfig, dgx1, dgx2
from repro.solvers.levelset import level_schedule_time
from repro.sparse.csc import CscMatrix
from repro.tasks.schedule import (
    Distribution,
    block_distribution,
    round_robin_distribution,
)
from repro.workloads import suite as suite_mod

__all__ = [
    "MatrixContext",
    "context",
    "run_design",
    "run_cusparse",
    "geomean",
]


@dataclass(frozen=True)
class MatrixContext:
    """A suite matrix and its profile, shared across scenarios."""

    name: str
    lower: CscMatrix
    profile: MatrixProfile


@lru_cache(maxsize=64)
def context(name: str) -> MatrixContext:
    """Build (memoised) the context of a suite matrix."""
    lower = suite_mod.load(name)
    prof = profile_matrix(lower, name, get_artefacts(lower).levels)
    return MatrixContext(name=name, lower=lower, profile=prof)


def run_design(
    ctx: MatrixContext,
    machine: MachineConfig,
    design: Design | str,
    tasks_per_gpu: int | None = None,
    **cost_kwargs,
) -> ExecutionReport:
    """Price one design point on one matrix.

    ``tasks_per_gpu=None`` selects block distribution (the baseline);
    an integer enables the round-robin task model.  ``cost_kwargs`` are
    forwarded to the bundle's
    :meth:`~repro.exec_model.artefacts.AnalysisArtefacts.comm_costs`
    (ablation knobs).
    """
    n = ctx.lower.shape[0]
    if tasks_per_gpu is None:
        dist: Distribution = block_distribution(n, machine.n_gpus)
    else:
        dist = round_robin_distribution(n, machine.n_gpus, tasks_per_gpu)
    costs = get_artefacts(ctx.lower).comm_costs(
        machine, design, **cost_kwargs
    )
    return simulate_execution(ctx.lower, dist, machine, design, costs=costs)


def run_cusparse(
    ctx: MatrixContext,
    machine: MachineConfig | None = None,
    analysis_factor: float = 6.0,
) -> ExecutionReport:
    """Price the cuSPARSE csrsv2 single-GPU baseline on one matrix."""
    if machine is None:
        machine = dgx1(1)
    return level_schedule_time(
        ctx.lower,
        get_artefacts(ctx.lower).levels,
        machine,
        analysis_factor=analysis_factor,
        design="cusparse_csrsv2",
    )


def geomean(values) -> float:
    """Geometric mean (the conventional average for speedup ratios)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if len(arr) == 0:
        return float("nan")
    if np.any(arr <= 0):
        raise ValueError("geomean requires positive values")
    return float(np.exp(np.mean(np.log(arr))))
