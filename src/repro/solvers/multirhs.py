"""SpTRSV with multiple right-hand sides (``L X = B``).

The paper builds on Liu et al.'s sync-free algorithm *for multiple
right-hand sides*: the dependency analysis and the lock-wait counters
are shared across all RHS columns, and each component's solve-update
processes a row of ``X`` instead of one scalar.  This module adds that
capability on top of any single-RHS design:

* numerically, the level-sweep kernel is vectorised over the RHS block
  (columns solve simultaneously — no extra dependency analysis);
* for timing, one simulated execution is run with the per-component
  solve cost scaled by the RHS width (the communication pattern — one
  in-degree counter and one get round per component — is unchanged; only
  ``left_sum`` traffic widens, which the fabric-bytes counter reflects).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.errors import ShapeError
from repro.exec_model.artefacts import get_artefacts
from repro.exec_model.costmodel import Design, build_comm_costs
from repro.exec_model.timeline import ExecutionReport, simulate_execution
from repro.machine.node import MachineConfig, dgx1
from repro.solvers.base import validate_system
from repro.sparse.csc import CscMatrix
from repro.tasks.schedule import round_robin_distribution

__all__ = ["multi_rhs_forward", "MultiRhsResult", "solve_multi_rhs"]


def multi_rhs_forward(lower: CscMatrix, b_block: np.ndarray) -> np.ndarray:
    """Vectorised level-sweep solve of ``L X = B`` for ``B (n, k)``."""
    b_block = np.asarray(b_block, dtype=np.float64)
    n = lower.shape[0]
    if b_block.ndim != 2 or b_block.shape[0] != n:
        raise ShapeError(
            f"B must have shape ({n}, k), got {b_block.shape}"
        )
    levels = get_artefacts(lower).levels
    indptr, indices, data = lower.indptr, lower.indices, lower.data
    diag_ptr = indptr[:-1]
    diag = data[diag_ptr]
    x = np.zeros_like(b_block)
    left = np.zeros_like(b_block)
    for l in range(levels.n_levels):
        comps = levels.level(l)
        x[comps] = (b_block[comps] - left[comps]) / diag[comps, None]
        starts = diag_ptr[comps] + 1
        stops = indptr[comps + 1]
        counts = stops - starts
        total = int(counts.sum())
        if total == 0:
            continue
        rep_starts = np.repeat(starts, counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        eidx = rep_starts + within
        rows = indices[eidx]
        src = np.repeat(comps, counts)
        contrib = data[eidx, None] * x[src]
        np.add.at(left, rows, contrib)
    return x


class MultiRhsResult:
    """Solution block plus the width-scaled execution report."""

    def __init__(self, x: np.ndarray, report: ExecutionReport, solver: str):
        self.x = x
        self.report = report
        self.solver = solver

    @property
    def n_rhs(self) -> int:
        return self.x.shape[1]


def solve_multi_rhs(
    lower: CscMatrix,
    b_block: np.ndarray,
    machine: MachineConfig | None = None,
    tasks_per_gpu: int = 8,
    design: Design | str = Design.SHMEM_READONLY,
) -> MultiRhsResult:
    """Solve ``L X = B`` on the simulated multi-GPU machine.

    Timing scales the per-component arithmetic by the RHS width ``k``
    while keeping the dependency/communication structure fixed — the
    reason multi-RHS solves amortise the synchronisation cost so well in
    Liu et al.'s formulation (and why the report's time grows far slower
    than ``k``).
    """
    validate_system(lower, np.asarray(b_block, dtype=np.float64)[:, 0])
    if machine is None:
        machine = dgx1(4)
    x = multi_rhs_forward(lower, b_block)
    k = x.shape[1]
    # Scale the arithmetic term: a k-wide solve touches k values per nnz.
    scaled = machine.with_gpu(t_per_nnz=machine.gpu.t_per_nnz * k)
    dist = round_robin_distribution(lower.shape[0], machine.n_gpus, tasks_per_gpu)
    # A one-off machine: build its table directly rather than caching it
    # in the bundle's machine-keyed sub-cache.
    costs = build_comm_costs(scaled, Design(design))
    report = simulate_execution(
        lower, dist, scaled, Design(design), costs=costs
    )
    # left_sum traffic widens by k (8 bytes -> 8k per remote contribution).
    report = replace(report, fabric_bytes=report.fabric_bytes * (1 + k) / 2)
    return MultiRhsResult(x=x, report=report, solver=f"multi-rhs[{k}]")
