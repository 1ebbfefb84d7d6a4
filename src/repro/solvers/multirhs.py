"""SpTRSV with multiple right-hand sides (``L X = B``).

The paper builds on Liu et al.'s sync-free algorithm *for multiple
right-hand sides*: the dependency analysis and the lock-wait counters
are shared across all RHS columns, and each component's solve-update
processes a row of ``X`` instead of one scalar.  This module adds that
capability on top of any single-RHS design:

* numerically, :func:`~repro.solvers.levelset.levelset_forward` sweeps
  the whole ``(n, k)`` block at once (columns solve simultaneously — no
  extra dependency analysis);
* for timing, one simulated execution is run with the per-component
  solve cost scaled by the RHS width (the communication pattern — one
  in-degree counter and one get round per component — is unchanged; only
  ``left_sum`` traffic widens, which the fabric-bytes counter reflects).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.errors import ShapeError
from repro.exec_model.costmodel import Design, build_comm_costs
from repro.exec_model.timeline import simulate_execution
from repro.machine.node import MachineConfig, dgx1
from repro.solvers.base import SolveResult, validate_system
from repro.solvers.levelset import levelset_forward
from repro.sparse.csc import CscMatrix
from repro.tasks.schedule import round_robin_distribution

__all__ = ["solve_multi_rhs"]


def solve_multi_rhs(
    lower: CscMatrix,
    b_block: np.ndarray,
    machine: MachineConfig | None = None,
    tasks_per_gpu: int = 8,
    design: Design | str = Design.SHMEM_READONLY,
) -> SolveResult:
    """Solve ``L X = B`` on the simulated multi-GPU machine.

    ``B`` has shape ``(n, k)`` with ``k >= 1``; the result's ``x`` is the
    ``(n, k)`` solution block and its solver name is ``multi-rhs[k]``.
    Timing scales the per-component arithmetic by the RHS width ``k``
    while keeping the dependency/communication structure fixed — the
    reason multi-RHS solves amortise the synchronisation cost so well in
    Liu et al.'s formulation (and why the report's time grows far slower
    than ``k``).
    """
    b_block = np.asarray(b_block, dtype=np.float64)
    n = lower.shape[0]
    if b_block.ndim != 2 or b_block.shape[0] != n or b_block.shape[1] < 1:
        raise ShapeError(
            f"B must have shape ({n}, k) with k >= 1, got {b_block.shape}"
        )
    validate_system(lower, b_block[:, 0])
    if machine is None:
        machine = dgx1(4)
    x = levelset_forward(lower, b_block)
    k = x.shape[1]
    # Scale the arithmetic term: a k-wide solve touches k values per nnz.
    scaled = machine.with_gpu(t_per_nnz=machine.gpu.t_per_nnz * k)
    dist = round_robin_distribution(n, machine.n_gpus, tasks_per_gpu)
    # A one-off machine: build its table directly rather than caching it
    # in the bundle's machine-keyed sub-cache.
    costs = build_comm_costs(scaled, Design(design))
    report = simulate_execution(
        lower, dist, scaled, Design(design), costs=costs
    )
    # left_sum traffic widens by k (8 bytes -> 8k per remote contribution).
    report = replace(report, fabric_bytes=report.fabric_bytes * (1 + k) / 2)
    return SolveResult(x=x, report=report, solver=f"multi-rhs[{k}]")
