"""Single-GPU synchronization-free SpTRSV (Liu et al., Section II-C).

All components are activated at kernel launch; each warp busy-waits on
its component's in-degree counter and proceeds the moment the last
dependency lands — no level barriers, no analysis beyond the in-degree
count.  This is the execution model the paper extends to multiple GPUs;
on one GPU it doubles as the strongest single-device baseline.

Timing reuses the multi-GPU list-scheduling model with one GPU, where the
communication terms all vanish and what remains is warp-slot occupancy
plus dependency chains — the correct single-device behaviour.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.exec_model.costmodel import Design
from repro.exec_model.timeline import simulate_execution
from repro.machine.node import MachineConfig, dgx1
from repro.solvers.base import SolveResult, TriangularSolver, validate_system
from repro.solvers.levelset import levelset_forward
from repro.sparse.csc import CscMatrix
from repro.tasks.schedule import block_distribution

__all__ = ["SyncFreeSolver"]


class SyncFreeSolver(TriangularSolver):
    """Single-GPU sync-free solver (in-degree spin, no barriers)."""

    name = "syncfree-1gpu"

    def __init__(self, machine: MachineConfig | None = None):
        if machine is None:
            machine = dgx1(1)
        if machine.n_gpus != 1:
            raise ConfigurationError(
                "SyncFreeSolver is the single-GPU baseline; use "
                "ShmemSolver/ZeroCopySolver for multi-GPU runs",
                parameter="n_gpus",
                value=machine.n_gpus,
            )
        self.machine = machine

    def solve(self, lower: CscMatrix, b: np.ndarray) -> SolveResult:
        b = validate_system(lower, b)
        # Numerics: the sync-free update order is a topological order;
        # the level sweep computes the identical fixed point.
        x = levelset_forward(lower, b)
        dist = block_distribution(lower.shape[0], 1)
        report = simulate_execution(
            lower, dist, self.machine, Design.SHMEM_READONLY
        )
        return SolveResult(x=x, report=report, solver=self.name)
