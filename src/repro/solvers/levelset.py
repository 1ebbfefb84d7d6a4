"""Level-set (level-scheduling) solver — Naumov's method (Section II-B).

The analysis phase groups components into level sets; the solve phase
executes one parallel sweep per level with a barrier in between.  The
numeric kernel is fully vectorised per level; the timing model charges a
kernel launch + barrier per level, which is precisely the cost structure
that makes level scheduling slow on matrices with many levels (and the
reason the paper's sync-free designs win).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.levels import LevelSets
from repro.errors import SingularMatrixError
from repro.exec_model.artefacts import get_artefacts
from repro.exec_model.timeline import ExecutionReport
from repro.machine.node import MachineConfig, dgx1
from repro.sparse.csc import CscMatrix
from repro.solvers.base import SolveResult, TriangularSolver, validate_system

__all__ = ["levelset_forward", "LevelSetSolver", "level_schedule_time"]


def levelset_forward(
    lower: CscMatrix,
    b: np.ndarray,
    levels: LevelSets | None = None,
) -> np.ndarray:
    """Solve ``Lx = b`` level by level (vectorised within each level)."""
    n = lower.shape[0]
    if levels is None:
        levels = get_artefacts(lower).levels
    x = np.zeros(n)
    left_sum = np.zeros(n)
    indptr, indices, data = lower.indptr, lower.indices, lower.data

    diag_ptr = indptr[:-1]
    if n and not np.array_equal(indices[diag_ptr], np.arange(n)):
        raise SingularMatrixError("missing diagonal entry in lower factor")
    diag = data[diag_ptr]

    for l in range(levels.n_levels):
        comps = levels.level(l)
        x[comps] = (b[comps] - left_sum[comps]) / diag[comps]
        # Scatter this level's updates: all strictly-lower entries of the
        # level's columns at once.
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
        np.add.at(left_sum, rows, data[eidx] * x[src])
    return x


def level_schedule_time(
    lower: CscMatrix,
    levels: LevelSets,
    machine: MachineConfig,
    *,
    analysis_factor: float = 1.0,
    design: str = "levelset",
) -> ExecutionReport:
    """Timing model of a single-GPU level-scheduled solve.

    Per level: one kernel launch, enough warp waves to cover the level's
    components, and a device-wide barrier.  The analysis phase costs a
    sweep over the nonzeros (dependency counting + level assignment),
    scaled by ``analysis_factor`` (cuSPARSE's analysis is heavier than a
    plain count — see :mod:`repro.solvers.cusparse`).
    """
    gpu = machine.gpu
    col_nnz = lower.col_nnz().astype(np.float64)
    in_deg = col_nnz - 1.0  # strict-lower entries ~ update work per column

    solve_time = 0.0
    barrier = gpu.t_kernel_launch  # device-wide sync ~ launch latency
    for l in range(levels.n_levels):
        comps = levels.level(l)
        width = len(comps)
        waves = int(np.ceil(width / gpu.warp_slots))
        # Each wave's duration is bounded by its slowest component.
        per_comp = gpu.t_per_nnz * (col_nnz[comps] + np.maximum(in_deg[comps], 0.0))
        wave_time = float(per_comp.max()) if width else 0.0
        solve_time += gpu.t_kernel_launch + waves * (
            gpu.t_warp_dispatch + wave_time
        )
        solve_time += barrier

    # Analysis sweeps the nonzeros a handful of times (dependency count,
    # level assignment, workspace setup), itself running data-parallel on
    # the GPU.
    analysis = (
        analysis_factor
        * lower.nnz
        * gpu.t_per_nnz
        * 4.0
        / max(gpu.analysis_parallelism, 1)
    )
    busy = float(np.sum(gpu.t_per_nnz * (col_nnz + np.maximum(in_deg, 0.0))))
    return ExecutionReport(
        design=design,
        machine=machine.topology.name,
        n_gpus=1,
        n_tasks=levels.n_levels,
        analysis_time=analysis,
        solve_time=solve_time,
        gpu_busy=np.array([busy]),
        gpu_spin=np.array([max(solve_time - busy, 0.0)]),
        gpu_comm=np.array([0.0]),
        gpu_finish=np.array([solve_time]),
        local_updates=int(np.sum(np.maximum(in_deg, 0.0))),
        remote_updates=0,
        page_faults=0.0,
        migrated_bytes=0.0,
        fabric_bytes=0.0,
    )


class LevelSetSolver(TriangularSolver):
    """Single-GPU level-scheduled SpTRSV (the classical GPU approach)."""

    name = "levelset"

    def __init__(self, machine: MachineConfig | None = None):
        self.machine = machine if machine is not None else dgx1(1)

    def solve(self, lower: CscMatrix, b: np.ndarray) -> SolveResult:
        b = validate_system(lower, b)
        levels = get_artefacts(lower).levels
        x = levelset_forward(lower, b, levels)
        report = level_schedule_time(lower, levels, self.machine)
        return SolveResult(x=x, report=report, solver=self.name)
