"""Thread-level synchronization-free SpTRSV (CapelliniSpTRSV-style).

The paper's related work ([3] Su et al., ICPP 2020) maps one component
per *thread* instead of one per *warp* (Liu et al.'s mapping, which the
paper inherits).  The trade-off it explores:

* 32x more components resident at once (a warp hosts 32 solvers), which
  helps matrices with huge level widths and tiny rows;
* but each component's arithmetic is scalar (no intra-warp parallelism
  over the row's nonzeros), and divergent spinning within a warp stalls
  all 32 lanes until the slowest component's dependencies land.

This module models that mapping as an alternative single-GPU baseline:
``ThreadLevelSolver`` prices the same dependency schedule with
thread-granularity occupancy (``warp_slots * 32`` slots), scalar
per-nonzero cost (no warp-parallel gather), and a warp-divergence
penalty coupling each component's start to its 32-lane group.

It slots into the scalability study as a second baseline alongside the
cuSPARSE model: warp-level wins on high-dependency rows, thread-level on
skinny-row/high-width matrices — the crossover CapelliniSpTRSV reports.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.exec_model.artefacts import get_artefacts
from repro.exec_model.timeline import ExecutionReport
from repro.machine.gpu import WarpScheduler
from repro.machine.node import MachineConfig, dgx1
from repro.solvers.base import SolveResult, TriangularSolver, validate_system
from repro.solvers.levelset import levelset_forward
from repro.sparse.csc import CscMatrix

__all__ = ["ThreadLevelSolver", "thread_level_schedule"]

#: Lanes per warp on every CUDA-capable part this models.
WARP_WIDTH = 32

#: Scalar-lane slowdown of the per-nonzero work versus the warp-parallel
#: gather (one lane does serially what 32 did cooperatively, minus the
#: reduction overhead it no longer needs; uncoalesced access adds more).
SCALAR_FACTOR = 6.0

#: Memory-system concurrency: how many scalar lanes the LSU/HBM path can
#: actually feed per resident warp slot.  32 lanes may be *resident*, but
#: their uncoalesced gathers serialise well below that — the reason
#: thread-level mappings stop scaling despite enormous nominal occupancy.
MEM_LANES_PER_SLOT = 4


def thread_level_schedule(
    lower: CscMatrix,
    machine: MachineConfig,
) -> ExecutionReport:
    """Price a single-GPU thread-level sync-free execution.

    Components dispatch in index order onto ``warp_slots * 32`` thread
    slots, 32 at a time: a warp retires only when its slowest lane's
    component finishes (divergence coupling), which is the mapping's
    fundamental cost on dependency-heavy inputs.
    """
    gpu = machine.gpu
    dag = get_artefacts(lower).dag
    n = dag.n
    col_nnz = lower.col_nnz().astype(np.float64)
    in_counts = np.diff(dag.in_ptr).astype(np.float64)
    # Scalar arithmetic: every nonzero processed by one lane.
    solve = gpu.t_per_nnz * SCALAR_FACTOR * (
        np.maximum(col_nnz, 1.0) + in_counts
    )

    sched = WarpScheduler(gpu.with_(warp_slots=gpu.warp_slots))
    finish = np.zeros(n)
    busy = 0.0
    spin = 0.0
    in_ptr, in_idx = dag.in_ptr, dag.in_idx

    # Process warps of 32 consecutive components: the whole group occupies
    # one warp slot from the first lane's dispatch to the last lane's
    # finish.
    for w0 in range(0, n, WARP_WIDTH):
        group = np.arange(w0, min(w0 + WARP_WIDTH, n))
        dispatch = sched.dispatch(0.0)
        group_fin = dispatch
        for i in group:
            lo, hi = in_ptr[i], in_ptr[i + 1]
            ready = (
                float(np.max(finish[in_idx[lo:hi]])) if hi > lo else 0.0
            )
            start = max(dispatch, ready)
            fin = start + solve[i]
            finish[i] = fin
            busy += solve[i]
            spin += max(0.0, ready - dispatch)
            group_fin = max(group_fin, fin)
        # Divergence coupling: the warp slot is held until the slowest
        # lane's component finishes.
        sched.retire(group_fin)

    # Memory-throughput floor: the scalar gathers of all lanes share the
    # LSU/HBM path, which feeds far fewer lanes than are resident.
    mem_bound = busy / (gpu.warp_slots * MEM_LANES_PER_SLOT)
    solve_time = max(float(finish.max(initial=0.0)), mem_bound)
    analysis = lower.nnz * gpu.t_atomic_device / max(gpu.analysis_parallelism, 1)
    return ExecutionReport(
        design="threadlevel",
        machine=machine.topology.name,
        n_gpus=1,
        n_tasks=1,
        analysis_time=analysis,
        solve_time=solve_time,
        gpu_busy=np.array([busy]),
        gpu_spin=np.array([spin]),
        gpu_comm=np.array([0.0]),
        gpu_finish=np.array([solve_time]),
        local_updates=dag.n_edges,
        remote_updates=0,
        page_faults=0.0,
        migrated_bytes=0.0,
        fabric_bytes=0.0,
    )


class ThreadLevelSolver(TriangularSolver):
    """Single-GPU thread-level sync-free baseline (one thread/component)."""

    name = "threadlevel-1gpu"

    def __init__(self, machine: MachineConfig | None = None):
        if machine is None:
            machine = dgx1(1)
        if machine.n_gpus != 1:
            raise ConfigurationError(
                "ThreadLevelSolver is a single-GPU baseline",
                parameter="n_gpus",
                value=machine.n_gpus,
            )
        self.machine = machine

    def solve(self, lower: CscMatrix, b: np.ndarray) -> SolveResult:
        b = validate_system(lower, b)
        x = levelset_forward(lower, b)
        report = thread_level_schedule(lower, self.machine)
        return SolveResult(x=x, report=report, solver=self.name)
