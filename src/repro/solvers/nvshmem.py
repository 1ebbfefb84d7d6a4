"""Multi-GPU SpTRSV with NVSHMEM (Algorithm 3, Section IV).

The ``4GPU-Shmem`` design point: per-PE symmetric-heap intermediate
arrays, the read-only inter-GPU communication model (async get + warp
reduction), and the baseline *block* ("continued") component
distribution.  The task-model variant lives in
:mod:`repro.solvers.zerocopy`.

Also exposes the naive Get-Update-Put design as
:class:`NaiveShmemSolver` for the Section IV-B ablation: same symmetric
heap, but producers round-trip every remote update through
get/fence/put/quiet, which serialises PEs on shared data.
"""

from __future__ import annotations

import numpy as np

from repro.exec_model.artefacts import get_artefacts
from repro.exec_model.costmodel import Design
from repro.exec_model.timeline import simulate_execution
from repro.machine.node import MachineConfig, dgx1
from repro.solvers.base import SolveResult, TriangularSolver, validate_system
from repro.solvers.numerics import emulate_shmem_solve
from repro.sparse.csc import CscMatrix
from repro.tasks.schedule import Distribution, block_distribution

__all__ = ["ShmemSolver", "NaiveShmemSolver"]


class ShmemSolver(TriangularSolver):
    """Zero-copy NVSHMEM SpTRSV with block distribution (``4GPU-Shmem``).

    Parameters
    ----------
    machine:
        Node configuration; must be a P2P clique (NVSHMEM restriction —
        requesting 5+ GPUs on DGX-1 raises
        :class:`~repro.errors.TopologyError` at machine construction).
    emulate:
        Numerically execute Algorithm 3 through the symmetric-heap
        emulation (default) or use the fast level-set kernel for ``x``.
    warp_reduce, shortcircuit:
        Ablation knobs (Section IV-B optimisations), both on by default.
    """

    name = "multi-gpu-shmem"
    design = Design.SHMEM_READONLY

    def __init__(
        self,
        machine: MachineConfig | None = None,
        emulate: bool = True,
        warp_reduce: bool = True,
        shortcircuit: bool = True,
    ):
        self.machine = machine if machine is not None else dgx1(4)
        self.emulate = emulate
        self.warp_reduce = warp_reduce
        self.shortcircuit = shortcircuit

    def distribution(self, n: int) -> Distribution:
        return block_distribution(n, self.machine.n_gpus)

    def solve(self, lower: CscMatrix, b: np.ndarray) -> SolveResult:
        b = validate_system(lower, b)
        dist = self.distribution(lower.shape[0])
        art = get_artefacts(lower)
        if self.emulate:
            x, _heap = emulate_shmem_solve(
                lower,
                b,
                dist,
                self.machine,
                art.levels,
                use_shortcircuit=self.shortcircuit,
            )
        else:
            from repro.solvers.levelset import levelset_forward

            x = levelset_forward(lower, b, art.levels)
        costs = art.comm_costs(
            self.machine,
            self.design,
            warp_reduce=self.warp_reduce,
            shortcircuit=self.shortcircuit,
        )
        report = simulate_execution(
            lower, dist, self.machine, self.design, costs=costs
        )
        return SolveResult(x=x, report=report, solver=self.name)


class NaiveShmemSolver(ShmemSolver):
    """Ablation: Get-Update-Put with fence/quiet per remote update.

    Numerically identical to the read-only design (updates commute);
    the cost model charges the serialised round trips.
    """

    name = "multi-gpu-shmem-naive"
    design = Design.SHMEM_NAIVE

    def __init__(self, machine: MachineConfig | None = None, emulate: bool = True):
        super().__init__(machine=machine, emulate=emulate)

    def solve(self, lower: CscMatrix, b: np.ndarray) -> SolveResult:
        b = validate_system(lower, b)
        dist = self.distribution(lower.shape[0])
        levels = get_artefacts(lower).levels
        if self.emulate:
            x, _heap = emulate_shmem_solve(
                lower, b, dist, self.machine, levels, use_shortcircuit=False
            )
        else:
            from repro.solvers.levelset import levelset_forward

            x = levelset_forward(lower, b, levels)
        report = simulate_execution(lower, dist, self.machine, self.design)
        return SolveResult(x=x, report=report, solver=self.name)
