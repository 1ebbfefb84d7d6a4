"""Multi-GPU SpTRSV with CUDA Unified Memory (Algorithm 2, Section III).

The synchronization-free execution model of Liu et al. extended across
GPUs by placing the system-wide ``in_degree``/``left_sum`` arrays in
managed memory.  System-scope atomics from all GPUs bounce the managed
pages — the page-thrashing pathology this paper characterises (Fig. 3) —
which is exactly what the timing model charges and the functional
emulation's fault counters measure.

Supports the optional task model (``tasks_per_gpu``) to reproduce the
4GPU-Unified+8task scenario of Fig. 7, where finer tasks *worsen*
unified-memory performance (more page contention at task boundaries,
modelled via the extra kernel-launch serialisation and unchanged fault
costs — the balance gain cannot compensate the fault amplification).
"""

from __future__ import annotations

import numpy as np

from repro.exec_model.costmodel import Design
from repro.exec_model.timeline import simulate_execution
from repro.machine.node import MachineConfig, dgx1
from repro.solvers.base import SolveResult, TriangularSolver, validate_system
from repro.solvers.levelset import levelset_forward
from repro.solvers.numerics import emulate_unified_solve
from repro.sparse.csc import CscMatrix
from repro.tasks.schedule import (
    Distribution,
    block_distribution,
    round_robin_distribution,
)

__all__ = ["UnifiedMemorySolver"]


class UnifiedMemorySolver(TriangularSolver):
    """The Unified-Memory baseline design (``4GPU-Unified`` in Fig. 7).

    Parameters
    ----------
    machine:
        Node configuration.  Unified memory needs no P2P clique, so this
        design scales to all 8 DGX-1 GPUs (how Fig. 3 runs 2-8 GPUs).
    tasks_per_gpu:
        None for the baseline block distribution; an integer enables the
        task model on top of unified memory (``4GPU-Unified+8task``).
    emulate:
        If True (default), numerically execute Algorithm 2 through the
        unified-memory emulation (exact fault counting, counter-protocol
        checking); the report's ``page_faults`` and ``migrated_bytes``
        are then raised to the emulation's counts (see
        :func:`_with_fault_floor`).  If False, compute ``x`` with the
        level-set kernel and report the fast model's fault estimate as
        is — used by large benches where emulation time dominates.  The
        two settings therefore report different fault counters, not
        only a different route to ``x``: on the conformance generators
        (2-8 GPUs, block and task placement) the emulated count was
        always the larger, so the floor always applied.
    """

    name = "multi-gpu-unified"

    def __init__(
        self,
        machine: MachineConfig | None = None,
        tasks_per_gpu: int | None = None,
        emulate: bool = True,
    ):
        self.machine = (
            machine if machine is not None else dgx1(4, require_p2p=False)
        )
        self.tasks_per_gpu = tasks_per_gpu
        self.emulate = emulate

    def distribution(self, n: int) -> Distribution:
        """The component placement this configuration induces."""
        if self.tasks_per_gpu is None:
            return block_distribution(n, self.machine.n_gpus)
        return round_robin_distribution(
            n, self.machine.n_gpus, self.tasks_per_gpu
        )

    def solve(self, lower: CscMatrix, b: np.ndarray) -> SolveResult:
        b = validate_system(lower, b)
        n = lower.shape[0]
        dist = self.distribution(n)
        if self.emulate:
            x, um = emulate_unified_solve(lower, b, dist, self.machine)
            exact_faults = float(um.fault_count)
            migrated = um.migrated_bytes
        else:
            x = levelset_forward(lower, b)
            exact_faults = None
            migrated = None
        report = simulate_execution(lower, dist, self.machine, Design.UNIFIED)
        if exact_faults is not None:
            # Report at least the faults the emulation generated; in
            # practice the emulated count replaces the model's.
            report = _with_fault_floor(report, exact_faults, migrated)
        return SolveResult(x=x, report=report, solver=self.name)


def _with_fault_floor(report, exact_faults: float, migrated: float | None):
    """Raise the report's fault counters to at least the emulated exact
    values.

    The floor is not a corner case.  The fast model's estimate is an
    expectation: each ``(level, page)`` group of remote updates and
    weighted consumer polls faults in proportion to its GPU mix, scaled
    by the batching factor.  The emulation counts every page-ownership
    change in the access stream it replays, the in-degree pre-pass
    included.  The emulated values are normally the larger, so they
    replace the model's ``page_faults`` and ``migrated_bytes``.
    """
    from dataclasses import replace

    faults = max(report.page_faults, exact_faults)
    return replace(
        report,
        page_faults=faults,
        migrated_bytes=max(report.migrated_bytes, migrated or 0.0),
    )
