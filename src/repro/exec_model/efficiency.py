"""Efficiency analysis: measured execution vs machine-independent bounds.

:func:`repro.analysis.criticalpath.critical_path` gives the two
machine-independent limits of any SpTRSV execution — the dependency
critical path (latency bound) and total work over available throughput
(bandwidth bound).  This module scores a simulated
:class:`~repro.exec_model.timeline.ExecutionReport` against them, which
tells you *why* a configuration is slow: chain-bound, throughput-bound,
or losing time to communication/imbalance above both bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.criticalpath import critical_path
from repro.exec_model.artefacts import get_artefacts
from repro.exec_model.timeline import ExecutionReport
from repro.machine.node import MachineConfig
from repro.sparse.csc import CscMatrix

__all__ = ["EfficiencyReport", "analyse_efficiency"]


@dataclass(frozen=True)
class EfficiencyReport:
    """How a measured solve compares to its lower bounds.

    Attributes
    ----------
    chain_bound:
        Dependency critical-path time: no machine can solve faster.
    throughput_bound:
        Total productive work divided by the node's warp-slot count.
    solve_time:
        The measured (simulated) solve time.
    """

    chain_bound: float
    throughput_bound: float
    solve_time: float

    @property
    def bound(self) -> float:
        """The binding lower limit."""
        return max(self.chain_bound, self.throughput_bound)

    @property
    def efficiency(self) -> float:
        """``bound / measured`` in (0, 1]: 1.0 = optimal execution."""
        if self.solve_time <= 0:
            return 1.0
        return min(self.bound / self.solve_time, 1.0)

    @property
    def regime(self) -> str:
        """Which limit binds: ``"chain-bound"`` or ``"throughput-bound"``."""
        return (
            "chain-bound"
            if self.chain_bound >= self.throughput_bound
            else "throughput-bound"
        )

    @property
    def overhead_factor(self) -> float:
        """measured / bound: 1.0 = no communication/imbalance loss."""
        return self.solve_time / self.bound if self.bound > 0 else 1.0


def analyse_efficiency(
    lower: CscMatrix,
    machine: MachineConfig,
    report: ExecutionReport,
) -> EfficiencyReport:
    """Score a simulated execution against its lower bounds.

    Per-component cost for the bounds is the same arithmetic term the
    timeline charges (``t_per_nnz * (col_nnz + in_degree)``), so the
    comparison isolates *scheduling and communication* losses.
    """
    art = get_artefacts(lower)
    dag = art.dag
    gpu = machine.gpu
    col_nnz = lower.col_nnz().astype(np.float64)
    in_deg = np.diff(dag.in_ptr).astype(np.float64)
    cost = gpu.t_per_nnz * (np.maximum(col_nnz, 1.0) + in_deg)
    cp = critical_path(dag, cost=cost, levels=art.levels)
    total_slots = machine.n_gpus * gpu.warp_slots
    return EfficiencyReport(
        chain_bound=cp.length,
        throughput_bound=cp.total_work / max(total_slots, 1),
        solve_time=report.solve_time,
    )
