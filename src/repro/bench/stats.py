"""Seed-replicated statistics for the benches.

The paper runs every benchmark 100 times and reports the average
(Section VI-A).  The simulation is deterministic, so repeating a run is
pointless — the meaningful replication axis is the *matrix instance*:
each Table-I stand-in is one draw from a generator family, and the
recipe's seed can be shifted to draw structural siblings with the same
(#levels, dependency, profile) parameters.

:func:`replicate` builds seed-shifted siblings of a suite entry;
:func:`replicated_speedups` runs a metric over the siblings and returns
mean / spread, so any figure can be quoted with an instance-variability
bar instead of a single draw.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.exec_model.costmodel import Design
from repro.exec_model.timeline import simulate_execution
from repro.machine.node import MachineConfig, dgx1
from repro.sparse.csc import CscMatrix
from repro.tasks.schedule import block_distribution, round_robin_distribution
from repro.workloads.suite import SuiteEntry, entry

__all__ = ["replicate", "SpeedupStats", "replicated_speedups"]


def replicate(name_or_entry: str | SuiteEntry, n_replicas: int) -> list[CscMatrix]:
    """Build ``n_replicas`` structural siblings of a suite matrix.

    Sibling ``k`` uses the recipe with ``seed + 1000 * (k + 1)``; the
    original seed is *not* included, so statistics over replicas are
    independent of the headline runs.
    """
    e = entry(name_or_entry) if isinstance(name_or_entry, str) else name_or_entry
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    return [
        replace(e, seed=e.seed + 1000 * (k + 1)).build()
        for k in range(n_replicas)
    ]


@dataclass(frozen=True)
class SpeedupStats:
    """Mean and spread of a speedup metric over matrix replicas."""

    name: str
    values: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    @property
    def std(self) -> float:
        return float(self.values.std(ddof=1)) if len(self.values) > 1 else 0.0

    @property
    def min(self) -> float:
        return float(self.values.min())

    @property
    def max(self) -> float:
        return float(self.values.max())

    @property
    def rel_spread(self) -> float:
        """(max - min) / mean — how much the instance draw matters."""
        return (self.max - self.min) / self.mean if self.mean else 0.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.name}: {self.mean:.2f} ± {self.std:.2f} "
            f"[{self.min:.2f}, {self.max:.2f}] over {len(self.values)} replicas"
        )


def replicated_speedups(
    name: str,
    n_replicas: int = 5,
    n_gpus: int = 4,
    tasks_per_gpu: int = 8,
) -> dict[str, SpeedupStats]:
    """Fig. 7's three speedups over seed-replicated instances of one matrix.

    Returns stats for ``"shmem"``, ``"zerocopy"`` (both over unified) and
    ``"task_gain"`` (zerocopy over shmem-block).
    """
    m_um = dgx1(n_gpus, require_p2p=False)
    m_sh = dgx1(n_gpus)
    shmem, zero, gain = [], [], []
    for lower in replicate(name, n_replicas):
        n = lower.shape[0]
        block = block_distribution(n, n_gpus)
        rr = round_robin_distribution(n, n_gpus, tasks_per_gpu)
        t_u = simulate_execution(lower, block, m_um, Design.UNIFIED).total_time
        t_s = simulate_execution(
            lower, block, m_sh, Design.SHMEM_READONLY
        ).total_time
        t_z = simulate_execution(
            lower, rr, m_sh, Design.SHMEM_READONLY
        ).total_time
        shmem.append(t_u / t_s)
        zero.append(t_u / t_z)
        gain.append(t_s / t_z)
    return {
        "shmem": SpeedupStats(f"{name}/shmem", np.asarray(shmem)),
        "zerocopy": SpeedupStats(f"{name}/zerocopy", np.asarray(zero)),
        "task_gain": SpeedupStats(f"{name}/task_gain", np.asarray(gain)),
    }
