"""Weighted critical-path analysis of the dependency DAG.

Where :mod:`repro.analysis.levels` counts chain *length*, this module
computes chain *cost*: the earliest possible finish time of each component
given a per-component solve cost, assuming unlimited parallelism and free
communication.  That is the machine-independent lower bound on SpTRSV
time; the execution model (``repro.exec_model``) layers resource limits
and communication on top, and the ratio measured/ideal quantifies how much
a given design loses to contention and imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.dag import DependencyDag, build_dag
from repro.analysis.levels import LevelSets, compute_levels
from repro.sparse.csc import CscMatrix

__all__ = ["CriticalPath", "critical_path"]


@dataclass(frozen=True)
class CriticalPath:
    """Result of the weighted critical-path computation.

    Attributes
    ----------
    finish:
        ``finish[i]`` = earliest finish time of component ``i`` under
        infinite resources.
    length:
        Total critical-path cost = ``finish.max()``.
    path:
        One longest chain, as component indices in execution order.
    total_work:
        Sum of all per-component costs (the serial execution time).
    """

    finish: np.ndarray
    length: float
    path: np.ndarray
    total_work: float

    @property
    def ideal_speedup(self) -> float:
        """Maximum possible speedup over serial: ``total_work / length``."""
        if self.length == 0.0:
            return 1.0
        return self.total_work / self.length


def critical_path(
    lower: CscMatrix | DependencyDag,
    cost: np.ndarray | None = None,
    levels: LevelSets | None = None,
) -> CriticalPath:
    """Compute earliest finish times and one critical path.

    Parameters
    ----------
    lower:
        Lower-triangular matrix or a prebuilt dependency DAG.
    cost:
        Per-component solve cost.  Defaults to ``1 + in_degree[i]``, a
        proxy for the work of accumulating ``in_degree`` products plus one
        division (the paper's solve-update phase).
    levels:
        The level sets of the same DAG, when the caller already holds
        them (computed here otherwise).
    """
    dag = lower if isinstance(lower, DependencyDag) else build_dag(lower)
    n = dag.n
    if cost is None:
        cost = 1.0 + dag.in_degree.astype(np.float64)
    else:
        cost = np.asarray(cost, dtype=np.float64)
        if cost.shape != (n,):
            raise ValueError(f"cost must have shape ({n},), got {cost.shape}")

    if levels is None:
        levels = compute_levels(dag)
    finish = np.zeros(n)
    crit_pred = np.full(n, -1, dtype=np.int64)

    # Process level by level: every predecessor of a level-l component is
    # in a strictly lower level, so finish[] of all predecessors is final.
    for l in range(levels.n_levels):
        comps = levels.level(l)
        if l == 0:
            finish[comps] = cost[comps]
            continue
        for i in comps:
            preds = dag.predecessors(int(i))
            k = int(preds[np.argmax(finish[preds])])
            crit_pred[i] = k
            finish[i] = finish[k] + cost[i]

    if n == 0:
        return CriticalPath(finish, 0.0, np.zeros(0, dtype=np.int64), 0.0)

    end = int(np.argmax(finish))
    chain = [end]
    while crit_pred[chain[-1]] >= 0:
        chain.append(int(crit_pred[chain[-1]]))
    chain.reverse()
    return CriticalPath(
        finish=finish,
        length=float(finish[end]),
        path=np.asarray(chain, dtype=np.int64),
        total_work=float(cost.sum()),
    )
