"""Ablation: round-robin task placement vs block placement at equal task
counts.

Isolates the placement decision of Section V from the granularity
decision: both configurations cut the components into 32 tasks; only the
dealing order differs.  Block placement reproduces the unidirectional
waiting chain (waiting_bias = 1.0); round-robin mixes it.
"""

from conftest import once, publish

import numpy as np

from repro.bench.harness import context, geomean
from repro.bench.report import format_table
from repro.exec_model.costmodel import Design
from repro.exec_model.timeline import simulate_execution
from repro.machine.node import dgx1
from repro.tasks.partition import partition_components
from repro.tasks.schedule import Distribution, round_robin_distribution
from repro.workloads.suite import IN_MEMORY_NAMES


def block_placed_tasks(n: int, n_gpus: int, tasks_per_gpu: int) -> Distribution:
    """Same 32-task partition as round-robin, but tasks dealt in blocks:
    GPU 0 gets the first 8 tasks, GPU 1 the next 8, ..."""
    n_tasks = min(tasks_per_gpu * n_gpus, max(n, 1))
    part = partition_components(n, n_tasks)
    task_gpu = np.repeat(np.arange(n_gpus, dtype=np.int64), tasks_per_gpu)[
        : part.n_tasks
    ]
    launch = np.zeros(part.n_tasks, dtype=np.int64)
    next_slot = np.zeros(n_gpus, dtype=np.int64)
    for t in range(part.n_tasks):
        g = int(task_gpu[t])
        launch[t] = next_slot[g]
        next_slot[g] += 1
    return Distribution(
        n=n,
        n_gpus=n_gpus,
        partition=part,
        task_gpu=task_gpu,
        task_launch_slot=launch,
        gpu_of=np.repeat(task_gpu, part.sizes()),
    )


def run_ablation():
    machine = dgx1(4)
    rows = []
    for name in IN_MEMORY_NAMES:
        ctx = context(name)
        n = ctx.lower.shape[0]
        rr = round_robin_distribution(n, 4, tasks_per_gpu=8)
        bl = block_placed_tasks(n, 4, tasks_per_gpu=8)
        t_rr = simulate_execution(
            ctx.lower, rr, machine, Design.SHMEM_READONLY
        ).total_time
        t_bl = simulate_execution(
            ctx.lower, bl, machine, Design.SHMEM_READONLY
        ).total_time
        rows.append([name, t_bl / t_rr])
    rows.append(["geomean", geomean(r[1] for r in rows)])
    return rows


def test_ablation_round_robin_placement(benchmark):
    rows = once(benchmark, run_ablation)
    publish(
        "ablation_placement",
        format_table(
            "Ablation - round-robin placement speedup over block placement "
            "(both 32 tasks)",
            ["matrix", "speedup"],
            rows,
        ),
    )
    # Placement is the load-balancing half of the task model: round-robin
    # must win on average.
    assert rows[-1][1] > 1.1
