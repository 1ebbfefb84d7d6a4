"""Task-to-GPU distribution and the malleable task pool (Section V).

Four placement policies:

* :func:`block_distribution` — the baseline: components split into one
  contiguous block per GPU in ascending order.  Produces the
  unidirectional waiting problem (GPU ``k`` waits on all GPUs ``< k``).
* :func:`round_robin_distribution` — the paper's task model: contiguous
  tasks dealt round-robin over GPUs *in order of available memory* so
  every GPU receives both early (small-index) and late components.
* :func:`costaware_distribution` — task boundaries placed where the
  cumulative estimated component cost (solve + gather tables from the
  artefact bundle) balances, edges priced per design (local atomic
  inside a task, off-diagonal-average remote update + notify across
  tasks), then tasks dealt greedily longest-processing-time first onto
  the least-loaded GPU (schedules beating plain level-set / positional
  dealing on imbalanced DAGs, after Böhnlein et al.).
* :func:`~repro.tasks.hierarchical.hierarchical_distribution` — the
  node-aware two-level round-robin for multi-node fabrics: runs of
  consecutive tasks stay on one NVSwitch island so the slow inter-node
  tier only carries long-range dependencies (the ``node_run`` locality
  knob).

All return a :class:`Distribution` that the execution models and the
functional solver emulations consume; :func:`build_distribution`
resolves one by name (:data:`VALID_DISTRIBUTIONS`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, TaskModelError
from repro.machine.memory import DeviceMemory
from repro.tasks.partition import TaskPartition, partition_components

__all__ = [
    "Distribution",
    "VALID_DISTRIBUTIONS",
    "block_distribution",
    "round_robin_distribution",
    "costaware_distribution",
    "build_distribution",
    "remap_failed_components",
]

#: Distribution names :func:`build_distribution` (and therefore
#: ``RunConfig(distribution=...)``) accepts.
VALID_DISTRIBUTIONS = ("block", "taskpool", "costaware", "hierarchical")


@dataclass(frozen=True)
class Distribution:
    """A complete workload placement.

    Attributes
    ----------
    n:
        Number of components.
    n_gpus:
        Number of participating GPUs (PE ranks ``0..n_gpus-1``).
    partition:
        The underlying component-task partition.
    task_gpu:
        ``(n_tasks,)`` owning GPU rank per task.
    task_launch_slot:
        ``(n_tasks,)`` kernel-launch position of each task *within its
        GPU's launch queue* (0 = launched first).  Tasks on one GPU launch
        in ascending component order, keeping per-GPU dispatch monotone in
        component index (the deadlock-freedom requirement of the
        sync-free execution model).
    gpu_of:
        ``(n,)`` owning GPU rank per component.
    """

    n: int
    n_gpus: int
    partition: TaskPartition
    task_gpu: np.ndarray
    task_launch_slot: np.ndarray
    gpu_of: np.ndarray

    @property
    def n_tasks(self) -> int:
        return self.partition.n_tasks

    @property
    def tasks_per_gpu(self) -> np.ndarray:
        """Number of tasks placed on each GPU."""
        return np.bincount(self.task_gpu, minlength=self.n_gpus)

    def task_of(self) -> np.ndarray:
        """``(n,)`` owning task per component."""
        return self.partition.task_of_components()

    def components_on_gpu(self, g: int) -> np.ndarray:
        """All component indices owned by GPU ``g`` (ascending)."""
        return np.nonzero(self.gpu_of == g)[0]

    def local_fraction(self, dag) -> float:
        """Fraction of dependency edges that stay on one GPU.

        Higher is better: cross-GPU edges are the ones that pay
        communication.  ``dag`` is a
        :class:`repro.analysis.dag.DependencyDag`.
        """
        if dag.n_edges == 0:
            return 1.0
        src = np.repeat(
            np.arange(dag.n, dtype=np.int64), np.diff(dag.out_ptr)
        )
        same = self.gpu_of[src] == self.gpu_of[dag.out_idx]
        return float(np.mean(same))


def _build(
    n: int, n_gpus: int, partition: TaskPartition, task_gpu: np.ndarray
) -> Distribution:
    sizes = partition.sizes()
    gpu_of = np.repeat(task_gpu, sizes)
    # Launch slots: ascending task id per GPU.
    launch = np.zeros(partition.n_tasks, dtype=np.int64)
    next_slot = np.zeros(n_gpus, dtype=np.int64)
    for t in range(partition.n_tasks):
        g = int(task_gpu[t])
        launch[t] = next_slot[g]
        next_slot[g] += 1
    return Distribution(
        n=n,
        n_gpus=n_gpus,
        partition=partition,
        task_gpu=task_gpu,
        task_launch_slot=launch,
        gpu_of=gpu_of,
    )


def block_distribution(n: int, n_gpus: int) -> Distribution:
    """Baseline: one contiguous ascending block per GPU.

    Equivalent to a round-robin distribution with one task per GPU; this
    is the "continued component distribution" of the 4GPU-Shmem scenario.
    """
    if n_gpus < 1:
        raise TaskModelError(f"n_gpus must be >= 1, got {n_gpus}")
    part = partition_components(n, min(n_gpus, max(n, 1)))
    task_gpu = np.arange(part.n_tasks, dtype=np.int64)
    return _build(n, n_gpus, part, task_gpu)


def round_robin_distribution(
    n: int,
    n_gpus: int,
    tasks_per_gpu: int,
    memories: list[DeviceMemory] | None = None,
) -> Distribution:
    """The paper's task model: tasks dealt round-robin over GPUs.

    Parameters
    ----------
    n, n_gpus:
        Problem and machine size.
    tasks_per_gpu:
        Tasks per GPU (the Fig. 9 sensitivity knob); total tasks =
        ``tasks_per_gpu * n_gpus`` (capped at ``n``).
    memories:
        Optional per-GPU :class:`~repro.machine.memory.DeviceMemory`.
        When given, each round deals to GPUs in descending free-memory
        order ("round-robin order based on the available memory",
        Section V); with homogeneous empty devices this degenerates to
        plain round-robin.
    """
    if n_gpus < 1:
        raise TaskModelError(f"n_gpus must be >= 1, got {n_gpus}")
    if tasks_per_gpu < 1:
        raise TaskModelError(f"tasks_per_gpu must be >= 1, got {tasks_per_gpu}")
    n_tasks = min(tasks_per_gpu * n_gpus, max(n, 1))
    part = partition_components(n, n_tasks)
    task_gpu = np.zeros(part.n_tasks, dtype=np.int64)

    if memories is not None and len(memories) != n_gpus:
        raise TaskModelError(
            f"got {len(memories)} device memories for {n_gpus} GPUs"
        )
    # Track placed bytes to honour the available-memory rule.
    sizes = part.sizes()
    placed_bytes = np.array(
        [0 if memories is None else memories[g].used() for g in range(n_gpus)],
        dtype=np.float64,
    )
    t = 0
    while t < part.n_tasks:
        # One dealing round: GPUs ordered by most-available memory first,
        # stable on rank for determinism.
        order = np.argsort(placed_bytes, kind="stable")
        for g in order:
            if t >= part.n_tasks:
                break
            task_gpu[t] = g
            placed_bytes[g] += float(sizes[t]) * 8 * 3  # x, b, intermediates
            t += 1
    return _build(n, n_gpus, part, task_gpu)


def costaware_distribution(
    lower,
    n_gpus: int,
    machine,
    design=None,
    tasks_per_gpu: int | None = None,
) -> Distribution:
    """Cost-aware placement: estimated task cost balanced over GPUs.

    Task boundaries are *cost-balanced*, not count-balanced: the
    per-component cost (solve + gather cost tables from the artefact
    bundle) is accumulated and the contiguous boundaries placed where
    the cumulative cost crosses equal fractions of the total, so a DAG
    whose expensive components cluster at one end still yields tasks of
    comparable work.  Each task is then priced including the
    producer-side edge cost (local atomic inside the task,
    off-diagonal-average remote update plus notify latency across
    tasks) and dealt greedily longest-processing-time first onto the
    currently least-loaded GPU (ties: lower task index, lower rank;
    fully deterministic).  Contiguous tasks keep the per-GPU
    ascending-component dispatch order, so the sync-free
    deadlock-freedom argument of :func:`block_distribution` /
    :func:`round_robin_distribution` carries over unchanged.

    Parameters
    ----------
    lower:
        The system matrix (:class:`~repro.sparse.csc.CscMatrix`); its
        artefact bundle supplies the DAG and cost tables.
    n_gpus, machine:
        Machine shape and the node whose links price the edges.
    design:
        The communication design priced (default
        :attr:`~repro.exec_model.costmodel.Design.SHMEM_READONLY`).
    tasks_per_gpu:
        Pool granularity, as in :func:`round_robin_distribution`.
        Defaults to 1: cost-balanced boundaries already encode the
        imbalance, so extra pool granularity only adds per-task
        kernel-launch overhead.
    """
    from repro.engine.protocol import gather_cost_table, solve_cost_table
    from repro.exec_model.artefacts import get_artefacts
    from repro.exec_model.costmodel import Design

    if n_gpus < 1:
        raise TaskModelError(f"n_gpus must be >= 1, got {n_gpus}")
    if tasks_per_gpu is None:
        tasks_per_gpu = 1
    if tasks_per_gpu < 1:
        raise TaskModelError(f"tasks_per_gpu must be >= 1, got {tasks_per_gpu}")
    if design is None:
        design = Design.SHMEM_READONLY
    art = get_artefacts(lower)
    dag = art.dag
    costs = art.comm_costs(machine, design)

    n = lower.shape[0]
    n_tasks = min(tasks_per_gpu * n_gpus, max(n, 1))

    col_nnz = np.diff(lower.indptr)
    in_counts = np.diff(dag.in_ptr)
    comp_cost = solve_cost_table(
        machine.gpu.t_per_nnz, col_nnz, in_counts
    ) + gather_cost_table(costs.gather, in_counts)

    # Cost-balanced contiguous boundaries: cut where the running node
    # cost crosses k/n_tasks of the total, clamped so every task keeps
    # at least one component and boundaries stay strictly increasing.
    cum = np.cumsum(comp_cost)
    targets = cum[-1] * np.arange(1, n_tasks) / n_tasks
    cuts = np.searchsorted(cum, targets) + 1
    task_ptr = np.zeros(n_tasks + 1, dtype=np.int64)
    task_ptr[-1] = n
    prev = 0
    for i, c in enumerate(cuts, start=1):
        c = max(prev + 1, min(int(c), n - (n_tasks - i)))
        task_ptr[i] = c
        prev = c
    part = TaskPartition(n, task_ptr)
    task_of = part.task_of_components()

    # Producer-side edge pricing: the exact local atomic inside a task;
    # across tasks the destination GPU is unknown before placement, so
    # cross-task edges carry the off-diagonal average update + notify.
    if dag.n_edges:
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(dag.out_ptr))
        dst = dag.out_idx
        if n_gpus > 1:
            off = ~np.eye(n_gpus, dtype=bool)
            remote_avg = float(np.mean(costs.update_remote[off]))
            notify_avg = float(np.mean(costs.notify[off]))
        else:
            remote_avg = notify_avg = float(costs.update_local)
        edge_cost = np.where(
            task_of[src] == task_of[dst],
            costs.update_local,
            remote_avg + notify_avg,
        )
        np.add.at(comp_cost, src, edge_cost)

    task_cost = np.zeros(n_tasks, dtype=np.float64)
    np.add.at(task_cost, task_of, comp_cost)

    # Greedy LPT: heaviest task first (ties ascending id) onto the
    # least-loaded GPU (ties lowest rank).
    task_gpu = np.zeros(n_tasks, dtype=np.int64)
    load = np.zeros(n_gpus, dtype=np.float64)
    for t in np.argsort(-task_cost, kind="stable"):
        g = int(np.argmin(load))
        task_gpu[t] = g
        load[g] += task_cost[t]
    return _build(n, n_gpus, part, task_gpu)


def build_distribution(
    name: str,
    n: int,
    n_gpus: int,
    *,
    tasks_per_gpu: int | None = None,
    lower=None,
    machine=None,
    design=None,
    n_nodes: int | None = None,
    gpus_per_node: int | None = None,
    node_run: int | None = None,
) -> Distribution:
    """Resolve a distribution by name (:data:`VALID_DISTRIBUTIONS`).

    ``tasks_per_gpu=None`` means each policy's canonical granularity:
    2 for ``"taskpool"`` (the paper's default pool) and
    ``"hierarchical"`` (the same pool, dealt node-aware), 1 for
    ``"costaware"`` (cost-balanced boundaries already encode the
    imbalance).  ``"costaware"`` prices tasks from the system matrix
    and so requires ``lower=`` and ``machine=``; the positional
    policies ignore them.  ``"hierarchical"`` needs the node axis —
    ``n_nodes`` and ``gpus_per_node`` (inferred from
    ``machine.topology.node_shape`` when a mesh-built machine is
    passed), with ``node_run`` as its locality knob (see
    :func:`~repro.tasks.hierarchical.hierarchical_distribution`); the
    knob is rejected for every other policy.  Unknown names raise a
    typed :class:`~repro.errors.ConfigurationError` listing the
    choices.
    """
    if name != "hierarchical" and node_run is not None:
        raise ConfigurationError(
            f"node_run is the hierarchical locality knob; distribution "
            f"{name!r} does not accept it",
            parameter="node_run",
            value=node_run,
        )
    if name == "block":
        return block_distribution(n, n_gpus)
    if name == "taskpool":
        return round_robin_distribution(
            n, n_gpus, 2 if tasks_per_gpu is None else tasks_per_gpu
        )
    if name == "hierarchical":
        if (n_nodes is None or gpus_per_node is None) and machine is not None:
            shape = getattr(machine.topology, "node_shape", None)
            if shape is not None:
                n_nodes, gpus_per_node = shape
        if n_nodes is None or gpus_per_node is None:
            raise ConfigurationError(
                "distribution 'hierarchical' places along the node axis; "
                "pass n_nodes= and gpus_per_node= (or a mesh-built "
                "machine whose topology carries node_shape)",
                parameter="distribution",
                value=name,
            )
        if n_nodes * gpus_per_node != n_gpus:
            raise ConfigurationError(
                f"node axis {n_nodes}x{gpus_per_node} does not cover "
                f"{n_gpus} ranks",
                parameter="n_nodes",
                value=(n_nodes, gpus_per_node),
            )
        from repro.tasks.hierarchical import hierarchical_distribution

        return hierarchical_distribution(
            n,
            n_nodes,
            gpus_per_node,
            2 if tasks_per_gpu is None else tasks_per_gpu,
            node_run=node_run,
        )
    if name == "costaware":
        if lower is None or machine is None:
            raise ConfigurationError(
                "distribution 'costaware' prices tasks from the system "
                "matrix; pass lower= and machine=",
                parameter="distribution",
                value=name,
            )
        return costaware_distribution(
            lower,
            n_gpus,
            machine,
            design=design,
            tasks_per_gpu=tasks_per_gpu,
        )
    raise ConfigurationError(
        f"unknown distribution {name!r}; valid choices: "
        + ", ".join(VALID_DISTRIBUTIONS),
        parameter="distribution",
        value=name,
        choices=VALID_DISTRIBUTIONS,
    )


# ----------------------------------------------------------------------
# Graceful degradation: re-distribution after a GPU failure.
# ----------------------------------------------------------------------
def remap_failed_components(
    gpu_of: np.ndarray,
    components,
    failed: int,
    n_gpus: int,
    dead: set[int] | None = None,
) -> np.ndarray:
    """Deterministically remap ``components`` off a failed GPU.

    This is the fine-grained hook the DES engines call mid-run when a
    ``gpu_fail`` fault fires: ``components`` (the failed GPU's unsolved
    work, ascending) is dealt round-robin over the surviving ranks in
    ascending-current-load order (stable on rank), mirroring the paper's
    available-memory dealing rule at component granularity.

    Returns the new owning rank per entry of ``components``.  Raises
    :class:`TaskModelError` when no survivor remains.
    """
    dead = set(dead or ()) | {failed}
    survivors = [g for g in range(n_gpus) if g not in dead]
    if not survivors:
        raise TaskModelError(
            f"cannot remap components: all {n_gpus} GPUs have failed"
        )
    load = np.bincount(gpu_of, minlength=n_gpus).astype(np.int64)
    order = sorted(survivors, key=lambda g: (load[g], g))
    targets = np.empty(len(components), dtype=np.int64)
    for k in range(len(components)):
        targets[k] = order[k % len(order)]
    return targets
