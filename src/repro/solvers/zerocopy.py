"""The paper's headline design: zero-copy SpTRSV (NVSHMEM + task pool).

``4GPU-Zerocopy`` in Fig. 7: the read-only NVSHMEM communication model of
Algorithm 3 combined with the Section V task-distribution module —
contiguous component-tasks dealt round-robin over GPUs so that every GPU
works on both early and late components, breaking the unidirectional
waiting chain of block distribution.

All tasks on one GPU share that PE's symmetric intermediate arrays
(Section V: "all tasks scheduled on the same GPU share same sets of
intermediate arrays"), which the functional emulation reproduces by
keying every array on the PE rank, never on the task.
"""

from __future__ import annotations

from repro.errors import TaskModelError
from repro.machine.node import MachineConfig
from repro.solvers.nvshmem import ShmemSolver
from repro.tasks.schedule import Distribution, round_robin_distribution

__all__ = ["ZeroCopySolver"]


class ZeroCopySolver(ShmemSolver):
    """Task-model-enabled zero-copy SpTRSV (the proposed design).

    The NVSHMEM pipeline of :class:`~repro.solvers.nvshmem.ShmemSolver`
    (inherited ``solve``) with the task-pool distribution in place of
    the block one.

    Parameters
    ----------
    machine:
        Node configuration (P2P clique).
    tasks_per_gpu:
        The Fig. 9 sensitivity knob; the paper's default operating point
        is 8 tasks per GPU.
    emulate, warp_reduce, shortcircuit:
        As in :class:`~repro.solvers.nvshmem.ShmemSolver`.
    """

    name = "multi-gpu-zerocopy"

    def __init__(
        self,
        machine: MachineConfig | None = None,
        tasks_per_gpu: int = 8,
        emulate: bool = True,
        warp_reduce: bool = True,
        shortcircuit: bool = True,
    ):
        if tasks_per_gpu < 1:
            raise TaskModelError(
                f"tasks_per_gpu must be >= 1, got {tasks_per_gpu}"
            )
        super().__init__(
            machine=machine,
            emulate=emulate,
            warp_reduce=warp_reduce,
            shortcircuit=shortcircuit,
        )
        self.tasks_per_gpu = tasks_per_gpu

    def distribution(self, n: int) -> Distribution:
        return round_robin_distribution(
            n,
            self.machine.n_gpus,
            self.tasks_per_gpu,
            memories=self.machine.device_memories(),
        )
