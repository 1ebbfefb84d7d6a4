"""Functional emulation of the multi-GPU algorithms' memory semantics.

These routines *execute* Algorithm 2 (unified memory) and Algorithm 3
(NVSHMEM read-only) on the simulated memory systems: every counter
increment/decrement, partial-sum accumulation, and remote read happens on
real arrays with the same ownership/visibility rules as on the hardware.
The solve order interleaves components of the same level across GPUs
round-robin, emulating concurrent warps deterministically.

Each component's readiness condition is *checked* (not assumed) before it
solves — the emulation would raise :class:`SolverError` if the paper's
counter protocol were wrong — so tests exercising these paths validate
the algorithms themselves, not just our timing model.

Timing is NOT modelled here; that is
:mod:`repro.exec_model.timeline`'s job.  What these functions return,
besides ``x``, are the memory-system objects whose counters (page faults,
get counts) reflect the emulated access stream.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.levels import LevelSets
from repro.errors import SolverError
from repro.exec_model.artefacts import get_artefacts
from repro.machine.node import MachineConfig
from repro.machine.shmem import SymmetricHeap
from repro.machine.unified import UnifiedMemory
from repro.sparse.csc import CscMatrix
from repro.tasks.schedule import Distribution

__all__ = [
    "emulate_unified_solve",
    "emulate_shmem_solve",
    "interleaved_order",
    "random_level_order",
]


def interleaved_order(
    levels: LevelSets, dist: Distribution
) -> list[int]:
    """Deterministic concurrent-execution order.

    Within each level (components are independent), interleave across
    GPUs round-robin: GPU0's first, GPU1's first, ..., GPU0's second, ...
    This mimics simultaneous warps touching shared state from different
    GPUs, which is what provokes unified-memory page bouncing.
    """
    order: list[int] = []
    gpu_of = dist.gpu_of
    for l in range(levels.n_levels):
        comps = levels.level(l)
        per_gpu: dict[int, list[int]] = {}
        for c in comps:
            per_gpu.setdefault(int(gpu_of[c]), []).append(int(c))
        queues = [per_gpu[g] for g in sorted(per_gpu)]
        k = 0
        while queues:
            q = queues[k % len(queues)]
            order.append(q.pop(0))
            if not q:
                queues.remove(q)
            else:
                k += 1
    return order


def random_level_order(
    levels: LevelSets, seed: int
) -> list[int]:
    """A random execution order that still respects level boundaries.

    Components shuffle freely *within* each level — modelling an
    arbitrary hardware interleaving of the concurrent warps — while
    levels stay ordered.  Used by robustness tests to check the counter
    protocols are insensitive to scheduling nondeterminism.
    """
    rng = np.random.default_rng(seed)
    order: list[int] = []
    for l in range(levels.n_levels):
        comps = np.array(levels.level(l))
        rng.shuffle(comps)
        order.extend(int(c) for c in comps)
    return order


def emulate_unified_solve(
    lower: CscMatrix,
    b: np.ndarray,
    dist: Distribution,
    machine: MachineConfig,
    levels: LevelSets | None = None,
    order: list[int] | None = None,
) -> tuple[np.ndarray, UnifiedMemory]:
    """Execute Algorithm 2 on the unified-memory model.

    Allocates the shared ``s.left_sum``/``s.in_degree`` managed arrays and
    per-GPU device arrays, runs the in-degree pre-pass and the two-phase
    (lock-wait / solve-update) solve, and returns ``(x, um)`` where ``um``
    carries exact fault counts for the emulated access stream.
    """
    n = lower.shape[0]
    n_gpus = machine.n_gpus
    if levels is None:
        levels = get_artefacts(lower).levels
    um = UnifiedMemory(machine.um, machine.topology)
    s_left = um.malloc_managed("s.left_sum", n)
    s_indeg = um.malloc_managed("s.in_degree", n, dtype=np.int64)
    d_left = [np.zeros(n) for _ in range(n_gpus)]
    # d_done is Algorithm 2's d.in_degree: local updates delivered so far.
    d_done = [np.zeros(n, dtype=np.int64) for _ in range(n_gpus)]

    indptr, indices, data = lower.indptr, lower.indices, lower.data
    gpu_of = dist.gpu_of
    phys = machine.active_gpus

    # --- pre-pass: system-wide atomic increments of s.in_degree ----------
    # (Algorithm 2 lines 6-9; every nonzero of every GPU's columns.)
    for j in range(n):
        g = int(gpu_of[j])
        for e in range(int(indptr[j]), int(indptr[j + 1])):
            rid = int(indices[e])
            um.access(phys[g], s_indeg, rid, sharers=n_gpus)
            s_indeg.data[rid] += 1

    # --- solve: lock-wait + solve-update ----------------------------------
    x = np.zeros(n)
    if order is None:
        order = interleaved_order(levels, dist)
    for i in order:
        g = int(gpu_of[i])
        pg = phys[g]
        # Lock-wait check (line 17): d.in_degree[i] + 1 == s.in_degree[i].
        um.access(pg, s_indeg, i, sharers=n_gpus)
        if d_done[g][i] + 1 != int(s_indeg.data[i]):
            raise SolverError(
                f"component {i} scheduled before its dependencies were met: "
                f"local done {int(d_done[g][i])}, shared counter "
                f"{int(s_indeg.data[i])}"
            )
        lo, hi = int(indptr[i]), int(indptr[i + 1])
        if indices[lo] != i:
            raise SolverError(f"missing diagonal at column {i}")
        um.access(pg, s_left, i, sharers=n_gpus)
        xi = (b[i] - d_left[g][i] - s_left.data[i]) / data[lo]
        x[i] = xi
        # Update dependants (lines 21-28).
        for e in range(lo + 1, hi):
            rid = int(indices[e])
            contrib = data[e] * xi
            if int(gpu_of[rid]) == g:
                d_left[g][rid] += contrib
                d_done[g][rid] += 1
            else:
                um.access(pg, s_left, rid, sharers=n_gpus)
                s_left.data[rid] += contrib
                um.access(pg, s_indeg, rid, sharers=n_gpus)
                s_indeg.data[rid] -= 1
    return x, um


def emulate_shmem_solve(
    lower: CscMatrix,
    b: np.ndarray,
    dist: Distribution,
    machine: MachineConfig,
    levels: LevelSets | None = None,
    use_shortcircuit: bool = True,
    order: list[int] | None = None,
) -> tuple[np.ndarray, SymmetricHeap]:
    """Execute Algorithm 3 on the NVSHMEM model (read-only communication).

    Per PE symmetric arrays accumulate *locally*; consumers gather with
    one-sided gets across all PEs and reduce.  With
    ``use_shortcircuit=True``, a PE whose remote counter already reached
    zero is skipped on subsequent polls (the Section IV-B bandwidth
    optimisation); the emulation tracks skipped gets in
    ``heap.get_count``.
    """
    n = lower.shape[0]
    n_pes = machine.n_gpus
    if levels is None:
        levels = get_artefacts(lower).levels
    heap = SymmetricHeap(
        n_pes=n_pes,
        topology=machine.topology,
        spec=machine.shmem,
        pe_to_gpu=np.asarray(machine.active_gpus, dtype=np.int64),
    )
    s_left = heap.malloc("s.left_sum", n)
    s_indeg = heap.malloc("s.in_degree", n, dtype=np.int64)
    d_left = [np.zeros(n) for _ in range(n_pes)]
    d_done = [np.zeros(n, dtype=np.int64) for _ in range(n_pes)]
    # r.in_degree cache per PE: last remote counter snapshot (for the
    # short-circuit check).
    r_indeg = [np.full((n, n_pes), -1, dtype=np.int64) for _ in range(n_pes)]

    indptr, indices, data = lower.indptr, lower.indices, lower.data
    gpu_of = dist.gpu_of

    # --- pre-pass: PE-local in-degree accumulation (lines 13-15) ---------
    for j in range(n):
        pe = int(gpu_of[j])
        rows = indices[int(indptr[j]) : int(indptr[j + 1])]
        np.add.at(s_indeg[pe], rows, 1)

    # --- solve ------------------------------------------------------------
    x = np.zeros(n)
    if order is None:
        order = interleaved_order(levels, dist)
    for i in order:
        pe = int(gpu_of[i])
        # Lock-wait: gather remote in-degree counters (lines 19-23).
        total = 0
        for src_pe in range(n_pes):
            if (
                use_shortcircuit
                and src_pe != pe
                and r_indeg[pe][i, src_pe] == 0
            ):
                continue  # satisfied PE: skip the remote read
            val, _cost = heap.get("s.in_degree", i, src_pe, pe)
            r_indeg[pe][i, src_pe] = int(val)
            total += int(val)
        if use_shortcircuit:
            total = int(np.sum(np.maximum(r_indeg[pe][i], 0)))
        if d_done[pe][i] + 1 != total:
            raise SolverError(
                f"component {i} scheduled before its dependencies were met: "
                f"local done {int(d_done[pe][i])}, gathered counter {total}"
            )
        # Gather partial sums (lines 24-26) and solve (lines 27-28).
        sums, _cost = heap.get_row("s.left_sum", i, pe)
        remote_sum = float(sums.sum())
        lo, hi = int(indptr[i]), int(indptr[i + 1])
        if indices[lo] != i:
            raise SolverError(f"missing diagonal at column {i}")
        xi = (b[i] - d_left[pe][i] - remote_sum) / data[lo]
        x[i] = xi
        # Update dependants (lines 29-36): local -> device arrays,
        # remote -> THIS PE's own symmetric heap (read-only model).
        for e in range(lo + 1, hi):
            rid = int(indices[e])
            contrib = data[e] * xi
            if int(gpu_of[rid]) == pe:
                d_left[pe][rid] += contrib
                d_done[pe][rid] += 1
            else:
                s_left[pe][rid] += contrib
                s_indeg[pe][rid] -= 1
    return x, heap
