"""GPU execution model: warp-slot occupancy and dispatch scheduling.

One warp solves one component (Liu et al.'s mapping, kept by the paper).
A GPU sustains :attr:`~repro.machine.specs.GpuSpec.warp_slots` resident
warps; a component's warp occupies its slot from dispatch until the
solve-update finishes — *including* the lock-wait spin, which is how
waiting time eats hardware and why workload imbalance hurts (Section V).

:class:`WarpScheduler` implements dispatch-in-order list scheduling over
the slot pool; the thread-level solver drives it directly.  The fast
timing model runs the same rule inlined in its list loops, and batched
by :class:`BatchWarpPool` on wide dispatch fronts.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.machine.specs import GpuSpec

__all__ = ["WarpScheduler", "BatchWarpPool", "GpuCounters"]


@dataclass
class GpuCounters:
    """Per-GPU accounting accumulated during a simulated solve."""

    last_finish: float = 0.0


class WarpScheduler:
    """Slot-pool scheduler for one GPU.

    Components must be dispatched in ascending global index order (the
    hardware scheduler's block-issue order); this is what guarantees the
    sync-free algorithm cannot deadlock under finite occupancy.
    """

    def __init__(self, spec: GpuSpec):
        self.spec = spec
        self._busy: list[float] = []  # min-heap of slot free times
        self.counters = GpuCounters()

    def dispatch(self, not_before: float) -> float:
        """Acquire a slot; returns the dispatch time.

        ``not_before`` is the earliest legal dispatch (e.g. the owning
        task's kernel-launch completion).
        """
        if len(self._busy) < self.spec.warp_slots:
            t = not_before
        else:
            t = max(heapq.heappop(self._busy), not_before)
        return t + self.spec.t_warp_dispatch

    def retire(self, finish_time: float) -> None:
        """Release the slot at ``finish_time``."""
        heapq.heappush(self._busy, finish_time)
        self.counters.last_finish = max(self.counters.last_finish, finish_time)

    @property
    def resident(self) -> int:
        """Number of slots currently charged (dispatched, not retired)."""
        return len(self._busy)


class BatchWarpPool:
    """Vectorised slot pool: batch-dispatch equivalent of :class:`WarpScheduler`.

    Processes a whole batch of dispatch requests (already in ascending
    component-index order, the hardware issue order) against the slot
    pool with array operations.  Produces dispatch and finish times
    bit-identical to feeding the same sequence through
    ``WarpScheduler.dispatch``/``retire`` one component at a time.

    The heap-free formulation rests on an order-statistic identity of
    dispatch-in-order list scheduling: because every pushed finish time
    is at least the free time it replaced, the slot freed for the
    ``k``-th request of a batch is exactly the ``(k+1)``-th smallest
    element of ``pool ∪ {all batch finish times}``.  Finish times depend
    on the pops and vice versa, so the batch is resolved by a monotone
    fixpoint iteration started from the pops of the pool alone (an upper
    bound); any fixpoint equals the sequential schedule, and convergence
    almost always takes two rounds (one guess, one confirmation).  A
    per-item heap fallback guarantees exactness if the iteration cap is
    ever hit.
    """

    def __init__(self, spec: GpuSpec, heap: list[float] | None = None):
        self.spec = spec
        # Sorted slot free times.  ``heap`` hands over a slot heap's
        # contents in any order (only the multiset matters); -inf entries
        # mark free slots and are dropped.
        free = np.sort(np.array(heap if heap else (), dtype=np.float64))
        self._free = free[np.searchsorted(free, -np.inf, side="right") :]
        self.counters = GpuCounters()
        self.fallbacks = 0  # batches resolved by the reference heap path

    def heap(self) -> list[float]:
        """The pool as a full ``heapq`` list, -inf for each free slot.

        A sorted list is a valid heap, so no ``heapify`` is needed.
        """
        n_free = self.spec.warp_slots - len(self._free)
        return [-np.inf] * n_free + self._free.tolist()

    @property
    def resident(self) -> int:
        """Number of slots currently charged (same meaning as the heap)."""
        return len(self._free)

    def dispatch_batch(
        self,
        not_before: np.ndarray,
        ready: np.ndarray,
        comm: np.ndarray,
        solve: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dispatch a batch of independent components in index order.

        Parameters
        ----------
        not_before:
            Earliest legal dispatch per component (kernel-launch gate).
        ready:
            Dependency readiness per component (must not depend on any
            other member of this batch).
        comm, solve:
            Communication and productive cost per component; the finish
            time is ``(max(dispatch, ready) + comm) + solve`` with exactly
            that float association, matching the scalar timeline loop.

        Returns
        -------
        (dispatch, finish):
            Per-component dispatch and finish times; the batch's finish
            times are retired into the pool before returning.
        """
        spec = self.spec
        w, d = spec.warp_slots, spec.t_warp_dispatch
        m = len(not_before)
        if m == 0:
            return np.empty(0), np.empty(0)
        pool = self._free
        dispatch = np.empty(m, dtype=np.float64)
        finish = np.empty(m, dtype=np.float64)

        # Requests that find the pool unsaturated dispatch immediately.
        k0 = min(m, max(0, w - len(pool)))
        if k0:
            disp = not_before[:k0] + d
            fin = (np.maximum(disp, ready[:k0]) + comm[:k0]) + solve[:k0]
            dispatch[:k0] = disp
            finish[:k0] = fin
            pool = np.sort(np.concatenate([pool, fin])) if len(pool) else np.sort(fin)

        if k0 < m:
            c = m - k0
            nb = not_before[k0:]
            rd = ready[k0:]
            cm = comm[k0:]
            sv = solve[k0:]
            if c <= len(pool):
                pops = pool[:c]
            else:  # pragma: no cover - c > warp_slots needs a huge batch
                pops = np.concatenate([pool, np.full(c - len(pool), np.inf)])
            merged = pool
            converged = False
            for _ in range(c + 2):
                disp = np.maximum(pops, nb) + d
                fin = (np.maximum(disp, rd) + cm) + sv
                merged = np.sort(np.concatenate([pool, fin]))
                new_pops = merged[:c]
                if np.array_equal(new_pops, pops):
                    converged = True
                    break
                pops = new_pops
            if converged:
                dispatch[k0:] = disp
                finish[k0:] = fin
                pool = merged[c:]
            else:  # pragma: no cover - iteration cap is c+2, cannot trip
                self.fallbacks += 1
                heap = pool.tolist()  # sorted array satisfies heap order
                for j in range(c):
                    t = heapq.heappop(heap)
                    if t < nb[j]:
                        t = float(nb[j])
                    dj = t + d
                    fj = (max(dj, float(rd[j])) + float(cm[j])) + float(sv[j])
                    dispatch[k0 + j] = dj
                    finish[k0 + j] = fj
                    heapq.heappush(heap, fj)
                pool = np.sort(np.asarray(heap))

        self._free = pool
        last = float(np.max(finish))
        if last > self.counters.last_finish:
            self.counters.last_finish = last
        return dispatch, finish

