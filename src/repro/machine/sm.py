"""SM-granular occupancy: per-SM warp pools with block-level placement.

The flat :class:`~repro.machine.gpu.WarpScheduler` treats a GPU as one
pool of warp slots — work-conserving, but real hardware is not: warps
belong to *thread blocks*, blocks are pinned to a streaming
multiprocessor at launch, and a stalled SM's slots cannot serve warps
queued behind a busy one.  That fragmentation is the classic reason
sync-free SpTRSV kernels size their blocks carefully.

:class:`SmWarpScheduler` models it with the same dispatch/retire
interface as the flat scheduler, so
:func:`repro.exec_model.timeline.simulate_execution` can swap it in via
``sm_granularity=True`` and measure how much the flat model's optimism
costs — the `bench_ablation_sm_model` study.

Slot bookkeeping is pooled: one preallocated ``(n_sms, per_sm)`` array
of resident finish times plus a per-SM occupancy count, instead of a
Python heap per SM.  Dispatch-when-full evicts the row's minimum
(``argmin`` over at most ``per_sm`` floats), which is the same multiset
operation as the old per-SM ``heappop``, so schedules are unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.machine.gpu import GpuCounters
from repro.machine.specs import GpuSpec

__all__ = ["SmWarpScheduler"]


class SmWarpScheduler:
    """Per-SM slot pools with round-robin block placement.

    Parameters
    ----------
    spec:
        GPU sheet; ``spec.warp_slots`` is divided evenly across
        ``spec.n_sms`` multiprocessors.
    """

    def __init__(self, spec: GpuSpec):
        self.spec = spec
        if spec.n_sms < 1 or spec.block_warps < 1:
            raise SimulationError("need n_sms >= 1 and block_warps >= 1")
        self.per_sm = max(spec.warp_slots // spec.n_sms, 1)
        # Pooled resident-warp finish times: row per SM, fixed width.
        self._slots = np.empty((spec.n_sms, self.per_sm), dtype=np.float64)
        self._counts = np.zeros(spec.n_sms, dtype=np.int64)
        self._block_sm = 0  # SM of the block currently being filled
        self._in_block = 0  # warps already placed in that block
        self._last_sm = 0  # SM of the most recent dispatch (for retire)
        self.counters = GpuCounters()

    def dispatch(self, not_before: float) -> float:
        """Acquire a slot on the current block's SM.

        Warps arrive in block groups of ``spec.block_warps``; every full
        block advances to the next SM round-robin — the hardware's
        block-to-SM placement.  A full SM delays the dispatch until one
        of *its own* warps retires, even if other SMs sit idle
        (fragmentation).
        """
        sm = self._block_sm
        cnt = int(self._counts[sm])
        if cnt < self.per_sm:
            t = not_before
        else:
            row = self._slots[sm]
            j = int(np.argmin(row[:cnt]))
            t = max(float(row[j]), not_before)
            # Evict the earliest finisher: swap-with-last keeps the
            # occupied prefix dense.
            row[j] = row[cnt - 1]
            self._counts[sm] = cnt - 1
        self._last_sm = sm
        self._in_block += 1
        if self._in_block >= self.spec.block_warps:
            self._in_block = 0
            self._block_sm = (self._block_sm + 1) % self.spec.n_sms
        return t + self.spec.t_warp_dispatch

    def retire(self, finish_time: float) -> None:
        """Release the most recently dispatched warp's slot."""
        sm = self._last_sm
        cnt = int(self._counts[sm])
        if cnt >= self._slots.shape[1]:  # pragma: no cover - defensive
            # Only reachable if a caller retires more warps than it
            # dispatched; widen the pool rather than corrupt a row.
            self._slots = np.concatenate(
                [self._slots, np.empty_like(self._slots)], axis=1
            )
        self._slots[sm, cnt] = finish_time
        self._counts[sm] = cnt + 1
        self.counters.last_finish = max(self.counters.last_finish, finish_time)

    @property
    def resident(self) -> int:
        return int(self._counts.sum())
