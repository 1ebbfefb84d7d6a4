"""Flat event calendar for the DES engines.

The reference simulator keeps one ``heapq`` of ``(time, seq, process)``
tuples; at scale the per-event cost is dominated by tuple allocation
and Python-level comparisons.  :class:`CalendarQueue` replaces that
with an exact-time calendar:

* a dict maps each **distinct timestamp to a FIFO bucket** (a plain
  list of payloads) and a small heap orders the distinct timestamps;
* the initial spawn front (one event per component, times known
  upfront) is ingested with one vectorised stable argsort via
  :meth:`bulk_push`;
* pops drain the earliest bucket front-to-back, then advance to the
  next timestamp.

Why a FIFO bucket needs no intra-bucket ordering: the DES engines
assign their tie-break sequence numbers monotonically *at push time*,
and every push lands at ``time >= now``.  A payload appended to a
bucket therefore always carries a larger sequence number than every
payload already in it — insertion order **is** ``(time, seq)`` order.
That invariant is what makes the calendar bit-compatible with the
reference engine's ``(time, seq)`` heap while never materialising a
sequence number or an entry tuple (see ``tests/test_des_array.py`` for
the cross-engine golden equality this enables).

Clients that cannot guarantee push-order monotonicity (or that push
into the past) use ``mode="heap"``: a single tuple heap with an
internal :class:`~repro.engine.sequence.MonotonicSequence` breaking
timestamp ties in insertion order — the same helper the reference
simulator uses, so the tie-break rule lives in exactly one place.

The hot loop of :mod:`repro.solvers.des_array` inlines the FIFO
structure (dict + time heap + bucket cursor) into local variables
rather than calling :meth:`push`/:meth:`pop` a million times; the
class is the reference implementation of that structure and the unit
of test for its ordering rules.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.engine.sequence import MonotonicSequence

__all__ = ["CalendarQueue"]


class CalendarQueue:
    """Pending-event set drained in ``(time, insertion)`` order.

    Parameters
    ----------
    mode:
        ``"fifo"`` (default) — the exact-time calendar: payloads pushed
        at the same timestamp come back in insertion order, and pushes
        must never target a timestamp earlier than the latest popped
        one (the DES contract: delays are non-negative).  ``"heap"`` —
        general fallback on one tuple heap with a shared
        :class:`MonotonicSequence` tie-break; accepts pushes in any
        time order.
    """

    __slots__ = (
        "_mode",
        "_heap",
        "_seq",
        "_buckets",
        "_times",
        "_cur_time",
        "_cur",
        "_cur_pos",
        "_count",
    )

    def __init__(self, *, mode: str = "fifo"):
        if mode not in ("fifo", "heap"):
            raise ValueError(f"mode must be 'fifo' or 'heap', got {mode!r}")
        self._mode = mode
        self._heap: list[tuple] = []
        self._seq = MonotonicSequence()
        self._buckets: dict[float, list] = {}
        self._times: list[float] = []
        self._cur_time: float | None = None
        self._cur: list | None = None
        self._cur_pos = 0
        self._count = 0

    # ------------------------------------------------------------- ingest
    def bulk_push(self, times: np.ndarray, payloads: np.ndarray) -> None:
        """Ingest a batch of events in one vectorised sort.

        Payload order within equal times follows the batch order (the
        stable sort keeps it), matching what sequential :meth:`push`
        calls would produce.
        """
        times = np.asarray(times, dtype=np.float64)
        payloads = np.asarray(payloads)
        order = np.argsort(times, kind="stable")
        if self._mode == "heap":
            for t, p in zip(times[order].tolist(), payloads[order].tolist()):
                heapq.heappush(self._heap, (t, self._seq.next(), p))
            self._count += len(times)
            return
        t_sorted = times[order]
        p_sorted = payloads[order].tolist()
        uniq, starts = np.unique(t_sorted, return_index=True)
        bounds = starts.tolist()
        bounds.append(len(p_sorted))
        uniq_l = uniq.tolist()
        buckets = self._buckets
        fresh = []
        for j, t in enumerate(uniq_l):
            bucket = buckets.get(t)
            if bucket is None:
                buckets[t] = p_sorted[bounds[j] : bounds[j + 1]]
                fresh.append(t)
            else:
                bucket.extend(p_sorted[bounds[j] : bounds[j + 1]])
        if fresh:
            self._times.extend(fresh)
            heapq.heapify(self._times)
        self._count += len(p_sorted)

    def push(self, time: float, payload) -> None:
        """Insert one event."""
        if self._mode == "heap":
            heapq.heappush(self._heap, (time, self._seq.next(), payload))
            self._count += 1
            return
        if time == self._cur_time:
            self._cur.append(payload)
        else:
            bucket = self._buckets.get(time)
            if bucket is None:
                self._buckets[time] = [payload]
                heapq.heappush(self._times, time)
            else:
                bucket.append(payload)
        self._count += 1

    # ------------------------------------------------------------- drain
    def pop(self) -> tuple:
        """Remove and return the earliest ``(time, payload)``.

        Raises :class:`IndexError` when empty, so drain loops can use a
        bare ``try``/``except IndexError`` with no emptiness check.
        """
        count = self._count
        if not count:
            raise IndexError("pop from empty CalendarQueue")
        self._count = count - 1
        if self._mode == "heap":
            t, _, payload = heapq.heappop(self._heap)
            return (t, payload)
        cur = self._cur
        if cur is not None and self._cur_pos < len(cur):
            pos = self._cur_pos
            self._cur_pos = pos + 1
            return (self._cur_time, cur[pos])
        t, bucket = self._next_bucket()
        self._cur_time = t
        self._cur = bucket
        self._cur_pos = 1
        return (t, bucket[0])

    def pop_bucket(self) -> tuple:
        """Remove and return the earliest ``(time, bucket)`` whole.

        Ownership of the bucket list transfers to the caller, which
        drains it front-to-back — including any payload appended by
        :meth:`push` at the same timestamp while draining.  This is the
        batch form the array engine's hot loop uses: one heap operation
        per *distinct timestamp* instead of per event.
        """
        if self._mode == "heap":
            raise ValueError("pop_bucket requires mode='fifo'")
        if self._cur is not None and self._cur_pos < len(self._cur):
            t = self._cur_time
            bucket = self._cur[self._cur_pos :]
            self._cur = None
            self._cur_time = None
            self._count -= len(bucket)
            return (t, bucket)
        t, bucket = self._next_bucket()
        self._count -= len(bucket)
        return (t, bucket)

    def _next_bucket(self) -> tuple:
        times = self._times
        if self._cur_time is not None:
            self._buckets.pop(self._cur_time, None)
            self._cur = None
            self._cur_time = None
        if not times:
            raise IndexError("pop from empty CalendarQueue")
        t = heapq.heappop(times)
        return (t, self._buckets.pop(t))

    def peek(self) -> tuple | None:
        """Earliest pending ``(time, payload)`` without removal."""
        if not self._count:
            return None
        if self._mode == "heap":
            t, _, payload = self._heap[0]
            return (t, payload)
        cur = self._cur
        if cur is not None and self._cur_pos < len(cur):
            return (self._cur_time, cur[self._cur_pos])
        t = self._times[0]
        return (t, self._buckets[t][0])

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CalendarQueue({self._count} pending, mode={self._mode!r})"
