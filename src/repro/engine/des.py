"""The discrete-event simulator core (reference engine).

Processes are plain Python generators that yield commands from
:mod:`repro.engine.events`.  The simulator owns the clock and an event
heap; it resumes each process at its scheduled time, interprets the next
command, and re-schedules.  Determinism: ties at equal time resolve in
scheduling order (a monotone sequence number issued at schedule time),
so a given workload always produces the identical trace.

Heap entries are :class:`~repro.engine.events.ScheduledEvent` records
ordered by ``(time, seq)``; ``seq`` is unique, so ties never compare
the process object.  This is the *reference* engine — kept deliberately
literal (one generator per process, one scheduler entry per event) as
the correctness oracle; the array engine in
:mod:`repro.solvers.des_array` plays the same protocol as integer tokens
in per-time FIFO buckets, with no sequence numbers and none of these
per-event objects, and must stay bit-identical to it
(``tests/test_des_array.py`` enforces that).

Example
-------
>>> from repro.engine.des import Simulator
>>> from repro.engine.events import Timeout
>>> sim = Simulator()
>>> log = []
>>> def worker(name, delay):
...     yield Timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.spawn(worker("b", 2.0)); _ = sim.spawn(worker("a", 1.0))
>>> sim.run()
4
>>> log
[(1.0, 'a'), (2.0, 'b')]
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from itertools import count
from typing import Any, Generator, Hashable

from repro.engine.events import (
    Acquire,
    Release,
    ScheduledEvent,
    Signal,
    Timeout,
    Wait,
)
from repro.engine.resources import Resource
from repro.errors import DeadlockError, SimulationError

__all__ = ["Simulator", "Process"]

Process = Generator[Any, None, None]


class Simulator:
    """Event-driven scheduler over generator processes.

    ``watchdog`` is an optional progress monitor (duck-typed to
    :class:`repro.resilience.watchdog.Watchdog`): its ``check(now)`` is
    invoked once per *distinct timestamp* the clock advances to, so it
    can raise :class:`~repro.errors.DeadlockError` on no-progress stalls
    without adding events of its own (determinism and trace parity with
    the array engine are preserved).
    """

    def __init__(self, max_events: int = 50_000_000, watchdog=None):
        self.now: float = 0.0
        self._heap: list[ScheduledEvent] = []
        self._seq = count()
        self._waiting: dict[Hashable, list[Process]] = defaultdict(list)
        self._alive: int = 0
        self._events_processed: int = 0
        self._max_events = max_events
        self.watchdog = watchdog
        #: Optional callable mapping the blocked-channel dict to the
        #: :class:`DeadlockError` to raise when the heap drains with
        #: waiters (the DES solver installs the protocol's shared
        #: builder, so both engines report a starved run identically).
        self.deadlock_error = None

    # ------------------------------------------------------------------
    def spawn(self, process: Process, delay: float = 0.0) -> Process:
        """Register a new process, starting after ``delay``."""
        self._alive += 1
        self._schedule(process, self.now + delay)
        return process

    def _schedule(self, process: Process, time: float) -> None:
        heapq.heappush(
            self._heap, ScheduledEvent(time, next(self._seq), process)
        )

    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> int:
        """Run until no events remain (or past ``until``).

        Returns the number of events processed.  Raises
        :class:`SimulationError` if processes remain alive but no event is
        schedulable (deadlock), or if the event budget is exhausted
        (livelock guard).

        Both bounds are **timestamp-atomic**: the simulator never stops
        in the middle of a batch of equal-time events.

        * ``until`` — every event with ``time <= until`` is processed
          (ties exactly at ``until`` drain in ``seq`` order); the first
          event strictly past ``until`` stays pending for a later
          :meth:`run` call.
        * ``max_events`` (constructor budget) — once the budget is
          reached, events already scheduled at the *current* timestamp
          still drain in ``seq`` order, then the guard raises before the
          clock advances.  If draining the tie batch empties the heap,
          the run completes normally — the guard only trips on work that
          would move time forward, which is what a livelock does.

        When both bounds apply at once, ``until`` wins: reaching the
        time horizon is a normal return, never a budget error.
        """
        start_count = self._events_processed
        heap = self._heap
        watchdog = self.watchdog
        while heap:
            head_time = heap[0].time
            if until is not None and head_time > until:
                break
            if (
                self._events_processed >= self._max_events
                and head_time > self.now
            ):
                raise SimulationError(
                    f"event budget {self._max_events} exhausted (livelock?)"
                )
            if watchdog is not None and head_time > self.now:
                watchdog.check(head_time)
            ev = heapq.heappop(heap)
            self.now = ev.time
            self._step(ev.process)
            self._events_processed += 1
        if self._alive > 0 and not heap:
            # Quiescent with waiters: no future run() call can ever wake
            # these processes (the heap is empty), so returning silently
            # would hide a deadlock — regardless of the ``until`` bound.
            if self.deadlock_error is not None:
                raise self.deadlock_error(self._waiting)
            blocked = {
                repr(ch): len(ps) for ch, ps in self._waiting.items() if ps
            }
            names = sorted(
                {
                    getattr(p, "__name__", "process")
                    for ps in self._waiting.values()
                    for p in ps
                }
            )
            diagnostics = {
                "alive": self._alive,
                "now": self.now,
                "blocked_process_kinds": names,
                "events_processed": self._events_processed,
            }
            raise DeadlockError(
                f"deadlock: {self._alive} processes alive with empty event "
                f"heap; waiters per channel: {blocked}",
                blocked=blocked,
                diagnostics=diagnostics,
            )
        return self._events_processed - start_count

    # ------------------------------------------------------------------
    def _step(self, process: Process) -> None:
        """Resume ``process`` and interpret commands until it suspends."""
        while True:
            try:
                cmd = next(process)
            except StopIteration:
                self._alive -= 1
                return
            if isinstance(cmd, Timeout):
                self._schedule(process, self.now + cmd.delay)
                return
            if isinstance(cmd, Acquire):
                res: Resource = cmd.resource
                if res.try_acquire(process):
                    continue  # granted synchronously
                return  # parked in the resource queue
            if isinstance(cmd, Release):
                waiter = cmd.resource.release()
                if waiter is not None:
                    self._schedule(waiter, self.now)
                continue
            if isinstance(cmd, Wait):
                self._waiting[cmd.channel].append(process)
                return
            if isinstance(cmd, Signal):
                woken = self._waiting.pop(cmd.channel, [])
                for w in woken:
                    self._schedule(w, self.now)
                continue
            raise SimulationError(f"unknown command {cmd!r} from process")

    # ------------------------------------------------------------------
    def resume_from_resource(self, process: Process) -> None:
        """Resume a process that a Resource handed a unit to (internal)."""
        self._schedule(process, self.now)

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def alive(self) -> int:
        """Processes spawned but not yet finished."""
        return self._alive
