"""Counted resources with FIFO queueing for the reference DES engine.

A :class:`Resource` models anything with finite concurrent capacity —
GPU warp slots, a link's message channels, the single owner of a managed
page.  Processes interact with it only through the ``Acquire``/``Release``
commands; direct method calls exist for the simulator's use.  The array
engine (:mod:`repro.solvers.des_array`) runs the same grant/hand-over
rule inline over flat per-row lists, which is what keeps the two
engines' schedules bit-comparable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.errors import SimulationError

__all__ = ["Resource"]


@dataclass
class Resource:
    """A counted resource with a FIFO wait queue.

    Parameters
    ----------
    name:
        Diagnostic name (appears in deadlock reports).
    capacity:
        Number of units that may be held concurrently.
    """

    name: str
    capacity: int
    in_use: int = field(default=0, init=False)
    _queue: deque = field(default_factory=deque, init=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise SimulationError(f"resource {self.name!r} needs capacity >= 1")

    # Called by the simulator -------------------------------------------------
    def try_acquire(self, process: Any) -> bool:
        """Grant a unit if available, else enqueue ``process``."""
        if self.in_use < self.capacity and not self._queue:
            self.in_use += 1
            return True
        self._queue.append(process)
        return False

    def release(self) -> Any | None:
        """Return a unit; pop and return the next waiter (if any).

        The returned process must be resumed by the simulator *with the
        grant already applied* (capacity is handed over directly, so a
        release-acquire pair cannot be stolen by a barging process).
        """
        if self.in_use <= 0:
            raise SimulationError(
                f"release of {self.name!r} with no outstanding acquisition"
            )
        if self._queue:
            # Hand the unit straight to the head waiter: in_use unchanged.
            return self._queue.popleft()
        self.in_use -= 1
        return None

    def drain(self) -> list:
        """Evict every queued waiter (FIFO order) without granting.

        Used by the resilience layer when the resource's owner fails
        (a dead GPU's warp-slot pool): the evicted processes must be
        resumed by the caller so they can observe the failure and exit —
        they were never granted a unit, so they must not release one.
        """
        waiters = list(self._queue)
        self._queue.clear()
        return waiters

    # Introspection -----------------------------------------------------------
    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Resource({self.name!r}, {self.in_use}/{self.capacity} used, "
            f"{len(self._queue)} queued)"
        )
