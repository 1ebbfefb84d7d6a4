"""Event and command vocabulary of the discrete-event core.

Processes (Python generators) drive the simulation by yielding *commands*;
the :class:`~repro.engine.des.Simulator` interprets them:

* :class:`Timeout` — suspend for simulated time.
* :class:`Acquire` / :class:`Release` — claim / return one unit of a
  :class:`~repro.engine.resources.Resource` (warp slots, link channels).
* :class:`Wait` / :class:`Signal` — condition-variable style sleep/wake on
  a named channel (dependency counters reaching zero, page releases).

Events themselves are internal scheduler entries ordered by
``(time, seq)``; ``seq`` breaks ties deterministically in insertion order
so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

__all__ = ["Timeout", "Acquire", "Release", "Wait", "Signal", "ScheduledEvent"]


@dataclass(frozen=True)
class Timeout:
    """Suspend the yielding process for ``delay`` simulated seconds."""

    delay: float

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError(f"negative timeout {self.delay}")


@dataclass(frozen=True)
class Acquire:
    """Claim one unit of ``resource``; suspends until granted."""

    resource: "Any"  # repro.engine.resources.Resource (cycle-free typing)


@dataclass(frozen=True)
class Release:
    """Return one unit of ``resource``; never suspends."""

    resource: "Any"


@dataclass(frozen=True)
class Wait:
    """Sleep until another process signals ``channel``."""

    channel: Hashable


@dataclass(frozen=True)
class Signal:
    """Wake every process waiting on ``channel``; never suspends."""

    channel: Hashable


@dataclass(order=True)
class ScheduledEvent:
    """A reference-engine scheduler entry: resume ``process`` at ``time``.

    Ordering is ``(time, seq)`` — ``process`` never participates in
    comparisons.  The array engine does not allocate these; it keeps
    integer tokens in exact-time FIFO buckets instead (see
    :mod:`repro.solvers.des_array`).
    """

    time: float
    seq: int
    process: Any = field(compare=False)
