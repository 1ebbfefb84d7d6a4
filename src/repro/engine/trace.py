"""Execution trace recording for simulated solves.

A :class:`Trace` collects timestamped records (component solved, page
fault, remote get, ...) during a simulation.  Tests use it to assert
ordering invariants (no component solved before its dependencies); benches
use the aggregated counters.

Recording costs one C-level ``list.append`` per event: the DES engines
bind :attr:`Trace.append` once per run and append plain
``(time, kind, gpu, detail)`` tuples.  The public frozen
:class:`TraceRecord` objects are built only when :attr:`Trace.records`
is read, and per-kind counts are derived from the kind column on read,
plus whatever an untraced run folded in with :meth:`Trace.bulk_count`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator

__all__ = ["Trace", "TraceRecord"]


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry.

    Attributes
    ----------
    time:
        Simulated timestamp.
    kind:
        Record category.  The DES tier emits ``"dispatch"`` (warp slot
        acquired), ``"solve"`` (component value computed), ``"release"``
        (slot retired), ``"fault"`` (unified-memory page fault), and
        ``"xfer_begin"``/``"xfer_end"`` (cross-GPU message occupying a
        link channel, ``detail=(src_pe, dst_pe, component)``) — the
        record vocabulary :mod:`repro.verify.causality` replays.
    gpu:
        GPU/PE that generated the record (-1 if not applicable).
    detail:
        Category-specific payload (component id, page id, ...).
    """

    time: float
    kind: str
    gpu: int
    detail: Any = None


_KIND = itemgetter(1)


class Trace:
    """Append-only trace with cheap aggregate queries.

    ``rows`` holds one ``(time, kind, gpu, detail)`` tuple per record in
    emission order.  A disabled trace keeps no rows: it only counts.
    """

    def __init__(
        self, enabled: bool = True, records: Iterable[TraceRecord] = ()
    ):
        self.enabled = enabled
        self.rows: list[tuple] = [
            (r.time, r.kind, r.gpu, r.detail) for r in records
        ]
        self._bulk: Counter = Counter()
        self._records: list[TraceRecord] = []
        self._kinds: Counter = Counter()
        self._kinds_at = 0

    @property
    def append(self) -> Callable[[tuple], None]:
        """Record one ``(time, kind, gpu, detail)`` tuple.

        The bound ``list.append`` of :attr:`rows` when enabled; a
        disabled trace returns a counter that folds the row's kind into
        the bulk counts instead.  Hot loops bind it once per run.
        """
        return self.rows.append if self.enabled else self._tally

    def _tally(self, row: tuple) -> None:
        self._bulk[row[1]] += 1

    def emit(self, time: float, kind: str, gpu: int = -1, detail: Any = None) -> None:
        """Record one event (no-op when disabled, but counters still run)."""
        self.append((time, kind, gpu, detail))

    def bulk_count(self, kind: str, n: int) -> None:
        """Fold ``n`` occurrences of ``kind`` into the counters at once.

        The array engine batches its per-kind tallies locally while the
        trace is disabled and merges them here at the end of a run, so
        the final counter state matches a record-by-record
        :meth:`emit` stream exactly.
        """
        if n:
            self._bulk[kind] += n

    def copy(self) -> Trace:
        """A trace with this one's rows and counts that appends apart."""
        other = Trace(enabled=self.enabled)
        other.rows = self.rows.copy()
        other._bulk = self._bulk.copy()
        return other

    @property
    def records(self) -> list[TraceRecord]:
        """The rows as :class:`TraceRecord` objects, built on first read.

        The list is cached and extended by row count, so rows appended
        after a read (the stale-sync validation pass appends after the
        drain) show up on the next read.
        """
        built = self._records
        if len(built) < len(self.rows):
            built.extend(TraceRecord(*r) for r in self.rows[len(built):])
        return built

    def count(self, kind: str) -> int:
        """Total records of a category (cheap; works even when disabled)."""
        rows = self.rows
        if self._kinds_at < len(rows):
            self._kinds.update(map(_KIND, rows[self._kinds_at:]))
            self._kinds_at = len(rows)
        return self._kinds.get(kind, 0) + self._bulk.get(kind, 0)

    def of_kind(self, kind: str) -> Iterator[TraceRecord]:
        """Iterate records of one category in emission order."""
        return (TraceRecord(*r) for r in self.rows if r[1] == kind)

    def solve_order(self) -> list[Any]:
        """Component ids in the order they were solved."""
        return [r[3] for r in self.rows if r[1] == "solve"]

    def last_time(self) -> float:
        """Timestamp of the latest record (0.0 when empty)."""
        return max((r[0] for r in self.rows), default=0.0)

    def __len__(self) -> int:
        return len(self.rows)
