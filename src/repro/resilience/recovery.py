"""Recovery policies and post-solve repair for faulted DES runs.

Three mechanisms, mirroring the layers "Elasticity in Parallel Sparse
Triangular Solve" identifies as sufficient for SpTRSV to tolerate
degraded communication:

* **bounded retry with exponential backoff** — a delivery the injector
  drops (or checksums as corrupted) is re-sent after
  ``retry_timeout * backoff**attempt``; :class:`RecoveryPolicy` bounds
  the attempts, and exhausting them raises a typed
  :class:`~repro.errors.RecoveryExhaustedError` instead of starving the
  dependant silently;
* **graceful degradation** — a ``gpu_fail`` fault hands the dead rank's
  unsolved components to
  :func:`repro.tasks.schedule.remap_failed_components`, which deals them
  over the survivors; the engines re-launch them after
  ``detect_latency``;
* **residual check + selective component replay** — silent corruption
  (an undetected ``left.sum`` bit-flip) survives the run but not
  :func:`residual_repair`: rows whose componentwise backward error
  exceeds the ceiling are recomputed, the fix propagated through their
  forward closure in dependency order, and a still-failing system raises
  :class:`RecoveryExhaustedError` rather than returning a wrong ``x``.

:func:`repro.runtime.session.resilient_run` composes all three around
:func:`repro.solvers.des_solver.des_execute`; it is the one pipeline
stage both :class:`~repro.runtime.session.SolverSession` and the chaos
harness run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import RecoveryExhaustedError
from repro.sparse.csc import CscMatrix
from repro.sparse.validate import backward_errors, residual_norm

__all__ = [
    "RecoveryPolicy",
    "residual_repair",
    "stale_validate",
]


@dataclass(frozen=True)
class RecoveryPolicy:
    """Knobs for every recovery mechanism (all on by default).

    Attributes
    ----------
    retry:
        Re-send dropped / corrupt-detected deliveries.  Off, a lost
        message starves its dependant and the deadlock detector fires.
    retry_timeout:
        Base re-send delay (the per-remote-get timeout).
    backoff:
        Exponential backoff factor; attempt ``a`` waits
        ``retry_timeout * backoff**a``.
    max_retries:
        Bounded retry: attempts past this raise
        :class:`RecoveryExhaustedError`.
    detect_corruption:
        Checksum deliveries: a bit-flipped contribution is detected at
        the receiver and re-sent like a drop.  Off, the corrupted value
        lands in ``left.sum`` (and only :func:`residual_repair` can
        catch it).
    remap_on_failure:
        Remap a failed GPU's unsolved components onto survivors.  Off,
        the failure starves every dependant (loud deadlock).
    detect_latency:
        Simulated time between a GPU failing and the survivors
        re-launching its work (failure-detector delay).
    residual_check:
        Run :func:`residual_repair` on the finished solution.
    residual_ceiling:
        Componentwise backward-error ceiling for the check (matches the
        conformance harness's differential oracle).
    """

    retry: bool = True
    retry_timeout: float = 1e-4
    backoff: float = 2.0
    max_retries: int = 8
    detect_corruption: bool = True
    remap_on_failure: bool = True
    detect_latency: float = 1e-5
    residual_check: bool = True
    residual_ceiling: float = 1e-8

    def retry_delay(self, attempt: int) -> float:
        """Backoff before re-sending delivery ``attempt`` (0-based)."""
        return self.retry_timeout * self.backoff**attempt


def residual_repair(
    lower: CscMatrix,
    b: np.ndarray,
    x: np.ndarray,
    ceiling: float = 1e-8,
) -> tuple[np.ndarray, list[int], float]:
    """Detect and repair silently corrupted components of ``x``.

    Rows whose componentwise backward error exceeds ``ceiling`` are the
    *suspects* (a corrupted ``left.sum`` makes exactly the victim row
    inconsistent); their forward closure — every component whose value
    was derived, directly or transitively, from a suspect — is replayed
    in dependency (ascending-index) order from the surviving clean
    values.  Returns ``(x_repaired, replayed_components, residual)``,
    ``residual`` being :func:`~repro.sparse.validate.residual_norm` of
    ``x_repaired`` (taken from the check itself, never recomputed); the
    input is not modified.  Raises :class:`RecoveryExhaustedError` when
    the repaired system still fails the ceiling (the corruption was not
    of the repairable single-component kind).
    """
    b = np.asarray(b, dtype=np.float64)
    errs = backward_errors(lower, x, b)
    suspects = np.nonzero(errs > ceiling)[0]
    if len(suspects) == 0:
        return x, [], float(np.max(errs))

    x_fixed, replayed = _closure_replay(lower, b, x, suspects)
    final = residual_norm(lower, x_fixed, b)
    if final > ceiling:
        raise RecoveryExhaustedError(
            f"selective replay of {len(replayed)} components left backward "
            f"error {final:.3e} above ceiling {ceiling:.1e}",
            context={
                "suspects": suspects.tolist(),
                "replayed": int(len(replayed)),
                "residual": final,
            },
        )
    return x_fixed, replayed.tolist(), final


def _closure_replay(
    lower: CscMatrix, b: np.ndarray, x: np.ndarray, suspects
) -> tuple[np.ndarray, np.ndarray]:
    """Forward-closure selective replay shared by :func:`residual_repair`
    and :func:`stale_validate`.

    Expands ``suspects`` to their forward closure over the dependency
    DAG (CSC column = out-edges), then re-solves the closure by partial
    forward substitution — left sums seeded from the clean columns,
    replayed in ascending order so each repaired value feeds its
    affected dependants.  Returns ``(x_fixed, replayed_indices)``; the
    input ``x`` is not modified.

    Every edge points to a later component, so one ascending sweep
    finds the closure.  An affected row adds its clean columns' terms
    from ``0.0`` in ascending column order (one ``bincount`` in entry
    order), then its affected columns' terms as they solve, also
    ascending.  A column's first entry is its diagonal, never an edge.
    """
    n = lower.shape[0]
    indptr, indices, data = lower.indptr, lower.indices, lower.data
    suspects = np.asarray(suspects, dtype=np.int64)
    mark = np.zeros(n, dtype=bool)
    mark[suspects] = True
    seen = bytearray(mark.tobytes())
    ptr = indptr.tolist()
    idx = indices.tolist()
    for i in range(int(suspects.min(initial=n)), n):
        if seen[i]:
            for j in idx[ptr[i] + 1 : ptr[i + 1]]:
                seen[j] = 1
    affected = np.frombuffer(seen, dtype=bool)

    cols = lower.entry_cols()
    first = np.zeros(lower.nnz, dtype=bool)
    first[indptr[:-1][indptr[:-1] < indptr[1:]]] = True
    into = affected[indices] & ~first  # the edges into an affected row
    x_fixed = np.asarray(x, dtype=np.float64).copy()
    e = np.flatnonzero(into & ~affected[cols])
    left = np.bincount(
        indices[e], weights=data[e] * x_fixed[cols[e]], minlength=n
    ).astype(np.float64, copy=False).tolist()

    # The affected columns in entry order: each one's solve (``~row``,
    # its diagonal) and then its edges into affected rows.
    e = np.flatnonzero(affected[cols] & (first | into))
    rows = indices[e]
    ops = np.where(first[e], ~rows, rows).tolist()
    bl = b.tolist()
    xs = []
    xi = 0.0
    for c, v in zip(ops, data[e].tolist()):
        if c >= 0:
            left[c] += v * xi
        else:
            c = ~c
            xi = (bl[c] - left[c]) / v
            xs.append(xi)
    replayed = np.flatnonzero(affected)
    x_fixed[replayed] = xs
    return x_fixed, replayed


def stale_validate(
    lower: CscMatrix,
    b,
    x: np.ndarray,
    ceiling: float,
) -> tuple[np.ndarray, list[int], list[int], float]:
    """Post-hoc validation pass of the ``stale_sync`` design.

    A component that launched on a bounded-stale partial sum and never
    saw the late contributions land is exactly as inconsistent as a
    silently corrupted ``left.sum``: its own row's componentwise
    backward error equals the missing mass.  Rows above ``ceiling`` are
    the suspects; their forward closure is replayed from the clean
    values (:func:`residual_repair` machinery).  Returns
    ``(x_validated, suspects, replayed, residual)`` — both index lists
    ascending, ``replayed`` a superset of ``suspects``, ``residual`` the
    :func:`~repro.sparse.validate.residual_norm` of ``x_validated`` — and
    raises :class:`RecoveryExhaustedError` when the replayed system
    still fails the ceiling.
    """
    b = np.asarray(b, dtype=np.float64)
    errs = backward_errors(lower, x, b)
    suspects = np.nonzero(errs > ceiling)[0]
    if len(suspects) == 0:
        return x, [], [], float(np.max(errs))
    x_fixed, replayed = _closure_replay(lower, b, x, suspects)
    final = residual_norm(lower, x_fixed, b)
    if final > ceiling:
        raise RecoveryExhaustedError(
            f"stale-read replay of {len(replayed)} components left "
            f"backward error {final:.3e} above ceiling {ceiling:.1e}",
            context={
                "suspects": suspects.tolist(),
                "replayed": int(len(replayed)),
                "residual": final,
            },
        )
    return x_fixed, suspects.tolist(), replayed.tolist(), final
