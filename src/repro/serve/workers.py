"""Worker-pool execution of solve jobs, with artefact handoff.

:func:`solve_job` is the single worker entry point — a top-level
function (picklable into a process pool) that resolves the operand,
runs the requested rung of the degradation ladder through a
:class:`~repro.runtime.session.SolverSession`, and returns a plain dict
of observables.  Typed :class:`~repro.errors.ReproError` raises cross
the pool boundary intact (their ``args``-based pickling survives the
round trip).

Matrix resolution order, cheapest first:

1. the worker-process cache (a :class:`MatrixLru` keyed by matrix
   fingerprint — a worker that has served a tenant's structure
   recently pays nothing);
2. the spilled analysis bundle
   (:func:`~repro.exec_model.artefacts.load_artefacts` — the parent
   paid the structure analysis once, workers inherit the DAG/levels/
   fronts fully built);
3. the workload generator spec (worst case: regenerate and re-analyse).

:class:`WorkerPool` wraps either an inline thread pool (tests, small
deployments; zero serialisation) or a process pool (real isolation;
worker death is survivable).  A process-pool crash —
``BrokenProcessPool`` after a SIGKILL — is translated into the typed,
transient :class:`~repro.errors.WorkerCrashError` and the pool is
rebuilt, so the service's retry loop sees one uniform failure mode.
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.errors import ConfigurationError, WorkerCrashError

__all__ = ["MATRIX_CACHE_ENTRIES", "MatrixLru", "WorkerPool", "solve_job"]

#: Matrices each serve cache keeps: the service's workload-spec cache
#: and every worker's fingerprint cache.  An entry pins a matrix and
#: its artefact bundle (about 1-1.5 MB at 4096 rows), so one-off
#: structures must not accumulate; a small hot set stays resident.
MATRIX_CACHE_ENTRIES = 4


class MatrixLru:
    """Thread-safe least-recently-used map of at most ``capacity``
    entries (default: :data:`MATRIX_CACHE_ENTRIES` matrices).

    A hit refreshes the key; an insert past the bound evicts the least
    recently used entry.  Strong references on purpose — the artefact
    cache keys bundles by matrix object identity, so holding the object
    keeps the analysis.  Values must not be ``None`` (``get``'s miss).
    """

    def __init__(self, capacity: int | None = None):
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._capacity = capacity

    def get(self, key):
        """The cached matrix (refreshing its position), or ``None``."""
        with self._lock:
            matrix = self._entries.get(key)
            if matrix is not None:
                self._entries.move_to_end(key)
            return matrix

    def put(self, key, matrix) -> None:
        """Insert or refresh ``key``; evict past the bound."""
        capacity = self._capacity or MATRIX_CACHE_ENTRIES
        with self._lock:
            self._entries[key] = matrix
            self._entries.move_to_end(key)
            while len(self._entries) > capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: Worker-process matrix cache: fingerprint -> matrix.
_WORKER_MATRICES = MatrixLru()


def _resolve_matrix(payload: dict):
    """The operand for one job (cache -> inline -> spill -> generator)."""
    from repro.exec_model.artefacts import load_artefacts
    from repro.serve.request import build_workload

    fp = payload.get("fingerprint", "")
    cached = _WORKER_MATRICES.get(fp)
    if cached is not None:
        return cached
    lower = payload.get("matrix")
    if lower is None:
        spill_path = payload.get("spill_path")
        if spill_path and os.path.exists(spill_path):
            lower, _bundle = load_artefacts(spill_path)
        elif payload.get("workload") is not None:
            lower = build_workload(payload["workload"])
        else:
            raise ConfigurationError(
                "job payload carries neither matrix, spill path, nor "
                "workload spec",
                parameter="payload",
            )
    if fp:
        _WORKER_MATRICES.put(fp, lower)
    return lower


def _worker_pid() -> int:
    """Warm-up no-op; forces the executor to actually spawn a process."""
    return os.getpid()


def solve_job(payload: dict) -> dict:
    """Run one job at its assigned degradation rung; return observables,
    never a trace.

    ``payload`` keys: ``mode`` (a :class:`~repro.serve.degrade.DegradeMode`
    value), ``config`` (the rung's derived
    :class:`~repro.runtime.config.RunConfig`), ``rhs`` mapping,
    ``fingerprint``, and one operand source (``matrix`` / ``spill_path``
    / ``workload``).

    The job solves the config it is given.  Configs from
    :meth:`~repro.serve.service.SolveService.submit` arrive with
    ``trace_enabled=False`` (the service returns no trace), and the
    returned observables do not depend on the trace either way.
    """
    import numpy as np

    from repro.runtime.session import SolverSession

    lower = _resolve_matrix(payload)
    n = lower.shape[0]
    config = payload["config"]
    session = SolverSession(config)
    rhs = payload["rhs"]
    if "values" in rhs:
        b = np.asarray(rhs["values"], dtype=np.float64)
    else:
        b = np.random.default_rng(int(rhs["seed"])).uniform(
            -1.0, 1.0, size=n
        )
    result = session.solve(lower, b, with_report=False)
    return {
        "x_bytes": result.x.tobytes(),
        "n": n,
        "residual": float(result.residual),
        "events": int(result.execution.events),
        "total_time": float(result.execution.total_time),
        "repaired": len(result.repaired),
    }


class WorkerPool:
    """Inline-thread or process execution of :func:`solve_job`.

    ``workers=0`` (default) runs jobs on a small thread pool in the
    service process — no serialisation, deterministic, the unit-test
    mode.  ``workers>=1`` runs a ``ProcessPoolExecutor``; jobs then ship
    spill paths / workload specs instead of matrix objects and worker
    death is a real, survivable event.
    """

    def __init__(self, workers: int = 0, *, inline_threads: int = 4):
        if workers < 0:
            raise ConfigurationError(
                f"workers must be >= 0, got {workers}", parameter="workers"
            )
        self.workers = workers
        self.inline_threads = inline_threads
        self._executor = None
        self.rebuilds = 0
        self.kills = 0

    @property
    def mode(self) -> str:
        return "process" if self.workers else "inline"

    # ------------------------------------------------------------------
    def _build(self):
        if self.workers:
            # Workers fork from this process: import scipy.sparse, which
            # every solve's certificate runs on (0.25-0.37 s), once here
            # rather than in each new worker.
            import scipy.sparse  # noqa: F401

            return ProcessPoolExecutor(max_workers=self.workers)
        return ThreadPoolExecutor(
            max_workers=self.inline_threads,
            thread_name_prefix="repro-serve",
        )

    def start(self) -> None:
        if self._executor is None:
            self._executor = self._build()
            if self.workers:
                # Process pools spawn workers lazily on first submit;
                # warm them now so kill_one() has live targets and the
                # first tenant doesn't pay the fork latency.
                from concurrent.futures import wait

                wait(
                    [
                        self._executor.submit(_worker_pid)
                        for _ in range(self.workers)
                    ],
                    timeout=30.0,
                )

    def stop(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    # ------------------------------------------------------------------
    async def kill_one(self, within: float) -> bool:
        """SIGKILL one live pool process (the worker-kill fault hook).

        Returns once the executor has marked itself broken, or after
        ``within`` seconds (the caller's remaining deadline).  The
        executor's manager thread acts on a worker death only on a
        wake-up with no result or submission ready, so a surviving
        worker can finish a storm of small jobs before the death is
        seen; the kill would then never reach the retry ladder.
        """
        if not self.workers or self._executor is None:
            return False
        executor = self._executor
        procs = getattr(executor, "_processes", {})
        for pid in list(procs):
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):  # pragma: no cover
                continue
            self.kills += 1
            deadline = time.monotonic() + within
            while (
                not getattr(executor, "_broken", True)
                and time.monotonic() < deadline
            ):
                await asyncio.sleep(0.001)
            return True
        return False  # pragma: no cover - pool without processes

    async def run(self, payload: dict, timeout: float | None = None) -> dict:
        """Execute one job; translate pool death into WorkerCrashError.

        ``timeout`` (wall seconds) bounds the await — the job itself is
        additionally bounded by its config's worker-side watchdog.  On
        timeout the future is abandoned (threads/processes cannot be
        preempted) and ``asyncio.TimeoutError`` propagates for the
        caller's deadline handling.
        """
        if self._executor is None:
            self.start()
        loop = asyncio.get_running_loop()
        executor = self._executor
        try:
            # submit itself raises BrokenProcessPool when the executor
            # is already marked broken (a worker died between jobs), so
            # it must sit inside the same translation scope as the await.
            future = loop.run_in_executor(executor, solve_job, payload)
            return await asyncio.wait_for(future, timeout)
        except BrokenProcessPool as err:
            # A dead worker poisons the whole executor: rebuild so the
            # next attempt (and every other tenant) gets a live pool.
            # Every job the broken executor held fails here; only the
            # first rebuilds, so no retry lands on a pool that a later
            # failure then shuts down.
            if self._executor is executor:
                executor.shutdown(wait=False, cancel_futures=True)
                self._executor = self._build()
                self.rebuilds += 1
            raise WorkerCrashError(
                f"worker process died mid-solve ({err}); pool rebuilt"
            ) from None
