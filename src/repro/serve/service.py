"""The resilient solve service: queueing, retry, breakers, degradation.

:class:`SolveService` is the asyncio session server at the heart of this
package.  One instance owns a bounded request queue, a fixed set of
dispatcher tasks feeding a :class:`~repro.serve.workers.WorkerPool`, a
:class:`~repro.serve.admission.AdmissionController`, a
:class:`~repro.serve.breaker.BreakerBoard` keyed by
``(matrix fingerprint, config fingerprint)``, and a
:class:`~repro.serve.degrade.DegradationLadder`.  Every request travels
the same envelope:

1. **price** — the fast model simulates the solve once per
   ``(matrix, config)`` key; the estimate is cached (it is also the
   ``estimate`` rung's response body);
2. **admit** — the token bucket debits the priced cost or sheds with a
   typed :class:`~repro.errors.ServiceOverloadError` + ``retry_after``;
3. **gate** — an open breaker fails the key fast
   (:class:`~repro.errors.CircuitOpenError`) or, with the client's
   degradation consent, serves the cached estimate instead;
4. **queue** — the bounded queue accepts the ticket or sheds
   (``reason="queue_full"``); depth past the watermark sheds *precision*
   first (estimate-only responses) before shedding requests;
5. **execute** — a dispatcher walks the retry ladder: transient
   worker crashes get exponential backoff with jitter, structural
   failures (deadlock / exhausted recovery) feed the breaker and walk
   the degradation ladder downward;
6. **deadline** — the submitter awaits the ticket under
   ``asyncio.wait_for``; expiry cancels cooperatively (queued tickets
   are skipped, executing ones bounded by the worker-side watchdog) and
   raises :class:`~repro.errors.DeadlineExceededError` naming the stage.

Nothing in the envelope blocks the event loop; the
:class:`LoopWatchdog` (a heartbeat task paired with a monitor thread)
guards that invariant the same way the solver-level
:class:`~repro.resilience.watchdog.Watchdog` guards the playout.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from dataclasses import dataclass, field

from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    DeadlockError,
    RecoveryExhaustedError,
    ReproError,
    ServiceError,
    ServiceOverloadError,
    ServiceShutdownError,
    SimulationError,
    SolverError,
    WorkerCrashError,
)
from repro.serve.admission import AdmissionController
from repro.serve.breaker import BreakerBoard
from repro.serve.degrade import DegradationLadder, DegradeMode
from repro.serve.request import (
    ServiceResult,
    SolveRequest,
    build_workload,
    workload_key,
)
from repro.serve.workers import MatrixLru, WorkerPool
from repro.workloads import cache

__all__ = [
    "ESTIMATE_CACHE_ENTRIES",
    "LoopWatchdog",
    "ServiceStats",
    "SolveService",
]

#: Failure kinds that count against a key's circuit breaker: the solve
#: is structurally broken, not transiently unlucky.
STRUCTURAL_ERRORS = (RecoveryExhaustedError, DeadlockError)

#: Fast-model estimates the service keeps, keyed by (matrix, config)
#: fingerprint.  Far above a hot tenant set; one-off keys (ladder
#: requests carry a per-request plan seed) age out, and a miss only
#: re-prices.
ESTIMATE_CACHE_ENTRIES = 128


class LoopWatchdog:
    """Detect a stalled asyncio event loop from outside it.

    A heartbeat coroutine stamps a shared timestamp every ``interval``
    seconds; a daemon thread checks the stamp's age against
    ``threshold``.  A stale stamp means the loop itself is wedged (a
    dispatcher blocking on sync work, a runaway callback) — precisely
    the failure the in-loop deadline machinery cannot see, because it
    too lives on the loop.  Detections are recorded (and optionally
    reported through ``on_stall``) rather than raised: the monitor
    thread cannot safely interrupt loop code, but the chaos suite can
    assert the stall was *observed* and the service surfaced it.
    """

    def __init__(
        self,
        interval: float = 0.05,
        threshold: float = 1.0,
        on_stall=None,
    ):
        if threshold <= interval:
            raise ValueError(
                f"threshold ({threshold}) must exceed interval ({interval})"
            )
        self.interval = interval
        self.threshold = threshold
        self.on_stall = on_stall
        self.stalls = 0
        self.last_stall: dict | None = None
        self._beat = time.monotonic()
        self._task: asyncio.Task | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    async def _heartbeat(self) -> None:
        while True:
            self._beat = time.monotonic()
            await asyncio.sleep(self.interval)

    def _monitor(self) -> None:
        while not self._stop.wait(self.interval):
            age = time.monotonic() - self._beat
            if age > self.threshold:
                self.stalls += 1
                self.last_stall = {
                    "age": age,
                    "threshold": self.threshold,
                    "at": time.monotonic(),
                }
                if self.on_stall is not None:
                    self.on_stall(self.last_stall)
                # One detection per stall episode: wait for recovery.
                while (
                    not self._stop.wait(self.interval)
                    and time.monotonic() - self._beat > self.threshold
                ):
                    pass

    def start(self) -> None:
        self._beat = time.monotonic()
        self._stop.clear()
        self._task = asyncio.get_running_loop().create_task(
            self._heartbeat(), name="serve-loop-heartbeat"
        )
        self._thread = threading.Thread(
            target=self._monitor, name="serve-loop-watchdog", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._task is not None:
            self._task.cancel()
            self._task = None
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None


@dataclass
class ServiceStats:
    """Counters for one service lifetime (the diagnostics surface)."""

    submitted: int = 0
    served: int = 0
    degraded_served: int = 0
    failed: int = 0
    shed: int = 0
    deadline_misses: int = 0
    retries: int = 0
    breaker_fast_fails: int = 0
    cancelled_in_queue: int = 0

    def to_mapping(self) -> dict:
        return dict(self.__dict__)


@dataclass
class _Ticket:
    """One queued request plus its execution state."""

    request: SolveRequest
    matrix: object
    fingerprint: str
    key: tuple
    estimate: dict
    future: asyncio.Future
    deadline_at: float
    stage: str = "queued"
    cancelled: bool = False
    attempts: int = 0
    submitted_at: float = field(default_factory=time.monotonic)

    def remaining(self, now: float) -> float:
        return self.deadline_at - now


class SolveService:
    """Async solve server with admission, backpressure, and degradation.

    Parameters
    ----------
    workers:
        ``0`` for the inline thread pool, ``>=1`` for a process pool
        (worker-kill faults then kill real processes).
    queue_depth / max_inflight:
        Bounds of the request queue and the dispatcher-task count —
        together the only buffering in the service; nothing is unbounded.
    degrade_watermark:
        Queue depth at which degradation-consenting requests are served
        estimate-only instead of queued (shed precision before
        requests).  ``None`` disables pressure-degradation.
    admission:
        An :class:`AdmissionController`; the default admits everything
        (no bucket).
    max_attempts / backoff_base / backoff_cap:
        The transient-failure retry ladder (exponential, jittered by the
        service's seeded RNG so tests replay identically).
    fault_plan:
        A :class:`~repro.resilience.service_faults.ServiceFaultPlan`
        injecting service-level faults (worker kills, dispatch stalls,
        client delays) — the chaos hook, mirroring solve-level
        ``FaultPlan``.
    """

    def __init__(
        self,
        *,
        workers: int = 0,
        queue_depth: int = 64,
        max_inflight: int = 4,
        degrade_watermark: int | None = None,
        default_deadline: float = 30.0,
        admission: AdmissionController | None = None,
        ladder: DegradationLadder | None = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 1.0,
        max_attempts: int = 3,
        backoff_base: float = 0.02,
        backoff_cap: float = 0.5,
        fault_plan=None,
        spill_budget: int | None = None,
        watchdog_interval: float = 0.05,
        watchdog_threshold: float = 2.0,
        seed: int = 0,
    ):
        if queue_depth < 1 or max_inflight < 1:
            raise ValueError(
                f"queue_depth/max_inflight must be >= 1, got "
                f"{queue_depth}/{max_inflight}"
            )
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.pool = WorkerPool(workers)
        self.queue_depth = queue_depth
        self.max_inflight = max_inflight
        self.degrade_watermark = degrade_watermark
        self.default_deadline = default_deadline
        self.admission = admission or AdmissionController()
        self.ladder = ladder or DegradationLadder()
        self.breakers = BreakerBoard(breaker_threshold, breaker_cooldown)
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.fault_plan = fault_plan
        self.spill_budget = spill_budget
        self.stats = ServiceStats()
        self.watchdog = LoopWatchdog(watchdog_interval, watchdog_threshold)
        self._rng = random.Random(seed)
        self._queue: asyncio.Queue | None = None
        self._dispatchers: list[asyncio.Task] = []
        self._injector = None
        self._spill = None
        self._running = False
        # Parent-side caches: workload spec -> matrix, a small LRU (so N
        # requests for the same generator share one build + one artefact
        # bundle, and one-off specs do not pin theirs forever), and
        # (fingerprint, config fingerprint) -> fast-model estimate.
        self._workloads = MatrixLru()
        self._estimates = MatrixLru(ESTIMATE_CACHE_ENTRIES)

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        if self._running:
            return
        self._queue = asyncio.Queue(maxsize=self.queue_depth)
        self.pool.start()
        if self.fault_plan is not None and not self.fault_plan.is_null:
            self._injector = self.fault_plan.build()
        if self.pool.mode == "process":
            from repro.exec_model.artefacts import SpillStore

            self._spill = SpillStore(byte_budget=self.spill_budget)
        self._running = True
        self.watchdog.start()
        self._dispatchers = [
            asyncio.get_running_loop().create_task(
                self._dispatch_loop(), name=f"serve-dispatch-{i}"
            )
            for i in range(self.max_inflight)
        ]

    async def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        for task in self._dispatchers:
            task.cancel()
        await asyncio.gather(*self._dispatchers, return_exceptions=True)
        self._dispatchers = []
        # Fail any still-queued tickets with a typed shutdown error.
        if self._queue is not None:
            while not self._queue.empty():
                ticket = self._queue.get_nowait()
                if not ticket.future.done():
                    ticket.future.set_exception(
                        ServiceShutdownError("service stopped")
                    )
        self.watchdog.stop()
        self.pool.stop()
        if self._spill is not None:
            self._spill.close()
            self._spill = None

    async def __aenter__(self) -> "SolveService":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- request intake ------------------------------------------------
    def _resolve_matrix(self, request: SolveRequest):
        if request.matrix is not None:
            return request.matrix
        key = workload_key(request.workload)
        matrix = self._workloads.get(key)
        if matrix is None:
            matrix = build_workload(request.workload)
            self._workloads.put(key, matrix)
        return matrix

    def _estimate(self, matrix, fingerprint: str, config) -> dict:
        """Fast-model pricing, cached per (matrix, config) key."""
        key = (fingerprint, config.fingerprint())
        est = self._estimates.get(key)
        if est is None:
            from repro.runtime.session import SolverSession

            report = SolverSession(config).simulate(matrix)
            est = {
                "design": report.design,
                "n_gpus": int(report.n_gpus),
                "analysis_time": float(report.analysis_time),
                "solve_time": float(report.solve_time),
                "total_time": float(report.total_time),
            }
            self._estimates.put(key, est)
        return est

    def _estimate_result(
        self, ticket_or_request, estimate: dict, reason: str, attempts: int = 0
    ) -> ServiceResult:
        request = getattr(ticket_or_request, "request", ticket_or_request)
        self.stats.served += 1
        self.stats.degraded_served += 1
        return ServiceResult(
            request_id=request.request_id,
            status="degraded",
            mode=DegradeMode.ESTIMATE.value,
            estimate=dict(estimate),
            total_time=estimate["total_time"],
            attempts=attempts,
            degraded_from=reason,
        )

    async def submit(self, request: SolveRequest) -> ServiceResult:
        """Serve one request, untraced, through the full robustness envelope.

        Returns a :class:`ServiceResult` or raises a typed
        :class:`~repro.errors.ReproError` — never hangs past the
        request's deadline, never buffers unboundedly.

        The service returns solutions, not traces: intake replaces the
        request's config with ``trace_enabled=False`` before anything is
        keyed on it, so the estimate cache, the breaker, every ladder
        rung and the worker all see the untraced config, and two
        requests differing only in ``trace_enabled`` are one key.  No
        response observable depends on the trace; a caller who wants
        one runs :class:`~repro.runtime.session.SolverSession` directly.
        """
        if not self._running:
            raise ServiceShutdownError("service is not running")
        self.stats.submitted += 1
        request = request.with_config(trace_enabled=False)
        loop = asyncio.get_running_loop()
        deadline = request.deadline or self.default_deadline

        matrix = self._resolve_matrix(request)
        fingerprint = cache.fingerprint(matrix)
        key = (fingerprint, request.config.fingerprint())
        estimate = self._estimate(matrix, fingerprint, request.config)

        try:
            self.admission.admit(estimate["total_time"])
        except ServiceOverloadError:
            self.stats.shed += 1
            raise

        breaker = self.breakers.get(key)
        if not breaker.allow():
            if request.allow_degraded:
                return self._estimate_result(
                    request, estimate, "breaker_open"
                )
            self.stats.breaker_fast_fails += 1
            raise CircuitOpenError(
                f"circuit open for {key}: {breaker.failures} consecutive "
                f"structural failures; retry after "
                f"{breaker.retry_after:.3f}s",
                key=key,
                retry_after=breaker.retry_after,
                failures=breaker.failures,
            )

        if (
            self.degrade_watermark is not None
            and request.allow_degraded
            and self._queue.qsize() >= self.degrade_watermark
        ):
            return self._estimate_result(request, estimate, "queue_pressure")

        ticket = _Ticket(
            request=request,
            matrix=matrix,
            fingerprint=fingerprint,
            key=key,
            estimate=estimate,
            future=loop.create_future(),
            deadline_at=time.monotonic() + deadline,
        )
        try:
            self._queue.put_nowait(ticket)
        except asyncio.QueueFull:
            self.stats.shed += 1
            raise ServiceOverloadError(
                f"request queue full ({self.queue_depth} deep); "
                f"retry after backoff",
                retry_after=self.backoff_base * self.queue_depth,
                reason="queue_full",
            ) from None

        try:
            return await asyncio.wait_for(ticket.future, deadline)
        except asyncio.TimeoutError:
            ticket.cancelled = True
            self.stats.deadline_misses += 1
            raise DeadlineExceededError(
                f"request {request.request_id or '<anonymous>'} missed its "
                f"{deadline:.3f}s deadline in stage {ticket.stage!r}",
                deadline=deadline,
                stage=ticket.stage,
            ) from None

    # -- dispatch ------------------------------------------------------
    def _payload(self, ticket: _Ticket, mode: DegradeMode) -> dict:
        config = self.ladder.derive_config(ticket.request.config, mode)
        payload = {
            "mode": mode.value,
            "config": config,
            "rhs": dict(ticket.request.rhs),
            "fingerprint": ticket.fingerprint,
        }
        if self.pool.mode == "process":
            # Process workers inherit the parent's finished analysis via
            # the spill store instead of re-deriving it; the workload
            # spec rides along as the fallback source.
            payload["spill_path"] = str(
                self._spill.put(ticket.fingerprint, ticket.matrix)
            )
            if ticket.request.workload is not None:
                payload["workload"] = dict(ticket.request.workload)
        else:
            payload["matrix"] = ticket.matrix
        return payload

    def _result_from(
        self, ticket: _Ticket, mode: DegradeMode, raw: dict, degraded_from: str
    ) -> ServiceResult:
        import numpy as np

        x = np.frombuffer(raw["x_bytes"], dtype=np.float64).copy()
        ceiling = self.ladder.certified_ceiling(mode)
        if mode is DegradeMode.EXACT:
            status, certified = "ok", True
        else:
            status = "degraded"
            certified = raw["residual"] <= ceiling
        return ServiceResult(
            request_id=ticket.request.request_id,
            status=status,
            mode=mode.value,
            x=x,
            residual=raw["residual"],
            certified=certified,
            ceiling=ceiling,
            events=raw["events"],
            total_time=raw["total_time"],
            repaired=raw["repaired"],
            attempts=ticket.attempts,
            latency=time.monotonic() - ticket.submitted_at,
            degraded_from=degraded_from,
        )

    async def _dispatch_loop(self) -> None:
        while True:
            ticket = await self._queue.get()
            if ticket.cancelled or ticket.future.done():
                self.stats.cancelled_in_queue += 1
                continue
            ticket.stage = "executing"
            if self._injector is not None:
                stall = self._injector.dispatch_stall()
                if stall > 0:
                    # The queue-stall fault: this dispatcher sleeps (the
                    # submitter's wait_for keeps the deadline honest).
                    await asyncio.sleep(stall)
            try:
                result = await self._execute(ticket)
            except asyncio.CancelledError:
                if not ticket.future.done():
                    ticket.future.set_exception(
                        ServiceShutdownError("service stopped mid-request")
                    )
                raise
            except ReproError as err:
                self.stats.failed += 1
                if not ticket.future.done():
                    ticket.future.set_exception(err)
                continue
            except Exception as err:  # noqa: BLE001 - typed-error fence
                # The never-hang contract: an unexpected failure must
                # still resolve the ticket (as a typed error) instead of
                # killing this dispatcher and stranding the submitter.
                self.stats.failed += 1
                if not ticket.future.done():
                    ticket.future.set_exception(
                        ServiceError(
                            f"internal service error: "
                            f"{type(err).__name__}: {err}"
                        )
                    )
                continue
            if not ticket.future.done():
                ticket.future.set_result(result)

    async def _execute(self, ticket: _Ticket) -> ServiceResult:
        """Walk the retry + degradation ladders for one ticket."""
        mode = DegradeMode.EXACT
        degraded_from = ""
        breaker = self.breakers.get(ticket.key)
        transient_failures = 0
        while True:
            if ticket.cancelled:
                raise DeadlineExceededError(
                    "cancelled by submitter deadline",
                    stage="executing",
                )
            remaining = ticket.remaining(time.monotonic())
            if remaining <= 0:
                raise DeadlineExceededError(
                    "deadline expired before execution",
                    stage="executing",
                )
            ticket.attempts += 1
            try:
                if (
                    self._injector is not None
                    and self._injector.take_worker_kill()
                ):
                    if (
                        self.pool.mode != "process"
                        or not await self.pool.kill_one(remaining)
                    ):
                        # Inline pools have no process to kill; model the
                        # crash directly so the retry path still runs.
                        raise WorkerCrashError("injected worker kill")
                    # Waiting for the executor to see the kill spent
                    # part of the deadline.
                    remaining = ticket.remaining(time.monotonic())
                raw = await self.pool.run(
                    self._payload(ticket, mode), timeout=remaining
                )
            except asyncio.TimeoutError:
                raise DeadlineExceededError(
                    "worker exceeded the request deadline",
                    stage="executing",
                ) from None
            except WorkerCrashError:
                transient_failures += 1
                if transient_failures >= self.max_attempts:
                    raise
                self.stats.retries += 1
                await asyncio.sleep(self._backoff(transient_failures))
                continue
            except (SimulationError, SolverError) as err:
                if isinstance(err, ConfigurationError):
                    # A malformed config is the client's bug, not a
                    # service-health signal: surface it untouched.
                    raise
                structural = isinstance(err, STRUCTURAL_ERRORS)
                if structural:
                    breaker.record_failure()
                elif mode is DegradeMode.EXACT:
                    # An unexpected engine failure at full fidelity is a
                    # defect to surface, not a degradation trigger.
                    raise
                if not ticket.request.allow_degraded:
                    raise
                next_mode = self.ladder.next_mode(mode, ticket.request.config)
                if next_mode is None:
                    raise
                if not degraded_from:
                    degraded_from = mode.value
                mode = next_mode
                if mode is DegradeMode.ESTIMATE:
                    return self._estimate_result(
                        ticket,
                        ticket.estimate,
                        degraded_from or "structural_failure",
                        attempts=ticket.attempts,
                    )
                continue
            breaker.record_success()
            if mode is DegradeMode.EXACT:
                self.stats.served += 1
            else:
                self.stats.served += 1
                self.stats.degraded_served += 1
            return self._result_from(
                ticket, mode, raw, degraded_from or ""
            )

    def _backoff(self, attempt: int) -> float:
        """Exponential backoff with full jitter, capped."""
        span = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
        return span * (0.5 + 0.5 * self._rng.random())

    # -- diagnostics ---------------------------------------------------
    def snapshot(self) -> dict:
        """One JSON-able view of the service's health surfaces."""
        return {
            "stats": self.stats.to_mapping(),
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "breakers": {
                "|".join(k): v for k, v in self.breakers.states().items()
            },
            "admission": {
                "admitted": self.admission.admitted,
                "shed": self.admission.shed,
            },
            "pool": {
                "mode": self.pool.mode,
                "rebuilds": self.pool.rebuilds,
                "kills": self.pool.kills,
            },
            "loop_watchdog": {
                "stalls": self.watchdog.stalls,
                "last_stall": self.watchdog.last_stall,
            },
            "estimate_cache": len(self._estimates),
        }
