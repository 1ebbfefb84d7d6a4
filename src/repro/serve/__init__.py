"""Resilient solver-as-a-service layer over the runtime facade.

The robustness thesis of this repo — typed errors, bounded recovery,
never hang, never return silently corrupted data — extended from one
solve to a *service* of concurrent solves:

* :mod:`repro.serve.request` — the wire vocabulary
  (:class:`SolveRequest` / :class:`ServiceResult`) plus matrix
  fingerprinting for cross-tenant artefact sharing;
* :mod:`repro.serve.admission` — fast-model-priced token-bucket
  admission control;
* :mod:`repro.serve.breaker` — per-(matrix, config) circuit breakers
  over structural failures;
* :mod:`repro.serve.degrade` — the graceful-degradation ladder (exact →
  certified stale → estimate-only);
* :mod:`repro.serve.workers` — inline/process worker pools with
  spill-based artefact handoff and crash translation;
* :mod:`repro.serve.service` — the asyncio session server tying it all
  together (bounded queue, deadlines, retry with jittered backoff,
  event-loop watchdog);
* :mod:`repro.serve.tcp` — the newline-JSON TCP front-end with the
  slow-client defence.
"""

from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.breaker import BreakerBoard, CircuitBreaker
from repro.serve.degrade import LADDER, DegradationLadder, DegradeMode
from repro.serve.request import (
    GENERATORS,
    ServiceResult,
    SolveRequest,
    build_workload,
)
from repro.serve.service import LoopWatchdog, ServiceStats, SolveService
from repro.serve.tcp import ServiceEndpoint
from repro.serve.workers import WorkerPool, solve_job

__all__ = [
    "AdmissionController",
    "TokenBucket",
    "BreakerBoard",
    "CircuitBreaker",
    "LADDER",
    "DegradationLadder",
    "DegradeMode",
    "GENERATORS",
    "ServiceResult",
    "SolveRequest",
    "build_workload",
    "LoopWatchdog",
    "ServiceStats",
    "SolveService",
    "ServiceEndpoint",
    "WorkerPool",
    "solve_job",
]
