"""Unified execution facade: one configured pipeline per session.

:class:`RunConfig` captures every execution knob (design, engine,
machine, distribution, fault plan, recovery policy, watchdog, trace
sink) as a frozen validated value; :class:`SolverSession` runs the
configured pipeline — event-granular playout, recovery, residual
certification, fast-model report — with analysis-artefact reuse across
repeated solves.  :func:`resilient_run` is its DES-and-repair stage,
written once: the session calls it with its compiled array program and
the chaos harness calls it directly.
"""

from repro.runtime.config import (
    VALID_DISTRIBUTIONS,
    RunConfig,
    load_run_config,
)
from repro.runtime.session import SessionResult, SolverSession, resilient_run

__all__ = [
    "RunConfig",
    "load_run_config",
    "SolverSession",
    "SessionResult",
    "resilient_run",
    "VALID_DISTRIBUTIONS",
]
