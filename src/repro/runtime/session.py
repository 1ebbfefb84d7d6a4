"""The unified execution facade: one configured pipeline per session.

Before this module, running a resilient multi-GPU SpTRSV meant wiring
four entry points by hand — ``get_artefacts`` for the analysis bundle, a
distribution factory, :func:`~repro.solvers.des_solver.des_execute` with
injector/recovery/watchdog threaded through, then
:func:`~repro.resilience.recovery.residual_repair` and
:func:`~repro.exec_model.timeline.simulate_execution` for the report.
:class:`SolverSession` owns that pipeline behind one
:class:`~repro.runtime.config.RunConfig`:

* ``session.solve(lower, b)`` — the full configured pipeline (faults,
  recovery, residual certification, fast-model report);
* ``session.execute(lower, b)`` — the event-granular playout alone;
* ``session.simulate(lower)`` — the fast-model pricing alone.

The session pins the matrix's analysis-artefact bundle (DAG, levels,
placement, comm costs) with a strong reference, so repeated calls on the
same matrix never rebuild the structure — the ``build_counts`` /
``hits`` accounting on :class:`~repro.exec_model.artefacts.AnalysisArtefacts`
makes this testable.

:func:`resilient_run` is the DES-and-repair stage of that pipeline,
written once: :meth:`SolverSession.solve` calls it with the session's
compiled array program, the chaos harness calls it with its own
distributions, and :class:`~repro.solvers.des_solver.DesSolver` solves
through a session — so the path production and the benchmark run is
the path the conformance cases audit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.runtime.config import RunConfig

__all__ = ["SessionResult", "SolverSession", "resilient_run"]


@dataclass(frozen=True)
class SessionResult:
    """Outcome of one :meth:`SolverSession.solve` / :func:`resilient_run`
    pipeline run.

    Attributes
    ----------
    x:
        The (possibly repaired) solution vector.
    execution:
        The event-granular :class:`~repro.solvers.des_solver.DesExecution`
        (trace, wall clock, page faults, event count).
    report:
        The fast-model :class:`~repro.exec_model.timeline.ExecutionReport`
        re-pricing of the same system (``None`` when ``with_report`` was
        disabled, and always ``None`` from :func:`resilient_run`).
    repaired:
        Components replayed by the residual check.
    residual:
        Final componentwise backward error of ``x``.
    """

    x: np.ndarray
    execution: object
    report: object | None
    repaired: tuple[int, ...]
    residual: float


def resilient_run(
    lower,
    b,
    dist,
    machine,
    design,
    *,
    plan=None,
    recovery=None,
    watchdog=None,
    engine: str = "auto",
    trace_enabled: bool = True,
    stale=None,
    program=None,
) -> SessionResult:
    """Run one faulted, recovered, residual-checked DES solve.

    Builds the :class:`~repro.resilience.faults.FaultInjector` from
    ``plan``, plays the system out on the selected engine with the
    recovery policy and watchdog wired in, then applies the post-solve
    residual check/repair.  ``recovery=None`` means the default
    :class:`~repro.resilience.recovery.RecoveryPolicy` when ``plan``
    injects faults, and no recovery (no residual check) otherwise; pass
    a policy explicitly to certify a clean run.  ``program`` forwards a
    compiled array program to
    :func:`~repro.solvers.des_solver.des_execute`.  Any failure surfaces
    as a typed :class:`~repro.errors.ReproError` subclass — this
    function either returns a verified solution or raises; it never
    hangs (watchdog) and never returns silently corrupted data (residual
    check).

    Returns a :class:`SessionResult` with ``report=None``.
    """
    from repro.resilience.recovery import RecoveryPolicy, residual_repair
    from repro.solvers.des_solver import des_execute
    from repro.sparse.validate import residual_norm

    injector = None
    if plan is not None and not plan.is_null:
        injector = plan.build(lower, dist)
    if recovery is None and injector is not None:
        recovery = RecoveryPolicy()
    ex = des_execute(
        lower,
        b,
        dist,
        machine,
        design,
        trace_enabled=trace_enabled,
        engine=engine,
        injector=injector,
        recovery=recovery,
        watchdog=watchdog,
        stale=stale,
        program=program,
    )
    x = ex.x
    repaired: list[int] = []
    if recovery is not None and recovery.residual_check:
        x, repaired = residual_repair(
            lower, b, x, ceiling=recovery.residual_ceiling
        )
    return SessionResult(
        x=x,
        execution=ex,
        report=None,
        repaired=tuple(repaired),
        residual=float(
            residual_norm(lower, x, np.asarray(b, dtype=np.float64))
        ),
    )


class SolverSession:
    """One configured execution pipeline with artefact reuse.

    Construct with a :class:`~repro.runtime.config.RunConfig` (or field
    overrides), then call :meth:`solve` / :meth:`execute` /
    :meth:`simulate` any number of times.  The analysis-artefact bundle
    of the most recent matrix is held with a strong reference, so
    repeated calls on the same matrix reuse the DAG, level sets,
    placement, and comm-cost tables instead of rebuilding them.  When
    the configured engine resolves to the array engine, the first
    :meth:`solve` / :meth:`execute` also compiles its
    :class:`~repro.solvers.des_array.ArrayProgram`, and later solves of
    the same matrix only drain it.
    """

    def __init__(self, config: RunConfig | None = None, **overrides):
        if config is None:
            config = RunConfig(**overrides)
        elif overrides:
            config = replace(config, **overrides)
        self.config = config
        self._machine = None
        self._matrix = None
        self._artefacts = None
        self._dist = None
        self._program = None

    @property
    def machine(self):
        if self._machine is None:
            self._machine = self.config.resolve_machine()
        return self._machine

    def _bind(self, lower):
        """Pin the matrix's artefact bundle and build its distribution.

        The bundle comes from the shared weakly-keyed cache
        (:func:`~repro.exec_model.artefacts.get_artefacts`); the session's
        strong reference keeps it alive across repeated solves, so every
        stage's own bundle lookup hits, and the per-design comm-cost
        sub-cache keyed inside the bundle does the rest.
        """
        if lower is not self._matrix:
            from repro.exec_model.artefacts import get_artefacts

            self._matrix = lower
            self._artefacts = get_artefacts(lower)
            machine = self.machine
            self._dist = self.config.build_distribution(
                lower.shape[0], machine.n_gpus, lower=lower
            )
            self._program = None

    def _array_program(self, lower):
        """The bound matrix's array-engine program, compiled on first use;
        ``None`` when the configured engine resolves to the reference
        engine."""
        from repro.solvers.des_solver import resolve_engine

        if resolve_engine(self.config.engine, lower.shape[0]) != "array":
            return None
        if self._program is None:
            from repro.solvers.des_array import compile_program

            self._program = compile_program(
                lower, self._dist, self.machine, self.config.design
            )
        return self._program

    def execute(self, lower, b):
        """Event-granular playout only (no faults, no repair, no report)."""
        from repro.solvers.des_solver import des_execute

        self._bind(lower)
        return des_execute(
            lower,
            b,
            self._dist,
            self.machine,
            self.config.design,
            trace_enabled=self.config.trace_enabled,
            engine=self.config.engine,
            stale=self.config.build_stale_policy(),
            program=self._array_program(lower),
        )

    def simulate(self, lower):
        """Fast-model pricing only: the analytic ExecutionReport."""
        from repro.exec_model.timeline import simulate_execution

        self._bind(lower)
        return simulate_execution(
            lower, self._dist, self.machine, self.config.design
        )

    def solve(self, lower, b, *, with_report: bool = True) -> SessionResult:
        """Run the full configured pipeline on one system.

        Plays the system out at event granularity with the configured
        fault plan / recovery policy / watchdog, residual-checks (and
        selectively repairs) the solution per the policy — all through
        :func:`resilient_run`, fed the session's compiled array program —
        and, when ``with_report``, re-prices the execution through the
        fast model for a comparable :class:`ExecutionReport`.
        """
        cfg = self.config
        self._bind(lower)
        res = resilient_run(
            lower,
            b,
            self._dist,
            self.machine,
            cfg.design,
            plan=cfg.plan,
            recovery=cfg.recovery,
            watchdog=cfg.build_watchdog(),
            engine=cfg.engine,
            trace_enabled=cfg.trace_enabled,
            stale=cfg.build_stale_policy(),
            program=self._array_program(lower),
        )
        if not with_report:
            return res
        return replace(res, report=self.simulate(lower))
