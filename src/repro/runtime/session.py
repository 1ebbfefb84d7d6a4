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
* ``session.simulate(lower)`` — the fast-model pricing alone.

The session pins the matrix's analysis-artefact bundle (DAG, levels,
placement, comm costs) with a strong reference, so repeated calls on the
same matrix never rebuild the structure — the ``build_counts`` /
``hits`` accounting on :class:`~repro.exec_model.artefacts.AnalysisArtefacts`
makes this testable.

:func:`resilient_run` is the DES-and-repair stage of that pipeline,
written once: :meth:`SolverSession.solve` calls it (with the session's
drain record once it has solved), the chaos harness calls it with its
own distributions, and
:class:`~repro.solvers.des_solver.DesSolver` solves through a session
— so the path production and the benchmark run is the path the
conformance cases audit.
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
    engine: str = "array",
    trace_enabled: bool = True,
    stale=None,
    replay=None,
) -> SessionResult:
    """Run one faulted, recovered, residual-checked DES solve.

    Builds the :class:`~repro.resilience.faults.FaultInjector` from
    ``plan``, plays the system out with the recovery policy and watchdog
    wired in, then applies the post-solve residual check/repair.
    ``recovery=None`` means the default
    :class:`~repro.resilience.recovery.RecoveryPolicy` when ``plan``
    injects faults, and no recovery (no residual check) otherwise; pass
    a policy explicitly to certify a clean run.  ``engine`` names the engine
    :func:`~repro.solvers.des_solver.des_execute` runs (``"reference"``
    asks for the oracle).  Any failure surfaces as a typed
    :class:`~repro.errors.ReproError` subclass — this
    function either returns a verified solution or raises; it never
    hangs (watchdog) and never returns silently corrupted data (residual
    check).

    An array-engine run's ``execution.record`` is the
    :class:`~repro.solvers.des_array.DrainRecord` its ``x`` was replayed
    from.  ``replay`` (such a record, from an array drain of this system
    with the same ``plan``, ``recovery`` and ``stale``) skips the drain
    and replays the record for this ``b``
    (:func:`~repro.solvers.des_solver.replay_execute`), which is what
    an array-engine run does after its drain.  A replay compiles
    no program, builds no injector and polls no ``watchdog``.
    Everything after it (stale-sync pass, residual check
    and repair) runs as after any run.

    Each solution is certified once: the backward error the stale-sync
    pass or :func:`~repro.resilience.recovery.residual_repair` computed
    for the final ``x`` is the result's ``residual``, and a stale-sync
    solution already under the recovery ceiling skips the repair check.
    Only a solve that neither routine checked computes
    :func:`~repro.sparse.validate.residual_norm` here.

    Returns a :class:`SessionResult` with ``report=None``.
    """
    from repro.resilience.recovery import RecoveryPolicy, residual_repair
    from repro.solvers.des_solver import des_execute, replay_execute
    from repro.sparse.validate import residual_norm

    faulted = plan is not None and not plan.is_null
    if recovery is None and faulted:
        recovery = RecoveryPolicy()
    if replay is not None:
        ex = replay_execute(
            lower, b, machine, design, stale=stale, record=replay
        )
    else:
        ex = des_execute(
            lower,
            b,
            dist,
            machine,
            design,
            trace_enabled=trace_enabled,
            engine=engine,
            injector=plan.build(lower, dist) if faulted else None,
            recovery=recovery,
            watchdog=watchdog,
            stale=stale,
        )
    x = ex.x
    residual = ex.residual
    repaired: list[int] = []
    if recovery is not None and recovery.residual_check:
        ceiling = recovery.residual_ceiling
        # A stale-sync solution under the ceiling has no suspects.
        if residual is None or not residual <= ceiling:
            x, repaired, residual = residual_repair(
                lower, b, x, ceiling=ceiling
            )
    if residual is None:
        residual = residual_norm(lower, x, np.asarray(b, dtype=np.float64))
    return SessionResult(
        x=x,
        execution=ex,
        report=None,
        repaired=tuple(repaired),
        residual=residual,
    )


class SolverSession:
    """One configured execution pipeline with artefact reuse.

    Construct with a :class:`~repro.runtime.config.RunConfig` (or field
    overrides), then call :meth:`solve` / :meth:`simulate` any number of
    times.  The session holds only the most recent matrix, its
    analysis-artefact bundle (a strong reference, so repeated calls
    reuse the DAG, level sets, placement, and comm-cost tables instead
    of rebuilding them), its distribution, and the drain record of its
    first solve.

    Record on the first solve, replay from the second: the first
    :meth:`solve` of a matrix drains through :func:`resilient_run` and
    :func:`~repro.solvers.des_solver.des_execute`, which compiles the
    matrix's :class:`~repro.solvers.des_array.ArrayProgram`, drains it
    (value-free) into a :class:`~repro.solvers.des_array.DrainRecord`,
    replays that record for its ``b``
    (:func:`~repro.solvers.des_array.replay_array`, whose first call
    builds the record's plan from the matrix and gathers the matrix's
    values in plan order) and lets the program go.  The session keeps
    the record, and every later :meth:`solve` replays it for its ``b``
    instead of re-simulating events whose order no value can change.
    The values are gathered once, so the bound matrix's entries must
    not change in place (the contract
    :class:`~repro.sparse.csc.CscMatrix` states).  The stale-sync pass,
    the residual check and repair, and the residual norm run after
    every replay, and the result is bit-identical to a fresh session's
    first solve.  A solve that raises keeps no record; binding a new
    matrix drops the record.  A replay polls no watchdog (see
    ``RunConfig.watchdog_wall_limit``).

    A warm session therefore holds the artefact bundle, the record
    (8 bytes per nonzero and per row, plus the drain's trace copy), its
    plan and the gathered values (8 bytes per kept add and per row),
    and never a program: replays read no program table, and the
    program's boxed per-edge lists would otherwise stay alive for every
    full garbage collection to walk.
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
        self._record = None

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
            self._record = None

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
        fault plan / recovery policy / watchdog (or, from the second solve
        of a matrix on, replays the first solve's record), residual-checks
        (and selectively repairs) the solution per the policy — all
        through :func:`resilient_run` — and, when ``with_report``,
        re-prices the execution through the fast model for a comparable
        :class:`ExecutionReport`.  The first solve keeps its drain's
        record.
        """
        cfg = self.config
        self._bind(lower)
        replay = self._record
        res = resilient_run(
            lower,
            b,
            self._dist,
            self.machine,
            cfg.design,
            plan=cfg.plan,
            recovery=cfg.recovery,
            watchdog=cfg.build_watchdog(),
            trace_enabled=cfg.trace_enabled,
            stale=cfg.build_stale_policy(),
            replay=replay,
        )
        if replay is None:
            self._record = res.execution.record
        if not with_report:
            return res
        return replace(res, report=self.simulate(lower))
