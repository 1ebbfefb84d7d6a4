"""One solve pipeline: every DES front door runs the session body.

Two batteries:

* **DesSolver bit-identity** — the session-backed
  :class:`~repro.solvers.des_solver.DesSolver` is bitwise equal (``x``
  and every :class:`~repro.exec_model.timeline.ExecutionReport` field)
  to the standalone pipeline it replaced, kept here as a test-only
  oracle: one artefact bundle, one distribution, ``des_execute``, then
  ``simulate_execution``;
* **one body, two entry points** — a faulted plan solved through
  :meth:`SolverSession.solve` and through :func:`resilient_run` on the
  session's own distribution yields the same bits and observables, and
  a clean session solve (no plan, no recovery) never runs the residual
  repair.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

import repro.resilience.recovery as recovery_mod
from repro.engine.protocol import coerce_design, resolve_stale_policy
from repro.exec_model.timeline import simulate_execution
from repro.machine.multinode import cluster
from repro.machine.node import dgx1
from repro.resilience.faults import FaultKind, FaultPlan, FaultSpec
from repro.resilience.recovery import RecoveryPolicy
from repro.runtime.session import SolverSession, resilient_run
from repro.solvers.des_solver import DesSolver, des_execute
from repro.tasks.schedule import build_distribution
from repro.workloads.generators import (
    dag_profile_matrix,
    forest_lower,
    random_lower,
)


def _standalone_des_solve(
    lower,
    b,
    machine,
    design="shmem_readonly",
    engine="array",
    distribution="block",
    tasks_per_gpu=None,
    stale=None,
    node_run=None,
):
    """The pre-session ``DesSolver.solve`` body (test-only oracle)."""
    design = coerce_design(design)
    dist = build_distribution(
        distribution,
        lower.shape[0],
        machine.n_gpus,
        tasks_per_gpu=tasks_per_gpu,
        lower=lower,
        machine=machine,
        design=design,
        node_run=node_run,
    )
    ex = des_execute(
        lower,
        b,
        dist,
        machine,
        design,
        engine=engine,
        stale=resolve_stale_policy(design, stale),
    )
    report = simulate_execution(lower, dist, machine, design)
    return ex.x, report


#: ``DesSolver`` arguments per config; an ``engine`` entry names the
#: engine of the standalone oracle only (``DesSolver`` always drains the
#: array engine).
CONFIGS = {
    "reference": dict(machine=dgx1(2), engine="reference"),
    "array": dict(machine=dgx1(2), engine="array"),
    "stale_sync": dict(machine=dgx1(2), design="stale_sync"),
    "costaware": dict(machine=dgx1(2), distribution="costaware"),
    "taskpool": dict(machine=dgx1(2), distribution="taskpool"),
    "cluster-hierarchical": dict(
        machine=cluster(2, 2),
        engine="reference",
        distribution="hierarchical",
        node_run=2,
    ),
}

GENERATORS = {
    "random": lambda: random_lower(200, 3.0, seed=21),
    "forest": lambda: forest_lower(160, seed=22),
    "dag_profile": lambda: dag_profile_matrix(
        240, 12, 2.5, "uniform", 0.5, 0.3, 0.3, seed=23
    ),
}


def _assert_bitwise(a, b):
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    else:
        assert type(a) is type(b)
        assert a == b


@pytest.mark.parametrize("gen", sorted(GENERATORS))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_des_solver_matches_standalone_pipeline(config, gen):
    kwargs = dict(CONFIGS[config])
    engine = kwargs.pop("engine", "array")
    lower = GENERATORS[gen]()
    b = np.random.default_rng(7).uniform(-1.0, 1.0, size=lower.shape[0])
    x_ref, report_ref = _standalone_des_solve(
        lower, b, engine=engine, **kwargs
    )
    res = DesSolver(**kwargs).solve(lower, b)
    _assert_bitwise(res.x, x_ref)
    for f in fields(report_ref):
        _assert_bitwise(
            getattr(res.report, f.name), getattr(report_ref, f.name)
        )


@pytest.mark.parametrize("engine", ["reference", "array"])
def test_session_and_resilient_run_share_one_body(engine):
    """The session's faulted solve equals ``resilient_run`` on either
    engine: the oracle run and the production drain of one body."""
    n = 48
    lower = forest_lower(n, seed=3)
    b = np.random.default_rng(3).uniform(-1.0, 1.0, size=n)
    probe = SolverSession(n_gpus=4).solve(lower, b, with_report=False)
    T = float(probe.execution.total_time)
    plan = FaultPlan(
        seed=9,
        specs=(
            FaultSpec(FaultKind.MSG_DROP, rate=0.4),
            FaultSpec(FaultKind.GPU_FAIL, gpu=2, t_start=0.3 * T),
        ),
    )
    session = SolverSession(n_gpus=4, plan=plan)
    via_session = session.solve(lower, b, with_report=False)
    via_run = resilient_run(
        lower,
        b,
        session._dist,
        session.machine,
        session.config.design,
        plan=plan,
        engine=engine,
    )
    trace = via_session.execution.trace
    assert trace.count("retry") > 0 and trace.count("remap") > 0
    assert via_session.x.tobytes() == via_run.x.tobytes()
    assert via_session.repaired == via_run.repaired
    assert via_session.residual == via_run.residual
    assert via_session.execution.events == via_run.execution.events
    assert via_session.execution.total_time == via_run.execution.total_time
    assert via_session.report is None and via_run.report is None


def test_clean_session_solve_never_repairs(monkeypatch):
    """No plan and no recovery: the solve-hot path skips the repair."""

    def boom(*args, **kwargs):
        raise AssertionError("residual_repair ran on a clean solve")

    monkeypatch.setattr(recovery_mod, "residual_repair", boom)
    lower = random_lower(150, 3.0, seed=4)
    b = np.random.default_rng(4).uniform(-1.0, 1.0, size=150)
    res = SolverSession(n_gpus=2, trace_enabled=False).solve(
        lower, b, with_report=False
    )
    assert res.repaired == ()
    # An explicit policy does certify a clean run (the patch has teeth).
    checked = SolverSession(n_gpus=2, recovery=RecoveryPolicy())
    with pytest.raises(AssertionError, match="clean solve"):
        checked.solve(lower, b, with_report=False)
