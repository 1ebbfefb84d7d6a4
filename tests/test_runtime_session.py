"""The runtime facade: RunConfig validation and SolverSession pipelines.

Three batteries:

* **conformance round-trip** — a :class:`SolverSession` solves the
  workload of every registered conformance case (reusing
  ``verify/registry.py``), matching the case's own solver and the serial
  reference; backward cases go through the anti-transpose symmetry;
* **artefact reuse** — repeated ``solve()`` calls on one matrix never
  rebuild the analysis bundle (``build_counts`` stays frozen, the DAG is
  built exactly once);
* **configuration surface** — every invalid knob raises a typed
  :class:`~repro.errors.ConfigurationError` naming the valid choices,
  and :func:`resilient_run` raises no DeprecationWarning.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.errors import ConfigurationError, SolverError
from repro.exec_model.artefacts import get_artefacts
from repro.exec_model.costmodel import Design
from repro.resilience.faults import FaultKind, FaultPlan, FaultSpec
from repro.runtime import (
    RunConfig,
    SessionResult,
    SolverSession,
    resilient_run,
)
from repro.solvers.backward import anti_transpose
from repro.solvers.serial import serial_backward, serial_forward
from repro.sparse.validate import random_rhs_for_solution, residual_norm
from repro.verify.registry import default_registry
from repro.workloads.generators import random_lower

REGISTRY = default_registry()


@pytest.fixture(scope="module")
def system():
    lower = random_lower(120, 3.0, seed=11)
    b, x_true = random_rhs_for_solution(lower, seed=11)
    return lower, b, x_true


# ---------------------------------------------------------------------------
# Conformance round-trip: the facade solves every registered case's system.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("case", REGISTRY.cases, ids=lambda c: c.name)
def test_session_round_trips_conformance_case(case, system):
    lower, b, _ = system
    session = SolverSession(n_gpus=2)
    rtol = max(case.rtol, 1e-9)
    if case.kind == "backward":
        upper = anti_transpose(lower)
        # Upper solve via the same symmetry BackwardSolver uses: solve
        # the anti-transposed lower system on the reversed RHS.
        res = session.solve(anti_transpose(upper), b[::-1].copy())
        x = res.x[::-1].copy()
        x_case = case.factory().solve(upper, b).x
        x_ref = serial_backward(upper, b)
    else:
        res = session.solve(lower, b)
        x = res.x
        x_case = case.factory().solve(lower, b).x
        x_ref = serial_forward(lower, b)
    np.testing.assert_allclose(x, x_ref, rtol=1e-9, atol=0)
    np.testing.assert_allclose(x, x_case, rtol=rtol, atol=0)
    assert isinstance(res, SessionResult)
    assert res.report is not None
    assert res.residual <= 1e-10


def test_registry_is_nonempty_and_covers_both_kinds():
    kinds = {case.kind for case in REGISTRY.cases}
    assert kinds == {"forward", "backward"}
    assert len(REGISTRY) >= 10


# ---------------------------------------------------------------------------
# Artefact reuse: repeated solves never rebuild the analysis bundle.
# ---------------------------------------------------------------------------
def test_repeated_solve_hits_artefact_cache(system):
    lower, b, _ = system
    session = SolverSession(n_gpus=2, engine="reference")
    first = session.solve(lower, b)
    bundle = get_artefacts(lower)
    assert bundle is session._artefacts
    counts_after_first = dict(bundle.build_counts)
    assert counts_after_first["dag"] == 1

    second = session.solve(lower, b)
    third = session.execute(lower, b)
    report = session.simulate(lower)

    # No re-derivation of any artefact: the DAG, levels, fronts, edges,
    # placement, and cost tables were all built exactly once.
    assert bundle.build_counts == counts_after_first
    assert session._artefacts is bundle
    assert np.array_equal(first.x, second.x)
    assert np.array_equal(first.x, third.x)
    assert first.execution.total_time == second.execution.total_time
    assert report.total_time == first.report.total_time


def test_rebinding_a_new_matrix_builds_a_fresh_bundle(system):
    lower, b, _ = system
    other = random_lower(80, 3.0, seed=4)
    b2, _ = random_rhs_for_solution(other, seed=4)
    session = SolverSession(n_gpus=2, engine="reference")
    session.solve(lower, b)
    first_bundle = session._artefacts
    session.solve(other, b2)
    assert session._artefacts is not first_bundle
    assert session._artefacts.build_counts["dag"] == 1


# ---------------------------------------------------------------------------
# Faulted pipeline through the facade.
# ---------------------------------------------------------------------------
def test_session_solve_with_fault_plan_recovers(system):
    lower, b, _ = system
    plan = FaultPlan(
        seed=3,
        specs=(FaultSpec(kind=FaultKind.MSG_DROP, rate=0.5),),
    )
    session = SolverSession(n_gpus=2, plan=plan, engine="reference")
    res = session.solve(lower, b)
    assert res.residual <= 1e-8
    assert residual_norm(lower, res.x, b) <= 1e-8


def test_resilient_run_matches_session(system):
    lower, b, _ = system
    session = SolverSession(n_gpus=2, engine="reference")
    res = session.solve(lower, b, with_report=False)
    dist = session.config.build_distribution(
        lower.shape[0], session.machine.n_gpus
    )
    direct = resilient_run(
        lower, b, dist, session.machine, session.config.design,
        engine="reference",
    )
    np.testing.assert_array_equal(res.x, direct.x)


# ---------------------------------------------------------------------------
# RunConfig validation surface.
# ---------------------------------------------------------------------------
def test_zerocopy_alias_maps_to_readonly_design():
    assert RunConfig(design="zerocopy").design is Design.SHMEM_READONLY
    assert RunConfig(design="unified").design is Design.UNIFIED
    assert RunConfig(design=Design.UNIFIED).design is Design.UNIFIED


@pytest.mark.parametrize(
    "kwargs, needle",
    [
        ({"engine": "simd"}, "valid choices"),
        ({"design": "warp"}, "valid choices"),
        ({"topology": "torus"}, "valid choices"),
        ({"distribution": "striped"}, "valid choices"),
        ({"n_gpus": 0}, "n_gpus"),
        ({"tasks_per_gpu": 0}, "tasks_per_gpu"),
        ({"engine": "vector"}, "valid choices"),
    ],
)
def test_bad_config_raises_typed_error(kwargs, needle):
    with pytest.raises(ConfigurationError, match=needle):
        RunConfig(**kwargs)


def test_configuration_error_is_solver_and_value_error():
    with pytest.raises(SolverError):
        RunConfig(engine="simd")
    with pytest.raises(ValueError):
        RunConfig(engine="simd")
    try:
        RunConfig(engine="simd")
    except ConfigurationError as err:
        assert err.parameter == "engine"
        assert err.value == "simd"
        assert "array" in err.choices


def _des_execute_vector(lower, b):
    from repro.machine.node import dgx1
    from repro.solvers.des_solver import des_execute
    from repro.tasks.schedule import block_distribution

    des_execute(
        lower, b, block_distribution(lower.shape[0], 2), dgx1(2),
        engine="vector",
    )


@pytest.mark.parametrize(
    "surface",
    [
        lambda lower, b: RunConfig(engine="vector"),
        lambda lower, b: RunConfig.from_mapping({"engine": "vector"}),
        _des_execute_vector,
    ],
    ids=["RunConfig", "from_mapping", "des_execute"],
)
def test_removed_vector_engine_lists_remaining_choices(surface, system):
    lower, b, _ = system
    with pytest.raises(ConfigurationError) as ei:
        surface(lower, b)
    assert ei.value.parameter == "engine"
    assert ei.value.choices == ("auto", "array", "reference")


@pytest.mark.parametrize(
    "mapping, needle",
    [
        ({"enginee": "auto"}, "unknown RunConfig key"),
        ({"recovery": {"retries": 3}}, "unknown RecoveryPolicy key"),
        ({"plan": {"seeds": 1}}, "unknown FaultPlan key"),
        ({"plan": {"specs": [{"rate": 0.1}]}}, "needs a 'kind'"),
        ({"plan": {"specs": [{"kind": "meteor"}]}}, "unknown fault kind"),
        ({"watchdog": {"deadline": 2.0}}, "unknown watchdog key"),
        ({"epoch_lookahead": 1.0}, "unknown RunConfig key"),
        # The fast model always picks its own pass now.
        ({"scheduler": "auto"}, "unknown RunConfig key"),
    ],
)
def test_from_mapping_rejects_unknown_keys(mapping, needle):
    with pytest.raises(ConfigurationError, match=needle):
        RunConfig.from_mapping(mapping)


def test_from_mapping_builds_nested_objects():
    cfg = RunConfig.from_mapping(
        {
            "design": "zerocopy",
            "engine": "array",
            "distribution": "taskpool",
            "tasks_per_gpu": 4,
            "recovery": {"max_retries": 3, "residual_check": False},
            "plan": {
                "seed": 9,
                "specs": [{"kind": "msg_drop", "rate": 0.25}],
            },
            "watchdog": {"stall_horizon": 2.0, "wall_limit": 30.0},
        }
    )
    assert cfg.design is Design.SHMEM_READONLY
    assert cfg.engine == "array"
    assert cfg.recovery.max_retries == 3
    assert cfg.recovery.residual_check is False
    assert cfg.plan.seed == 9
    assert cfg.plan.specs[0].kind is FaultKind.MSG_DROP
    assert cfg.watchdog_stall_horizon == 2.0
    dog = cfg.build_watchdog()
    assert dog is not None and dog.wall_limit == 30.0


def test_from_json_surface():
    cfg = RunConfig.from_json('{"engine": "reference", "n_gpus": 2}')
    assert cfg.engine == "reference" and cfg.n_gpus == 2
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        RunConfig.from_json("{nope")
    with pytest.raises(ConfigurationError, match="JSON object"):
        RunConfig.from_json("[1, 2]")


def test_to_mapping_round_trips():
    cfg = RunConfig(
        design="unified",
        engine="array",
        distribution="taskpool",
        watchdog_wall_limit=10.0,
    )
    again = RunConfig.from_mapping(cfg.to_mapping())
    assert again.design is cfg.design
    assert again.engine == cfg.engine
    assert again.distribution == cfg.distribution
    assert again.watchdog_wall_limit == 10.0


# ---------------------------------------------------------------------------
# Deprecations.
# ---------------------------------------------------------------------------
def test_resilient_run_does_not_warn(system):
    from repro.machine.node import dgx1
    from repro.tasks.schedule import block_distribution

    lower, b, _ = system
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        resilient_run(
            lower, b,
            block_distribution(lower.shape[0], 2),
            dgx1(2),
            Design.SHMEM_READONLY,
            engine="reference",
        )
