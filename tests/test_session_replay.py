"""Drain once, replay per right-hand side.

An array drain never branches on a value, so it reads none: its record
(the order of its partial-sum adds and solves) and every observable but
``x`` are the same for any ``b``, and every array-engine ``x`` is a
replay of a record.  These tests hold the replay to that:

* two sessions' first solves with different ``b`` give equal records,
  counters and trace rows, and the record follows the dependency order;
* a replay for a third ``b`` equals a fresh session's first solve of it
  and the reference engine's run of it, the value oracle independent of
  any record: ``x`` bytes, ``events``, ``total_time``, ``page_faults``,
  trace rows after the stale-sync pass, and the residual repair;
* a drain reads no value: matrices of one pattern, one with every
  off-diagonal value NaN, drain to equal records;
* a config whose drain raises raises the same typed error on every
  solve, and its session keeps no record;
* a session drains once, on its first solve, keeps that drain's record
  and replays it after that; the first solve builds the replay plan and
  releases the program it compiled (nothing the session keeps or
  returns reaches it);
* each solution is certified once: one backward-error pass per solve,
  two when the stale-sync pass or the residual repair replays rows.

Each case runs with the replay plan forced all-scalar, all-vectorised
and mixed, so both step kinds face every fault kind.  Whatever the
kind, a level with no adds is one vector step, and the plan is one
value-free CSR matrix of whole chains over solve slots, in node-major
order.  A record replays any matrix with the drained one's pattern,
gathering each matrix's values once.
"""

from __future__ import annotations

import gc
import itertools
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from repro.engine.protocol import ALL_TRACE_KINDS, resolve_stale_policy
from repro.errors import DeadlockError, ReproError, SimulationError
from repro.exec_model.artefacts import get_artefacts
from repro.exec_model.costmodel import Design
from repro.machine.node import dgx1
from repro.resilience import recovery
from repro.resilience.faults import FaultPlan
from repro.resilience.recovery import RecoveryPolicy
from repro.resilience.watchdog import Watchdog
from repro.runtime.config import RunConfig
from repro.runtime.session import SolverSession, resilient_run
from repro.solvers import des_array
from repro.solvers.des_solver import des_execute
from repro.solvers.des_array import (
    DrainRecord,
    check_record_order,
    compile_program,
)
from repro.serve.request import build_workload
from repro.sparse import validate
from repro.sparse.csc import CscMatrix
from repro.sparse.validate import residual_norm
from repro.verify.registry import default_registry
from repro.workloads.generators import banded_lower, dag_profile_matrix

#: ``_REPLAY_VECTOR_MIN`` per plan kind.  "mixed" vectorises the middle
#: levels of :func:`_matrix` and plays its last levels as a scalar run;
#: its first level, which has no adds, is a vector step under every kind.
PLAN_KINDS = {"scalar": 10**9, "vector": 1, "mixed": 120}


@pytest.fixture(params=sorted(PLAN_KINDS))
def plan_kind(request, monkeypatch):
    monkeypatch.setattr(
        des_array, "_REPLAY_VECTOR_MIN", PLAN_KINDS[request.param]
    )
    return request.param


def _matrix():
    """600 rows over 10 levels whose widths bulge in the middle."""
    return dag_profile_matrix(
        n=600, n_levels=10, dependency=3.0, profile="bulge", seed=3
    )


def _rhs(k: int, n: int) -> np.ndarray:
    return np.random.default_rng([11, k]).uniform(-1.0, 1.0, size=n)


def _counts(trace) -> list[int]:
    return [trace.count(kind) for kind in ALL_TRACE_KINDS]


def assert_same_record(r1: DrainRecord, r2: DrainRecord) -> None:
    assert len(r1.ops) > 0
    assert r1.ops == r2.ops
    assert r1.flips == r2.flips
    assert r1.total_time == r2.total_time
    assert r1.page_faults == r2.page_faults
    assert r1.events == r2.events
    assert r1.trace.rows == r2.trace.rows
    assert _counts(r1.trace) == _counts(r2.trace)


def assert_same_result(got, want) -> None:
    assert got.x.tobytes() == want.x.tobytes()
    assert got.repaired == want.repaired
    assert got.residual == want.residual
    a, b = got.execution, want.execution
    assert a.x.tobytes() == b.x.tobytes()
    assert a.events == b.events
    assert a.total_time == b.total_time
    assert a.page_faults == b.page_faults
    assert a.trace.rows == b.trace.rows
    assert _counts(a.trace) == _counts(b.trace)


def assert_raises_every_solve(config: RunConfig, lower, error) -> None:
    """A config whose drain raises: the same error each time, no record."""
    session = SolverSession(config)
    for k in range(3):
        with pytest.raises(error):
            session.solve(lower, _rhs(k, lower.shape[0]), with_report=False)
        assert session._record is None


def reference_result(config: RunConfig, lower, b):
    """The reference engine's run of one session solve: the value oracle,
    which computes ``x`` from no record."""
    session = SolverSession(config)
    session._bind(lower)
    return resilient_run(
        lower, b, session._dist, session.machine, config.design,
        plan=config.plan,
        recovery=config.recovery,
        watchdog=config.build_watchdog(),
        engine="reference",
        trace_enabled=config.trace_enabled,
        stale=config.build_stale_policy(),
    )


def check_session_replays(config: RunConfig, lower) -> DrainRecord | None:
    """Record on two ``b`` in two sessions, then replay more ``b``.

    Returns the record for case-specific checks, or ``None`` when the
    config's drain raises (checked with :func:`assert_raises_every_solve`).
    """
    n = lower.shape[0]
    b = [_rhs(k, n) for k in range(4)]
    s1 = SolverSession(config)
    try:
        first = s1.solve(lower, b[0], with_report=False)
    except ReproError as err:
        assert_raises_every_solve(config, lower, type(err))
        return None
    assert s1._record is not None  # the first solve records its drain
    assert first.execution.record is s1._record
    s1.solve(lower, b[1], with_report=False)
    s2 = SolverSession(config)
    s2.solve(lower, b[2], with_report=False)
    s2.solve(lower, b[3], with_report=False)
    assert_same_record(s1._record, s2._record)
    check_record_order(
        s1._record, lower, config.design is Design.STALE_SYNC
    )
    replayed = s1.solve(lower, b[3], with_report=False)
    drained = SolverSession(config).solve(lower, b[3], with_report=False)
    assert_same_result(replayed, drained)
    assert_same_result(replayed, reference_result(config, lower, b[3]))
    # A replay hands out a fresh trace: the next one starts from the
    # record's rows again, whatever the stale pass appended.
    again = s1.solve(lower, b[3], with_report=False)
    assert_same_result(again, drained)
    return s1._record


# ------------------------------------------------- conformance des-* cases
DES_CASES = [c for c in default_registry().cases if c.name.startswith("des-")]


@pytest.mark.parametrize("case", DES_CASES, ids=lambda c: c.name)
def test_conformance_case_replays_bitwise(case, plan_kind):
    config = case.factory().session.config
    assert config.trace_enabled
    check_session_replays(config, _matrix())


# ------------------------------------------------------------ extra configs
def _makespan(config: RunConfig, lower) -> float:
    clean = SolverSession(config).solve(
        lower, _rhs(0, lower.shape[0]), with_report=False
    )
    return float(clean.execution.total_time)


def _extra_config(name: str, lower) -> RunConfig:
    if name == "stale_sync":
        return RunConfig(design="stale_sync")
    if name == "unified":
        return RunConfig(design="unified")
    if name == "cluster-hierarchical":
        return RunConfig(
            topology="cluster", n_nodes=2, gpus_per_node=2,
            distribution="hierarchical",
        )
    if name == "msg_drop-recovery":
        return RunConfig(
            plan=FaultPlan.single("msg_drop", rate=0.3, seed=11),
            recovery=RecoveryPolicy(),
        )
    if name == "bitflip-no-checksum":
        return RunConfig(
            plan=FaultPlan.single("bitflip", count=4, bit=30, seed=14),
            recovery=RecoveryPolicy(detect_corruption=False),
        )
    if name == "bitflip-wide":
        # Silent flips in the wide levels of a mixed plan and in its
        # scalar runs.
        return RunConfig(
            plan=FaultPlan.single("bitflip", count=12, bit=30, seed=15),
            recovery=RecoveryPolicy(detect_corruption=False),
        )
    if name.startswith("gpu_fail-remap"):
        T = _makespan(RunConfig(), lower)
        return RunConfig(
            plan=FaultPlan.single(
                "gpu_fail", gpu=int(name[-1]), t_start=0.25 * T
            ),
            recovery=RecoveryPolicy(remap_on_failure=True),
        )
    raise AssertionError(name)


EXTRA = (
    "stale_sync",
    "unified",
    "cluster-hierarchical",
    "msg_drop-recovery",
    "bitflip-no-checksum",
    "bitflip-wide",
    # A failed rank 3 remaps and recovers; a failed rank 2 ends in a
    # DeadlockError on every solve.
    "gpu_fail-remap-2",
    "gpu_fail-remap-3",
)


@pytest.mark.parametrize("name", EXTRA)
def test_extra_config_replays_bitwise(name, plan_kind):
    lower = _matrix()
    record = check_session_replays(_extra_config(name, lower), lower)
    if name != "gpu_fail-remap-2":
        assert record is not None
    if name.startswith("bitflip"):
        assert record.flips  # the corrupted adds are replayed, flipped
    if name == "bitflip-wide":
        # Every step holding a flip is a scalar run, whatever the kind:
        # each flipped add is replayed there, and nowhere else.
        runs = [
            step for step in record.plan.steps
            if isinstance(step, des_array._NarrowRun)
        ]
        assert sum(len(step.flips) for step in runs) == len(record.flips)
    if name == "unified":
        assert record.page_faults > 0
    if name == "stale_sync":
        assert record.trace.count("stale_launch") > 0


def test_plan_is_node_major_and_value_free(plan_kind):
    lower = _matrix()
    session = SolverSession(RunConfig(trace_enabled=False))
    for k in range(3):  # record (its replay builds the plan), replay
        session.solve(lower, _rhs(k, 600), with_report=False)
    record = session._record
    plan = record.plan
    level_of = get_artefacts(lower).levels.level_of
    arrays = [plan.perm, plan.indptr, plan.cols, plan.edges]
    for step in plan.steps:
        arrays += [a for a in step if isinstance(a, np.ndarray)]
    assert all(a.dtype.kind == "i" for a in arrays)  # no matrix value
    # Slots are components in (level, index) order; the steps tile them.
    assert (np.diff(level_of[plan.perm] * 600 + plan.perm) > 0).all()
    assert [s.lo for s in plan.steps][1:] == [s.hi for s in plan.steps][:-1]
    assert plan.steps[0].lo == 0 and plan.steps[-1].hi == len(plan.perm)
    first = plan.steps[0]
    # Level 0 has no adds: one vector step, whatever the threshold.
    assert isinstance(first, des_array._MatvecLevel)
    assert plan.indptr[first.hi] == 0
    assert np.array_equal(
        plan.perm[first.lo : first.hi], np.flatnonzero(level_of == 0)
    )
    kinds = [type(step) for step in plan.steps]
    if plan_kind == "scalar":
        assert kinds == [des_array._MatvecLevel, des_array._NarrowRun]
    if plan_kind == "vector":
        assert set(kinds) == {des_array._MatvecLevel}
    # Row k of the CSR is slot k's chain of adds into it, in record
    # order, and each add's column is its source's slot.
    chains = np.diff(plan.indptr)
    assert plan.indptr[0] == 0 and plan.indptr[-1] == len(plan.edges)
    assert np.array_equal(
        lower.indices[plan.edges], np.repeat(plan.perm, chains)
    )
    assert np.array_equal(
        plan.perm[plan.cols], lower.entry_cols()[plan.edges]
    )
    ops = np.frombuffer(record.ops, dtype=np.int64)
    position = np.empty(lower.nnz, dtype=np.int64)
    position[ops[ops >= 0]] = np.flatnonzero(ops >= 0)
    row = np.repeat(np.arange(len(plan.perm)), chains)
    later = np.diff(position[plan.edges]) > 0
    assert later[row[1:] == row[:-1]].all()
    # The values are the adds' entries, then each slot's diagonal.
    matrix, values = record.fill
    assert matrix is lower
    m = len(plan.edges)
    assert np.array_equal(values[:m], lower.data[plan.edges])
    assert np.array_equal(
        values[m:], lower.data[lower.indptr[plan.perm]]
    )


@pytest.mark.parametrize("name", ("default", "bitflip-wide"))
def test_one_record_replays_two_matrices_of_one_pattern(name, plan_kind):
    """A record holds no value: replayed on a matrix with the drained
    one's pattern and other values, it equals a fresh drain of that
    matrix.  Each matrix's values are gathered once, on its first
    replay, and gathered again when the matrix object changes."""
    first = _matrix()
    scale = np.random.default_rng(21).uniform(0.5, 2.0, size=first.nnz)
    second = CscMatrix(
        first.indptr, first.indices, first.data * scale, first.shape
    )
    config = RunConfig() if name == "default" else _extra_config(name, first)
    session = SolverSession(config)
    for k in range(2):  # record, then replay
        session.solve(first, _rhs(k, 600), with_report=False)
    record = session._record
    dist, machine = session._dist, session.machine

    def replay(lower, k):
        return resilient_run(
            lower, _rhs(k, 600), dist, machine, config.design,
            plan=config.plan,
            recovery=config.recovery,
            watchdog=config.build_watchdog(),
            trace_enabled=config.trace_enabled,
            stale=config.build_stale_policy(),
            replay=record,
        )

    fills, plans = [], []
    for lower in (first, first, second, second, first):
        k = 2 + len(fills)
        drained = SolverSession(config).solve(
            lower, _rhs(k, 600), with_report=False
        )
        replayed = replay(lower, k)
        assert_same_result(replayed, drained)
        assert_same_result(
            replayed, reference_result(config, lower, _rhs(k, 600))
        )
        assert record.fill[0] is lower
        fills.append(record.fill[1])
        plans.append(record.plan)
    assert all(plan is plans[0] for plan in plans)  # one plan, one pattern
    assert fills[1] is fills[0] and fills[3] is fills[2]
    assert fills[2] is not fills[1] and fills[4] is not fills[3]
    assert np.array_equal(fills[4], fills[0])
    assert not np.array_equal(fills[2], fills[0])


@pytest.mark.parametrize(
    "name", ("default", "unified", "stale_sync", "bitflip-no-checksum")
)
def test_drain_reads_no_value(name):
    """Matrices of one pattern drain to equal records under one
    distribution, whatever their values: one scaled by U(0.5, 2), one
    with every off-diagonal value NaN."""
    lower = _matrix()
    scale = np.random.default_rng(22).uniform(0.5, 2.0, size=lower.nnz)
    scaled = CscMatrix(
        lower.indptr, lower.indices, lower.data * scale, lower.shape
    )
    diag = lower.indptr[:-1]
    nan_data = np.full(lower.nnz, np.nan)
    nan_data[diag] = lower.data[diag]
    nans = CscMatrix(lower.indptr, lower.indices, nan_data, lower.shape)
    config = RunConfig() if name == "default" else _extra_config(name, lower)
    machine = config.resolve_machine()
    dist = config.build_distribution(600, machine.n_gpus, lower=scaled)
    stale = resolve_stale_policy(config.design, config.build_stale_policy())
    plan = config.plan

    def drain(matrix):
        return des_array.execute_array(
            compile_program(matrix, dist, machine, config.design),
            injector=None if plan is None else plan.build(matrix, dist),
            recovery=config.recovery,
            stale=stale,
        )

    record = drain(scaled)
    assert_same_record(record, drain(nans))
    if name == "unified":
        assert record.page_faults > 0
    if name == "stale_sync":
        assert record.trace.count("stale_launch") > 0
    if name.startswith("bitflip"):
        assert record.flips


def test_deep_chains_replay_bitwise(plan_kind):
    # One component per level: every level is narrow.
    lower = banded_lower(300, bandwidth=3, seed=1)
    check_session_replays(RunConfig(n_gpus=2), lower)


# ------------------------------------------------------ chaos --quick cells
def _chaos_cells():
    from repro.resilience.chaos import (
        DESIGNS,
        DISTRIBUTIONS,
        default_scenarios,
    )

    return list(
        itertools.product(default_scenarios(quick=True), DESIGNS, DISTRIBUTIONS)
    )


@pytest.fixture(scope="module")
def chaos_system():
    """The ``tools/chaos.py --quick`` system and its per-cell makespans."""
    from repro.resilience.chaos import DESIGNS, _design, _distributions
    from repro.workloads.generators import forest_lower

    lower = forest_lower(40, seed=7)
    machine = dgx1(4)
    dists = _distributions(lower, 4, machine)
    makespan = {}
    for d, (dist_name, dist) in itertools.product(DESIGNS, dists.items()):
        base = resilient_run(
            lower, _rhs(0, 40), dist, machine, _design(d),
            recovery=RecoveryPolicy(), trace_enabled=False,
        )
        makespan[d, dist_name] = float(base.execution.total_time)
    return lower, machine, dists, makespan


@pytest.mark.chaos
@pytest.mark.parametrize(
    "scenario,design_name,dist_name",
    _chaos_cells(),
    ids=lambda v: getattr(v, "name", v),
)
def test_chaos_quick_cell_replays_bitwise(
    chaos_system, scenario, design_name, dist_name, plan_kind
):
    from repro.resilience.chaos import _design

    lower, machine, dists, makespan = chaos_system
    dist = dists[dist_name]
    design = _design(design_name)
    T = makespan[design_name, dist_name]

    def run(k, replay=None, engine="array"):
        return resilient_run(
            lower, _rhs(k, 40), dist, machine, design,
            plan=scenario.plan_of(T),
            recovery=scenario.recovery,
            watchdog=Watchdog(stall_horizon=max(50.0 * T, 1.0)),
            engine=engine,
            trace_enabled=True,
            replay=replay,
        )

    try:
        r1 = run(1).execution.record
    except ReproError as err:
        # A raising cell raises the same typed error for every b.
        for k in (2, 3):
            with pytest.raises(type(err)):
                run(k)
        return
    r2 = run(2).execution.record
    assert_same_record(r1, r2)
    check_record_order(r1, lower, design is Design.STALE_SYNC)
    replayed = run(3, replay=r1)
    assert_same_result(replayed, run(3))
    assert_same_result(replayed, run(3, engine="reference"))


# -------------------------------------------------------- session lifecycle
class _DrainSpy:
    """Counts array drains and keeps the record each one returns."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.records: list[DrainRecord] = []
        real = des_array.execute_array

        def spy(*args, **kwargs):
            self.calls += 1
            record = real(*args, **kwargs)
            self.records.append(record)
            return record

        monkeypatch.setattr(des_array, "execute_array", spy)


def test_session_drains_then_records_then_replays(monkeypatch, compiles):
    lower = _matrix()
    spy = _DrainSpy(monkeypatch)
    session = SolverSession(RunConfig(trace_enabled=False))
    for k in range(5):
        session.solve(lower, _rhs(k, 600), with_report=False)
    # One compile and one drain, whose record the session keeps, then
    # four replays.
    assert compiles == [lower]
    assert spy.records == [session._record]
    # des_execute() on the session's system stays a real drain; its
    # record is not the session's.
    ex = des_execute(
        lower, _rhs(5, 600), session._dist, session.machine,
        session.config.design, trace_enabled=False,
    )
    assert spy.records == [session._record, ex.record]
    assert ex.record is not session._record


def test_one_shot_session_drains_once(monkeypatch):
    spy = _DrainSpy(monkeypatch)
    session = SolverSession(RunConfig())
    result = session.solve(_matrix(), _rhs(0, 600))
    assert spy.records == [session._record]
    assert result.execution.record is session._record


def test_new_matrix_drops_the_record(monkeypatch):
    spy = _DrainSpy(monkeypatch)
    session = SolverSession(RunConfig(trace_enabled=False))
    first, second = _matrix(), _matrix()
    for k in range(3):
        session.solve(first, _rhs(k, 600), with_report=False)
    old = session._record
    assert old is not None
    result = session.solve(second, _rhs(3, 600), with_report=False)
    assert session._record is not old
    assert session._record.fill[0] is second
    assert spy.records == [old, session._record]
    fresh = SolverSession(RunConfig(trace_enabled=False)).solve(
        second, _rhs(3, 600), with_report=False
    )
    assert_same_result(result, fresh)


RELEASE_CONFIGS = (
    "default", "stale_sync", "unified", "bitflip-no-checksum",
    "gpu_fail-remap-3",
)


@pytest.mark.parametrize("name", RELEASE_CONFIGS)
def test_recording_solve_releases_the_program(name, monkeypatch):
    """Reference counting alone frees the program once the session has
    recorded: no record, plan, trace or result reaches it."""
    lower = _matrix()
    config = (
        RunConfig() if name == "default" else _extra_config(name, lower)
    )
    programs = []
    real = des_array.compile_program

    def spy(*args, **kwargs):
        program = real(*args, **kwargs)
        programs.append(weakref.ref(program))
        return program

    monkeypatch.setattr(des_array, "compile_program", spy)
    session = SolverSession(config)
    enabled = gc.isenabled()
    gc.disable()
    try:
        results = [session.solve(lower, _rhs(0, 600), with_report=False)]
        assert len(programs) == 1  # the program the first solve drained
        assert programs[0]() is None
        assert session._record is not None
        assert session._record.plan is not None  # built by its replay
        for k in (1, 2):
            results.append(
                session.solve(lower, _rhs(k, 600), with_report=False)
            )
        assert len(programs) == 1
    finally:
        if enabled:
            gc.enable()
    assert all(r.execution.trace.rows for r in results)


# ------------------------------------------------ one certificate per x
@pytest.fixture
def certificates(monkeypatch):
    """Count backward-error passes (``residual_norm`` is their max)."""
    calls = []
    real = validate.backward_errors

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(validate, "backward_errors", counting)
    monkeypatch.setattr(recovery, "backward_errors", counting)
    return calls


def _stale_grid():
    return build_workload(
        {"generator": "grid", "rows": 64, "cols": 64, "seed": 1}
    )


CERTIFIED = {
    # name: (config, matrix, backward-error passes per solve)
    "plain": (RunConfig, _matrix, 1),
    "clean-recovered": (
        lambda: RunConfig(recovery=RecoveryPolicy()), _matrix, 1,
    ),
    "repaired": (
        lambda: _extra_config("bitflip-no-checksum", None), _matrix, 2,
    ),
    "stale_sync-replayed": (
        lambda: RunConfig(design="stale_sync"), _stale_grid, 2,
    ),
    "stale_sync-replayed-recovered": (
        lambda: RunConfig(design="stale_sync", recovery=RecoveryPolicy()),
        _stale_grid,
        2,
    ),
}


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_each_solution_is_certified_once(name, certificates):
    make_config, make_matrix, passes = CERTIFIED[name]
    lower = make_matrix()
    n = lower.shape[0]
    session = SolverSession(make_config())
    for k in range(3):  # record, two replays
        certificates.clear()
        b = _rhs(k, n)
        res = session.solve(lower, b, with_report=False)
        assert len(certificates) == passes
        if name == "repaired":
            assert res.repaired
        if name.startswith("stale_sync"):
            assert res.execution.trace.count("replay") > 0
        assert res.residual == residual_norm(lower, res.x, b)
    assert session._record is not None


def test_raising_config_raises_every_solve_and_keeps_nothing(monkeypatch):
    config = RunConfig(
        plan=FaultPlan.single("msg_drop", rate=1.0, seed=15),
        recovery=RecoveryPolicy(retry=False),
    )
    spy = _DrainSpy(monkeypatch)
    session = SolverSession(config)
    lower = _matrix()
    for k in range(3):
        with pytest.raises(DeadlockError):
            session.solve(lower, _rhs(k, 600), with_report=False)
        assert session._record is None
        assert spy.calls == k + 1 and spy.records == []  # drains again


def test_replay_ignores_the_wall_limit(monkeypatch):
    """The documented rule: a replay polls no watchdog, so a session's
    wall limit bounds its drains only."""
    lower = _matrix()
    config = RunConfig(watchdog_wall_limit=30.0, trace_enabled=False)
    session = SolverSession(config)
    for k in range(2):
        session.solve(lower, _rhs(k, 600), with_report=False)
    assert session._record is not None

    import repro.resilience.watchdog as watchdog_mod

    clock = itertools.count(0.0, 1000.0)  # every read is 1000 s later
    monkeypatch.setattr(
        watchdog_mod, "time", SimpleNamespace(monotonic=lambda: next(clock))
    )
    with pytest.raises(DeadlockError, match="wall-clock"):
        SolverSession(config).solve(lower, _rhs(2, 600), with_report=False)
    replayed = session.solve(lower, _rhs(2, 600), with_report=False)
    monkeypatch.undo()
    drained = SolverSession(config).solve(lower, _rhs(2, 600), with_report=False)
    assert_same_result(replayed, drained)


# ------------------------------------------------------ check_record_order
def _record(config=None, lower=None) -> tuple[DrainRecord, object]:
    lower = lower if lower is not None else _matrix()
    session = SolverSession(config or RunConfig(trace_enabled=False))
    for k in range(2):
        session.solve(lower, _rhs(k, lower.shape[0]), with_report=False)
    return session._record, lower


def _with_ops(ops) -> DrainRecord:
    record = DrainRecord()
    record.ops.extend(ops)
    return record


def test_record_order_accepts_a_drain():
    record, lower = _record()
    check_record_order(record, lower, None)


def test_record_order_rejects_an_add_before_its_source_solves():
    record, lower = _record()
    ops = record.ops.tolist()
    k = next(p for p, op in enumerate(ops) if op >= 0)
    src = int(np.searchsorted(lower.indptr, ops[k], side="right") - 1)
    solve = ops.index(-1 - src)
    ops.insert(solve, ops.pop(k))  # the add now lands before that solve
    with pytest.raises(SimulationError, match="dependency order"):
        check_record_order(_with_ops(ops), lower, None)


def test_record_order_rejects_an_add_after_its_destination_solves():
    record, lower = _record()
    ops = record.ops.tolist()
    k = next(p for p, op in enumerate(ops) if op >= 0)
    ops.append(ops.pop(k))  # past every solve
    with pytest.raises(SimulationError, match="dependency order"):
        check_record_order(_with_ops(ops), lower, None)
    # Under stale-sync a late add is legal.
    check_record_order(_with_ops(ops), lower, True)


def test_record_order_rejects_a_missing_or_repeated_solve():
    record, lower = _record()
    ops = record.ops.tolist()
    last_solve = max(p for p, op in enumerate(ops) if op < 0)
    with pytest.raises(SimulationError, match="0 times"):
        check_record_order(
            _with_ops(ops[:last_solve] + ops[last_solve + 1 :]), lower, None
        )
    with pytest.raises(SimulationError, match="2 times"):
        check_record_order(_with_ops(ops + [ops[last_solve]]), lower, None)


def test_record_order_rejects_a_diagonal_add():
    record, lower = _record()
    ops = record.ops.tolist() + [int(lower.indptr[0])]
    with pytest.raises(SimulationError, match="dependency order"):
        check_record_order(_with_ops(ops), lower, True)
