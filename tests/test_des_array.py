"""Array DES engine: golden bit-equality, causality replay, production path.

The array engine's contract is *bit*-equality with the reference
engine, not tolerance-equality: every trace record (kind, time, gpu,
detail), the solution bits, the simulated wall clock, and the
fault/event counters must match exactly on every workload and design.
"""

import numpy as np
import pytest

from repro.analysis.dag import build_dag
from repro.errors import ConfigurationError, SimulationError, SolverError
from repro.exec_model.costmodel import Design
from repro.machine.node import dgx1
from repro.runtime import SolverSession
from repro.solvers.des_solver import des_execute, replay_execute
from repro.sparse.csc import CscMatrix
from repro.tasks.schedule import block_distribution
from repro.verify.causality import check_des_trace
from repro.verify.oracles import default_generators, run_conformance
from repro.verify.registry import default_registry
from repro.workloads.generators import random_lower

GENERATORS = default_generators()


def _run_both(lower, design, n_gpus=2, seed=7):
    n = lower.shape[0]
    machine = dgx1(n_gpus, require_p2p=design is not Design.UNIFIED)
    dist = block_distribution(n, n_gpus)
    b = np.random.default_rng(seed).standard_normal(n)
    ref = des_execute(
        lower, b, dist, machine, design, engine="reference"
    )
    arr = des_execute(lower, b, dist, machine, design, engine="array")
    return ref, arr, dist, machine


def _assert_bit_identical(ref, arr):
    assert ref.events == arr.events
    assert ref.page_faults == arr.page_faults
    assert ref.total_time == arr.total_time  # exact, not approx
    assert ref.x.tobytes() == arr.x.tobytes()
    assert len(ref.trace.records) == len(arr.trace.records)
    for k, (r, a) in enumerate(zip(ref.trace.records, arr.trace.records)):
        assert r == a, f"trace diverges at record {k}: {r} != {a}"


class TestGoldenBitEquality:
    @pytest.mark.parametrize("design", list(Design), ids=lambda d: d.value)
    @pytest.mark.parametrize(
        "gname,gen", GENERATORS, ids=[g[0] for g in GENERATORS]
    )
    def test_every_generator_every_design(self, gname, gen, design):
        ref, arr, _, _ = _run_both(gen(3), design)
        _assert_bit_identical(ref, arr)

    def test_four_gpu_placement(self):
        _, gen = GENERATORS[4]  # level-major: widest fronts
        ref, arr, _, _ = _run_both(
            gen(5), Design.SHMEM_READONLY, n_gpus=4
        )
        _assert_bit_identical(ref, arr)

    def test_link_contention(self, monkeypatch):
        """Equality must survive saturated link channels (queued xfers)."""
        import repro.solvers.des_solver as mod

        monkeypatch.setattr(mod, "MESSAGES_IN_FLIGHT_PER_LINK", 1)
        _, gen = GENERATORS[5]  # scattered: cross-GPU heavy
        ref, arr, _, _ = _run_both(gen(2), Design.SHMEM_READONLY)
        _assert_bit_identical(ref, arr)
        assert ref.trace.count("xfer_begin") > 0

    def test_trace_disabled_keeps_counters_identical(self):
        _, gen = GENERATORS[3]
        lower = gen(1)
        n = lower.shape[0]
        machine = dgx1(2)
        dist = block_distribution(n, 2)
        b = np.random.default_rng(0).standard_normal(n)
        ref = des_execute(
            lower, b, dist, machine, engine="reference", trace_enabled=False
        )
        arr = des_execute(
            lower, b, dist, machine, engine="array", trace_enabled=False
        )
        assert len(ref.trace.records) == len(arr.trace.records) == 0
        assert ref.trace.count("solve") == arr.trace.count("solve") == n
        assert ref.total_time == arr.total_time
        assert ref.x.tobytes() == arr.x.tobytes()


class TestCausalityReplay:
    @pytest.mark.parametrize("design", list(Design), ids=lambda d: d.value)
    def test_array_traces_respect_machine_physics(self, design):
        """Replay array-engine traces through the causality checker."""
        for gname, gen in GENERATORS:
            lower = gen(11)
            n = lower.shape[0]
            machine = dgx1(2, require_p2p=design is not Design.UNIFIED)
            dist = block_distribution(n, 2)
            b = np.random.default_rng(1).standard_normal(n)
            arr = des_execute(
                lower, b, dist, machine, design, engine="array"
            )
            report = check_des_trace(
                arr.trace, build_dag(lower), dist, machine, design
            )
            assert report.ok, f"{gname}/{design.value}: {report.violations}"


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        lower = random_lower(8, seed=1)
        dist = block_distribution(8, 2)
        for engine in ("vectorised", "auto"):
            with pytest.raises(
                ConfigurationError, match="unknown DES engine"
            ) as ei:
                des_execute(lower, np.ones(8), dist, dgx1(2), engine=engine)
            assert ei.value.choices == ("array", "reference")


# ---------------------------------------------------------------------------
# One production engine: every session solve runs the array engine (the
# first a drain plus a replay of its record, later ones replays of that
# record), down to one-row systems, and stays bit-identical to the
# reference oracle.
# ---------------------------------------------------------------------------
SMALL_NS = (1, 2, 3, 5, 8, 40)


class TestProductionEngine:
    @pytest.mark.parametrize("distribution", ["block", "taskpool"])
    @pytest.mark.parametrize("n_gpus", [1, 2, 4])
    @pytest.mark.parametrize("design", list(Design), ids=lambda d: d.value)
    @pytest.mark.parametrize("n", SMALL_NS)
    def test_small_session_solve_matches_reference(
        self, n, design, n_gpus, distribution
    ):
        lower = random_lower(n, 2.5, seed=n)
        b = np.random.default_rng(n).standard_normal(n)
        session = SolverSession(
            machine=dgx1(n_gpus, require_p2p=design is not Design.UNIFIED),
            design=design,
            distribution=distribution,
        )
        res = session.solve(lower, b, with_report=False)
        assert session._record is not None  # drained the array engine
        _assert_bit_identical(
            _fresh_reference(session, lower, b), res.execution
        )

    def test_conformance_inputs_match_reference(self, monkeypatch):
        """Every drain the production DES conformance case makes over the
        conformance workloads (<= 300 rows, ``shmem_readonly``, block
        placement) equals the reference engine's run of the same input:
        the oracle faces the case's inputs without a case of its own."""
        import repro.solvers.des_solver as des_solver_mod

        real = des_solver_mod.des_execute
        sizes = []

        def checked(lower, b, dist, machine, design, **kwargs):
            arr = real(lower, b, dist, machine, design, **kwargs)
            assert kwargs.pop("engine") == "array"
            ref = real(
                lower, b, dist, machine, design, engine="reference", **kwargs
            )
            _assert_bit_identical(ref, arr)
            sizes.append(lower.shape[0])
            return arr

        monkeypatch.setattr(des_solver_mod, "des_execute", checked)
        case = default_registry().get("des-2gpu-array")
        assert (case.design, case.distribution) == ("shmem_readonly", "block")
        rep = run_conformance(
            default_registry(), GENERATORS, seed=0, cases=[case.name]
        )
        assert rep.ok, rep.summary()
        assert len({f.generator for f in rep.findings}) == len(GENERATORS)
        assert sizes and max(sizes) <= case.max_n


class TestFailureModes:
    def test_missing_diagonal_rejected(self):
        # 2x2 lower-triangular with no entry at (1, 1).
        bad = CscMatrix(
            indptr=np.array([0, 2, 2]),
            indices=np.array([0, 1]),
            data=np.array([1.0, 0.5]),
            shape=(2, 2),
        )
        dist = block_distribution(2, 1)
        with pytest.raises(SolverError, match="missing diagonal"):
            des_execute(
                bad, np.ones(2), dist, dgx1(1), engine="array"
            )

    def test_unsatisfiable_dependency_deadlocks(self, monkeypatch):
        from dataclasses import replace

        from repro.exec_model.artefacts import get_artefacts

        _, gen = GENERATORS[0]
        lower = gen(6)
        art = get_artefacts(lower)
        in_degree = art.dag.in_degree.copy()
        in_degree[-1] += 1  # phantom predecessor
        monkeypatch.setattr(art, "dag", replace(art.dag, in_degree=in_degree))
        dist = block_distribution(lower.shape[0], 2)
        b = np.ones(lower.shape[0])
        with pytest.raises(SimulationError, match="deadlock"):
            des_execute(lower, b, dist, dgx1(2), engine="array")

    def test_zero_link_capacity_rejected_identically(self, monkeypatch):
        import repro.solvers.des_solver as mod

        monkeypatch.setattr(mod, "MESSAGES_IN_FLIGHT_PER_LINK", 0)
        _, gen = GENERATORS[5]  # scattered: cross-GPU heavy
        lower = gen(2)
        n = lower.shape[0]
        errors = []
        for engine in ("reference", "array"):
            with pytest.raises(SimulationError) as info:
                des_execute(
                    lower, np.ones(n), block_distribution(n, 2), dgx1(2),
                    engine=engine,
                )
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
        assert errors[1] == (
            SimulationError, "resource 'link0->1' needs capacity >= 1"
        )


# ---------------------------------------------------------------------------
# Faulted parity: the bit-equality contract extends to every fault-
# injection and recovery path.  Same plan + seed must yield the identical
# fault schedule, trace, solution, makespan, and event count on both
# engines — and error scenarios must fail identically.
# ---------------------------------------------------------------------------

from repro.errors import (  # noqa: E402
    DeadlockError,
    FaultInjectionError,
    RecoveryExhaustedError,
)
from repro.resilience.faults import FaultKind, FaultPlan, FaultSpec  # noqa: E402
from repro.resilience.recovery import RecoveryPolicy  # noqa: E402
from repro.resilience.watchdog import Watchdog  # noqa: E402
from repro.workloads.generators import forest_lower  # noqa: E402


def _faulted_fixture(n=48, n_gpus=4, seed=3, design=Design.SHMEM_READONLY):
    lower = forest_lower(n, seed=seed)
    machine = dgx1(n_gpus, require_p2p=design is not Design.UNIFIED)
    dist = block_distribution(n, n_gpus)
    b = np.random.default_rng(seed).standard_normal(n)
    probe = des_execute(lower, b, dist, machine, design, engine="reference")
    return lower, b, dist, machine, design, float(probe.total_time)


def _run_both_faulted(plan, recovery=None, fixture=None):
    lower, b, dist, machine, design, _T = fixture or _faulted_fixture()
    recovery = recovery if recovery is not None else RecoveryPolicy()
    runs = []
    for engine in ("reference", "array"):
        injector = plan.build(lower, dist) if plan is not None else None
        runs.append(
            des_execute(
                lower, b, dist, machine, design,
                engine=engine,
                injector=injector,
                recovery=recovery,
                watchdog=Watchdog(stall_horizon=10.0),
            )
        )
    return runs


def _fault_plans(T):
    """One plan per fault kind plus a combined-stress plan."""
    return [
        ("link_down", FaultPlan.single(
            FaultKind.LINK_DOWN, t_start=0.1 * T, t_end=0.5 * T)),
        ("bandwidth", FaultPlan.single(FaultKind.BANDWIDTH, factor=4.0)),
        ("msg_drop", FaultPlan.single(FaultKind.MSG_DROP, rate=0.4, seed=5)),
        ("msg_delay", FaultPlan.single(
            FaultKind.MSG_DELAY, rate=0.4, extra_delay=0.3 * T, seed=6)),
        ("bitflip", FaultPlan.single(FaultKind.BITFLIP, count=2, seed=7)),
        ("straggler", FaultPlan.single(
            FaultKind.STRAGGLER, gpu=1, factor=8.0)),
        ("gpu_fail", FaultPlan.single(
            FaultKind.GPU_FAIL, gpu=2, t_start=0.3 * T)),
        ("combined", FaultPlan(seed=9, specs=(
            FaultSpec(FaultKind.MSG_DROP, rate=0.3),
            FaultSpec(FaultKind.STRAGGLER, gpu=0, factor=4.0),
            FaultSpec(FaultKind.GPU_FAIL, gpu=3, t_start=0.4 * T),
        ))),
    ]


class TestFaultedBitEquality:
    @pytest.fixture(scope="class")
    def fixture(self):
        return _faulted_fixture()

    def test_same_plan_same_schedule(self, fixture):
        """Determinism: one plan builds the identical fault schedule."""
        lower, _b, dist, _m, _d, _T = fixture
        plan = FaultPlan.single(FaultKind.MSG_DROP, rate=0.5, seed=4)
        assert (
            plan.build(lower, dist).describe()
            == plan.build(lower, dist).describe()
        )

    def test_every_fault_kind_bit_identical(self, fixture):
        _, _, _, _, _, T = fixture
        for name, plan in _fault_plans(T):
            ref, arr = _run_both_faulted(plan, fixture=fixture)
            try:
                _assert_bit_identical(ref, arr)
            except AssertionError as exc:  # pragma: no cover - diagnostic
                raise AssertionError(f"fault kind {name!r}: {exc}") from exc

    def test_faulted_runs_actually_faulted(self, fixture):
        """Guard against vacuous parity: faults must fire and recover."""
        _, _, _, _, _, T = fixture
        ref, _ = _run_both_faulted(
            FaultPlan.single(FaultKind.MSG_DROP, rate=0.4, seed=5),
            fixture=fixture,
        )
        assert ref.trace.count("inject") > 0
        assert ref.trace.count("retry") > 0
        assert ref.trace.count("recovered") > 0
        ref, _ = _run_both_faulted(
            FaultPlan.single(FaultKind.GPU_FAIL, gpu=2, t_start=0.3 * T),
            fixture=fixture,
        )
        assert ref.trace.count("gpu_fail") == 1
        assert ref.trace.count("remap") > 0

    def test_null_plan_is_bit_transparent(self, fixture):
        """A built null injector + watchdog change nothing at all."""
        lower, b, dist, machine, design, _T = fixture
        for engine in ("reference", "array"):
            plain = des_execute(
                lower, b, dist, machine, design, engine=engine
            )
            nulled = des_execute(
                lower, b, dist, machine, design,
                engine=engine,
                injector=FaultPlan.none().build(lower, dist),
                recovery=RecoveryPolicy(),
                watchdog=Watchdog(stall_horizon=10.0),
            )
            _assert_bit_identical(plain, nulled)

    def test_unified_design_faulted_parity(self):
        fixture = _faulted_fixture(design=Design.UNIFIED)
        _, _, _, _, _, T = fixture
        plan = FaultPlan(seed=2, specs=(
            FaultSpec(FaultKind.MSG_DROP, rate=0.3),
            FaultSpec(FaultKind.GPU_FAIL, gpu=1, t_start=0.3 * T),
        ))
        ref, arr = _run_both_faulted(plan, fixture=fixture)
        _assert_bit_identical(ref, arr)


class TestFaultedErrorParity:
    @pytest.fixture(scope="class")
    def fixture(self):
        return _faulted_fixture()

    def _raise_both(self, plan, recovery, fixture):
        errors = []
        lower, b, dist, machine, design, _T = fixture
        for engine in ("reference", "array"):
            with pytest.raises(Exception) as excinfo:
                des_execute(
                    lower, b, dist, machine, design,
                    engine=engine,
                    injector=plan.build(lower, dist),
                    recovery=recovery,
                    watchdog=Watchdog(stall_horizon=10.0),
                )
            errors.append(excinfo.value)
        return errors

    def test_no_retry_deadlocks_identically(self, fixture):
        ref_err, arr_err = self._raise_both(
            FaultPlan.single(FaultKind.MSG_DROP, rate=1.0, seed=5),
            RecoveryPolicy(retry=False),
            fixture,
        )
        assert type(ref_err) is type(arr_err) is DeadlockError
        # One message, one blocked map, one diagnostics payload: the
        # protocol core builds the error for both engines.
        assert str(ref_err) == str(arr_err)
        assert str(arr_err).startswith("deadlock: ")
        assert "waiters with empty event calendar" in str(arr_err)
        assert ref_err.blocked == arr_err.blocked
        assert ref_err.blocked and all(
            k.startswith("('ready', ") for k in arr_err.blocked
        )
        assert ref_err.diagnostics == arr_err.diagnostics
        assert arr_err.diagnostics["pending_frontier"]

    def test_retry_exhaustion_identical_message(self, fixture):
        ref_err, arr_err = self._raise_both(
            FaultPlan.single(
                FaultKind.MSG_DROP, rate=1.0, repeats=20, seed=5
            ),
            RecoveryPolicy(max_retries=3),
            fixture,
        )
        assert type(ref_err) is type(arr_err) is RecoveryExhaustedError
        assert str(ref_err) == str(arr_err)
        assert ref_err.context == arr_err.context

    def test_bad_failure_rank_rejected_before_run(self, fixture):
        lower, b, dist, machine, design, _T = fixture
        plan = FaultPlan.single(FaultKind.GPU_FAIL, gpu=64, t_start=0.0)
        for engine in ("reference", "array"):
            with pytest.raises(FaultInjectionError, match="gpu_fail"):
                des_execute(
                    lower, b, dist, machine, design,
                    engine=engine,
                    injector=plan.build(lower, dist),
                    recovery=RecoveryPolicy(),
                )


# ---------------------------------------------------------------------------
# Compile once per bound matrix: a session compiles one ArrayProgram and
# every solve of it, drained or replayed, must equal a fresh reference run.
# ---------------------------------------------------------------------------

from repro.solvers.des_array import (  # noqa: E402
    compile_program,
    execute_array,
)

REUSE_DESIGNS = (
    Design.SHMEM_READONLY,
    Design.SHMEM_NAIVE,
    Design.UNIFIED,
    Design.STALE_SYNC,
)
REUSE_GENERATORS = [
    g for g in GENERATORS if g[0] in ("banded", "level-major", "scattered")
]


def _fresh_reference(session, lower, b, **kwargs):
    cfg = session.config
    machine = session.machine
    dist = cfg.build_distribution(lower.shape[0], machine.n_gpus, lower=lower)
    return des_execute(
        lower, b, dist, machine, cfg.design,
        engine="reference", stale=cfg.build_stale_policy(), **kwargs,
    )


class TestCompiledProgramReuse:
    @pytest.mark.parametrize("design", REUSE_DESIGNS, ids=lambda d: d.value)
    @pytest.mark.parametrize(
        "gname,gen", REUSE_GENERATORS, ids=[g[0] for g in REUSE_GENERATORS]
    )
    def test_session_solves_match_fresh_reference(
        self, gname, gen, design, compiles
    ):
        lower = gen(3)
        session = SolverSession(n_gpus=2, design=design)
        rng = np.random.default_rng(5)
        for _ in range(3):
            b = rng.standard_normal(lower.shape[0])
            res = session.solve(lower, b, with_report=False)
            _assert_bit_identical(
                _fresh_reference(session, lower, b), res.execution
            )
        assert len(compiles) == 1

    def test_binding_a_new_matrix_recompiles(self, compiles):
        _, gen = REUSE_GENERATORS[0]
        first, second = gen(3), gen(4)
        session = SolverSession(n_gpus=2)
        for lower in (first, second, second, first):
            b = np.ones(lower.shape[0])
            ex = session.solve(lower, b, with_report=False).execution
            _assert_bit_identical(_fresh_reference(session, lower, b), ex)
        assert compiles == [first, second, first]

    def test_only_array_drains_compile(self, compiles):
        """Fast-model pricing and reference-oracle runs compile nothing;
        only a drain does."""
        _, gen = REUSE_GENERATORS[0]
        lower = gen(3)
        session = SolverSession(n_gpus=2)
        session.simulate(lower)
        _fresh_reference(session, lower, np.ones(lower.shape[0]))
        assert compiles == []
        session.solve(lower, np.ones(lower.shape[0]), with_report=False)
        assert compiles == [lower]

    @pytest.mark.parametrize(
        "design", (Design.SHMEM_READONLY, Design.UNIFIED),
        ids=lambda d: d.value,
    )
    @pytest.mark.parametrize(
        "gname,gen", REUSE_GENERATORS, ids=[g[0] for g in REUSE_GENERATORS]
    )
    def test_remap_leaves_the_program_intact(self, gname, gen, design):
        """A fail-stop remap drains on copies: the next drain of the same
        program is clean."""
        lower, b, dist, machine, _, T = _remap_fixture(gen, design)
        program = compile_program(lower, dist, machine, design)
        plan = FaultPlan.single(FaultKind.GPU_FAIL, gpu=2, t_start=0.3 * T)

        def run(engine, faulted, program=None):
            injector = plan.build(lower, dist) if faulted else None
            recovery = RecoveryPolicy() if faulted else None
            if program is None:
                return des_execute(
                    lower, b, dist, machine, design,
                    engine=engine, injector=injector, recovery=recovery,
                )
            record = execute_array(
                program, injector=injector, recovery=recovery
            )
            return replay_execute(lower, b, machine, design, record=record)

        faulted = run("array", True, program)
        assert faulted.trace.count("remap") > 0
        _assert_bit_identical(run("reference", True), faulted)
        _assert_bit_identical(
            run("reference", False), run("array", False, program)
        )
        _assert_bit_identical(run("reference", True), run("array", True, program))

    def test_faulted_session_solves_repeat_bit_identically(self, compiles):
        _, gen = REUSE_GENERATORS[0]
        lower, b, dist, machine, design, T = _remap_fixture(
            gen, Design.SHMEM_READONLY
        )
        plan = FaultPlan.single(FaultKind.GPU_FAIL, gpu=2, t_start=0.3 * T)
        session = SolverSession(
            machine=machine, design=design, plan=plan
        )
        ref = _fresh_reference(
            session, lower, b,
            injector=plan.build(lower, dist), recovery=RecoveryPolicy(),
        )
        assert ref.trace.count("remap") > 0
        for _ in range(2):
            res = session.solve(lower, b, with_report=False)
            _assert_bit_identical(ref, res.execution)
        assert len(compiles) == 1


def _remap_fixture(gen, design, n_gpus=4, seed=3):
    """A system whose remap re-routes edges of unsolved columns."""
    lower = gen(seed)
    n = lower.shape[0]
    machine = dgx1(n_gpus, require_p2p=design is not Design.UNIFIED)
    dist = block_distribution(n, n_gpus)
    b = np.random.default_rng(seed).standard_normal(n)
    probe = des_execute(lower, b, dist, machine, design, engine="reference")
    return lower, b, dist, machine, design, float(probe.total_time)
