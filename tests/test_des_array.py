"""Array DES engine: golden bit-equality, causality replay, selection.

The array engine's contract is *bit*-equality with the reference
engine, not tolerance-equality: every trace record (kind, time, gpu,
detail), the solution bits, the simulated wall clock, and the
fault/event counters must match exactly on every workload and design.
"""

import numpy as np
import pytest

from repro.analysis.dag import build_dag
from repro.errors import SimulationError, SolverError
from repro.exec_model.costmodel import Design
from repro.machine.node import dgx1
from repro.solvers.des_array import ARRAY_MIN_COMPONENTS
from repro.solvers.des_solver import DesSolver, des_execute, resolve_engine
from repro.sparse.csc import CscMatrix
from repro.tasks.schedule import block_distribution
from repro.verify.causality import check_des_trace
from repro.verify.oracles import default_generators
from repro.verify.registry import default_registry

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
    def test_resolve_engine_auto_threshold(self):
        assert resolve_engine("auto", ARRAY_MIN_COMPONENTS - 1) == "reference"
        assert resolve_engine("auto", ARRAY_MIN_COMPONENTS) == "array"
        assert resolve_engine("reference", 10**6) == "reference"
        assert resolve_engine("array", 1) == "array"

    def test_unknown_engine_rejected(self):
        with pytest.raises(SolverError, match="unknown DES engine"):
            resolve_engine("vectorised", 100)

    def test_array_forced_below_threshold_still_identical(self):
        _, gen = GENERATORS[0]
        lower = gen(9)
        assert lower.shape[0] >= ARRAY_MIN_COMPONENTS  # sanity on suite size
        ref, arr, _, _ = _run_both(lower, Design.SHMEM_NAIVE)
        _assert_bit_identical(ref, arr)

    def test_solver_front_end_plumbs_engine(self):
        _, gen = GENERATORS[1]
        lower = gen(4)
        b = np.random.default_rng(2).standard_normal(lower.shape[0])
        x_ref = DesSolver(machine=dgx1(2), engine="reference").solve(lower, b).x
        x_arr = DesSolver(machine=dgx1(2), engine="array").solve(lower, b).x
        assert x_ref.tobytes() == x_arr.tobytes()

    def test_both_engines_registered_for_conformance(self):
        names = {case.name for case in default_registry()}
        assert {"des-2gpu", "des-2gpu-array"} <= names


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
# Compile once, drain per solve: a session compiles one ArrayProgram per
# bound matrix and every drain of it must equal a fresh reference run.
# ---------------------------------------------------------------------------

import repro.solvers.des_array as des_array_mod  # noqa: E402
from repro.runtime import SolverSession  # noqa: E402
from repro.solvers.des_array import compile_program  # noqa: E402

REUSE_DESIGNS = (
    Design.SHMEM_READONLY,
    Design.SHMEM_NAIVE,
    Design.UNIFIED,
    Design.STALE_SYNC,
)
REUSE_GENERATORS = [
    g for g in GENERATORS if g[0] in ("banded", "level-major", "scattered")
]


@pytest.fixture
def compiles(monkeypatch):
    """Count compile_program calls (sessions import it at call time)."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return compile_program(*args, **kwargs)

    monkeypatch.setattr(des_array_mod, "compile_program", counting)
    return calls


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
        session = SolverSession(n_gpus=2, design=design, engine="array")
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
        session = SolverSession(n_gpus=2, engine="array")
        for lower in (first, second, second):
            b = np.ones(lower.shape[0])
            ex = session.execute(lower, b)
            _assert_bit_identical(_fresh_reference(session, lower, b), ex)
        assert compiles == [first, second]

    def test_only_array_drains_compile(self, compiles):
        _, gen = REUSE_GENERATORS[0]
        lower = gen(3)
        SolverSession(n_gpus=2, engine="array").simulate(lower)
        SolverSession(n_gpus=2, engine="reference").solve(
            lower, np.ones(lower.shape[0])
        )
        assert compiles == []

    def test_program_for_another_system_rejected(self):
        _, gen = REUSE_GENERATORS[0]
        lower, other = gen(3), gen(4)
        machine = dgx1(2)
        dist = block_distribution(lower.shape[0], 2)
        program = compile_program(lower, dist, machine, Design.SHMEM_READONLY)
        with pytest.raises(SolverError, match="different system"):
            des_execute(
                other, np.ones(other.shape[0]),
                block_distribution(other.shape[0], 2), machine,
                engine="array", program=program,
            )

    @pytest.mark.parametrize(
        "design", (Design.SHMEM_READONLY, Design.UNIFIED),
        ids=lambda d: d.value,
    )
    @pytest.mark.parametrize(
        "gname,gen", REUSE_GENERATORS, ids=[g[0] for g in REUSE_GENERATORS]
    )
    def test_remap_leaves_the_program_intact(self, gname, gen, design):
        """A fail-stop remap drains on copies: the next solve is clean."""
        lower, b, dist, machine, _, T = _remap_fixture(gen, design)
        program = compile_program(lower, dist, machine, design)
        plan = FaultPlan.single(FaultKind.GPU_FAIL, gpu=2, t_start=0.3 * T)

        def run(engine, faulted, program=None):
            return des_execute(
                lower, b, dist, machine, design,
                engine=engine,
                injector=plan.build(lower, dist) if faulted else None,
                recovery=RecoveryPolicy() if faulted else None,
                program=program,
            )

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
            machine=machine, design=design, engine="array", plan=plan
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
