"""Resilience subsystem: fault plans, recovery, watchdog, repair, chrome.

Unit coverage for ``repro.resilience`` plus the engine-level contracts
the chaos matrix leans on: deterministic fault schedules, typed loud
failures, bitwise-correct recovery on forest systems (where ``left.sum``
has no accumulation-order freedom), and the orphaned-waiter deadlock
diagnosis in the reference simulator.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.chrometrace import trace_to_chrome
from repro.engine.des import Simulator
from repro.engine.events import Signal, Timeout, Wait
from repro.engine.trace import Trace
from repro.errors import (
    DeadlockError,
    FaultInjectionError,
    RecoveryExhaustedError,
    TaskModelError,
)
from repro.exec_model.costmodel import Design
from repro.machine.node import dgx1
from repro.resilience.faults import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    flip_mantissa_bit,
)
from repro.resilience.recovery import (
    RecoveryPolicy,
    residual_repair,
)
from repro.resilience.watchdog import Watchdog
from repro.runtime import resilient_run
from repro.solvers.serial import serial_forward
from repro.tasks.schedule import (
    block_distribution,
    remap_failed_components,
    round_robin_distribution,
)
from repro.workloads.generators import forest_lower


class TestFaultSpecValidation:
    def test_window_must_be_ordered(self):
        with pytest.raises(FaultInjectionError, match="window end"):
            FaultSpec(FaultKind.LINK_DOWN, t_start=2.0, t_end=1.0)

    def test_rate_bounds(self):
        with pytest.raises(FaultInjectionError, match="rate"):
            FaultSpec(FaultKind.MSG_DROP, rate=1.5)

    def test_factor_floor(self):
        with pytest.raises(FaultInjectionError, match="factor"):
            FaultSpec(FaultKind.BANDWIDTH, factor=0.5)

    def test_gpu_required(self):
        with pytest.raises(FaultInjectionError, match="target gpu"):
            FaultSpec(FaultKind.STRAGGLER, factor=2.0)

    def test_bitflip_mantissa_only(self):
        with pytest.raises(FaultInjectionError, match="mantissa"):
            FaultSpec(FaultKind.BITFLIP, bit=52)

    def test_kind_coerced_from_string(self):
        assert FaultSpec("msg_drop", rate=0.1).kind is FaultKind.MSG_DROP


class TestFlipMantissaBit:
    def test_involution(self):
        v = 1.2345678901234567
        assert flip_mantissa_bit(flip_mantissa_bit(v, 17), 17) == v

    def test_changes_value_without_exploding(self):
        v = -3.75
        w = flip_mantissa_bit(v, 40)
        assert w != v
        assert np.isfinite(w)
        assert np.sign(w) == np.sign(v)


class TestFaultPlan:
    def test_null_plan(self):
        assert FaultPlan.none().is_null
        assert not FaultPlan.single(FaultKind.BANDWIDTH, factor=2.0).is_null

    def test_build_is_deterministic(self):
        lower = forest_lower(40, seed=1)
        dist = block_distribution(40, 4)
        plan = FaultPlan(seed=3, specs=(
            FaultSpec(FaultKind.MSG_DROP, rate=0.5),
            FaultSpec(FaultKind.BITFLIP, count=3),
        ))
        assert plan.build(lower, dist).describe() == plan.build(
            lower, dist
        ).describe()

    def test_seed_changes_schedule(self):
        lower = forest_lower(40, seed=1)
        dist = block_distribution(40, 4)
        a = FaultPlan(seed=1, specs=(FaultSpec(FaultKind.MSG_DROP, rate=0.5),))
        b = FaultPlan(seed=2, specs=(FaultSpec(FaultKind.MSG_DROP, rate=0.5),))
        assert a.build(lower, dist).describe() != b.build(
            lower, dist
        ).describe()

    def test_null_injector_inactive_and_transparent(self):
        lower = forest_lower(20, seed=0)
        dist = block_distribution(20, 2)
        inj = FaultPlan.none().build(lower, dist)
        assert not inj.active
        base = 1.25e-6
        wire, tag = inj.wire_time(0, 1, 0.5, base)
        assert wire == base and tag is None  # untouched bits, no arithmetic
        assert inj.delivery_fate(0, 0) is None
        assert inj.solve_scale(0, 0.0, base) == base


class TestRecoveryPolicy:
    def test_retry_delay_is_exponential(self):
        pol = RecoveryPolicy(retry_timeout=1e-4, backoff=2.0)
        assert pol.retry_delay(0) == 1e-4
        assert pol.retry_delay(3) == 1e-4 * 8.0


class TestResidualRepair:
    def _system(self, n=30, seed=2):
        lower = forest_lower(n, seed=seed)
        x = serial_forward(lower, np.arange(1.0, n + 1.0))
        return lower, np.arange(1.0, n + 1.0), x

    def test_clean_solution_untouched(self):
        lower, b, x = self._system()
        fixed, replayed = residual_repair(lower, b, x)
        assert replayed == []
        assert fixed.tobytes() == x.tobytes()

    def test_poisoned_component_repaired_bitwise(self):
        lower, b, x = self._system()
        poisoned = x.copy()
        poisoned[7] = flip_mantissa_bit(poisoned[7], 45)
        fixed, replayed = residual_repair(lower, b, poisoned)
        assert 7 in replayed
        assert fixed.tobytes() == x.tobytes()

    def test_unrepairable_raises_typed(self):
        lower, b, x = self._system()
        poisoned = x.copy()
        poisoned[3] = 0.0
        # A ceiling below zero is unsatisfiable by construction: the
        # replay succeeds numerically but must still refuse to return a
        # solution it cannot certify, via the typed loud-failure path.
        with pytest.raises(RecoveryExhaustedError, match="backward error") as ei:
            residual_repair(lower, b, poisoned, ceiling=-1.0)
        assert ei.value.context["replayed"] >= 1


class TestWatchdog:
    def test_requires_positive_horizon(self):
        with pytest.raises(ValueError, match="stall_horizon"):
            Watchdog(stall_horizon=0.0)

    def test_stall_raises_with_diagnostics(self):
        wd = Watchdog(stall_horizon=1.0)
        wd.progress(0.5, 3)
        wd.check(1.2)  # within horizon of last progress
        with pytest.raises(DeadlockError, match="no-progress stall") as ei:
            wd.check(2.0)
        diag = ei.value.diagnostics
        assert diag["reason"] == "stall"
        assert diag["progress_marks"] == 1
        assert diag["recent_progress"] == [(0.5, 3)]

    def test_progress_resets_horizon(self):
        wd = Watchdog(stall_horizon=1.0)
        for t in range(1, 6):
            wd.progress(float(t), t)
            wd.check(float(t) + 0.9)

    def test_wall_limit(self, monkeypatch):
        import repro.resilience.watchdog as mod

        ticks = iter([0.0, 100.0])
        monkeypatch.setattr(mod.time, "monotonic", lambda: next(ticks))
        wd = Watchdog(stall_horizon=10.0, wall_limit=5.0)
        with pytest.raises(DeadlockError, match="wall-clock"):
            wd.check(0.1)


class TestRemap:
    def test_deals_to_least_loaded_survivors(self):
        gpu_of = np.array([0, 0, 1, 1, 1, 2, 3])
        targets = remap_failed_components(gpu_of, [2, 3, 4], failed=1, n_gpus=4)
        # survivors by (load, rank): 2 and 3 (load 1) before 0 (load 2)
        assert targets.tolist() == [2, 3, 0]

    def test_dead_set_excluded(self):
        gpu_of = np.array([0, 1, 2, 3])
        targets = remap_failed_components(
            gpu_of, [1], failed=1, n_gpus=4, dead={0, 1, 2}
        )
        assert targets.tolist() == [3]

    def test_no_survivors_is_typed_error(self):
        gpu_of = np.array([0, 0])
        with pytest.raises(TaskModelError, match="have failed"):
            remap_failed_components(
                gpu_of, [0, 1], failed=0, n_gpus=1
            )


class TestSimulatorDeadlockDiagnosis:
    def test_orphaned_wait_raises_deadlock(self):
        sim = Simulator()

        def waiter():
            yield Wait(("never", 0))

        sim.spawn(waiter())
        with pytest.raises(DeadlockError, match="deadlock") as ei:
            sim.run()
        assert ei.value.blocked == {repr(("never", 0)): 1}

    def test_satisfied_wait_still_finishes(self):
        sim = Simulator()
        seen = []

        def waiter():
            yield Wait(("ch", 1))
            seen.append(sim.now)

        def signaller():
            yield Timeout(2.0)
            yield Signal(("ch", 1))

        sim.spawn(waiter())
        sim.spawn(signaller())
        sim.run()
        assert seen == [2.0]


def _recovered_vs_serial(plan, recovery=None, n=40, seed=5):
    lower = forest_lower(n, seed=seed)
    b = np.random.default_rng(seed).uniform(-1.0, 1.0, size=n)
    dist = round_robin_distribution(n, 4, tasks_per_gpu=2)
    res = resilient_run(
        lower, b, dist, dgx1(4), Design.SHMEM_READONLY,
        plan=plan,
        recovery=recovery,
        watchdog=Watchdog(stall_horizon=10.0),
    )
    assert res.x.tobytes() == serial_forward(lower, b).tobytes()
    return res


class TestResilientExecute:
    def test_drop_recovers_bitwise(self):
        res = _recovered_vs_serial(
            FaultPlan.single(FaultKind.MSG_DROP, rate=0.5, seed=3)
        )
        assert res.repaired == ()

    def test_silent_bitflip_repaired_bitwise(self):
        res = _recovered_vs_serial(
            FaultPlan.single(FaultKind.BITFLIP, count=1, bit=35, seed=3),
            recovery=RecoveryPolicy(detect_corruption=False),
        )
        assert len(res.repaired) >= 1

    def test_gpu_failure_remapped_bitwise(self):
        res = _recovered_vs_serial(
            FaultPlan.single(FaultKind.GPU_FAIL, gpu=2, t_start=1e-5)
        )
        assert res.execution.trace.count("remap") > 0

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=8, max_value=56),
        seed=st.integers(min_value=0, max_value=2**16),
        scenario=st.sampled_from(
            ["drop", "delay", "bitflip", "straggler", "gpu_fail"]
        ),
    )
    def test_recovered_runs_match_serial_oracle(self, n, seed, scenario):
        """Property: any successfully recovered run is bitwise serial.

        These scenarios all recover at the message level (re-delivery of
        the original clean bits — a detected bit-flip is re-sent like a
        drop), so recovery is exact by construction and the forest
        workload pins the result to serial forward substitution bitwise.
        """
        plans = {
            "drop": FaultPlan.single(
                FaultKind.MSG_DROP, rate=0.5, seed=seed
            ),
            "delay": FaultPlan.single(
                FaultKind.MSG_DELAY, rate=0.5, extra_delay=1e-4, seed=seed
            ),
            "bitflip": FaultPlan.single(
                FaultKind.BITFLIP, count=2, seed=seed
            ),
            "straggler": FaultPlan.single(
                FaultKind.STRAGGLER, gpu=seed % 4, factor=8.0
            ),
            "gpu_fail": FaultPlan.single(
                FaultKind.GPU_FAIL, gpu=seed % 4, t_start=1e-5
            ),
        }
        _recovered_vs_serial(plans[scenario], n=n, seed=seed)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=8, max_value=56),
        seed=st.integers(min_value=0, max_value=2**16),
        bit=st.integers(min_value=25, max_value=51),
    )
    def test_silent_corruption_repaired_or_certified(self, n, seed, bit):
        """Property: silent corruption never escapes *above* the ceiling.

        With checksums off, a flipped ``left.sum`` reaches the solution;
        the residual check then either detects it (backward error over
        the ceiling — repaired back to bitwise-serial) or the corruption
        was provably within the certification tolerance.  Hypothesis
        found the second branch: a flip on a contribution that is tiny
        relative to its row's scale is numerically invisible to any
        backward-error test, so "repaired or certified" — not universal
        bitwise equality — is the honest silent-corruption contract.
        """
        lower = forest_lower(n, seed=seed)
        b = np.random.default_rng(seed).uniform(-1.0, 1.0, size=n)
        dist = round_robin_distribution(n, 4, tasks_per_gpu=2)
        res = resilient_run(
            lower, b, dist, dgx1(4), Design.SHMEM_READONLY,
            plan=FaultPlan.single(
                FaultKind.BITFLIP, count=1, bit=bit, seed=seed
            ),
            recovery=RecoveryPolicy(detect_corruption=False),
            watchdog=Watchdog(stall_horizon=10.0),
        )
        x_serial = serial_forward(lower, b)
        ceiling = RecoveryPolicy().residual_ceiling
        assert res.residual <= ceiling
        if res.repaired:
            assert res.x.tobytes() == x_serial.tobytes()
        else:
            np.testing.assert_allclose(res.x, x_serial, rtol=1e-5, atol=1e-5)


class TestFaultedTracePhysics:
    def test_faulted_trace_passes_causality_audit(self):
        """Retries and GPU-failure remaps still obey machine physics."""
        from repro.analysis.dag import build_dag
        from repro.verify.causality import check_des_trace

        n = 48
        lower = forest_lower(n, seed=3)
        b = np.random.default_rng(3).uniform(-1.0, 1.0, size=n)
        dist = block_distribution(n, 4)
        machine = dgx1(4)
        design = Design.SHMEM_READONLY
        probe = resilient_run(lower, b, dist, machine, design, plan=None)
        T = float(probe.execution.total_time)
        res = resilient_run(
            lower, b, dist, machine, design,
            plan=FaultPlan(seed=9, specs=(
                FaultSpec(FaultKind.MSG_DROP, rate=0.4),
                FaultSpec(FaultKind.GPU_FAIL, gpu=2, t_start=0.3 * T),
            )),
            watchdog=Watchdog(stall_horizon=10.0),
        )
        trace = res.execution.trace
        assert trace.count("retry") > 0 and trace.count("remap") > 0
        report = check_des_trace(trace, build_dag(lower), dist, machine, design)
        assert report.ok, report.violations


class TestChromeTraceResilience:
    def _trace(self):
        t = Trace()
        t.emit(1e-5, "inject", gpu=0, detail=("drop", 4, 0))
        t.emit(2e-5, "retry", gpu=0, detail=(4, 0, 1e-4))
        t.emit(3e-5, "recovered", gpu=1, detail=(4, 1))
        t.emit(4e-5, "gpu_fail", gpu=2, detail=2)
        t.emit(5e-5, "remap", gpu=3, detail=(9, 2))
        t.emit(6e-5, "msg_lost", gpu=1, detail=(7, 11))
        t.emit(7e-5, "solve", gpu=1, detail=9)
        return t

    def test_fault_kinds_render_as_instants(self):
        events = trace_to_chrome(self._trace(), n_gpus=4)
        instants = {e["name"]: e for e in events if e["ph"] == "i"}
        assert "inject drop e4" in instants
        assert instants["retry e4"]["args"] == {
            "edge": 4, "attempt": 0, "backoff": 1e-4
        }
        assert instants["gpu_fail 2"]["s"] == "g"  # global scope
        assert instants["remap x9"]["args"]["from_gpu"] == 2

    def test_flow_arrows_chain_recovery_episodes(self):
        events = trace_to_chrome(self._trace(), n_gpus=4)
        flows = [e for e in events if e["ph"] in ("s", "t", "f")]
        # Edge-4 chain: inject (s) -> retry (t) -> recovered (f).
        edge4 = [e["ph"] for e in flows if e.get("id") == 4]
        assert edge4 == ["s", "t", "f"]
        # Edge-7 loss: single-hop chain opened and closed at msg_lost.
        edge7 = [e["ph"] for e in flows if e.get("id") == 7]
        assert edge7 == ["s"]
        # gpu_fail -> remap arrow: one s/f pair above the edge-id space.
        fail_arrows = [e for e in flows if e.get("id", 0) >= 1 << 40]
        assert [e["ph"] for e in fail_arrows] == ["s", "f"]
        assert fail_arrows[0]["tid"] == 2 and fail_arrows[1]["tid"] == 3


class TestDeadlockFrontierDiagnostics:
    """Satellite: deadlock reports name the starved components per GPU."""

    def _deadlock(self, engine, n=48, seed=3):
        from repro.solvers.des_solver import des_execute
        from repro.tasks.schedule import block_distribution

        lower = forest_lower(n, seed=seed)
        b = np.random.default_rng(seed).standard_normal(n)
        dist = block_distribution(n, 4)
        plan = FaultPlan.single(FaultKind.MSG_DROP, rate=1.0, seed=5)
        with pytest.raises(DeadlockError) as ei:
            des_execute(
                lower, b, dist, dgx1(4), Design.SHMEM_READONLY,
                engine=engine,
                injector=plan.build(lower, dist),
                recovery=RecoveryPolicy(retry=False),
                watchdog=Watchdog(stall_horizon=10.0),
            )
        return ei.value, dist

    @pytest.mark.parametrize("engine", ["reference", "array"])
    def test_frontier_payload_shape(self, engine):
        err, dist = self._deadlock(engine)
        frontier = err.diagnostics["pending_frontier"]
        by_gpu = err.diagnostics["frontier_by_gpu"]
        assert frontier, "a drained-calendar deadlock must name waiters"
        comps = [row["component"] for row in frontier]
        assert comps == sorted(comps)
        for row in frontier:
            assert set(row) == {"component", "gpu"}
            assert isinstance(row["component"], int)
            assert row["gpu"] == int(dist.gpu_of[row["component"]])
        # The per-GPU view is exactly the row set regrouped.
        regrouped = {}
        for row in frontier:
            regrouped.setdefault(row["gpu"], []).append(row["component"])
        assert by_gpu == regrouped
        for comps_on_gpu in by_gpu.values():
            assert comps_on_gpu == sorted(comps_on_gpu)

    def test_frontier_identical_across_engines(self):
        ref_err, _ = self._deadlock("reference")
        arr_err, _ = self._deadlock("array")
        assert (
            ref_err.diagnostics["pending_frontier"]
            == arr_err.diagnostics["pending_frontier"]
        )
        assert (
            ref_err.diagnostics["frontier_by_gpu"]
            == arr_err.diagnostics["frontier_by_gpu"]
        )
