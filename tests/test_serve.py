"""Unit + end-to-end tests for the solver-as-a-service layer.

The async service is driven from synchronous tests via ``asyncio.run``
(no async test plugin in the toolchain); every policy object
(token bucket, breaker, ladder) is tested against an injectable clock
so nothing here sleeps for real.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    ServiceOverloadError,
    ServiceShutdownError,
    WorkerCrashError,
)
from repro.exec_model.costmodel import Design
from repro.resilience.faults import FaultKind, FaultPlan
from repro.resilience.recovery import RecoveryPolicy
from repro.runtime.config import RunConfig
from repro.runtime.session import SolverSession
from repro.serve import (
    LADDER,
    AdmissionController,
    DegradationLadder,
    DegradeMode,
    ServiceEndpoint,
    SolveRequest,
    SolveService,
    TokenBucket,
    build_workload,
    matrix_fingerprint,
)
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.serve.workers import MATRIX_CACHE_ENTRIES, MatrixLru
from repro.workloads.generators import forest_lower

WORKLOAD = {"generator": "forest", "n": 48, "seed": 3}


def deadlock_config(**overrides) -> RunConfig:
    base = dict(
        plan=FaultPlan.single(FaultKind.MSG_DROP, seed=5, rate=1.0),
        recovery=RecoveryPolicy(retry=False),
        watchdog_stall_horizon=10.0,
    )
    base.update(overrides)
    return RunConfig(**base)


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# ---------------------------------------------------------------------------
# Token bucket + admission
# ---------------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(10.0, 2.0, clock=clock)
        assert bucket.try_take(10.0) == 0.0
        wait = bucket.try_take(4.0)
        assert wait == pytest.approx(2.0)  # 4 tokens at 2/s
        clock.advance(2.0)
        assert bucket.try_take(4.0) == 0.0

    def test_cost_above_capacity_waits_for_full_bucket(self):
        clock = FakeClock()
        bucket = TokenBucket(5.0, 1.0, clock=clock)
        bucket.try_take(5.0)
        # A cost larger than capacity can never fully afford itself;
        # the wait is quoted to a full bucket rather than infinity.
        assert bucket.try_take(50.0) == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            TokenBucket(0.0, 1.0)

    def test_admission_disabled_admits_everything(self):
        ctl = AdmissionController()
        for _ in range(100):
            ctl.admit(1e9)
        assert ctl.admitted == 100 and ctl.shed == 0

    def test_admission_sheds_with_retry_after(self):
        clock = FakeClock()
        ctl = AdmissionController(
            TokenBucket(2.0, 1.0, clock=clock), unit_cost=1.0
        )
        ctl.admit(2.0)  # cost 2 drains the bucket
        with pytest.raises(ServiceOverloadError) as ei:
            ctl.admit(1.0)
        assert ei.value.reason == "admission"
        assert ei.value.retry_after == pytest.approx(1.0)
        assert ctl.shed == 1

    def test_cost_floor_is_one_token(self):
        ctl = AdmissionController(unit_cost=1.0)
        assert ctl.cost_of(1e-9) == 1.0


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------
class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=3, cooldown=5.0, clock=clock)
        b.record_failure()
        b.record_failure()
        assert b.state == CLOSED and b.allow()
        b.record_failure()
        assert b.state == OPEN and not b.allow()
        assert b.retry_after == pytest.approx(5.0)

    def test_success_resets_count(self):
        b = CircuitBreaker(threshold=2, cooldown=1.0, clock=FakeClock())
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state == CLOSED

    def test_half_open_admits_single_probe(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=1, cooldown=2.0, clock=clock)
        b.record_failure()
        assert not b.allow()
        clock.advance(2.0)
        assert b.state == HALF_OPEN
        assert b.allow()       # the probe
        assert not b.allow()   # concurrent second request is held
        b.record_success()
        assert b.state == CLOSED

    def test_failed_probe_reopens_with_fresh_cooldown(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=1, cooldown=2.0, clock=clock)
        b.record_failure()
        clock.advance(2.0)
        assert b.allow()
        b.record_failure()
        assert b.state == OPEN
        assert b.retry_after == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Degradation ladder
# ---------------------------------------------------------------------------
class TestDegradationLadder:
    def test_full_walk_from_readonly_shmem(self):
        ladder = DegradationLadder()
        cfg = RunConfig()
        assert LADDER == (
            DegradeMode.EXACT, DegradeMode.STALE, DegradeMode.ESTIMATE
        )
        assert ladder.next_mode(DegradeMode.EXACT, cfg) is DegradeMode.STALE
        assert ladder.next_mode(DegradeMode.STALE, cfg) is (
            DegradeMode.ESTIMATE
        )
        assert ladder.next_mode(DegradeMode.ESTIMATE, cfg) is None

    @pytest.mark.parametrize("engine", ["auto", "array", "reference"])
    def test_ladder_does_not_depend_on_engine(self, engine):
        ladder = DegradationLadder()
        cfg = RunConfig(engine=engine)
        assert ladder.next_mode(DegradeMode.EXACT, cfg) is DegradeMode.STALE
        assert ladder.derive_config(cfg, DegradeMode.STALE).engine == engine

    def test_stale_design_skips_stale_rung(self):
        ladder = DegradationLadder()
        cfg = RunConfig(
            engine="array", design=Design.STALE_SYNC, stale_k=1
        )
        assert ladder.next_mode(DegradeMode.EXACT, cfg) is (
            DegradeMode.ESTIMATE
        )

    def test_stale_config_is_valid_and_certifiable(self):
        ladder = DegradationLadder(stale_k=2, stale_ceiling=1e-8)
        derived = ladder.derive_config(RunConfig(), DegradeMode.STALE)
        assert derived.design is Design.STALE_SYNC
        assert derived.build_stale_policy() is not None
        assert ladder.certified_ceiling(DegradeMode.STALE) == 1e-8
        assert ladder.certified_ceiling(DegradeMode.EXACT) == 0.0


# ---------------------------------------------------------------------------
# Fingerprints (satellite: round-trip hashing for artefact sharing keys)
# ---------------------------------------------------------------------------
class TestFingerprints:
    def test_equal_configs_equal_fingerprints(self):
        a = RunConfig(
            plan=FaultPlan.single(FaultKind.MSG_DROP, seed=5, rate=0.3),
            recovery=RecoveryPolicy(max_retries=7),
            stale_k=None,
        )
        b = RunConfig(
            plan=FaultPlan.single(FaultKind.MSG_DROP, seed=5, rate=0.3),
            recovery=RecoveryPolicy(max_retries=7),
            stale_k=None,
        )
        assert a is not b
        assert a.fingerprint() == b.fingerprint()

    def test_round_trip_preserves_fingerprint(self):
        cfg = RunConfig(
            engine="array",
            plan=FaultPlan.single(FaultKind.BITFLIP, bit=30),
            recovery=RecoveryPolicy(residual_ceiling=1e-10),
            stale_k=None,
        )
        again = RunConfig.from_mapping(cfg.to_mapping())
        assert again.fingerprint() == cfg.fingerprint()

    @pytest.mark.parametrize(
        "mutate",
        [
            {"engine": "array"},
            {"n_gpus": 8},
            {"stale_k": 3, "design": Design.STALE_SYNC},
            {"recovery": RecoveryPolicy(max_retries=9)},
            {"plan": FaultPlan.single(FaultKind.MSG_DROP, seed=6, rate=1.0)},
            {"watchdog_stall_horizon": 99.0},
        ],
    )
    def test_distinct_configs_distinct_fingerprints(self, mutate):
        base = RunConfig(
            plan=FaultPlan.single(FaultKind.MSG_DROP, seed=5, rate=1.0),
            watchdog_stall_horizon=10.0,
        )
        assert replace(base, **mutate).fingerprint() != base.fingerprint()

    def test_matrix_fingerprint_content_keyed(self):
        a = forest_lower(48, seed=3)
        b = forest_lower(48, seed=3)
        c = forest_lower(48, seed=4)
        assert a is not b
        assert matrix_fingerprint(a) == matrix_fingerprint(b)
        assert matrix_fingerprint(a) != matrix_fingerprint(c)

    def test_value_change_changes_matrix_fingerprint(self):
        a = forest_lower(48, seed=3)
        b = forest_lower(48, seed=3)
        b.data[0] *= 2.0
        assert matrix_fingerprint(a) != matrix_fingerprint(b)


# ---------------------------------------------------------------------------
# Request parsing
# ---------------------------------------------------------------------------
class TestSolveRequest:
    def test_from_mapping_round_trip(self):
        req = SolveRequest.from_mapping(
            {
                "config": {"engine": "array"},
                "workload": WORKLOAD,
                "rhs": {"seed": 9},
                "deadline": 5.0,
                "allow_degraded": False,
                "id": "r-1",
            }
        )
        assert req.config.engine == "array"
        assert req.deadline == 5.0
        assert not req.allow_degraded
        assert req.request_id == "r-1"

    def test_unknown_key_is_typed_error(self):
        with pytest.raises(ConfigurationError, match="unknown request key"):
            SolveRequest.from_mapping({"workload": WORKLOAD, "prio": 3})

    def test_needs_exactly_one_operand(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            SolveRequest()
        with pytest.raises(ConfigurationError, match="exactly one"):
            SolveRequest(
                workload=WORKLOAD, matrix=forest_lower(8, seed=0)
            )

    def test_bad_deadline_and_rhs(self):
        with pytest.raises(ConfigurationError, match="deadline"):
            SolveRequest(workload=WORKLOAD, deadline=0.0)
        with pytest.raises(ConfigurationError, match="rhs"):
            SolveRequest(workload=WORKLOAD, rhs={})

    def test_unknown_generator_lists_choices(self):
        with pytest.raises(ConfigurationError, match="valid choices"):
            build_workload({"generator": "nope"})

    def test_rhs_values_shape_checked(self):
        req = SolveRequest(workload=WORKLOAD, rhs={"values": [1.0, 2.0]})
        with pytest.raises(ConfigurationError, match="values"):
            req.resolve_rhs(48)


# ---------------------------------------------------------------------------
# Service end-to-end (asyncio.run from sync tests)
# ---------------------------------------------------------------------------
class TestSolveServiceEndToEnd:
    def test_served_solve_is_bitwise_identical_to_session(self):
        async def run():
            async with SolveService() as svc:
                return await svc.submit(
                    SolveRequest(workload=WORKLOAD, rhs={"seed": 7})
                )

        result = asyncio.run(run())
        lower = build_workload(WORKLOAD)
        b = np.random.default_rng(7).uniform(-1.0, 1.0, size=48)
        base = SolverSession(RunConfig()).solve(lower, b, with_report=False)
        assert result.status == "ok" and result.mode == "exact"
        assert np.array_equal(result.x, base.x)
        assert result.residual == base.residual

    def test_matrix_request_and_artefact_sharing(self):
        lower = forest_lower(48, seed=3)

        async def run():
            async with SolveService() as svc:
                r1 = await svc.submit(
                    SolveRequest(matrix=lower, rhs={"seed": 0})
                )
                r2 = await svc.submit(
                    SolveRequest(matrix=lower, rhs={"seed": 1})
                )
                # Same (matrix, config) key: the fast-model estimate is
                # priced exactly once.
                return r1, r2, len(svc._estimates)

        r1, r2, n_estimates = asyncio.run(run())
        assert r1.status == r2.status == "ok"
        assert n_estimates == 1

    def test_deadline_exceeded_is_typed_and_prompt(self):
        async def run():
            async with SolveService(max_inflight=1) as svc:
                with pytest.raises(DeadlineExceededError) as ei:
                    await svc.submit(
                        SolveRequest(
                            workload={
                                "generator": "forest",
                                "n": 600,
                                "seed": 1,
                            },
                            deadline=0.001,
                        )
                    )
                return ei.value, svc.stats.deadline_misses

        err, misses = asyncio.run(run())
        assert err.stage in ("queued", "executing")
        assert misses == 1

    def test_queue_full_sheds_with_typed_overload(self):
        async def run():
            async with SolveService(
                queue_depth=1, max_inflight=1
            ) as svc:
                reqs = [
                    svc.submit(
                        SolveRequest(
                            workload=WORKLOAD, rhs={"seed": i}, deadline=30.0
                        )
                    )
                    for i in range(12)
                ]
                results = await asyncio.gather(
                    *reqs, return_exceptions=True
                )
                return results

        results = asyncio.run(run())
        shed = [r for r in results if isinstance(r, ServiceOverloadError)]
        ok = [r for r in results if not isinstance(r, Exception)]
        assert shed and ok
        assert all(r.reason == "queue_full" for r in shed)
        assert all(r.retry_after > 0 for r in shed)

    def test_queue_pressure_degrades_before_shedding(self):
        async def run():
            async with SolveService(
                queue_depth=64, max_inflight=1, degrade_watermark=2
            ) as svc:
                reqs = [
                    svc.submit(
                        SolveRequest(
                            workload=WORKLOAD, rhs={"seed": i}, deadline=30.0
                        )
                    )
                    for i in range(10)
                ]
                return await asyncio.gather(*reqs, return_exceptions=True)

        results = asyncio.run(run())
        assert not any(isinstance(r, Exception) for r in results)
        estimates = [
            r for r in results if r.mode == DegradeMode.ESTIMATE.value
        ]
        assert estimates, "watermark never triggered precision shedding"
        assert all(
            r.degraded_from == "queue_pressure" for r in estimates
        )

    def test_worker_crash_retries_then_succeeds(self):
        from repro.resilience.service_faults import (
            ServiceFaultKind,
            ServiceFaultPlan,
        )

        plan = ServiceFaultPlan.single(ServiceFaultKind.WORKER_KILL, count=2)

        async def run():
            async with SolveService(fault_plan=plan) as svc:
                res = await svc.submit(
                    SolveRequest(workload=WORKLOAD, rhs={"seed": 0})
                )
                return res, svc.stats.retries

        res, retries = asyncio.run(run())
        assert res.status == "ok"
        assert retries == 2

    def test_worker_crash_exhaustion_is_typed(self):
        from repro.resilience.service_faults import (
            ServiceFaultKind,
            ServiceFaultPlan,
        )

        plan = ServiceFaultPlan.single(
            ServiceFaultKind.WORKER_KILL, count=99
        )

        async def run():
            async with SolveService(
                fault_plan=plan, max_attempts=2, backoff_base=0.001
            ) as svc:
                with pytest.raises(WorkerCrashError):
                    await svc.submit(
                        SolveRequest(workload=WORKLOAD, rhs={"seed": 0})
                    )

        asyncio.run(run())

    def test_submit_after_stop_is_shutdown_error(self):
        async def run():
            svc = SolveService()
            await svc.start()
            await svc.stop()
            with pytest.raises(ServiceShutdownError):
                await svc.submit(SolveRequest(workload=WORKLOAD))

        asyncio.run(run())

    def test_degradation_ladder_walks_to_estimate(self):
        cfg = deadlock_config()

        async def run():
            async with SolveService(breaker_threshold=2) as svc:
                res = await svc.submit(
                    SolveRequest(
                        config=cfg, workload=WORKLOAD, allow_degraded=True
                    )
                )
                return res

        res = asyncio.run(run())
        assert res.status == "degraded"
        assert res.mode == DegradeMode.ESTIMATE.value
        assert res.degraded_from == "exact"
        # One deadlocking solve per solving rung (exact, stale), then
        # the estimate: no rung re-runs the same engine.
        assert res.attempts == 2
        assert res.estimate is not None and res.estimate["total_time"] > 0

    def test_breaker_opens_and_fast_fails_hard_clients(self):
        cfg = deadlock_config()

        async def run():
            async with SolveService(breaker_threshold=2) as svc:
                # Each ladder walk feeds the breaker one structural
                # failure (its exact rung), so two walks trip it.
                for _ in range(2):
                    await svc.submit(
                        SolveRequest(
                            config=cfg, workload=WORKLOAD, allow_degraded=True
                        )
                    )
                with pytest.raises(CircuitOpenError) as ei:
                    await svc.submit(
                        SolveRequest(
                            config=cfg,
                            workload=WORKLOAD,
                            allow_degraded=False,
                        )
                    )
                degraded = await svc.submit(
                    SolveRequest(
                        config=cfg, workload=WORKLOAD, allow_degraded=True
                    )
                )
                return ei.value, degraded, svc.breakers.states()

        err, degraded, states = asyncio.run(run())
        assert err.retry_after > 0 and err.failures >= 2
        assert degraded.degraded_from == "breaker_open"
        assert list(states.values()) == ["open"]

    def test_breaker_keys_are_per_config(self):
        cfg = deadlock_config()

        async def run():
            async with SolveService(breaker_threshold=2) as svc:
                for _ in range(2):
                    await svc.submit(
                        SolveRequest(
                            config=cfg, workload=WORKLOAD, allow_degraded=True
                        )
                    )
                # The healthy config shares the matrix but not the key:
                # its breaker stays closed and it solves exactly.
                healthy = await svc.submit(
                    SolveRequest(workload=WORKLOAD, rhs={"seed": 0})
                )
                return healthy, svc.breakers.states()

        healthy, states = asyncio.run(run())
        assert healthy.status == "ok"
        assert sorted(states.values()) == ["closed", "open"]


class TestMatrixCacheBound:
    """Both serve matrix caches are LRUs of ``MATRIX_CACHE_ENTRIES``."""

    def _stream(self, monkeypatch):
        """A hot spec between one-off specs; returns answers and builds."""
        from repro.serve import service as service_mod
        from repro.serve import workers as workers_mod

        monkeypatch.setattr(workers_mod, "_WORKER_MATRICES", MatrixLru())
        builds: list[int] = []

        def counting_build(spec):
            builds.append(spec["seed"])
            return build_workload(spec)

        monkeypatch.setattr(service_mod, "build_workload", counting_build)
        hot = dict(WORKLOAD, seed=3)
        one_offs = [
            dict(WORKLOAD, seed=100 + k)
            for k in range(MATRIX_CACHE_ENTRIES + 3)
        ]
        sizes = []

        async def run():
            answers = []
            async with SolveService() as svc:
                for k, spec in enumerate([hot, *one_offs]):
                    for s in ((spec, hot) if k else (spec,)):
                        r = await svc.submit(
                            SolveRequest(workload=s, rhs={"seed": k})
                        )
                        answers.append((r.x.tobytes(), r.residual, r.events))
                        sizes.append(
                            (len(svc._workloads),
                             len(workers_mod._WORKER_MATRICES))
                        )
            return answers

        return asyncio.run(run()), builds, sizes

    def test_caches_stay_bounded_and_keep_the_hot_structure(
        self, monkeypatch
    ):
        answers, builds, sizes = self._stream(monkeypatch)
        assert max(max(s) for s in sizes) == MATRIX_CACHE_ENTRIES
        assert builds.count(3) == 1  # the hot structure is never rebuilt
        assert len(builds) == MATRIX_CACHE_ENTRIES + 4

        from repro.serve import workers as workers_mod

        monkeypatch.setattr(workers_mod, "MATRIX_CACHE_ENTRIES", 1 << 20)
        uncapped, _, uncapped_sizes = self._stream(monkeypatch)
        assert max(max(s) for s in uncapped_sizes) == MATRIX_CACHE_ENTRIES + 4
        assert answers == uncapped

    def test_lru_under_thread_contention(self):
        # Inline workers share one cache across threads: under
        # contention it never raises and never outgrows its bound.
        import sys
        import threading

        lru = MatrixLru()
        errors: list[BaseException] = []
        peak = [0]

        def hammer(tid: int) -> None:
            try:
                for k in range(2000):
                    key = f"{(tid * 7 + k) % (3 * MATRIX_CACHE_ENTRIES)}"
                    if lru.get(key) is None:
                        lru.put(key, key)
                    peak[0] = max(peak[0], len(lru))
            except BaseException as err:  # noqa: BLE001 - reported below
                errors.append(err)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(t,)) for t in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert peak[0] <= MATRIX_CACHE_ENTRIES

    def test_estimate_cache_is_a_bounded_lru(self, monkeypatch):
        # One-off (matrix, config) keys, like ladder requests with their
        # per-request plan seeds, age out; a hot key is priced once.
        from repro.serve.service import ESTIMATE_CACHE_ENTRIES

        priced: list[str] = []
        simulate = SolverSession.simulate

        def counting_simulate(session, lower):
            priced.append(session.config.fingerprint())
            return simulate(session, lower)

        monkeypatch.setattr(SolverSession, "simulate", counting_simulate)
        lower = forest_lower(48, seed=3)
        fp = matrix_fingerprint(lower)
        hot = RunConfig()
        svc = SolveService()
        first = svc._estimate(lower, fp, hot)
        for k in range(200):
            svc._estimate(lower, fp, deadlock_config(plan=FaultPlan.single(
                FaultKind.MSG_DROP, seed=1000 + k, rate=1.0
            )))
            assert svc._estimate(lower, fp, hot) == first
        assert len(svc._estimates) == ESTIMATE_CACHE_ENTRIES
        assert priced.count(hot.fingerprint()) == 1
        assert len(priced) == 201


class TestServiceEndpoint:
    def test_tcp_round_trip_and_typed_wire_errors(self):
        import json

        async def run():
            async with ServiceEndpoint(SolveService()) as ep:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", ep.port
                )
                msgs = [
                    {
                        "workload": WORKLOAD,
                        "rhs": {"seed": 4},
                        "id": "w1",
                    },
                    {"bogus": 1},
                ]
                for m in msgs:
                    writer.write(json.dumps(m).encode() + b"\n")
                await writer.drain()
                ok = json.loads(await reader.readline())
                bad = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return ok, bad

        ok, bad = asyncio.run(run())
        assert ok["status"] == "ok" and ok["id"] == "w1"
        assert len(ok["x"]) == 48
        assert bad["error"] == "ConfigurationError"
