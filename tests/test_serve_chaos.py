"""Service-level chaos suite: the full scenario x distribution matrix.

Every cell of (overload, worker-kill, queue-stall, slow-client,
solve-level fault plan) x (block, taskpool) must terminate within its
deadline in exactly one of the three permitted end states:

* a **typed error** (overload / deadline / circuit-open / crash-exhausted);
* a **certified degraded result** (residual at or below the rung's
  ceiling, or an estimate-only response);
* a **bitwise-correct recovery** (identical to the unfaulted solve).

Zero hangs and zero silent corruption: the census in every cell
accounts for each request, and exact responses are compared bitwise
against an unfaulted :class:`~repro.runtime.session.SolverSession`
baseline.  The whole suite carries the ``serve`` marker so CI can run
it as its own hard-timeout job.
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np
import pytest

from repro.bench.loadgen import DEADLOCK_CONFIG, run_bench, run_case
from repro.errors import (
    DeadlineExceededError,
    ReproError,
    ServiceOverloadError,
    WorkerCrashError,
)
from repro.resilience.service_faults import (
    ServiceFaultKind,
    ServiceFaultPlan,
)
from repro.runtime.config import RunConfig
from repro.runtime.session import SolverSession
from repro.serve import (
    ServiceEndpoint,
    SolveRequest,
    SolveService,
    build_workload,
)
from repro.serve.service import LoopWatchdog

pytestmark = pytest.mark.serve

WORKLOAD = {"generator": "forest", "n": 48, "seed": 3}
DEADLINE = 30.0

END_STATES = (
    "ok",                     # bitwise-correct (possibly after retry)
    "degraded",               # certified degraded / estimate-only
    "ServiceOverloadError",   # typed shed
    "DeadlineExceededError",  # typed deadline miss
    "CircuitOpenError",       # typed fast-fail
    "WorkerCrashError",       # typed retry exhaustion
    "DeadlockError",          # typed structural failure (hard-fail mode)
    "RecoveryExhaustedError",
)


def _baseline(distribution: str) -> dict:
    """Unfaulted per-seed solutions for bitwise comparison."""
    lower = build_workload(WORKLOAD)
    session = SolverSession(RunConfig(distribution=distribution))
    out = {}
    for seed in range(8):
        b = np.random.default_rng(seed).uniform(-1.0, 1.0, size=48)
        out[seed] = session.solve(lower, b, with_report=False).x
    return out


async def _storm(
    service: SolveService,
    *,
    config: RunConfig,
    requests: int = 8,
    allow_degraded: bool = True,
    deadline: float = DEADLINE,
) -> list:
    """Fire ``requests`` concurrent solves; every outcome is captured."""
    reqs = [
        service.submit(
            SolveRequest(
                config=config,
                workload=WORKLOAD,
                rhs={"seed": i},
                deadline=deadline,
                allow_degraded=allow_degraded,
                request_id=f"chaos-{i}",
            )
        )
        for i in range(requests)
    ]
    return await asyncio.gather(*reqs, return_exceptions=True)


def _census(outcomes: list) -> dict:
    counts: dict = {}
    for out in outcomes:
        if isinstance(out, Exception):
            assert isinstance(out, ReproError), (
                f"untyped escape: {type(out).__name__}: {out}"
            )
            key = type(out).__name__
        else:
            key = out.status
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) <= set(END_STATES), counts
    return counts


def _assert_cell(
    outcomes: list, baseline: dict, *, wall: float, budget: float
) -> dict:
    """The three-end-states invariant plus the no-hang wall bound."""
    assert wall < budget, f"cell overran its {budget}s budget ({wall:.1f}s)"
    counts = _census(outcomes)
    for out in outcomes:
        if isinstance(out, Exception):
            continue
        if out.status == "ok":
            seed = int(out.request_id.rsplit("-", 1)[1])
            assert np.array_equal(out.x, baseline[seed]), (
                "silent corruption: exact response differs from baseline"
            )
        else:
            assert out.mode == "estimate" or out.certified, (
                f"uncertified degraded response: {out.mode}"
            )
    return counts


@pytest.fixture(scope="module", params=["block", "taskpool"])
def distribution(request):
    return request.param


@pytest.fixture(scope="module")
def baseline(distribution):
    return _baseline(distribution)


class TestChaosMatrix:
    def _run(self, coro):
        t0 = time.monotonic()
        outcomes = asyncio.run(coro)
        return outcomes, time.monotonic() - t0

    def test_overload_cell(self, distribution, baseline):
        config = RunConfig(distribution=distribution)

        async def scenario():
            async with SolveService(queue_depth=2, max_inflight=1) as svc:
                return await _storm(svc, config=config, requests=10)

        outcomes, wall = self._run(scenario())
        counts = _assert_cell(outcomes, baseline, wall=wall, budget=60.0)
        assert counts.get("ServiceOverloadError", 0) > 0, counts
        assert counts.get("ok", 0) > 0, counts

    def test_worker_kill_cell(self, distribution, baseline):
        config = RunConfig(distribution=distribution)
        plan = ServiceFaultPlan.single(ServiceFaultKind.WORKER_KILL, count=3)

        async def scenario():
            async with SolveService(
                fault_plan=plan, backoff_base=0.005
            ) as svc:
                outs = await _storm(svc, config=config, requests=8)
                return outs, svc._injector.kills_delivered

        (outcomes, kills), wall = self._run(scenario())
        counts = _assert_cell(outcomes, baseline, wall=wall, budget=60.0)
        assert kills == 3, "worker-kill fault never fired"
        assert counts.get("ok", 0) == 8, counts  # retries recovered all

    def test_queue_stall_cell(self, distribution, baseline):
        config = RunConfig(distribution=distribution)
        plan = ServiceFaultPlan.single(
            ServiceFaultKind.QUEUE_STALL, at=0.0, duration=1.0
        )

        async def scenario():
            async with SolveService(
                fault_plan=plan, max_inflight=2
            ) as svc:
                outs = await _storm(
                    svc, config=config, requests=6, deadline=0.25
                )
                late = await _storm(
                    svc, config=config, requests=2, deadline=DEADLINE
                )
                return outs, late, svc._injector.stalls_served

        (outs, late, stalls), wall = self._run(scenario())
        counts = _assert_cell(outs + late, baseline, wall=wall, budget=60.0)
        assert stalls > 0, "queue-stall fault never fired"
        # Short-deadline requests die typed during the stall; the
        # post-stall requests are served correctly.
        assert counts.get("DeadlineExceededError", 0) > 0, counts
        assert counts.get("ok", 0) >= 2, counts

    def test_slow_client_cell(self, distribution, baseline):
        config = RunConfig(distribution=distribution)

        async def scenario():
            svc = SolveService()
            async with ServiceEndpoint(svc, drain_timeout=0.2) as ep:
                # A well-behaved client and a slow one share the server.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", ep.port
                )
                slow_r, slow_w = await asyncio.open_connection(
                    "127.0.0.1", ep.port
                )
                req = {
                    "config": {"distribution": distribution},
                    "workload": WORKLOAD,
                    "rhs": {"seed": 0},
                    "id": "chaos-0",
                }
                # The slow client sends a large-response request (the
                # solution vector) but never reads; the healthy client
                # keeps being served.
                big = dict(req, id="slow", workload=dict(WORKLOAD, n=4000))
                slow_w.write(json.dumps(big).encode() + b"\n")
                await slow_w.drain()
                responses = []
                for i in range(3):
                    writer.write(
                        json.dumps(
                            dict(req, id=f"chaos-{i}", rhs={"seed": i})
                        ).encode()
                        + b"\n"
                    )
                    await writer.drain()
                    responses.append(json.loads(await reader.readline()))
                # Give the drain timeout room to fire on the slow lane.
                await asyncio.sleep(0.5)
                drops = ep.slow_client_drops
                writer.close()
                slow_w.close()
                return responses, drops

        (responses, drops), wall = self._run(scenario())
        assert wall < 60.0
        assert all(r["status"] == "ok" for r in responses)
        for r in responses:
            seed = int(r["id"].rsplit("-", 1)[1])
            assert np.array_equal(np.asarray(r["x"]), baseline[seed])

    def test_solve_fault_cell_degraded_vs_hardfail(
        self, distribution, baseline
    ):
        config = DEADLOCK_CONFIG(distribution=distribution)

        async def scenario():
            async with SolveService(breaker_threshold=3) as svc:
                degraded = await _storm(
                    svc, config=config, requests=4, allow_degraded=True
                )
                hard = await _storm(
                    svc, config=config, requests=4, allow_degraded=False
                )
                return degraded, hard

        (degraded, hard), wall = self._run(scenario())
        d_counts = _assert_cell(degraded, baseline, wall=wall, budget=90.0)
        h_counts = _assert_cell(hard, baseline, wall=wall, budget=90.0)
        # Consenting clients are all served (estimates at worst) ...
        assert d_counts.get("degraded", 0) == 4, d_counts
        # ... hard-fail clients all get typed structural errors.
        assert d_counts.get("ok", 0) == h_counts.get("ok", 0) == 0
        assert sum(
            h_counts.get(k, 0)
            for k in ("DeadlockError", "CircuitOpenError")
        ) == 4, h_counts


class TestProcessPoolChaos:
    def test_sigkill_mid_storm_recovers_bitwise(self, baseline):
        """A real SIGKILL against a process worker: the pool rebuilds,
        the retry ladder resubmits, and every response stays exact."""
        config = RunConfig(distribution="block")
        plan = ServiceFaultPlan.single(ServiceFaultKind.WORKER_KILL, count=1)

        async def scenario():
            async with SolveService(
                workers=2, fault_plan=plan, backoff_base=0.005
            ) as svc:
                outs = await _storm(svc, config=config, requests=4)
                return outs, svc.pool.kills, svc.pool.rebuilds

        t0 = time.monotonic()
        outcomes, kills, rebuilds = asyncio.run(scenario())
        wall = time.monotonic() - t0
        counts = _assert_cell(
            outcomes, baseline, wall=wall, budget=120.0
        )
        assert kills == 1 and rebuilds >= 1
        assert counts.get("ok", 0) == 4, counts

    def test_kill_is_seen_before_instant_jobs(self, monkeypatch):
        """Jobs that finish at once cannot outrun the crash detection:
        the next submission fails, and only it rebuilds the pool."""
        import repro.serve.workers as workers

        monkeypatch.setattr(workers, "solve_job", abs)  # an instant job

        async def scenario():
            pool = workers.WorkerPool(workers=2)
            pool.start()
            try:
                assert await pool.kill_one(5.0)
                outs = await asyncio.gather(
                    *(pool.run(-1) for _ in range(4)),
                    return_exceptions=True,
                )
                return outs, pool.rebuilds
            finally:
                pool.stop()

        outs, rebuilds = asyncio.run(scenario())
        assert rebuilds == 1
        assert isinstance(outs[0], WorkerCrashError)
        assert outs[1:] == [1, 1, 1]


class TestLoopWatchdog:
    def test_blocked_event_loop_is_detected(self):
        async def scenario():
            watchdog = LoopWatchdog(interval=0.02, threshold=0.15)
            watchdog.start()
            try:
                time.sleep(0.5)  # wedge the loop on purpose
                await asyncio.sleep(0.1)
                return watchdog.stalls, watchdog.last_stall
            finally:
                watchdog.stop()

        stalls, last = asyncio.run(scenario())
        assert stalls >= 1
        assert last["age"] > 0.15

    def test_healthy_loop_never_trips(self):
        async def scenario():
            watchdog = LoopWatchdog(interval=0.02, threshold=0.5)
            watchdog.start()
            try:
                await asyncio.sleep(0.3)
                return watchdog.stalls
            finally:
                watchdog.stop()

        assert asyncio.run(scenario()) == 0

    def test_service_exposes_watchdog_in_snapshot(self):
        async def scenario():
            async with SolveService() as svc:
                return svc.snapshot()["loop_watchdog"]

        snap = asyncio.run(scenario())
        assert snap == {"stalls": 0, "last_stall": None}


class TestLoadgenAcceptance:
    def test_bench_invariants_quick(self):
        payload = run_bench(n=48, requests=24, concurrency=12)
        assert payload["all_accounted"], "a request hung or vanished"
        assert payload["goodput_ordered"], (
            f"degraded goodput {payload['degraded_goodput']:.1f}/s must "
            f"beat hard-fail {payload['hardfail_goodput']:.1f}/s"
        )
        clean = payload["cases"]["clean"]
        assert clean["outcomes"] == {"ok": clean["requests"]}
        assert clean["p99_latency"] is not None
        assert clean["p50_latency"] <= clean["p99_latency"]

    def test_run_case_census_is_complete_under_admission_pressure(self):
        from repro.serve.admission import AdmissionController, TokenBucket

        case = run_case(
            workload=WORKLOAD,
            requests=16,
            concurrency=8,
            service_kwargs={
                "admission": AdmissionController(
                    TokenBucket(4.0, 50.0), unit_cost=1e-4
                )
            },
        )
        assert case["complete"]
        assert case["outcomes"].get("ServiceOverloadError", 0) > 0
        assert case["served"] == case["outcomes"].get("ok", 0) > 0
