"""The benchmark's three workloads.

Each workload builds its inputs from the seed alone, then exposes

* ``setup()`` - input generation, first analysis, pool start-up and
  untimed warm-up operations (what ``setup_s`` times);
* ``measure(seconds, new_op, host)`` - the timed closed loop, returning
  a :class:`Window` with one :class:`Sample` per operation; ``new_op()``
  gives each operation its trace record (``None`` when untraced), and
  ``host`` (a :class:`hostspeed.HostSpeed`) is probed between operations;
* ``close()`` - stops whatever ``setup()`` started.

Every operation, the warm-up included, is checked against :mod:`oracle`
outside the timed regions.  Sizes are scaled by ``scale`` only for the
smoke test.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import time
from dataclasses import dataclass, replace

import numpy as np

from oracle import System, estimate_ok
from spans import Op, Tracer


@dataclass
class Sample:
    """One timed operation."""

    index: int
    wall: float
    ok: bool
    certified: bool
    events: int
    #: What kind of operation this was (matrix, tenant), for diagnostics.
    kind: str = ""
    op: Op | None = None
    #: ``perf_counter`` time the operation started.
    start: float = 0.0


@dataclass
class Window:
    """The timed part of one run."""

    samples: list[Sample]
    #: Wall seconds of the timed loop (checking excluded).
    seconds: float
    #: Change of the program's own counters over the loop.
    counters: dict


#: Operation index of the (first) untimed warm-up operation.
WARMUP = 999_999


def status_kb(pid, field: str) -> int:
    """A ``/proc/<pid>/status`` memory field in KiB (0 if unreadable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Workload:
    """What every workload provides beyond set-up and measurement."""

    def rss_children(self) -> dict[int, int]:
        """Processes the workload started, for ``peak_rss_mb``: pid ->
        resident KiB right after start-up, which a forked child shares
        with this process and must not be counted twice."""
        return {}

    def close(self) -> None:
        pass


def _rhs(seed: int, index: int, n: int) -> np.ndarray:
    return np.random.default_rng([seed, index]).uniform(-1.0, 1.0, size=n)


def _sync_loop(seconds: float, new_op, host, tracer: Tracer | None, run_one):
    """Closed loop of one client: run ``run_one(i)`` until time is up."""
    samples = []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        host.maybe_probe()
        op = new_op()
        token = tracer.activate(op) if tracer is not None else None
        try:
            sample = run_one(i)
        finally:
            if token is not None:
                tracer.deactivate(token)
        sample.op = op
        # Late by the time run_one spent checking, well inside hostspeed.NEAR_S.
        sample.start = time.perf_counter() - sample.wall
        samples.append(sample)
        i += 1
    return Window(samples, time.perf_counter() - start, {})


# --------------------------------------------------------------- solve-hot
#: ``scale-50k`` generator settings of the DES sweep: a level-major
#: matrix whose solve is dominated by the engine's event drain.
SCALE_50K = dict(
    n=50_000, n_levels=40, dependency=9.0, profile="uniform",
    locality=0.5, order_mix=0.3, scatter=0.0,
)


class SolveHot(Workload):
    """Repeated solves of one matrix in one warm ``SolverSession``."""

    name = "solve-hot"
    #: Operations whose DES counts form the deterministic per-layer counts.
    canonical_ops = 1

    def __init__(self, seed: int, tracer: Tracer | None = None, scale=1.0):
        self.seed = seed
        self.tracer = tracer
        self.params = dict(SCALE_50K, n=max(200, int(SCALE_50K["n"] * scale)))

    def setup(self) -> None:
        from repro.runtime.config import RunConfig
        from repro.runtime.session import SolverSession
        from repro.workloads.generators import dag_profile_matrix

        self.lower = dag_profile_matrix(**self.params, seed=self.seed)
        self.session = SolverSession(RunConfig(trace_enabled=False))
        self._warmup = self._run(WARMUP)

    def _run(self, i: int) -> tuple:
        b = _rhs(self.seed, i, self.lower.shape[0])
        gc.collect()
        t0 = time.perf_counter()
        result = self.session.solve(self.lower, b, with_report=False)
        return time.perf_counter() - t0, b, result

    def _solve(self, i: int) -> Sample:
        wall, b, result = self._run(i)
        ok = self.system.exact(result.x, b)
        return Sample(i, wall, ok, ok, int(result.execution.events))

    def measure(self, seconds: float, new_op, host) -> Window:
        self.system = System(self.lower)
        _wall, b, result = self._warmup
        if not self.system.exact(result.x, b):
            raise RuntimeError("solve-hot warm-up solve is wrong")
        return _sync_loop(seconds, new_op, host, self.tracer, self._solve)


# ------------------------------------------------------------- price-sweep
#: Table I stand-ins priced by the sweep: the paper's Fig. 10 highlighted
#: set, one road network (the widest, most scattered input) and
#: ``shipsec1`` (the deepest, least scattered).  The count is odd so that
#: the median estimate falls inside one matrix's group of configs
#: (``chipcool0``'s) rather than in the gap between two groups, where it
#: would jump with the few operations a run's time cut-off adds to one.
SWEEP_MATRICES = (
    "chipcool0", "dc2", "nlpkkt160", "powersim", "Wordnet3", "roadNet-CA",
    "shipsec1",
)
SWEEP_DESIGNS = ("unified", "shmem_naive", "shmem_readonly", "stale_sync")
#: The largest valid GPU count of each paper platform.
SWEEP_MACHINES = (("dgx1", 4), ("dgx2", 16))
SWEEP_DISTRIBUTIONS = ("block", "taskpool", "costaware")


def sweep_configs() -> list:
    from repro.runtime.config import RunConfig

    configs = [
        RunConfig(design=d, topology=t, n_gpus=g, distribution=dist)
        for d in SWEEP_DESIGNS
        for t, g in SWEEP_MACHINES
        for dist in SWEEP_DISTRIBUTIONS
    ]
    configs.append(
        RunConfig(
            design="shmem_readonly", topology="cluster", n_nodes=2,
            gpus_per_node=4, distribution="hierarchical",
        )
    )
    return configs


class PriceSweep(Workload):
    """Fast-model pricing of Table I stand-ins over a config grid."""

    name = "price-sweep"
    canonical_ops = 0

    def __init__(self, seed: int, tracer: Tracer | None = None, scale=1.0):
        self.seed = seed
        self.tracer = tracer
        self.scale = scale

    def setup(self) -> None:
        from repro.runtime.config import RunConfig
        from repro.runtime.session import SolverSession
        from repro.workloads.suite import SUITE

        self.matrices = []
        for name in SWEEP_MATRICES:
            entry = SUITE[name]
            entry = replace(
                entry,
                seed=entry.seed + 1000 * self.seed,
                n=max(200, int(entry.n * self.scale)),
            )
            entry = replace(entry, n_levels=min(entry.n_levels, entry.n // 4))
            self.matrices.append(entry.build())
        self.configs = sweep_configs()
        # First analysis of every input: one warm-up estimate per matrix.
        for lower in self.matrices:
            report = SolverSession(RunConfig()).simulate(lower)
            if not estimate_ok(report.total_time):
                raise RuntimeError("price-sweep warm-up estimate is wrong")
        self.pairs = [
            (m, c)
            for m in range(len(self.matrices))
            for c in range(len(self.configs))
        ]

    def _pair(self, i: int) -> tuple[int, int]:
        # A fresh seeded permutation of the whole grid per pass, so any
        # prefix of the run samples the grid evenly.
        rounds, k = divmod(i, len(self.pairs))
        order = np.random.default_rng([self.seed, rounds]).permutation(
            len(self.pairs)
        )
        return self.pairs[int(order[k])]

    def _price(self, i: int) -> Sample:
        from repro.runtime.session import SolverSession

        m, c = self._pair(i)
        lower = self.matrices[m]
        gc.collect()
        t0 = time.perf_counter()
        report = SolverSession(self.configs[c]).simulate(lower)
        wall = time.perf_counter() - t0
        ok = estimate_ok(report.total_time) and estimate_ok(report.solve_time)
        # The fast model's simulated events: one per component solved and
        # one per dependency update it prices.
        events = (
            lower.shape[0] + int(report.local_updates) + int(report.remote_updates)
        )
        return Sample(i, wall, ok, ok, events, SWEEP_MATRICES[m])

    def measure(self, seconds: float, new_op, host) -> Window:
        return _sync_loop(seconds, new_op, host, self.tracer, self._price)


# --------------------------------------------------------------- serve-mix
#: Exact tenants: requests cycle through these, and each must come back
#: certified exact.  Two of the ten carry a recoverable fault.
SERVE_CYCLE = (
    ("grid", "readonly"),
    ("random", "unified"),
    ("banded", "stale"),
    ("grid", "cluster"),
    ("grid", "msg_drop"),
    ("banded", "readonly"),
    ("random", "readonly"),
    ("grid", "unified"),
    ("random", "msg_drop"),
    ("banded", "unified"),
)
#: One request in ``RARE`` (at ``LADDER_AT``) comes from the ``ladder``
#: tenant, which fails structurally and consents to degradation, so it
#: must come back as an estimate; one in ``RARE`` (at ``TRICKLE_AT``)
#: names a structure the service has not seen.  Both are slower than
#: any exact solve; together they are 1 in 50 requests, well under the
#: 1 in 20 that lies beyond p95, so p95 is set by exact solves (the
#: diagnostics line shows which tenants lie beyond it).
RARE = 100
LADDER_AT = 37
TRICKLE_AT = 87
LADDER = ("grid", "ladder")
CLIENTS = 2


def serve_config(tenant: str, seed: int, index: int):
    from repro.resilience.faults import FaultKind, FaultPlan
    from repro.resilience.recovery import RecoveryPolicy
    from repro.runtime.config import RunConfig

    if tenant == "readonly":
        return RunConfig(design="shmem_readonly")
    if tenant == "unified":
        return RunConfig(design="unified")
    if tenant == "stale":
        return RunConfig(design="stale_sync")
    if tenant == "cluster":
        return RunConfig(
            topology="cluster", n_nodes=2, gpus_per_node=2,
            distribution="hierarchical",
        )
    if tenant == "msg_drop":
        return RunConfig(
            plan=FaultPlan.single(FaultKind.MSG_DROP, seed=seed, rate=0.02),
            recovery=RecoveryPolicy(),
        )
    if tenant == "ladder":
        # Every message dropped and retry off: each rung deadlocks.  The
        # plan seed differs per request, so each request has its own
        # breaker key and walks the whole ladder.
        return RunConfig(
            plan=FaultPlan.single(FaultKind.MSG_DROP, seed=index, rate=1.0),
            recovery=RecoveryPolicy(retry=False),
            watchdog_stall_horizon=10.0,
        )
    raise ValueError(f"unknown tenant {tenant!r}")


class ServeMix(Workload):
    """Closed loop of two clients against a one-worker ``SolveService``."""

    name = "serve-mix"
    canonical_ops = len(SERVE_CYCLE)
    #: Warm-up requests: one per tenant of the cycle, then the ladder.
    warmups = range(WARMUP, WARMUP + len(SERVE_CYCLE) + 1)

    def __init__(self, seed: int, tracer: Tracer | None = None, scale=1.0):
        self.seed = seed
        self.tracer = tracer
        side = max(12, int(64 * scale**0.5))
        n = side * side
        self.structures = {
            "grid": {"generator": "grid", "rows": side, "cols": side},
            "random": {"generator": "random", "n": n},
            "banded": {"generator": "banded", "n": n, "bandwidth": 3},
        }
        self.loop = None
        self.service = None
        self._workers: dict[int, int] = {}
        self._systems: dict[str, System] = {}

    # -- request plan --------------------------------------------------
    def first_seen(self, index: int) -> bool:
        return index < WARMUP and index % RARE == TRICKLE_AT

    def spec(self, structure: str, index: int) -> dict:
        seed = self.seed
        if self.first_seen(index):
            seed = self.seed * 100_000 + index
        return dict(self.structures[structure], seed=seed)

    def rhs_seed(self, index: int) -> int:
        return self.seed * 1_000_000 + index

    def tenant(self, index: int) -> tuple[str, str]:
        """``(structure, tenant)`` of request ``index``."""
        if index >= WARMUP:
            k = index - WARMUP
            return SERVE_CYCLE[k] if k < len(SERVE_CYCLE) else LADDER
        if index % RARE == LADDER_AT:
            return LADDER
        return SERVE_CYCLE[index % len(SERVE_CYCLE)]

    def kind(self, index: int) -> str:
        structure, tenant = self.tenant(index)
        if self.first_seen(index):
            return "first-seen"
        return tenant if tenant == "ladder" else f"{structure}/{tenant}"

    def request(self, index: int):
        from repro.serve.request import SolveRequest

        structure, tenant = self.tenant(index)
        return SolveRequest(
            config=serve_config(tenant, self.seed, index),
            workload=self.spec(structure, index),
            rhs={"seed": self.rhs_seed(index)},
            allow_degraded=tenant == "ladder",
            request_id=str(index),
        )

    # -- lifecycle -----------------------------------------------------
    def setup(self) -> None:
        from repro.serve.service import SolveService

        self.loop = asyncio.new_event_loop()
        self.service = SolveService(workers=1)
        self.loop.run_until_complete(self.service.start())
        self._workers = {
            p.pid: status_kb(p.pid, "VmRSS")
            for p in multiprocessing.active_children()
        }
        # One request per tenant: every structure is analysed and
        # spilled, and every config priced, before the timed window.
        self._warmup = []
        for index in self.warmups:
            warm = self.request(index)
            if self.tracer is not None:
                self.tracer.ops_by_rhs_seed[warm.rhs["seed"]] = Tracer.current()
            result = self.loop.run_until_complete(self.service.submit(warm))
            self._warmup.append((warm, result))

    def close(self) -> None:
        if self.loop is None:
            return
        try:
            self.loop.run_until_complete(self.service.stop())
        finally:
            self.loop.close()
            self.loop = None
            for proc in multiprocessing.active_children():
                proc.join(timeout=10.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join()

    def rss_children(self) -> dict[int, int]:
        return dict(self._workers)

    def _counters(self) -> dict:
        snap = self.service.snapshot()
        stats = snap["stats"]
        return {
            "loop_stalls": snap["loop_watchdog"]["stalls"],
            "shed": stats["shed"],
            "retries": stats["retries"],
            "degraded_served": stats["degraded_served"],
            "submitted": stats["submitted"],
            "estimates": snap["estimate_cache"],
        }

    # -- measurement ---------------------------------------------------
    def measure(self, seconds: float, new_op, host) -> Window:
        # Counters are read right at the loop's ends: the service's loop
        # watchdog would count the idle loop during checking as a stall.
        before = self._counters()
        t0 = time.perf_counter()
        done = self.loop.run_until_complete(self._drive(seconds, new_op, host))
        elapsed = time.perf_counter() - t0
        after = self._counters()
        for request, result in self._warmup:
            if not self._check(request, result)[0]:
                raise RuntimeError(
                    f"serve-mix warm-up request {self.kind(int(request.request_id))}"
                    " is wrong"
                )
        samples = []
        for i, t0, wall, request, result, op in sorted(done, key=lambda d: d[0]):
            ok, certified = self._check(request, result)
            events = getattr(result, "events", 0) if certified else 0
            samples.append(
                Sample(i, wall, ok, certified, int(events), self.kind(i), op, t0)
            )
        delta = {k: after[k] - before[k] for k in after}
        return Window(samples, elapsed, delta)

    async def _drive(self, seconds: float, new_op, host) -> list[tuple]:
        from repro.errors import ReproError

        tracer = self.tracer
        done: list[tuple] = []
        counter = iter(range(1 << 62))
        start = time.perf_counter()

        async def client() -> None:
            while time.perf_counter() - start < seconds:
                host.maybe_probe()
                i = next(counter)
                request = self.request(i)
                op = new_op()
                token = None
                if tracer is not None:
                    tracer.ops_by_rhs_seed[request.rhs["seed"]] = op
                    token = tracer.activate(op)
                gc.collect()
                t0 = time.perf_counter()
                try:
                    result = await self.service.submit(request)
                except ReproError as err:
                    result = err
                wall = time.perf_counter() - t0
                if token is not None:
                    tracer.deactivate(token)
                done.append((i, t0, wall, request, result, op))

        await asyncio.gather(*(client() for _ in range(CLIENTS)))
        return done

    # -- checking ------------------------------------------------------
    def _check(self, request, result) -> tuple[bool, bool]:
        """``(correct, certified)`` of one served response."""
        from repro.serve.request import build_workload

        if isinstance(result, Exception):
            return False, False
        tenant = self.tenant(int(request.request_id))[1]
        if tenant == "ladder":
            ok = result.mode == "estimate" and estimate_ok(result.total_time)
            return ok, False
        if result.status != "ok" or not result.certified:
            return False, False
        key = repr(sorted(request.workload.items()))
        system = self._systems.get(key)
        if system is None:
            system = self._systems[key] = System(build_workload(request.workload))
        b = request.resolve_rhs(system.n)
        ceiling = None
        if tenant == "stale":
            ceiling = request.config.build_stale_policy().ceiling
        ok = system.exact(result.x, b, ceiling=ceiling)
        return ok, ok


WORKLOADS = {cls.name: cls for cls in (SolveHot, PriceSweep, ServeMix)}
