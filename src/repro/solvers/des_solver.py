"""Event-granular SpTRSV simulation on the DES core (reference engine).

Where the fast model (:mod:`repro.exec_model.timeline`) prices an
execution analytically, this tier *plays it out*: every component is a
simulation process that acquires a warp slot, sleeps on its dependency
channel, gathers, solves, and notifies its dependants — with the unified
design routing every shared-array touch through the exact
:class:`~repro.machine.unified.UnifiedMemory` page table (exact fault
counts, exact ownership churn).

:func:`des_execute` is the one entry point.  By default it drains the
array engine (:mod:`repro.solvers.des_array`), which compiles the
shared execution protocol of :mod:`repro.engine.protocol` to integer
tokens, and replays the drain's record for ``b``; every production path
runs that engine.  Its generator body,
run with ``engine="reference"``, plays the same state machine as one
:class:`~repro.engine.des.Simulator` process per component and per
update message, and stays only as the bit-identity oracle the array
engine is checked against.  Both engines take every state constant,
timing rule, delivery verdict and remap decision from the protocol
module rather than declaring their own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.des import Simulator
from repro.engine.events import Acquire, Release, Signal, Timeout, Wait
from repro.engine.protocol import (
    ACT_CORRUPT,
    ACT_DELAY,
    ACT_DELIVER,
    ACT_EXHAUSTED,
    ACT_STARVE,
    FATE_DELAY,
    MESSAGES_IN_FLIGHT_PER_LINK,
    TRACE_DISPATCH,
    TRACE_FAULT,
    TRACE_GPU_FAIL,
    TRACE_INJECT,
    TRACE_MSG_LOST,
    TRACE_RECOVERED,
    TRACE_RELEASE,
    TRACE_REMAP,
    TRACE_RETRY,
    TRACE_SOLVE,
    TRACE_STALE_LAUNCH,
    TRACE_VALIDATE,
    TRACE_REPLAY,
    TRACE_XFER_BEGIN,
    TRACE_XFER_END,
    VALID_ENGINES,
    StalePolicy,
    coerce_design,
    deadlock_error,
    delivery_action,
    edge_notify_delay,
    edge_update_inc,
    exhausted_delivery,
    failure_victims,
    launch_times,
    link_capacity,
    missing_diagonal,
    remap_plan,
    resolve_stale_policy,
    solve_cost,
    stale_validation_times,
    validate_fabric_reach,
    wake_threshold,
    wire_time,
)
from repro.engine.resources import Resource
from repro.engine.trace import Trace
from repro.errors import ConfigurationError, FaultInjectionError, SolverError
from repro.exec_model.artefacts import get_artefacts
from repro.exec_model.costmodel import Design
from repro.machine.node import MachineConfig, dgx1
from repro.machine.unified import UnifiedMemory
from repro.resilience.faults import flip_mantissa_bit
from repro.solvers.base import SolveResult, TriangularSolver, validate_system
from repro.sparse.csc import CscMatrix
from repro.tasks.schedule import Distribution

__all__ = ["DesExecution", "des_execute", "DesSolver", "replay_execute"]


@dataclass(frozen=True)
class DesExecution:
    """Result of one event-granular run.

    ``residual`` is the componentwise backward error of ``x`` when the
    stale-sync pass certified it, and ``None`` after a run without that
    pass.  ``record`` is the
    :class:`~repro.solvers.des_array.DrainRecord` an array-engine ``x``
    was replayed from, and ``None`` from the reference engine.
    """

    x: np.ndarray
    total_time: float
    trace: Trace
    page_faults: int
    events: int
    residual: float | None = None
    record: object | None = None

    def solve_order(self) -> list[int]:
        return self.trace.solve_order()


def des_execute(
    lower: CscMatrix,
    b: np.ndarray,
    dist: Distribution,
    machine: MachineConfig,
    design: Design | str = Design.SHMEM_READONLY,
    *,
    trace_enabled: bool = True,
    engine: str = "array",
    injector=None,
    recovery=None,
    watchdog=None,
    stale: StalePolicy | None = None,
) -> DesExecution:
    """Play out a multi-GPU SpTRSV at event granularity.

    Components are spawned in ascending index order per GPU at their
    task's launch time (the hardware dispatch order), acquire one of the
    GPU's warp slots, block on a readiness channel until the last
    dependency's notification lands, then gather-solve-update.

    For ``Design.UNIFIED`` every remote update is charged through an
    exact :class:`UnifiedMemory` page table, so ``page_faults`` counts
    real simulated ownership changes rather than a model estimate.

    ``engine`` selects the playout implementation: ``"array"`` (the
    default, and the only one production code runs: the flat state
    machine in :mod:`repro.solvers.des_array`, whose value-free drain
    fills a :class:`~repro.solvers.des_array.DrainRecord` that
    :func:`replay_execute` then turns into ``x``; the result carries the
    record) or ``"reference"`` (one
    generator per process, kept as the bit-identity oracle for tests,
    the chaos matrix's full mode, the DES sweep and
    ``tools/profile_des.py``).  Both engines are bit-identical in every
    observable (trace, solution, times, fault/event counts); any other
    name raises :class:`~repro.errors.ConfigurationError`.

    The array engine compiles an
    :class:`~repro.solvers.des_array.ArrayProgram` for each call and
    keeps none: the program is freed once its drain returns the record.

    Resilience hooks (all optional, all bit-transparent when absent):

    * ``injector`` — a materialised
      :class:`~repro.resilience.faults.FaultInjector` both engines
      consult at event-dispatch time;
    * ``recovery`` — a
      :class:`~repro.resilience.recovery.RecoveryPolicy` governing
      delivery retries (timeout + exponential backoff, bounded),
      message checksumming, and GPU-failure remap.  Without one, a lost
      delivery starves its dependant and the deadlock detector fires;
    * ``watchdog`` — a :class:`~repro.resilience.watchdog.Watchdog`
      polled at every clock advance (no-progress stall detection).

    Under ``Design.STALE_SYNC`` a component may leave its dependency
    park once at most ``stale.k`` contributions are still missing
    (recording :data:`~repro.engine.protocol.TRACE_STALE_LAUNCH`); after
    the calendar drains, a post-hoc validation pass detects above-ceiling
    stale reads and replays their forward closure
    (:data:`~repro.engine.protocol.TRACE_VALIDATE` /
    :data:`~repro.engine.protocol.TRACE_REPLAY`).  The pass is a pure
    function of the finished run, so every engine extends the trace and
    wall clock bit-identically.
    """
    if engine not in VALID_ENGINES:
        raise ConfigurationError(
            f"unknown DES engine {engine!r}; valid choices: "
            + ", ".join(VALID_ENGINES),
            parameter="engine",
            value=engine,
            choices=VALID_ENGINES,
        )
    design = coerce_design(design)
    stale = resolve_stale_policy(design, stale)
    wake_at = wake_threshold(stale)
    validate_fabric_reach(machine, design)
    n = lower.shape[0]
    if dist.n != n:
        raise SolverError("distribution does not match the matrix")
    if injector is not None and injector.has_gpu_failures:
        for _t_fail, g_fail in injector.gpu_failures:
            if not 0 <= g_fail < machine.n_gpus:
                raise FaultInjectionError(
                    f"gpu_fail targets rank {g_fail}, but the machine has "
                    f"{machine.n_gpus} GPUs"
                )
    art = get_artefacts(lower)
    dag = art.dag
    costs = art.comm_costs(machine, design)

    if engine == "array":
        from repro.solvers.des_array import compile_program, execute_array

        record = execute_array(
            compile_program(lower, dist, machine, design),
            trace_enabled=trace_enabled,
            injector=injector,
            recovery=recovery,
            watchdog=watchdog,
            stale=stale,
        )
        return replay_execute(
            lower, b, machine, design, stale=stale, record=record
        )
    n_gpus = machine.n_gpus
    gpu_spec = machine.gpu

    faulty = injector is not None and injector.active
    link_faulty = faulty and injector.has_link_faults
    delivery_faulty = faulty and injector.has_delivery_faults
    straggler_faulty = faulty and injector.has_stragglers
    failure_mode = faulty and injector.has_gpu_failures

    sim = Simulator(watchdog=watchdog)
    # Deadlock reports name the starved components and their owning
    # ranks: the readiness channels still holding waiters when the
    # calendar drains are exactly the pending-dependency frontier.
    sim.deadlock_error = lambda waiting: deadlock_error(
        sim.now,
        sim.events_processed,
        [ch[1] for ch, ps in waiting.items() if ps and ch[0] == "ready"],
        {
            r.name: r.queue_length
            for r in (*slots, *links.values())
            if r.queue_length
        },
        gpu_of,
    )
    trace = Trace(enabled=trace_enabled)
    # One bound append for every record site; a disabled trace's append
    # only counts the row's kind.
    emit = trace.append
    slots = [
        Resource(f"gpu{g}.warps", capacity=gpu_spec.warp_slots)
        for g in range(n_gpus)
    ]
    # Per-pair link channels: each physical link sustains a bounded number
    # of in-flight fine-grained messages; excess notifications queue.
    links: dict[tuple[int, int], Resource] = {}

    def link_of(src_pe: int, dst_pe: int) -> Resource:
        key = (src_pe, dst_pe)
        if key not in links:
            ga = machine.active_gpus[src_pe]
            gb = machine.active_gpus[dst_pe]
            capacity = link_capacity(
                machine.topology, ga, gb, MESSAGES_IN_FLIGHT_PER_LINK
            )
            links[key] = Resource(f"link{src_pe}->{dst_pe}", capacity)
        return links[key]
    um: UnifiedMemory | None = None
    s_left = s_indeg = None
    if design is Design.UNIFIED:
        um = UnifiedMemory(machine.um, machine.topology)
        s_left = um.malloc_managed("s.left_sum", n)
        s_indeg = um.malloc_managed("s.in_degree", n, dtype=np.int64)

    indptr, indices, data = lower.indptr, lower.indices, lower.data
    gpu_of = dist.gpu_of
    if failure_mode:
        # Remap mutates ownership mid-run; never touch the caller's
        # Distribution.
        gpu_of = gpu_of.copy()
    phys = machine.active_gpus

    x = np.zeros(n)
    left_sum = np.zeros(n)
    remaining = dag.in_degree.copy()
    in_counts = np.diff(dag.in_ptr)
    # Failure bookkeeping: `epoch[i]` invalidates every in-flight
    # incarnation of component i when its GPU dies (stale generators wake,
    # see the mismatch, and exit); `done` marks solved components (not
    # victims); `dead` accumulates failed ranks.
    epoch = [0] * n if failure_mode else None
    done = [False] * n
    dead: set[int] = set()

    def notifier(
        e: int,
        src: int,
        dst: int,
        contribution: float,
        delay: float,
        src_pe: int,
        dst_pe: int,
    ):
        """Deliver one update to a dependant after its notify latency.

        Cross-GPU deliveries occupy one of the pair's link channels for
        the message's wire time, so a burst of fine-grained updates
        between the same pair queues instead of teleporting.  The
        endpoint ranks are frozen at spawn (solve) time — matching the
        array engine, whose per-edge routing tables are read when the
        transfer token is buckets — so a concurrent GPU-failure remap
        never reroutes a message already in flight.

        Under a fault plan each delivery attempt of edge ``e`` asks the
        injector for its fate and resolves it through the protocol's
        :func:`~repro.engine.protocol.delivery_action` decision tree:
        retries re-pay the wire on cross-GPU edges, a starved dependant
        is reported loudly, and an undetected corruption flips one
        mantissa bit of the contribution and lands.
        """
        cross = src_pe != dst_pe
        if cross:
            link = link_of(src_pe, dst_pe)
            ga = machine.active_gpus[src_pe]
            gb = machine.active_gpus[dst_pe]
            base_wire = wire_time(machine.topology, ga, gb)
        attempt = 0
        corrupted = False
        while True:
            if cross:
                yield Acquire(link)
                emit((
                    sim.now, TRACE_XFER_BEGIN, src_pe,
                    (src_pe, dst_pe, dst),
                ))
                wire = base_wire
                if link_faulty:
                    wire, tag = injector.wire_time(
                        src_pe, dst_pe, sim.now, wire
                    )
                    if tag is not None:
                        emit((
                            sim.now, TRACE_INJECT, src_pe,
                            (tag, e, attempt),
                        ))
                yield Timeout(wire)
                emit((sim.now, TRACE_XFER_END, src_pe, (src_pe, dst_pe, dst)))
                yield Release(link)
            yield Timeout(delay)
            fate = (
                injector.delivery_fate(e, attempt) if delivery_faulty else None
            )
            verdict, arg = delivery_action(fate, attempt, recovery)
            while verdict == ACT_DELAY:
                emit((sim.now, TRACE_INJECT, dst_pe, (FATE_DELAY, e, attempt)))
                attempt += 1
                yield Timeout(arg)
                fate = injector.delivery_fate(e, attempt)
                verdict, arg = delivery_action(fate, attempt, recovery)
            if verdict == ACT_DELIVER:
                break
            emit((sim.now, TRACE_INJECT, dst_pe, (fate[0], e, attempt)))
            if verdict == ACT_CORRUPT:
                # No checksum: the flipped value lands in left.sum.
                contribution = flip_mantissa_bit(contribution, arg)
                corrupted = True
                attempt += 1
                break
            if verdict == ACT_STARVE:
                emit((sim.now, TRACE_MSG_LOST, dst_pe, (e, dst)))
                return  # dependant starves; the deadlock detector reports it
            if verdict == ACT_EXHAUSTED:
                raise exhausted_delivery(e, dst, attempt + 1)
            # ACT_RETRY: re-send after exponential backoff.
            emit((sim.now, TRACE_RETRY, src_pe, (e, attempt, arg)))
            attempt += 1
            yield Timeout(arg)
        if delivery_faulty and attempt and not corrupted:
            emit((sim.now, TRACE_RECOVERED, dst_pe, (e, attempt)))
        left_sum[dst] += contribution
        remaining[dst] -= 1
        # The wake threshold is 0 for synchronous designs and ``k``
        # under stale-sync: the countdown crosses it exactly once, so
        # the ready channel fires exactly once either way (a signal with
        # no waiter is a no-op).
        if remaining[dst] == wake_at:
            yield Signal(("ready", dst))

    def component(i: int, ep: int = 0):
        # Epoch guard at every resume point: a GPU failure bumps
        # epoch[i], so any stale incarnation — including one spawned but
        # not yet started — exits on its next wake without touching the
        # (possibly remapped) state.  With no gpu_fail faults, `epoch` is
        # None and every guard is dead.
        if epoch is not None and epoch[i] != ep:
            return
        g = int(gpu_of[i])
        yield Acquire(slots[g])
        if epoch is not None and epoch[i] != ep:
            return
        emit((sim.now, TRACE_DISPATCH, g, i))
        yield Timeout(gpu_spec.t_warp_dispatch)
        if epoch is not None and epoch[i] != ep:
            return
        if remaining[i] > wake_at:
            yield Wait(("ready", i))
            if epoch is not None and epoch[i] != ep:
                return
        if stale is not None and remaining[i] > 0:
            # Bounded-stale launch: gather proceeds with contributions
            # still missing.  ``remaining`` is re-read here (not at the
            # wake) so same-timestamp deliveries that land before this
            # process resumes are counted — matching the array engine's
            # token semantics bit-for-bit.
            emit((sim.now, TRACE_STALE_LAUNCH, g, (i, int(remaining[i]))))
        # Gather phase (remote reads / final poll fault).
        gather = costs.gather if in_counts[i] else 0.0
        if um is not None and in_counts[i]:
            cost, _ = um.access(phys[g], s_indeg, i, sharers=n_gpus)
            gather += cost
        if gather > 0.0:
            yield Timeout(gather)
            if epoch is not None and epoch[i] != ep:
                return
        lo, hi = int(indptr[i]), int(indptr[i + 1])
        if indices[lo] != i:
            raise missing_diagonal(i)
        cost_solve = solve_cost(gpu_spec.t_per_nnz, hi - lo, int(in_counts[i]))
        if straggler_faulty:
            cost_solve = injector.solve_scale(g, sim.now, cost_solve)
        yield Timeout(cost_solve)
        if epoch is not None and epoch[i] != ep:
            return
        x[i] = (b[i] - left_sum[i]) / data[lo]
        done[i] = True
        emit((sim.now, TRACE_SOLVE, g, i))
        if watchdog is not None:
            watchdog.progress(sim.now, i)
        # Update dependants.
        update_cost = 0.0
        for e in range(lo + 1, hi):
            rid = int(indices[e])
            contrib = data[e] * x[i]
            dst_g = int(gpu_of[rid])
            if um is not None and dst_g != g:
                cost, faulted = um.access(phys[g], s_left, rid, sharers=n_gpus)
                update_cost += cost
                if faulted:
                    emit((sim.now, TRACE_FAULT, g, rid))
                delay = costs.notify[g, dst_g]
            else:
                update_cost += edge_update_inc(costs, g, dst_g)
                delay = edge_notify_delay(costs, g, dst_g)
            sim.spawn(
                notifier(e, i, rid, contrib, update_cost + delay, g, dst_g)
            )
        if update_cost > 0.0:
            yield Timeout(update_cost)
        emit((sim.now, TRACE_RELEASE, g, i))
        yield Release(slots[g])

    def gpu_failure(g: int):
        """Fail-stop rank ``g``: cancel its unsolved work, remap or starve.

        Runs atomically at its fault time.  Cancellation: bump every
        victim's epoch, then wake whatever is parked — ready-channel
        waiters via a Signal (ascending victim order), warp-slot queue
        waiters via a drain (FIFO) — so each stale incarnation resumes
        once, sees the epoch mismatch, and exits.  In-flight deliveries
        are *not* cancelled (the message is already on the fabric).  With
        remap enabled, victims are dealt over the survivors and
        re-launched after the failure-detector latency, serialised by the
        kernel-launch cost; without it their dependants starve and the
        run ends in a loud DeadlockError.
        """
        dead.add(g)
        emit((sim.now, TRACE_GPU_FAIL, g, g))
        victims = failure_victims(gpu_of, done, g, n)
        for i in victims:
            epoch[i] += 1
        for i in victims:
            yield Signal(("ready", i))
        for p in slots[g].drain():
            sim.resume_from_resource(p)
        if not victims:
            return
        if recovery is not None and recovery.remap_on_failure:
            plan = remap_plan(
                gpu_of, victims, g, n_gpus, dead, recovery,
                gpu_spec.t_kernel_launch,
            )
            for i, new_g, relaunch in plan:
                gpu_of[i] = new_g
                emit((sim.now, TRACE_REMAP, new_g, (i, g)))
                sim.spawn(component(i, epoch[i]), delay=relaunch)

    # Spawn in ascending index order at each task's launch time: FIFO slot
    # queues then preserve the deadlock-free dispatch order.  The host
    # issues kernels serially in task order (same model as the fast
    # tier), so task k launches at k * t_kernel_launch.
    task_of = dist.task_of()
    launch = launch_times(dist.n_tasks, gpu_spec.t_kernel_launch)
    for i in range(n):
        sim.spawn(component(i), delay=float(launch[task_of[i]]))
    if failure_mode:
        for t_fail, g_fail in injector.gpu_failures:
            sim.spawn(gpu_failure(g_fail), delay=float(t_fail))

    events = sim.run()
    if np.any(remaining != 0):
        raise SolverError("DES run finished with unsatisfied dependencies")
    return _finish_execution(
        lower,
        b,
        machine,
        stale,
        x,
        sim.now,
        trace,
        um.fault_count if um is not None else 0,
        events,
    )


def _finish_execution(
    lower: CscMatrix,
    b: np.ndarray,
    machine: MachineConfig,
    stale: StalePolicy | None,
    x: np.ndarray,
    total_time: float,
    trace: Trace,
    page_faults: int,
    events: int,
    record=None,
) -> DesExecution:
    """The step after every reference run or replay: the stale-sync pass.

    ``stale`` is the run's resolved policy (``None`` off ``stale_sync``).
    The pass detects solved rows whose stale-read error exceeds the
    policy ceiling, replays their forward closure with the resilience
    repair machinery, and appends the protocol's ``validate`` /
    ``replay`` records at the timestamps of
    :func:`~repro.engine.protocol.stale_validation_times`; the result's
    ``residual`` is the validated solution's backward error.  It raises
    :class:`~repro.errors.RecoveryExhaustedError` when replay cannot
    bring the system under the ceiling.  The pass is a pure function of
    the finished run's observables, so the repaired solution, the
    appended trace records and the extended wall clock stay
    bit-identical across the reference engine and every replay of a
    recorded array drain.
    """
    residual = None
    if stale is not None:
        from repro.resilience.recovery import _closure_repair

        x, suspects, replayed, residual = _closure_repair(
            lower, b, x, stale.ceiling, "stale-read replay"
        )
        t_validate, t_replays = stale_validation_times(
            total_time, len(replayed), machine.gpu.t_kernel_launch
        )
        append = trace.append
        append((
            t_validate, TRACE_VALIDATE, 0, (len(suspects), len(replayed))
        ))
        for t, i in zip(t_replays.tolist(), replayed):
            append((t, TRACE_REPLAY, 0, i))
        if len(replayed):
            total_time = float(t_replays[-1])
    return DesExecution(
        x=x,
        total_time=total_time,
        trace=trace,
        page_faults=page_faults,
        events=events,
        residual=residual,
        record=record,
    )


def replay_execute(
    lower: CscMatrix,
    b: np.ndarray,
    machine: MachineConfig,
    design: Design | str,
    *,
    stale: StalePolicy | None = None,
    record,
) -> DesExecution:
    """:func:`des_execute` for ``b`` from a recorded array drain.

    ``record`` is the :class:`~repro.solvers.des_array.DrainRecord` an
    array drain of ``lower`` returned under the same machine, design,
    fault plan, recovery policy and stale policy;
    :func:`~repro.solvers.des_array.replay_array` computes ``x`` from
    it and the stale-sync pass runs on the result.  This is the second
    half of every array-engine :func:`des_execute`, so it equals a fresh
    array run for any ``b``, and for any ``lower`` with the drained
    matrix's pattern; the result carries ``record``.  No
    :class:`~repro.solvers.des_array.ArrayProgram` is read: the record,
    its plan and the matrix's values, gathered on its first replay,
    are all a replay needs.
    """
    from repro.solvers.des_array import replay_array

    stale = resolve_stale_policy(coerce_design(design), stale)
    return _finish_execution(
        lower, b, machine, stale, *replay_array(lower, record, b),
        record=record,
    )


class DesSolver(TriangularSolver):
    """Solver front-end for the event-granular tier.

    A thin adapter over :class:`~repro.runtime.session.SolverSession`:
    the arguments map onto a :class:`~repro.runtime.config.RunConfig`
    (no fault plan, no recovery), and every solve runs the session
    pipeline — DES playout plus the fast-model re-pricing, sharing one
    artefact bundle — so conformance cases built on this class audit
    the path the benchmark and the service run.
    """

    name = "des-event-granular"

    def __init__(
        self,
        machine: MachineConfig | None = None,
        design: Design | str = Design.SHMEM_READONLY,
        distribution: str = "block",
        tasks_per_gpu: int | None = None,
        stale: StalePolicy | None = None,
        node_run: int | None = None,
    ):
        from repro.runtime.config import RunConfig
        from repro.runtime.session import SolverSession

        config = RunConfig(
            machine=machine if machine is not None else dgx1(4),
            design=design,
            distribution=distribution,
            tasks_per_gpu=tasks_per_gpu,
            node_run=node_run,
            stale_k=None if stale is None else stale.k,
            stale_ceiling=None if stale is None else stale.ceiling,
        )
        self.machine = config.machine
        self.design = config.design
        self.session = SolverSession(config)

    def solve(self, lower: CscMatrix, b: np.ndarray) -> SolveResult:
        b = validate_system(lower, b)
        res = self.session.solve(lower, b)
        return SolveResult(x=res.x, report=res.report, solver=self.name)
