"""Schedule causality checking for both simulation tiers.

A simulated SpTRSV execution is only evidence if its schedule could have
happened on the machine it claims to model.  This module is a race
detector for the two tiers:

* :func:`check_des_trace` replays the event-granular tier's
  :class:`~repro.engine.trace.Trace` (``dispatch``/``solve``/``release``
  and ``xfer_begin``/``xfer_end`` records) and asserts dependency order,
  warp-slot occupancy, per-GPU dispatch order, and link-level physics
  (transfers only between P2P-reachable GPUs, bounded in-flight messages
  per link pair).
* :func:`check_timeline_schedule` re-runs the fast model with
  ``schedule_out=`` capture and audits the per-component schedule
  arrays: every ``finish`` must be exactly reconstructible from its
  predecessors' ``finish`` + notify latencies, dispatch must respect the
  kernel-launch floor, and interval occupancy per GPU must never exceed
  the warp-slot capacity.

Checks accumulate :class:`Violation` records instead of raising, so a
single audit reports *every* causality breach (tests assert
``report.ok``; the CLI prints the lot).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.dag import DependencyDag
from repro.engine.trace import Trace
from repro.exec_model.artefacts import get_artefacts
from repro.exec_model.costmodel import Design
from repro.machine.node import MachineConfig
from repro.sparse.csc import CscMatrix
from repro.tasks.schedule import Distribution

__all__ = [
    "Violation",
    "CausalityReport",
    "check_des_trace",
    "check_des_execution",
    "validate_captured_schedule",
    "check_timeline_schedule",
]

#: Abort a single audit after this many violations — a corrupted schedule
#: trips thousands of identical breaches and the first few tell the story.
MAX_VIOLATIONS = 50


@dataclass(frozen=True)
class Violation:
    """One causality breach found while auditing a schedule."""

    rule: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.rule}] {self.detail}"


@dataclass
class CausalityReport:
    """Outcome of one schedule audit."""

    subject: str
    n_components: int = 0
    n_checks: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def flag(self, rule: str, detail: str) -> None:
        if len(self.violations) < MAX_VIOLATIONS:
            self.violations.append(Violation(rule, detail))

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        lines = [
            f"{self.subject}: {status} "
            f"({self.n_components} components, {self.n_checks} checks)"
        ]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)


# ======================================================================
# DES trace audit
# ======================================================================
def check_des_trace(
    trace: Trace,
    dag: DependencyDag,
    dist: Distribution,
    machine: MachineConfig,
    design: Design | str = Design.SHMEM_READONLY,
    *,
    stale=None,
) -> CausalityReport:
    """Audit an event-granular trace against the machine's physics.

    Rules
    -----
    ``solve-coverage``
        Exactly one ``solve`` record per component, on the GPU the
        distribution placed it on.
    ``dependency-order``
        For every DAG edge ``u -> v``, component ``v`` solves strictly
        after ``u`` (its contribution must be produced, shipped, and
        consumed first).
    ``slot-occupancy``
        Replaying ``dispatch``/``release`` as +1/-1 events, per-GPU
        occupancy never exceeds ``warp_slots``, never goes negative, and
        every acquired slot is released.
    ``dispatch-order``
        Warp slots are FIFO per GPU: dispatch records appear in
        ascending component order.
    ``link-topology``
        ``xfer_begin`` endpoints are distinct PEs whose physical GPUs
        are P2P connected — or fallback-reachable, except under the
        NVSHMEM designs when ``shmem_over_fallback`` is off (the
        CUDA-10-era P2P-only restriction behind the paper's 4-GPU
        DGX-1 limit).
    ``link-occupancy``
        In-flight messages per directed PE pair never exceed the pair's
        physical budget (``links * MESSAGES_IN_FLIGHT_PER_LINK``), and
        every ``xfer_begin`` is matched by an ``xfer_end``.
    ``stale-bound``
        ``stale_launch`` records appear only under the ``stale_sync``
        design, at most once per component, and always with
        ``0 < missing <= k`` for the policy's staleness bound ``k``
        (``stale=`` overrides the default policy).  Under ``stale_sync``
        the ``dependency-order`` rule relaxes per component to "at most
        the recorded missing count of predecessors may solve late";
        components with no stale record stay strict.
    ``validate-order``
        ``replay`` records require exactly one ``validate`` record, no
        replay precedes it, and the validate record's replayed count
        matches the number of replay records.
    ``replay-closure``
        The replayed set is closed under DAG out-edges: repairing a
        component invalidates every successor's gathered sum, so each
        successor of a replayed component must itself be replayed.
    """
    from repro.engine.protocol import (
        TRACE_REPLAY,
        TRACE_STALE_LAUNCH,
        TRACE_VALIDATE,
        resolve_stale_policy,
    )
    from repro.engine.protocol import fallback_legal
    from repro.solvers.des_solver import MESSAGES_IN_FLIGHT_PER_LINK

    design = Design(design)
    if design is Design.STALE_SYNC:
        stale = resolve_stale_policy(design, stale)
    rep = CausalityReport(subject=f"des-trace[{design.value}]")
    n = dag.n
    rep.n_components = n
    gpu_of = dist.gpu_of
    topo = machine.topology

    # Fault-aware replay: a ``remap`` record moves a component's
    # placement mid-run (GPU failure recovery), and a fail-stopped GPU
    # legitimately dies holding warp slots it can never release.
    remap_to: dict[int, int] = {}
    for r in trace.of_kind("remap"):
        remap_to[int(r.detail[0])] = int(r.gpu)
    dead_gpus = {int(r.detail) for r in trace.of_kind("gpu_fail")}

    # ------------------------------------------------ stale bound
    stale_missing: dict[int, int] = {}
    for r in trace.of_kind(TRACE_STALE_LAUNCH):
        i, missing = int(r.detail[0]), int(r.detail[1])
        if design is not Design.STALE_SYNC:
            rep.flag(
                "stale-bound",
                f"stale_launch record for component {i} under strict "
                f"design {design.value}",
            )
            continue
        if i in stale_missing:
            rep.flag(
                "stale-bound",
                f"component {i} has multiple stale_launch records",
            )
            continue
        if missing < 1 or missing > stale.k:
            rep.flag(
                "stale-bound",
                f"component {i} launched with {missing} missing "
                f"contribution(s), outside (0, k={stale.k}]",
            )
        stale_missing[i] = missing
        rep.n_checks += 1

    # ------------------------------------------------ solve coverage
    solve_t = np.full(n, np.nan)
    seen = np.zeros(n, dtype=np.int64)
    for r in trace.of_kind("solve"):
        i = int(r.detail)
        if not 0 <= i < n:
            rep.flag("solve-coverage", f"solve record for unknown component {i}")
            continue
        seen[i] += 1
        solve_t[i] = r.time
        expected_gpu = remap_to.get(i, int(gpu_of[i]))
        if r.gpu != expected_gpu:
            rep.flag(
                "solve-coverage",
                f"component {i} solved on GPU {r.gpu}, "
                f"expected GPU {expected_gpu}",
            )
    for i in np.flatnonzero(seen != 1)[:MAX_VIOLATIONS]:
        rep.flag(
            "solve-coverage",
            f"component {int(i)} has {int(seen[i])} solve records (want 1)",
        )
    rep.n_checks += n

    # ------------------------------------------------ dependency order
    in_ptr, in_idx = dag.in_ptr, dag.in_idx
    if not np.any(seen != 1):
        preds = in_idx
        comps = np.repeat(np.arange(n), np.diff(in_ptr))
        late = solve_t[comps] <= solve_t[preds]
        is_stale = np.zeros(n, dtype=bool)
        allowed = np.zeros(n, dtype=np.int64)
        for i, m in stale_missing.items():
            is_stale[i] = True
            allowed[i] = m
        strict_late = late & ~is_stale[comps]
        for e in np.flatnonzero(strict_late)[:MAX_VIOLATIONS]:
            u, v = int(preds[e]), int(comps[e])
            rep.flag(
                "dependency-order",
                f"component {v} solved at {solve_t[v]:.3e} but its "
                f"predecessor {u} only at {solve_t[u]:.3e}",
            )
        if stale_missing:
            # A stale launch may run ahead of at most the number of
            # contributions it recorded as missing — no more.
            late_counts = np.bincount(comps[late], minlength=n)
            over = np.flatnonzero(is_stale & (late_counts > allowed))
            for i in over[:MAX_VIOLATIONS]:
                rep.flag(
                    "dependency-order",
                    f"component {int(i)} solved before "
                    f"{int(late_counts[i])} predecessor(s) but recorded "
                    f"only {int(allowed[i])} missing at stale launch",
                )
        rep.n_checks += int(len(preds))

    # ------------------------------------------------ warp-slot occupancy
    slot_events: dict[int, list[tuple[float, int, int]]] = defaultdict(list)
    for r in trace.of_kind("dispatch"):
        slot_events[r.gpu].append((r.time, +1, int(r.detail)))
    for r in trace.of_kind("release"):
        slot_events[r.gpu].append((r.time, -1, int(r.detail)))
    cap = machine.gpu.warp_slots
    for g, events in sorted(slot_events.items()):
        # Releases sort before dispatches at equal timestamps: the
        # simulator may record a woken acquirer before another
        # same-instant release it does not depend on, but the slot pool
        # itself never exceeds capacity — the sweep must use the
        # retire-then-reacquire convention to match.
        events.sort(key=lambda e: (e[0], e[1]))
        occ = 0
        dispatched: list[int] = []
        for t, delta, i in events:
            occ += delta
            if occ > cap:
                rep.flag(
                    "slot-occupancy",
                    f"GPU {g} holds {occ} warp slots at t={t:.3e} "
                    f"(capacity {cap})",
                )
            if occ < 0:
                rep.flag(
                    "slot-occupancy",
                    f"GPU {g} released more slots than it acquired "
                    f"at t={t:.3e} (component {i})",
                )
            if delta > 0:
                dispatched.append(i)
        if occ != 0 and g not in dead_gpus:
            rep.flag(
                "slot-occupancy",
                f"GPU {g} ends with {occ} unreleased warp slot(s)",
            )
        # Remapped components re-dispatch at their respawn time, out of
        # band with the setup-time FIFO; the FIFO rule binds the rest.
        native = [i for i in dispatched if i not in remap_to]
        if any(a >= b for a, b in zip(native, native[1:])):
            rep.flag(
                "dispatch-order",
                f"GPU {g} dispatched components out of ascending order",
            )
        rep.n_checks += len(events)

    # ------------------------------------------------ link transfers
    budget: dict[tuple[int, int], int] = {}
    xfer_events: list[tuple[float, int, tuple[int, int]]] = []
    for r in trace.records:
        if r.kind not in ("xfer_begin", "xfer_end"):
            continue
        src_pe, dst_pe, comp = r.detail
        key = (int(src_pe), int(dst_pe))
        if r.kind == "xfer_begin":
            if key[0] == key[1]:
                rep.flag(
                    "link-topology",
                    f"transfer to self on PE {key[0]} (component {comp})",
                )
                continue
            ga = machine.active_gpus[key[0]]
            gb = machine.active_gpus[key[1]]
            # Shared protocol rule: a fallback-tier hop is legal only
            # when the design may ride the fallback transport (one-sided
            # NVSHMEM needs ``shmem_over_fallback`` — the IB RDMA path).
            reachable = topo.connected(ga, gb) or fallback_legal(design, topo)
            if not reachable:
                rep.flag(
                    "link-topology",
                    f"transfer PE {key[0]} (GPU {ga}) -> PE {key[1]} "
                    f"(GPU {gb}) has no usable path under {design.value} "
                    f"on {topo.name}",
                )
            if key not in budget:
                n_links = int(topo.link_count[ga, gb])
                budget[key] = max(n_links, 1) * MESSAGES_IN_FLIGHT_PER_LINK
            xfer_events.append((r.time, +1, key))
        else:
            xfer_events.append((r.time, -1, key))
        rep.n_checks += 1
    # Ends sort before begins at equal timestamps (retire-then-reacquire,
    # as for warp slots above).
    xfer_events.sort(key=lambda e: (e[0], e[1]))
    inflight: Counter = Counter()
    for t, delta, key in xfer_events:
        inflight[key] += delta
        if delta > 0 and inflight[key] > budget.get(key, 0):
            rep.flag(
                "link-occupancy",
                f"{inflight[key]} messages in flight on PE pair "
                f"{key[0]}->{key[1]} at t={t:.3e} "
                f"(budget {budget.get(key, 0)})",
            )
        elif inflight[key] < 0:
            rep.flag(
                "link-occupancy",
                f"xfer_end without matching begin on PE pair "
                f"{key[0]}->{key[1]} at t={t:.3e}",
            )
    for key, cnt in inflight.items():
        if cnt > 0:
            rep.flag(
                "link-occupancy",
                f"{cnt} transfer(s) on PE pair {key[0]}->{key[1]} "
                "never completed",
            )

    # ------------------------------------------------ validation pass
    validates = list(trace.of_kind(TRACE_VALIDATE))
    replays = list(trace.of_kind(TRACE_REPLAY))
    if len(validates) > 1:
        rep.flag(
            "validate-order",
            f"{len(validates)} validate records (want at most 1)",
        )
    if replays and not validates:
        rep.flag(
            "validate-order",
            f"{len(replays)} replay record(s) with no validate record",
        )
    if validates:
        v = validates[0]
        n_replayed = int(v.detail[1])
        if n_replayed != len(replays):
            rep.flag(
                "validate-order",
                f"validate record claims {n_replayed} replay(s) but "
                f"{len(replays)} replay records follow",
            )
        for r in replays:
            if r.time < v.time:
                rep.flag(
                    "validate-order",
                    f"component {int(r.detail)} replayed at "
                    f"{r.time:.3e}, before validation at {v.time:.3e}",
                )
        rep.n_checks += 1 + len(replays)

    replayed = {int(r.detail) for r in replays}
    for i in sorted(replayed):
        for j in dag.successors(i):
            if int(j) not in replayed:
                rep.flag(
                    "replay-closure",
                    f"component {i} was replayed but its successor "
                    f"{int(j)} was not — its gathered sum is stale",
                )
        rep.n_checks += 1
    return rep


def check_des_execution(
    execution,
    lower: CscMatrix,
    dist: Distribution,
    machine: MachineConfig,
    design: Design | str = Design.SHMEM_READONLY,
    *,
    stale=None,
) -> CausalityReport:
    """Convenience wrapper: audit a :class:`DesExecution`'s trace."""
    dag = get_artefacts(lower).dag
    return check_des_trace(
        execution.trace, dag, dist, machine, design, stale=stale
    )


# ======================================================================
# Fast-model schedule audit
# ======================================================================
def validate_captured_schedule(
    schedule: dict,
    *,
    subject: str = "timeline-schedule",
) -> CausalityReport:
    """Audit a schedule captured via ``simulate_execution(schedule_out=...)``.

    The capture is self-contained (finish/dispatch/ready arrays plus the
    DAG in-edge structure, placement, and warp-slot capacity), so this is
    a pure-array replay with no access to the scheduler internals:

    ``ready-reconstruction``
        ``ready[i]`` equals the max over in-edges of
        ``finish[pred] + in_notify[edge]`` — bit-exact, since max is
        order-independent.
    ``finish-reconstruction``
        ``finish[i] == (max(dispatch[i], ready[i]) + comm[i]) + solve[i]``
        in the reference loop's exact IEEE operation order.
    ``dispatch-floor``
        No component dispatches before its task's kernel-launch time.
    ``slot-occupancy``
        Sweeping ``[dispatch, finish)`` intervals per GPU (release
        before acquire on ties), occupancy never exceeds ``warp_slots``.
    """
    finish = np.asarray(schedule["finish"])
    dispatch = np.asarray(schedule["dispatch"])
    ready = np.asarray(schedule["ready"])
    comm = np.asarray(schedule["comm"])
    solve = np.asarray(schedule["solve"])
    not_before = np.asarray(schedule["comp_not_before"])
    in_notify = np.asarray(schedule["in_notify"])
    in_ptr = np.asarray(schedule["in_ptr"])
    in_idx = np.asarray(schedule["in_idx"])
    gpu_of = np.asarray(schedule["gpu_of"])
    cap = int(schedule["warp_slots"])
    n = len(finish)

    rep = CausalityReport(subject=subject, n_components=n)

    # ---------------------------------------------- ready reconstruction
    counts = np.diff(in_ptr)
    expected_ready = np.zeros(n)
    if len(in_idx):
        vals = finish[in_idx] + in_notify
        nonempty = np.flatnonzero(counts > 0)
        expected_ready[nonempty] = np.maximum.reduceat(
            vals, in_ptr[nonempty]
        )
    bad = np.flatnonzero(ready != expected_ready)
    for i in bad[:MAX_VIOLATIONS]:
        rep.flag(
            "ready-reconstruction",
            f"component {int(i)}: ready {ready[i]!r} != max over "
            f"predecessors {expected_ready[i]!r}",
        )
    rep.n_checks += n

    # ---------------------------------------------- finish reconstruction
    start = np.maximum(dispatch, ready)
    expected_finish = (start + comm) + solve
    bad = np.flatnonzero(finish != expected_finish)
    for i in bad[:MAX_VIOLATIONS]:
        rep.flag(
            "finish-reconstruction",
            f"component {int(i)}: finish {finish[i]!r} != "
            f"start+comm+solve {expected_finish[i]!r}",
        )
    rep.n_checks += n

    # ---------------------------------------------- dispatch floor
    bad = np.flatnonzero(dispatch < not_before)
    for i in bad[:MAX_VIOLATIONS]:
        rep.flag(
            "dispatch-floor",
            f"component {int(i)} dispatched at {dispatch[i]!r} before "
            f"its kernel launch at {not_before[i]!r}",
        )
    rep.n_checks += n

    # ---------------------------------------------- warp-slot occupancy
    for g in range(int(gpu_of.max(initial=-1)) + 1):
        mine = np.flatnonzero(gpu_of == g)
        if not len(mine):
            continue
        # +1 at dispatch, -1 at finish; on ties the release sorts first
        # (a slot retired at t is immediately reusable at t).
        times = np.concatenate([dispatch[mine], finish[mine]])
        deltas = np.concatenate(
            [np.ones(len(mine), np.int64), -np.ones(len(mine), np.int64)]
        )
        order = np.lexsort((deltas, times))
        occ = np.cumsum(deltas[order])
        peak = int(occ.max(initial=0))
        if peak > cap:
            t_at = times[order][int(np.argmax(occ))]
            rep.flag(
                "slot-occupancy",
                f"GPU {g} holds {peak} warp slots at t={t_at:.3e} "
                f"(capacity {cap})",
            )
        rep.n_checks += len(mine)
    return rep


def check_timeline_schedule(
    lower: CscMatrix,
    dist: Distribution,
    machine: MachineConfig,
    design: Design | str = Design.SHMEM_READONLY,
    *,
    scheduler: str = "routed",
) -> CausalityReport:
    """Price an execution, capture its schedule, and audit it.

    Also cross-checks the captured schedule against the returned
    :class:`~repro.exec_model.timeline.ExecutionReport` aggregates
    (``gpu-finish-aggregate``, ``solve-time-bound``).
    """
    from repro.exec_model.timeline import simulate_execution

    captured: dict = {}
    report = simulate_execution(
        lower, dist, machine, design,
        scheduler=scheduler, schedule_out=captured,
    )
    rep = validate_captured_schedule(
        captured,
        subject=f"timeline[{Design(design).value}/{scheduler}]",
    )
    finish = np.asarray(captured["finish"])
    gpu_of = np.asarray(captured["gpu_of"])
    for g in range(machine.n_gpus):
        mine = np.flatnonzero(gpu_of == g)
        local_max = float(finish[mine].max()) if len(mine) else 0.0
        if report.gpu_finish[g] != local_max:
            rep.flag(
                "gpu-finish-aggregate",
                f"GPU {g}: report gpu_finish {report.gpu_finish[g]!r} != "
                f"max component finish {local_max!r}",
            )
        rep.n_checks += 1
    if report.solve_time < float(finish.max(initial=0.0)):
        rep.flag(
            "solve-time-bound",
            f"solve_time {report.solve_time!r} below last component "
            f"finish {float(finish.max())!r}",
        )
    rep.n_checks += 1
    return rep
