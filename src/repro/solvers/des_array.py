"""Array-based DES fast path: the event-granular playout without generators.

This module is the *compiling interpreter* of the shared execution
protocol in :mod:`repro.engine.protocol`: :func:`compile_program`
compiles the protocol's lifecycle tables, token layout, and timing
rules into flat integer/float arrays once per structure, and
:func:`execute_array` drains them with a branchy hot loop once per
right-hand side — the same components, notifiers, warp slots, link
channels, and unified-memory page table as the reference engine
(:func:`repro.solvers.des_solver.des_execute`, which *walks* the same
tables with generator objects), as a flat state machine instead of one
Python generator per process:

* **compile once, drain per solve** — an :class:`ArrayProgram` holds
  everything that depends only on the structure, placement, machine and
  design (index and ownership lists, per-warp and per-edge cost tables,
  link-bank rows, the sorted dispatch-front calendar seed, and each
  edge's fan-out delay); a drain builds only what depends on ``b`` and
  on the run itself.  A :class:`~repro.runtime.session.SolverSession`
  keeps one program across its solves;
* **exact-time event calendar** — pending events live in FIFO buckets
  keyed by timestamp (the inline form of
  :class:`repro.engine.calendar.CalendarQueue`'s ``"fifo"`` mode): a
  dict maps each distinct time to a list of integer tokens and a small
  heap orders the distinct times.  The initial dispatch front (one
  spawn per component, launch times known upfront) is bucketed with one
  vectorised stable argsort at compile time, and every zero-delay event
  — waiter hand-overs, readiness wakes, notifier spawns — is a plain
  ``list.append`` into the bucket being drained;
* **warp-batch state machines** — events are integer tokens, classed by
  range so the hottest kinds decode cheapest: ``-1 - e`` is edge ``e``'s
  *update* delivery, ``(i << 3) | state`` a component step,
  ``n*8 + e`` a local edge's start hop, and ``n*8 + nnz + (e << 2 |
  state)`` a cross-GPU transfer step.  All per-warp and per-edge costs
  (gather, solve, update chains, notify latencies, link rows, wire
  times) are precomputed and indexed straight off the token, so one
  engine tick is an integer compare plus a handful of float adds;
* **pooled resources** — every warp-slot pool and link channel is a row
  in one :class:`~repro.engine.resources.ResourceBank`; the hot loop
  hoists the bank's parallel lists into locals and runs the
  grant/hand-over protocol inline.

Bit-equality contract
---------------------
The array engine must be *indistinguishable* from the reference engine:
identical trace streams (``dispatch``/``solve``/``release``/``fault``/
``xfer_begin``/``xfer_end`` records, bit-equal times, same order),
identical solution vectors, identical total time, page-fault and event
counts.  Two invariants carry the proof:

1. *FIFO-bucket order is ``(time, seq)`` order.*  The reference engine
   breaks timestamp ties with a monotone sequence number assigned at
   schedule time, and every schedule lands at ``time >= now``.  A token
   appended to a bucket therefore always carries a larger sequence
   number than every token already in it — insertion order within an
   exact timestamp reproduces the reference heap's pop order without
   materialising sequence numbers.
2. *Identical IEEE-754 operation chains.*  Every event time and value
   is produced by the same sequence of binary64 operations the
   reference generators execute (NumPy float64 and Python floats share
   binary64 semantics), so times collide exactly where the reference
   ties and differ exactly where it doesn't.  Compiling a fan-out's
   delays ahead of the solve keeps the chain: the same sequential
   ``uc += inc; delay = uc + notify`` adds, only run earlier.

``tests/test_des_array.py`` enforces the contract over every workload
generator; the causality checker replays the traces against machine
physics.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from repro.engine.protocol import (
    ACT_CORRUPT,
    ACT_DELAY,
    ACT_EXHAUSTED,
    ACT_STARVE,
    COMP_ACQUIRE,
    COMP_DEAD,
    COMP_DISPATCH,
    COMP_GATHER,
    COMP_POST,
    COMP_RELEASE,
    COMP_SHIFT,
    COMP_SOLVE,
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
    TRACE_XFER_BEGIN,
    TRACE_XFER_END,
    XFER_CLAIM,
    XFER_RETIRE,
    XFER_SHIFT,
    TokenLayout,
    coerce_design,
    delivery_action,
    design_hooks,
    edge_cost_tables,
    exhausted_delivery,
    failure_victims,
    frontier_diagnostics,
    gather_cost_table,
    launch_times,
    link_capacity,
    remap_plan,
    solve_cost_table,
    validate_diagonals,
    validate_fabric_reach,
    wake_threshold,
    wire_time,
)
from repro.engine.resources import ResourceBank
from repro.engine.trace import Trace
from repro.errors import DeadlockError, SimulationError, SolverError
from repro.exec_model.artefacts import get_artefacts
from repro.exec_model.costmodel import CommCosts, Design
from repro.machine.node import MachineConfig
from repro.machine.unified import UnifiedMemory
from repro.resilience.faults import flip_mantissa_bit
from repro.sparse.csc import CscMatrix
from repro.tasks.schedule import Distribution

__all__ = [
    "ArrayProgram",
    "compile_program",
    "execute_array",
    "ARRAY_MIN_COMPONENTS",
]

#: Below this size ``engine="auto"`` keeps the reference engine: the
#: vectorised precompute passes cost more than the generator overhead
#: they remove.
ARRAY_MIN_COMPONENTS = 64


@dataclass(frozen=True, eq=False)
class ArrayProgram:
    """The solve-invariant half of an array-engine run.

    Everything here depends only on the structure, placement, machine
    and design, never on ``b``: :func:`compile_program` builds it once,
    and every :func:`execute_array` drain reads it without writing.
    The lists are shared across drains, so a drain that must rewrite
    routing (a fail-stop remap) copies them first.

    Per-edge lists are aligned with ``lower.indices``; the diagonal
    slots carry unused values.  ``e_delay``/``rel`` (each edge's
    fan-out delay, each component's release offset) are ``None`` under
    a page-table design, whose update costs depend on the run.
    """

    lower: CscMatrix
    dist: Distribution
    machine: MachineConfig
    design: Design
    costs: CommCosts
    unified: bool
    layout: TokenLayout
    # Per component.
    indptr_l: list
    g_l: list
    in_degree_l: list
    in_counts_l: list
    gather_l: list
    solve_l: list
    rel: list | None
    # Per edge.
    idx_l: list
    col_l: list
    srcg_l: list
    dstg_l: list
    inc_l: list | None
    dl_l: list | None
    e_delay: list | None
    spawn_code_l: list
    elink_l: list
    ewire_l: list
    col_of: np.ndarray
    notify_l: list
    # Pooled resources: warp-slot rows first (rid == PE rank), then one
    # link row per directed PE pair that carries at least one edge.
    bank_rows: tuple
    pair_rid: np.ndarray
    pair_wire: np.ndarray
    # The dispatch front: distinct spawn times (ascending, so already a
    # valid heap) and each time's tokens in spawn order.
    seed_times: list
    seed_codes: list

    def compiled_for(self, lower, dist, machine, design) -> bool:
        """Whether this program was compiled for exactly this system."""
        return (
            self.lower is lower
            and self.dist is dist
            and self.machine is machine
            and self.design is coerce_design(design)
        )


def _fanout_delays(cols, indptr_l, inc_l, dl_l, e_delay, rel) -> None:
    """Accumulate the update fan-out of each column in ``cols``.

    A producer pays its dependants' update costs one after another, so
    edge ``e`` is delivered ``uc + notify`` after the solve, where ``uc``
    sums the increments up to and including ``e`` (in edge order), and
    the component releases its warp slot once the whole chain is paid.
    Writes ``e_delay`` per edge and ``rel`` per column with the exact
    binary64 chain the reference engine's producer runs at solve time.
    """
    for i in cols:
        uc = 0.0
        for e in range(indptr_l[i] + 1, indptr_l[i + 1]):
            uc += inc_l[e]
            e_delay[e] = uc + dl_l[e]
        rel[i] = uc


def compile_program(
    lower: CscMatrix,
    dist: Distribution,
    machine: MachineConfig,
    design: Design | str,
) -> ArrayProgram:
    """Compile one system's solve-invariant tables for the array engine.

    The DAG and the design's cost table come from the matrix's artefact
    bundle (:func:`~repro.exec_model.artefacts.get_artefacts`).

    Raises the same typed errors as :func:`~repro.solvers.des_solver.des_execute`
    for a system no engine can play out (unreachable rank pair, wrong
    distribution size, missing diagonal).
    """
    from repro.solvers.des_solver import MESSAGES_IN_FLIGHT_PER_LINK

    design = coerce_design(design)
    validate_fabric_reach(machine, design)
    n = lower.shape[0]
    if dist.n != n:
        raise SolverError("distribution does not match the matrix")
    art = get_artefacts(lower)
    dag = art.dag
    costs = art.comm_costs(machine, design)
    n_gpus = machine.n_gpus
    gpu_spec = machine.gpu
    unified = design_hooks(design).page_table
    topo = machine.topology
    phys = machine.active_gpus

    indptr = lower.indptr
    gpu_of = dist.gpu_of
    in_counts = np.diff(dag.in_ptr)
    col_nnz = np.diff(indptr)
    nnz = int(indptr[-1])

    # The reference engine discovers a missing diagonal when the solve
    # front reaches the column; with the whole structure in hand the
    # array engine can reject it upfront (identical error either way).
    validate_diagonals(indptr, lower.indices, n)

    indptr_l = indptr.tolist()

    # Per-entry edge tables, aligned with ``indices``/``data``.
    col_of = np.repeat(np.arange(n, dtype=np.int64), col_nnz)
    src_g_e = gpu_of[col_of]
    dst_g_e = gpu_of[lower.indices]
    local_e = src_g_e == dst_g_e
    if not unified:
        inc_e, dl_e = edge_cost_tables(costs, src_g_e, dst_g_e, local_e)
        inc_l = inc_e.tolist()
        dl_l = dl_e.tolist()
        e_delay = [0.0] * nnz
        rel = [0.0] * n
        _fanout_delays(range(n), indptr_l, inc_l, dl_l, e_delay, rel)
    else:
        inc_l = dl_l = e_delay = rel = None

    # One notifier per matrix entry.  Its spawn token encodes the edge's
    # class — local hop or cross-GPU transfer — so a component's whole
    # update fan-out is ingested with a single slice-extend.
    layout = TokenLayout.for_system(n, nnz)

    bank_rows = [(f"gpu{g}.warps", gpu_spec.warp_slots) for g in range(n_gpus)]
    pair_rid = np.full(n_gpus * n_gpus, -1, dtype=np.int64)
    pair_wire = np.zeros(n_gpus * n_gpus)
    cross_pairs = np.unique(src_g_e[~local_e] * n_gpus + dst_g_e[~local_e])
    for p in cross_pairs.tolist():
        src_pe, dst_pe = p // n_gpus, p % n_gpus
        ga, gb = int(phys[src_pe]), int(phys[dst_pe])
        capacity = link_capacity(topo, ga, gb, MESSAGES_IN_FLIGHT_PER_LINK)
        pair_rid[p] = len(bank_rows)
        bank_rows.append((f"link{src_pe}->{dst_pe}", capacity))
        pair_wire[p] = wire_time(topo, ga, gb)
    pair_e = src_g_e * n_gpus + dst_g_e

    # The initial dispatch front, bucketed by launch time.
    launch = launch_times(dist.n_tasks, gpu_spec.t_kernel_launch)
    spawn_times = launch[dist.task_of()]
    order = np.argsort(spawn_times, kind="stable")
    # State COMP_ACQUIRE (= 0): the shift alone encodes the token.
    codes_sorted = (order.astype(np.int64) << COMP_SHIFT).tolist()
    uniq, starts = np.unique(spawn_times[order], return_index=True)
    bounds = starts.tolist()
    bounds.append(n)

    return ArrayProgram(
        lower=lower,
        dist=dist,
        machine=machine,
        design=design,
        costs=costs,
        unified=unified,
        layout=layout,
        indptr_l=indptr_l,
        g_l=gpu_of.tolist(),
        in_degree_l=dag.in_degree.tolist(),
        in_counts_l=in_counts.tolist(),
        gather_l=gather_cost_table(costs.gather, in_counts).tolist(),
        solve_l=solve_cost_table(
            gpu_spec.t_per_nnz, col_nnz, in_counts
        ).tolist(),
        rel=rel,
        idx_l=lower.indices.tolist(),
        col_l=col_of.tolist(),
        srcg_l=src_g_e.tolist(),
        dstg_l=dst_g_e.tolist(),
        inc_l=inc_l,
        dl_l=dl_l,
        e_delay=e_delay,
        spawn_code_l=layout.spawn_codes(local_e).tolist(),
        elink_l=np.where(local_e, -1, pair_rid[pair_e]).tolist(),
        ewire_l=np.where(local_e, 0.0, pair_wire[pair_e]).tolist(),
        col_of=col_of,
        notify_l=costs.notify.tolist(),
        bank_rows=tuple(bank_rows),
        pair_rid=pair_rid,
        pair_wire=pair_wire,
        seed_times=uniq.tolist(),
        seed_codes=[
            codes_sorted[bounds[j] : bounds[j + 1]]
            for j in range(len(starts))
        ],
    )


def execute_array(
    program: ArrayProgram,
    b: np.ndarray,
    *,
    trace_enabled: bool = True,
    max_events: int = 50_000_000,
    injector=None,
    recovery=None,
    watchdog=None,
    stale=None,
) -> tuple[np.ndarray, float, Trace, int, int]:
    """Drain one event-granular SpTRSV of a compiled program.

    Returns ``(x, total_time, trace, page_faults, events)`` — the exact
    fields of :class:`~repro.solvers.des_solver.DesExecution`, produced
    bit-identically to the reference engine.

    ``injector``/``recovery``/``watchdog`` mirror the reference engine's
    resilience hooks (see :func:`repro.solvers.des_solver.des_execute`);
    with a null/absent plan every instrumented branch is dead and the
    playout is bit-identical to the un-instrumented engine.
    """
    from repro.solvers.des_solver import MESSAGES_IN_FLIGHT_PER_LINK

    lower = program.lower
    machine = program.machine
    costs = program.costs
    n, nnz = program.layout.n, program.layout.nnz
    n_gpus = machine.n_gpus
    gpu_spec = machine.gpu
    unified = program.unified
    # Stale-sync: the ready park releases once at most ``wake_at``
    # contributions are missing (0 = fully synchronous); the caller
    # (``des_execute``) owns the post-hoc validation pass.
    wake_at = wake_threshold(stale)
    topo = machine.topology
    phys = machine.active_gpus

    faulty = injector is not None and injector.active
    link_faulty = faulty and injector.has_link_faults
    delivery_faulty = faulty and injector.has_delivery_faults
    straggler_faulty = faulty and injector.has_stragglers
    failure_mode = faulty and injector.has_gpu_failures

    # ----------------------------------------------------------------
    # Compiled tables, hoisted into locals for the hot loop.
    # ----------------------------------------------------------------
    indptr_l = program.indptr_l
    idx_l = program.idx_l
    col_l = program.col_l
    g_l = program.g_l
    in_counts_l = program.in_counts_l
    gather_l = program.gather_l
    solve_l = program.solve_l
    rel = program.rel
    srcg_l = program.srcg_l
    dstg_l = program.dstg_l
    inc_l = program.inc_l
    dl_l = program.dl_l
    spawn_code_l = program.spawn_code_l
    elink_l = program.elink_l
    ewire_l = program.ewire_l
    notify_l = program.notify_l
    pair_rid = program.pair_rid
    pair_wire = program.pair_wire
    col_of = program.col_of
    update_local = costs.update_local
    # The protocol's TokenLayout fixes the token ranges; its bases are
    # hoisted into locals for the hot loop (the literal shift/mask
    # constants below are the compiled form of COMP_SHIFT=3 /
    # XFER_SHIFT=2, pinned by tests/test_protocol_parity).
    n8 = program.layout.local_base
    m8 = program.layout.xfer_base
    f8 = program.layout.failure_base

    # Per-solve values: a delivery's contribution is computed when it
    # lands, ``data[e] * x[col[e]]``, from the solved ``x``.
    data_l = lower.data.tolist()
    b_l = np.asarray(b, dtype=np.float64).tolist()
    remaining = program.in_degree_l.copy()
    # Page-table designs pay run-dependent update costs, so their
    # fan-out delays are written at solve time.
    e_delay = [0.0] * nnz if unified else program.e_delay

    # Resilience state.  ``e_attempt`` counts delivery attempts per edge
    # (the injector's fate tables and the retry backoff are keyed on it);
    # ``done_l`` marks solved components (a GPU failure only cancels
    # unsolved ones); ``gpu_np`` is a mutable ownership mirror (remap
    # must never touch the caller's Distribution).  Failure tokens are
    # ``f8 + k`` for the k-th entry of ``injector.gpu_failures``.
    e_attempt = [0] * nnz if (delivery_faulty or link_faulty) else None
    done_l = [False] * n
    dead: set = set()
    gpu_np = program.dist.gpu_of
    fail_gpu = []
    if failure_mode:
        fail_gpu = [g for _t, g in injector.gpu_failures]
        gpu_np = gpu_np.copy()
        if recovery is not None and recovery.remap_on_failure:
            # Copy-on-write: a remap rewrites ownership, routing and
            # fan-out delays mid-run, so this drain works on private
            # copies and the program stays valid for the next solve.
            g_l = g_l.copy()
            srcg_l = srcg_l.copy()
            dstg_l = dstg_l.copy()
            spawn_code_l = spawn_code_l.copy()
            elink_l = elink_l.copy()
            ewire_l = ewire_l.copy()
            pair_rid = pair_rid.copy()
            pair_wire = pair_wire.copy()
            if not unified:
                inc_l = inc_l.copy()
                dl_l = dl_l.copy()
                e_delay = e_delay.copy()
                rel = rel.copy()

    bank = ResourceBank()
    for name, capacity in program.bank_rows:
        bank.add(name, capacity)

    um: UnifiedMemory | None = None
    s_left = s_indeg = None
    um_access = None
    phys_l = None
    if unified:
        um = UnifiedMemory(machine.um, machine.topology)
        s_left = um.malloc_managed("s.left_sum", n)
        s_indeg = um.malloc_managed("s.in_degree", n, dtype=np.int64)
        um_access = um.access
        phys_l = [int(p) for p in phys]

    # ----------------------------------------------------------------
    # Inline FIFO calendar, seeded with the compiled dispatch front.
    # ----------------------------------------------------------------
    theap = program.seed_times.copy()
    buckets = dict(zip(theap, map(list.copy, program.seed_codes)))
    if failure_mode:
        # Failure tokens join the calendar *after* the dispatch front but
        # before any runtime append, matching the reference engine's
        # spawn order (components first, then failure processes) so
        # timestamp ties resolve identically.
        for k, (t_fail, _g) in enumerate(injector.gpu_failures):
            tf = float(t_fail)
            bl = buckets.get(tf)
            if bl is None:
                buckets[tf] = [f8 + k]
                heappush(theap, tf)
            else:
                bl.append(f8 + k)

    # ----------------------------------------------------------------
    # Flat process state.
    # ----------------------------------------------------------------
    parked_ready = [False] * n
    x_l = [0.0] * n
    left_sum = [0.0] * n

    trace = Trace(enabled=trace_enabled)
    emit = trace.append if trace_enabled else None
    c_dispatch = c_solve = c_release = c_fault = c_xb = c_xe = 0
    c_inject = c_retry = c_recov = c_lost = c_gfail = c_remap = 0
    c_stale = 0

    nevents = 0
    now = 0.0
    t_disp = gpu_spec.t_warp_dispatch

    # Hot-loop locals: the resource bank's parallel lists are hoisted so
    # grant/hand-over run as plain list ops (stats included, matching
    # ResourceBank.try_acquire/release).
    r_cap = bank.capacity
    r_used = bank.in_use
    r_tot = bank.total_acquisitions
    r_peak = bank.peak_in_use
    r_q = bank._queues
    bget = buckets.get

    # The playout only appends into long-lived lists; cyclic-GC passes
    # over the calendar buckets are pure overhead, so the collector is
    # paused for the drain (restored even when the run raises).
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        while theap:
            t = heappop(theap)
            if nevents >= max_events and t > now:
                raise SimulationError(
                    f"event budget {max_events} exhausted (livelock?)"
                )
            if watchdog is not None and t > now:
                watchdog.check(t)
            now = t
            cur = buckets.pop(t)
            # Appends during iteration are visited: a list iterator
            # re-checks the length every step, so same-time events
            # pushed while draining still run within this bucket.
            for code in cur:
                if code < 0:
                    # -------------------- update delivery (hottest)
                    e = -1 - code
                    contrib = data_l[e] * x_l[col_l[e]]
                    if delivery_faulty:
                        att = e_attempt[e]
                        fate = injector.delivery_fate(e, att)
                        if fate is not None:
                            # The protocol's decision tree resolves the
                            # fate; this block only carries out the
                            # verdict with token bookkeeping.
                            verdict, arg = delivery_action(
                                fate, att, recovery
                            )
                            if emit is not None:
                                emit((
                                    now, TRACE_INJECT, dstg_l[e],
                                    (fate[0], e, att),
                                ))
                            else:
                                c_inject += 1
                            if verdict == ACT_DELAY:
                                e_attempt[e] = att + 1
                                t2 = now + arg
                                if t2 > now:
                                    b2 = bget(t2)
                                    if b2 is None:
                                        buckets[t2] = [code]
                                        heappush(theap, t2)
                                    else:
                                        b2.append(code)
                                else:
                                    cur.append(code)
                                continue
                            if verdict == ACT_CORRUPT:
                                # No checksum: flipped value lands below.
                                contrib = flip_mantissa_bit(contrib, arg)
                                e_attempt[e] = att + 1
                            elif verdict == ACT_STARVE:
                                if emit is not None:
                                    emit((
                                        now, TRACE_MSG_LOST, dstg_l[e],
                                        (e, idx_l[e]),
                                    ))
                                else:
                                    c_lost += 1
                                continue
                            elif verdict == ACT_EXHAUSTED:
                                raise exhausted_delivery(
                                    e, idx_l[e], att + 1
                                )
                            else:  # ACT_RETRY
                                if emit is not None:
                                    emit((
                                        now, TRACE_RETRY, srcg_l[e],
                                        (e, att, arg),
                                    ))
                                else:
                                    c_retry += 1
                                e_attempt[e] = att + 1
                                # Re-send: the spawn-class token re-pays
                                # the link + wire (cross) or the local
                                # hop, exactly like the reference
                                # notifier's outer loop.
                                ncode = spawn_code_l[e]
                                t2 = now + arg
                                if t2 > now:
                                    b2 = bget(t2)
                                    if b2 is None:
                                        buckets[t2] = [ncode]
                                        heappush(theap, t2)
                                    else:
                                        b2.append(ncode)
                                else:
                                    cur.append(ncode)
                                continue
                        elif att:
                            if emit is not None:
                                emit(
                                    (now, TRACE_RECOVERED, dstg_l[e], (e, att))
                                )
                            else:
                                c_recov += 1
                    dst = idx_l[e]
                    left_sum[dst] += contrib
                    rem = remaining[dst] - 1
                    remaining[dst] = rem
                    # The countdown crosses the wake threshold (0, or
                    # ``stale.k`` under stale-sync) exactly once.
                    if rem == wake_at and parked_ready[dst]:
                        parked_ready[dst] = False
                        # Resume the parked component at COMP_GATHER.
                        cur.append((dst << 3) | COMP_GATHER)
                    continue
                if code >= n8:
                    if code < m8:
                        # ---------------- local edge: one delay hop
                        e = code - n8
                        t2 = now + e_delay[e]
                        ncode = -1 - e
                        if t2 > now:
                            b2 = bget(t2)
                            if b2 is None:
                                buckets[t2] = [ncode]
                                heappush(theap, t2)
                            else:
                                b2.append(ncode)
                        else:
                            cur.append(ncode)
                        continue
                    if code >= f8:
                        # ------------------------ GPU fail-stop event
                        g = fail_gpu[code - f8]
                        dead.add(g)
                        if emit is not None:
                            emit((now, TRACE_GPU_FAIL, g, g))
                        else:
                            c_gfail += 1
                        victims = failure_victims(g_l, done_l, g, n)
                        # Wake-and-kill everything parked, in the
                        # reference engine's order: ready-channel waiters
                        # (ascending victim), then the warp-slot queue
                        # (FIFO).  Each wake is one tombstone event.
                        for i in victims:
                            if parked_ready[i]:
                                parked_ready[i] = False
                                cur.append((i << 3) | COMP_DEAD)
                        q = r_q[g]
                        while q:
                            cur.append((q.popleft() & -8) | COMP_DEAD)
                        if not victims:
                            continue
                        # Cancel pending component steps in place: the
                        # tombstone keeps the original (time, seq) slot,
                        # so the stale wake costs one event at the same
                        # timestamp as the reference generator's exit.
                        vic = set(victims)
                        for blist in buckets.values():
                            for j, c0 in enumerate(blist):
                                if 0 <= c0 < n8 and (c0 >> 3) in vic:
                                    blist[j] = (c0 & -8) | COMP_DEAD
                        for j, c0 in enumerate(cur):
                            if 0 <= c0 < n8 and (c0 >> 3) in vic:
                                cur[j] = (c0 & -8) | COMP_DEAD
                        if recovery is not None and recovery.remap_on_failure:
                            plan = remap_plan(
                                gpu_np, victims, g, n_gpus, dead,
                                recovery, gpu_spec.t_kernel_launch,
                            )
                            for i, ng, relaunch in plan:
                                g_l[i] = ng
                                gpu_np[i] = ng
                                if emit is not None:
                                    emit((now, TRACE_REMAP, ng, (i, g)))
                                else:
                                    c_remap += 1
                                t2 = now + relaunch
                                ncode = i << 3  # fresh COMP_ACQUIRE
                                if t2 > now:
                                    b2 = bget(t2)
                                    if b2 is None:
                                        buckets[t2] = [ncode]
                                        heappush(theap, t2)
                                    else:
                                        b2.append(ncode)
                                else:
                                    cur.append(ncode)
                            # Refresh per-edge routing for every edge
                            # whose source has not solved yet (its
                            # fan-out has not spawned, so the reference
                            # engine will read the remapped ownership).
                            # In-flight edges keep their frozen tables —
                            # matching the reference notifier's
                            # spawn-time endpoint capture.
                            done_np = np.fromiter(
                                done_l, dtype=bool, count=n
                            )
                            upd = np.nonzero(~done_np[col_of])[0]
                            if len(upd):
                                se = gpu_np[col_of[upd]]
                                de = gpu_np[lower.indices[upd]]
                                loc = se == de
                                new_pairs = np.unique(
                                    se[~loc] * n_gpus + de[~loc]
                                )
                                for p in new_pairs.tolist():
                                    if pair_rid[p] < 0:
                                        sp, dp = p // n_gpus, p % n_gpus
                                        ga = int(phys[sp])
                                        gb = int(phys[dp])
                                        cap = link_capacity(
                                            topo, ga, gb,
                                            MESSAGES_IN_FLIGHT_PER_LINK,
                                        )
                                        pair_rid[p] = bank.add(
                                            f"link{sp}->{dp}", cap
                                        )
                                        pair_wire[p] = wire_time(topo, ga, gb)
                                eu = upd.tolist()
                                se_t = se.tolist()
                                de_t = de.tolist()
                                loc_t = loc.tolist()
                                for jj, ee in enumerate(eu):
                                    sg = se_t[jj]
                                    dg = de_t[jj]
                                    srcg_l[ee] = sg
                                    dstg_l[ee] = dg
                                    if loc_t[jj]:
                                        elink_l[ee] = -1
                                        ewire_l[ee] = 0.0
                                        spawn_code_l[ee] = n8 + ee
                                        if inc_l is not None:
                                            inc_l[ee] = update_local
                                            dl_l[ee] = 0.0
                                    else:
                                        pp = sg * n_gpus + dg
                                        elink_l[ee] = int(pair_rid[pp])
                                        ewire_l[ee] = float(pair_wire[pp])
                                        spawn_code_l[ee] = m8 + (ee << 2)
                                        if inc_l is not None:
                                            inc_l[ee] = float(
                                                costs.update_remote[sg, dg]
                                            )
                                            dl_l[ee] = notify_l[sg][dg]
                                if not unified:
                                    _fanout_delays(
                                        np.nonzero(~done_np)[0].tolist(),
                                        indptr_l, inc_l, dl_l, e_delay, rel,
                                    )
                        continue
                    # -------------------- cross-GPU transfer steps
                    c = code - m8
                    st = c & 3
                    e = c >> 2
                    if st == XFER_RETIRE:
                        if emit is not None:
                            emit((
                                now, TRACE_XFER_END, srcg_l[e],
                                (srcg_l[e], dstg_l[e], idx_l[e]),
                            ))
                        else:
                            c_xe += 1
                        link = elink_l[e]
                        q = r_q[link]
                        if q:
                            r_tot[link] += 1
                            cur.append(q.popleft())
                        else:
                            r_used[link] -= 1
                        t2 = now + e_delay[e]
                        ncode = -1 - e
                        if t2 > now:
                            b2 = bget(t2)
                            if b2 is None:
                                buckets[t2] = [ncode]
                                heappush(theap, t2)
                            else:
                                b2.append(ncode)
                        else:
                            cur.append(ncode)
                        continue
                    if st == XFER_CLAIM:
                        link = elink_l[e]
                        q = r_q[link]
                        if q or r_used[link] >= r_cap[link]:
                            q.append(code + 1)  # park; resume at WIRE
                            continue
                        u = r_used[link] + 1
                        r_used[link] = u
                        r_tot[link] += 1
                        if u > r_peak[link]:
                            r_peak[link] = u
                    # XFER_WIRE (granted inline above, or woken parked)
                    if emit is not None:
                        emit((
                            now, TRACE_XFER_BEGIN, srcg_l[e],
                            (srcg_l[e], dstg_l[e], idx_l[e]),
                        ))
                    else:
                        c_xb += 1
                    wire = ewire_l[e]
                    if link_faulty:
                        wire, wtag = injector.wire_time(
                            srcg_l[e], dstg_l[e], now, wire
                        )
                        if wtag is not None:
                            if emit is not None:
                                emit((
                                    now, TRACE_INJECT, srcg_l[e],
                                    (wtag, e, e_attempt[e]),
                                ))
                            else:
                                c_inject += 1
                    t2 = now + wire
                    ncode = code - st + XFER_RETIRE
                    if t2 > now:
                        b2 = bget(t2)
                        if b2 is None:
                            buckets[t2] = [ncode]
                            heappush(theap, t2)
                        else:
                            b2.append(ncode)
                    else:
                        cur.append(ncode)
                    continue

                # ---------------------------------------- component
                i = code >> 3
                st = code & 7
                if st == COMP_GATHER:
                    if remaining[i] > wake_at:
                        # Unsatisfied dependencies at the post-dispatch
                        # check: park on the readiness flag; the closing
                        # update delivery re-schedules this same state.
                        parked_ready[i] = True
                        continue
                    if wake_at and remaining[i] > 0:
                        # Bounded-stale launch: ``remaining`` re-read at
                        # the GATHER event (same (time, seq) slot as the
                        # reference engine's post-wake re-read), so the
                        # recorded missing count is bit-identical.
                        if emit is not None:
                            emit((
                                now, TRACE_STALE_LAUNCH, g_l[i],
                                (i, remaining[i]),
                            ))
                        else:
                            c_stale += 1
                    gather = gather_l[i]
                    if unified and in_counts_l[i]:
                        cost, _ = um_access(
                            phys_l[g_l[i]], s_indeg, i, sharers=n_gpus
                        )
                        gather += cost
                    if gather > 0.0:
                        t2 = now + gather
                        ncode = (code & -8) | COMP_SOLVE
                        if t2 > now:
                            b2 = bget(t2)
                            if b2 is None:
                                buckets[t2] = [ncode]
                                heappush(theap, t2)
                            else:
                                b2.append(ncode)
                        else:
                            cur.append(ncode)
                        continue
                    st = COMP_SOLVE  # zero gather: solve in this event
                if st == COMP_SOLVE:
                    s_cost = solve_l[i]
                    if straggler_faulty:
                        s_cost = injector.solve_scale(g_l[i], now, s_cost)
                    t2 = now + s_cost
                    ncode = (code & -8) | COMP_POST
                    if t2 > now:
                        b2 = bget(t2)
                        if b2 is None:
                            buckets[t2] = [ncode]
                            heappush(theap, t2)
                        else:
                            b2.append(ncode)
                    else:
                        cur.append(ncode)
                    continue
                if st == COMP_POST:
                    lo = indptr_l[i]
                    hi = indptr_l[i + 1]
                    x_l[i] = (b_l[i] - left_sum[i]) / data_l[lo]
                    done_l[i] = True
                    g = g_l[i]
                    if emit is not None:
                        emit((now, TRACE_SOLVE, g, i))
                    else:
                        c_solve += 1
                    if watchdog is not None:
                        watchdog.progress(now, i)
                    if not unified:
                        # Compiled fan-out: the delays are structural.
                        uc = rel[i]
                    else:
                        uc = 0.0
                        for e in range(lo + 1, hi):
                            dg = dstg_l[e]
                            if dg == g:
                                uc += update_local
                                e_delay[e] = uc
                            else:
                                cost, faulted = um_access(
                                    phys_l[g], s_left, idx_l[e],
                                    sharers=n_gpus,
                                )
                                uc += cost
                                if faulted:
                                    if emit is not None:
                                        emit((now, TRACE_FAULT, g, idx_l[e]))
                                    else:
                                        c_fault += 1
                                e_delay[e] = uc + notify_l[g][dg]
                    if hi > lo + 1:
                        # Spawn the whole fan-out at once: the start
                        # hops all land at ``now`` in edge order (the
                        # reference spawns them in the same order
                        # within this same event).
                        cur.extend(spawn_code_l[lo + 1 : hi])
                    if uc > 0.0:
                        t2 = now + uc
                        ncode = (code & -8) | COMP_RELEASE
                        if t2 > now:
                            b2 = bget(t2)
                            if b2 is None:
                                buckets[t2] = [ncode]
                                heappush(theap, t2)
                            else:
                                b2.append(ncode)
                        else:
                            cur.append(ncode)
                        continue
                    st = COMP_RELEASE  # zero update cost: retire now
                if st == COMP_RELEASE:
                    g = g_l[i]
                    if emit is not None:
                        emit((now, TRACE_RELEASE, g, i))
                    else:
                        c_release += 1
                    q = r_q[g]
                    if q:
                        r_tot[g] += 1
                        cur.append(q.popleft())
                    else:
                        r_used[g] -= 1
                    continue
                if st == COMP_DEAD:
                    # Tombstone: a cancelled step burning its one event.
                    continue
                # COMP_ACQUIRE / COMP_DISPATCH
                g = g_l[i]
                if st == COMP_ACQUIRE:
                    q = r_q[g]
                    if q or r_used[g] >= r_cap[g]:
                        q.append(code | COMP_DISPATCH)  # park; grant later
                        continue
                    u = r_used[g] + 1
                    r_used[g] = u
                    r_tot[g] += 1
                    if u > r_peak[g]:
                        r_peak[g] = u
                if emit is not None:
                    emit((now, TRACE_DISPATCH, g, i))
                else:
                    c_dispatch += 1
                t2 = now + t_disp
                ncode = (code & -8) | COMP_GATHER
                if t2 > now:
                    b2 = bget(t2)
                    if b2 is None:
                        buckets[t2] = [ncode]
                        heappush(theap, t2)
                    else:
                        b2.append(ncode)
                else:
                    cur.append(ncode)
            nevents += len(cur)
    finally:
        if gc_was_enabled:
            gc.enable()

    if any(remaining):
        stuck: dict = {
            repr(("ready", i)): 1 for i in range(n) if parked_ready[i]
        }
        for rid, q in enumerate(r_q):
            if q:
                stuck[bank.names[rid]] = len(q)
        if stuck:
            diagnostics = {
                "now": now,
                "events_processed": nevents,
                "unsatisfied": sum(1 for r in remaining if r),
            }
            diagnostics.update(
                frontier_diagnostics(
                    [i for i in range(n) if parked_ready[i]], gpu_np
                )
            )
            raise DeadlockError(
                f"deadlock: {sum(stuck.values())} waiters with empty "
                f"event calendar; waiters per channel: {stuck}",
                blocked=stuck,
                diagnostics=diagnostics,
            )
        raise SolverError("DES run finished with unsatisfied dependencies")
    if emit is None:
        trace.bulk_count(TRACE_DISPATCH, c_dispatch)
        trace.bulk_count(TRACE_SOLVE, c_solve)
        trace.bulk_count(TRACE_RELEASE, c_release)
        trace.bulk_count(TRACE_FAULT, c_fault)
        trace.bulk_count(TRACE_XFER_BEGIN, c_xb)
        trace.bulk_count(TRACE_XFER_END, c_xe)
        trace.bulk_count(TRACE_INJECT, c_inject)
        trace.bulk_count(TRACE_RETRY, c_retry)
        trace.bulk_count(TRACE_RECOVERED, c_recov)
        trace.bulk_count(TRACE_MSG_LOST, c_lost)
        trace.bulk_count(TRACE_GPU_FAIL, c_gfail)
        trace.bulk_count(TRACE_REMAP, c_remap)
        trace.bulk_count(TRACE_STALE_LAUNCH, c_stale)

    x = np.asarray(x_l, dtype=np.float64)
    return (
        x,
        now,
        trace,
        um.fault_count if um is not None else 0,
        nevents,
    )
