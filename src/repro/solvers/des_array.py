"""Array-based DES engine: the event-granular playout without generators.

This module compiles the shared execution protocol of
:mod:`repro.engine.protocol`: :func:`compile_program` turns its state
constants, token layout and timing rules into flat integer/float arrays
once per structure, and :func:`execute_array` drains them with a branchy
hot loop — the same components, notifiers,
warp slots, link channels, and unified-memory page table as the
reference engine (:func:`repro.solvers.des_solver.des_execute` with
``engine="reference"``, which plays the same state machine with
generator objects), as a flat state machine instead of one Python
generator per process:

* **compile once, drain per solve** — an :class:`ArrayProgram` holds
  everything that depends only on the structure, placement, machine and
  design (index and ownership lists, per-warp and per-edge cost tables,
  resource rows, the sorted dispatch-front calendar seed, and each
  edge's fan-out delay); a drain builds only what depends on the run
  itself;
* **exact-time event calendar** — pending events live in FIFO buckets
  keyed by timestamp, inlined into the hot loop's locals: a dict maps
  each distinct time to a list of integer tokens and a small heap
  orders the distinct times; a drain pops the earliest bucket
  front-to-back, then advances to the next time.  A bucket needs no
  intra-bucket ordering (invariant 1 below).  The initial dispatch
  front (one spawn per component, launch times known upfront) is
  bucketed with one vectorised stable argsort at compile time, and
  every zero-delay event — waiter hand-overs, readiness wakes, notifier
  spawns — is a plain ``list.append`` into the bucket being drained;
* **warp-batch state machines** — events are integer tokens, classed by
  range so the hottest kinds decode cheapest: ``-1 - e`` is edge ``e``'s
  *update* delivery, ``(i << 3) | state`` a component step,
  ``n*8 + e`` a local edge's start hop, and ``n*8 + nnz + (e << 2 |
  state)`` a cross-GPU transfer step.  All per-warp and per-edge costs
  (gather, solve, update chains, notify latencies, link rows, wire
  times) are precomputed and indexed straight off the token, so one
  engine tick is an integer compare plus a handful of float adds;
* **pooled resources** — every warp-slot pool and link channel is one
  row of four flat lists (name, capacity, in-use count, FIFO waiter
  queue) built per drain from the program's ``bank_rows``; the hot loop
  runs :class:`~repro.engine.resources.Resource`'s grant/hand-over rule
  inline on them;
* **a value-free drain, one numeric path** — no event depends on ``b``
  or on a matrix value, so a drain reads neither: it writes the order of
  the arithmetic down in a :class:`DrainRecord` (a delivery adds
  ``data[e] * x[col[e]]`` into its destination's partial sum, a solve
  sets ``x[i] = (b[i] - left_sum[i]) / diag``), and :func:`replay_array`
  is the one place an array-engine ``x`` is computed, for any ``b``,
  from the record and the matrix alone, with those binary64 operations
  in that order per component (``tests/test_session_replay.py``).  A
  replay reads no program table, so a session keeps only the record of
  its first solve and replays every later solve.

Bit-equality contract
---------------------
The array engine must be *indistinguishable* from the reference engine:
identical trace streams (``dispatch``/``solve``/``release``/``fault``/
``xfer_begin``/``xfer_end`` records, bit-equal times, same order),
identical solution vectors, identical total time, page-fault and event
counts.  Two invariants carry the proof:

1. *FIFO-bucket order is ``(time, seq)`` order.*  The reference engine
   breaks timestamp ties with a monotone sequence number assigned at
   schedule (push) time (the :class:`~repro.engine.des.Simulator`
   heap orders by ``(time, seq)``), and every push lands at
   ``time >= now`` — delays are non-negative.  A token appended to a
   bucket therefore always carries a larger sequence
   number than every token already in it: insertion order within an
   exact timestamp *is* the reference heap's pop order, so the calendar
   never materialises a sequence number or an entry tuple.
2. *Identical IEEE-754 operation chains.*  Every event time is
   produced by the same sequence of binary64 operations the reference
   generators execute (NumPy float64 and Python floats share binary64
   semantics), so times collide exactly where the reference ties and
   differ exactly where it doesn't; the replay runs each component's
   value chain in the order the drain recorded, which is the
   reference's delivery order.  Compiling a fan-out's
   delays ahead of the solve keeps the chain: the same sequential
   ``uc += inc; delay = uc + notify`` adds per column, only run
   earlier (and for many columns at once).  Sharing one boxed object
   between equal table entries changes no value: entries share an
   object only when their float64 bit patterns are equal.

``tests/test_des_array.py`` enforces the contract over every workload
generator; the causality checker replays the traces against machine
physics.
"""

from __future__ import annotations

import gc
from array import array
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import NamedTuple

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
    XFER_WIRE,
    TokenLayout,
    coerce_design,
    deadlock_error,
    delivery_action,
    edge_cost_tables,
    exhausted_delivery,
    failure_victims,
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
from repro.engine.trace import Trace
from repro.errors import SimulationError, SolverError
from repro.exec_model.artefacts import get_artefacts
from repro.exec_model.costmodel import CommCosts, Design
from repro.machine.node import MachineConfig
from repro.machine.unified import UnifiedMemory
from repro.resilience.faults import flip_mantissa_bit
from repro.sparse.coo import sorted_unique
from repro.sparse.csc import CscMatrix
from repro.tasks.schedule import Distribution

__all__ = [
    "ArrayProgram",
    "DrainRecord",
    "check_record_order",
    "compile_program",
    "execute_array",
    "replay_array",
]


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

    Entries of equal value share one boxed Python object: the float
    tables hold one object per distinct value, and ``idx_l`` holds the
    int objects of one ``range(n)`` pool.  No table holds a matrix
    value: a drain reads none.  The per-edge update
    increments and notify delays the fan-out is built from are not
    kept; a remap derives them for the edges it rewrites.
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
    srcg_l: list
    dstg_l: list
    e_delay: list | None
    spawn_code_l: list
    elink_l: list
    ewire_l: list
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


@dataclass(eq=False)
class DrainRecord:
    """One drain's arithmetic, and the observables no value changes.

    :func:`execute_array` fills and returns one per drain.  ``ops``
    lists the arithmetic in event order: ``e`` for "add edge ``e``'s
    contribution to its destination's partial sum" and ``-1 - i`` for
    "solve component ``i``".  ``flips`` holds ``(position, bit)`` for
    each add whose contribution lands bit-flipped (a corrupted delivery
    with no checksum).  ``total_time``, ``page_faults``, ``events`` and
    the drain's own ``trace`` are the run's observables, all taken
    before any stale-sync validation pass; a replay hands out a copy of
    the trace, never the record's.

    None of this depends on ``b`` or on the matrix values, so
    :func:`replay_array` turns the record into the solution for any
    ``b``, and for any matrix with the drained one's pattern.  The
    first replay builds the record's plan (:func:`_replay_plan`, indices
    only) and keeps it in ``plan``; the first replay of each matrix
    object gathers its values in plan order, 8 bytes per kept add and
    per row, and keeps them in ``fill`` as ``(matrix, values)``
    (:func:`_replay_values`).  Neither reads the :class:`ArrayProgram`
    that drained, so a :class:`~repro.runtime.session.SolverSession`
    keeps the record and never the program.
    """

    ops: array = field(default_factory=lambda: array("q"))
    flips: list = field(default_factory=list)
    total_time: float = 0.0
    page_faults: int = 0
    events: int = 0
    trace: Trace | None = None
    plan: tuple | None = None
    fill: tuple | None = None


#: Once fewer columns than this are still long enough, the fan-out pass
#: finishes them one edge at a time: a numpy step per position would
#: cost more than the scalar chain it advances.
_FANOUT_SCALAR_TAIL = 32


def _fanout_delays(
    indptr: np.ndarray, cols: np.ndarray, inc: np.ndarray, dl: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate the update fan-out of each column in ``cols``.

    A producer pays its dependants' update costs one after another, so
    edge ``e`` is delivered ``uc + dl[e]`` after the solve, where ``uc``
    sums ``inc`` up to and including ``e`` (in edge order), and the
    component releases its warp slot once the whole chain is paid.
    Returns ``(delay, rel)``: each edge's delay (an ``nnz`` array, zero
    outside ``cols``' off-diagonal edges) and each listed column's
    release offset, aligned with ``cols``.

    The pass runs by position within a column.  With the columns sorted
    longest first, the columns still long enough at position ``p`` are
    a prefix, and one numpy add advances all their chains.  Each column
    keeps its own sequential binary64 chain ``uc += inc; delay = uc +
    dl``, the one the reference engine's producer runs at solve time,
    so the result is bit-identical to a scalar loop by construction.
    """
    first = indptr[cols] + 1
    lens = indptr[cols + 1] - first
    order = np.argsort(-lens, kind="stable")
    first = first[order]
    lens = lens[order]
    uc = np.zeros(len(cols))
    delay = np.zeros(len(inc))
    # Columns still long enough at each position: a prefix of ``order``.
    max_len = int(lens[0]) if len(lens) else 0
    active = np.searchsorted(-lens, -np.arange(max_len), side="left")
    p = m = 0
    for p, m in enumerate(active.tolist()):
        if m < _FANOUT_SCALAR_TAIL:
            break
        e = first[:m] + p
        chain = uc[:m]
        chain += inc[e]
        delay[e] = chain + dl[e]
    else:
        m = 0
    # The few longest columns finish their chains one edge at a time.
    for j in range(m):
        lo, hi = int(first[j]) + p, int(first[j] + lens[j])
        u = float(uc[j])
        tail = []
        for a, d in zip(inc[lo:hi].tolist(), dl[lo:hi].tolist()):
            u += a
            tail.append(u + d)
        delay[lo:hi] = tail
        uc[j] = u
    rel = np.empty(len(cols))
    rel[order] = uc
    return delay, rel


#: Multiplier of the Fibonacci hash that groups float64 bit patterns.
_HASH_MUL = np.uint64(0x9E3779B97F4A7C15)


def _interned(values: np.ndarray) -> list:
    """``values.tolist()`` with one boxed float per distinct value.

    Program tables hold few distinct floats over many entries (a fan-out
    delay repeats across most edges), and ``tolist()`` boxes every entry
    afresh.  Entries are grouped by a hash of their float64 bit pattern
    and each group shares the object of one of its entries; an entry
    whose bits differ from that entry's (a hash collision) keeps its
    own.  The
    list is therefore bit-identical to ``values.tolist()``, ``-0.0`` and
    ``0.0`` included, without a sort.
    """
    if not len(values):
        return []
    bits = values.view(np.uint64)
    k = min(max(len(values).bit_length(), 4), 16)
    slot = ((bits * _HASH_MUL) >> np.uint64(64 - k)).astype(np.intp)
    owner = np.full(1 << k, -1, dtype=np.intp)
    owner[slot] = np.arange(len(values))
    used = np.flatnonzero(owner >= 0)
    pool = np.empty(1 << k, dtype=object)
    pool[used] = values[owner[used]].astype(object)
    out = pool[slot]
    miss = np.flatnonzero(bits[owner[slot]] != bits)
    if len(miss):
        out[miss] = values[miss].astype(object)
    return out.tolist()


def _bank_row(name: str, capacity: int) -> tuple[str, int]:
    """One pooled-resource row; rejects a capacity ``Resource`` rejects."""
    if capacity < 1:
        raise SimulationError(f"resource {name!r} needs capacity >= 1")
    return (name, capacity)


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
    unified = design is Design.UNIFIED
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
        delay_e, rel_c = _fanout_delays(indptr, np.arange(n), inc_e, dl_e)
        e_delay = _interned(delay_e)
        rel = _interned(rel_c)
    else:
        e_delay = rel = None

    # One notifier per matrix entry.  Its spawn token encodes the edge's
    # class — local hop or cross-GPU transfer — so a component's whole
    # update fan-out is ingested with a single slice-extend.
    layout = TokenLayout.for_system(n, nnz)

    bank_rows = [
        _bank_row(f"gpu{g}.warps", gpu_spec.warp_slots) for g in range(n_gpus)
    ]
    pair_rid = np.full(n_gpus * n_gpus, -1, dtype=np.int64)
    pair_wire = np.zeros(n_gpus * n_gpus)
    cross_pairs = sorted_unique(
        src_g_e[~local_e] * n_gpus + dst_g_e[~local_e]
    )
    for p in cross_pairs.tolist():
        src_pe, dst_pe = p // n_gpus, p % n_gpus
        ga, gb = int(phys[src_pe]), int(phys[dst_pe])
        capacity = link_capacity(topo, ga, gb, MESSAGES_IN_FLIGHT_PER_LINK)
        pair_rid[p] = len(bank_rows)
        bank_rows.append(_bank_row(f"link{src_pe}->{dst_pe}", capacity))
        pair_wire[p] = wire_time(topo, ga, gb)
    # Equal values share one boxed object: the link and wire lists index
    # pools keyed by PE pair (a last slot for local edges: no link, no
    # wire), the gather list a pool keyed by in-count, and the index
    # list one ``range(n)`` int pool.
    pair_key = np.where(
        local_e, n_gpus * n_gpus, src_g_e * n_gpus + dst_g_e
    )
    gather_pool = gather_cost_table(
        costs.gather, np.arange(int(in_counts.max(initial=0)) + 1)
    ).astype(object)
    ints = np.arange(n).astype(object)

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
        gather_l=gather_pool[in_counts].tolist(),
        solve_l=_interned(
            solve_cost_table(gpu_spec.t_per_nnz, col_nnz, in_counts)
        ),
        rel=rel,
        idx_l=ints[lower.indices].tolist(),
        srcg_l=src_g_e.tolist(),
        dstg_l=dst_g_e.tolist(),
        e_delay=e_delay,
        spawn_code_l=layout.spawn_codes(local_e).tolist(),
        elink_l=np.append(pair_rid, -1).astype(object)[pair_key].tolist(),
        ewire_l=np.append(pair_wire, 0.0).astype(object)[pair_key].tolist(),
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
    *,
    trace_enabled: bool = True,
    max_events: int = 50_000_000,
    injector=None,
    recovery=None,
    watchdog=None,
    stale=None,
) -> DrainRecord:
    """Drain one event-granular SpTRSV of a compiled program.

    The drain is value-free: it reads no right-hand side and no matrix
    value, and returns the filled :class:`DrainRecord` — the order of
    the run's arithmetic plus its ``total_time``, ``trace``,
    ``page_faults`` and ``events``, bit-identical to the reference
    engine's.  :func:`replay_array` computes ``x`` from it (through
    :func:`~repro.solvers.des_solver.des_execute`, which runs both).

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
    g_l = program.g_l
    in_counts_l = program.in_counts_l
    gather_l = program.gather_l
    solve_l = program.solve_l
    rel = program.rel
    srcg_l = program.srcg_l
    dstg_l = program.dstg_l
    spawn_code_l = program.spawn_code_l
    elink_l = program.elink_l
    ewire_l = program.ewire_l
    notify_l = program.notify_l
    pair_rid = program.pair_rid
    pair_wire = program.pair_wire
    update_local = costs.update_local
    # The protocol's TokenLayout fixes the token ranges; its bases are
    # hoisted into locals for the hot loop (the literal shift/mask
    # constants below are the compiled form of COMP_SHIFT=3 /
    # XFER_SHIFT=2, pinned by tests/test_protocol_parity).
    n8 = program.layout.local_base
    m8 = program.layout.xfer_base
    f8 = program.layout.failure_base

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
                e_delay = e_delay.copy()
                rel = rel.copy()

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

    trace = Trace(enabled=trace_enabled)
    emit = trace.append if trace_enabled else None
    record = DrainRecord(trace=trace)
    ops = record.ops
    flips = record.flips
    rec = ops.append
    c_dispatch = c_solve = c_release = c_fault = c_xb = c_xe = 0
    c_inject = c_retry = c_recov = c_lost = c_gfail = c_remap = 0
    c_stale = 0

    nevents = 0
    now = 0.0
    t_disp = gpu_spec.t_warp_dispatch

    # Pooled resources: one row per warp-slot pool and link channel,
    # granted and handed over with plain list ops (Resource's rule).
    r_names = [name for name, _cap in program.bank_rows]
    r_cap = [cap for _name, cap in program.bank_rows]
    r_used = [0] * len(r_cap)
    r_q = [deque() for _ in r_cap]
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
                                # No checksum: the add below lands with
                                # its contribution's bit ``arg`` flipped.
                                flips.append((len(ops), arg))
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
                    rec(e)
                    dst = idx_l[e]
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
                            col_of = np.repeat(
                                np.arange(n), np.diff(lower.indptr)
                            )
                            upd = np.nonzero(~done_np[col_of])[0]
                            if len(upd):
                                se = gpu_np[col_of[upd]]
                                de = gpu_np[lower.indices[upd]]
                                loc = se == de
                                new_pairs = sorted_unique(
                                    se[~loc] * n_gpus + de[~loc]
                                )
                                for p in new_pairs.tolist():
                                    if pair_rid[p] < 0:
                                        sp, dp = p // n_gpus, p % n_gpus
                                        ga = int(phys[sp])
                                        gb = int(phys[dp])
                                        name, cap = _bank_row(
                                            f"link{sp}->{dp}",
                                            link_capacity(
                                                topo, ga, gb,
                                                MESSAGES_IN_FLIGHT_PER_LINK,
                                            ),
                                        )
                                        pair_rid[p] = len(r_cap)
                                        r_names.append(name)
                                        r_cap.append(cap)
                                        r_used.append(0)
                                        r_q.append(deque())
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
                                    else:
                                        pp = sg * n_gpus + dg
                                        elink_l[ee] = int(pair_rid[pp])
                                        ewire_l[ee] = float(pair_wire[pp])
                                        spawn_code_l[ee] = m8 + (ee << 2)
                                if not unified:
                                    # ``upd`` is every edge of every
                                    # unsolved column, so the fan-out of
                                    # those columns is re-derived whole
                                    # from the remapped endpoints.
                                    inc = np.zeros(nnz)
                                    dl = np.zeros(nnz)
                                    inc[upd], dl[upd] = edge_cost_tables(
                                        costs, se, de, loc
                                    )
                                    cols = np.nonzero(~done_np)[0]
                                    delay, rel_c = _fanout_delays(
                                        lower.indptr, cols, inc, dl
                                    )
                                    for ee, v in zip(eu, delay[upd].tolist()):
                                        e_delay[ee] = v
                                    for c, v in zip(
                                        cols.tolist(), rel_c.tolist()
                                    ):
                                        rel[c] = v
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
                            q.append(code - st + XFER_WIRE)  # park
                            continue
                        r_used[link] += 1
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
                    rec(-1 - i)
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
                    r_used[g] += 1
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
        parked = [i for i in range(n) if parked_ready[i]]
        queued = {
            r_names[rid]: len(q) for rid, q in enumerate(r_q) if q
        }
        if parked or queued:
            raise deadlock_error(now, nevents, parked, queued, gpu_np)
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

    record.total_time = now
    record.page_faults = um.fault_count if um is not None else 0
    record.events = nevents
    return record


def _split_record(record: DrainRecord, n: int) -> tuple:
    """A record's ``(solved, solve_pos, add_at, edges)``.

    ``solved`` lists the solved components in order and ``solve_pos[i]``
    is the record position of component ``i``'s solve (``len(ops)`` for
    one never solved); ``add_at`` and ``edges`` are the positions and
    edges of the adds.
    """
    ops = np.frombuffer(record.ops, dtype=np.int64)
    solve_at = np.flatnonzero(ops < 0)
    solved = -1 - ops[solve_at]
    solve_pos = np.full(n, len(ops), dtype=np.int64)
    solve_pos[solved] = solve_at
    add_at = np.flatnonzero(ops >= 0)
    return solved, solve_pos, add_at, ops[add_at]


def check_record_order(record: DrainRecord, lower: CscMatrix, stale) -> None:
    """Check a drain record against the dependency order of ``lower``.

    Every add of edge ``e`` must come after the solve of its source
    column ``col[e]`` and, unless the run was stale-synchronous
    (``stale`` not ``None``), before the solve of its destination
    ``idx[e]``; every component must be solved exactly once.  Raises
    :class:`~repro.errors.SimulationError` naming the first violation.
    """
    n = lower.shape[0]
    solved, solve_pos, add_at, edges = _split_record(record, n)
    times = np.bincount(solved, minlength=n)
    bad = np.flatnonzero(times != 1)
    if len(bad):
        i = int(bad[0])
        raise SimulationError(
            f"drain record solves component {i} {int(times[i])} times"
        )
    src = np.searchsorted(lower.indptr, edges, side="right") - 1
    early = add_at < solve_pos[src]
    if not stale:
        early |= add_at > solve_pos[lower.indices[edges]]
    early |= lower.indptr[src] == edges  # a diagonal entry is no edge
    if early.any():
        k = int(np.argmax(early))
        e = int(edges[k])
        raise SimulationError(
            f"drain record adds edge {e} ({int(src[k])} -> "
            f"{int(lower.indices[e])}) out of dependency order at "
            f"position {int(add_at[k])}"
        )


#: A level of the replay plan with at least one add but fewer than this
#: runs as part of a scalar loop: below it, the handful of numpy calls
#: of a vectorised level cost more than the adds it advances: about
#: 25–50 adds (EXPERIMENTS.md, "Whole-array certify and replay";
#: re-swept for CSR levels in "Replay and certify through sparse
#: matvecs").
_REPLAY_VECTOR_MIN = 32


class _MatvecLevel(NamedTuple):
    """A level replayed as one CSR matvec: plan slots ``lo:hi``."""

    lo: int
    hi: int


class _NarrowRun(NamedTuple):
    """Consecutive narrow levels, plan slots ``lo:hi``, replayed as one
    scalar loop.

    ``xs`` holds the solved slots ``ext`` the run reads and then one
    entry per slot of the run, seeded with its ``b``.  Entry ``k`` of
    ``ops`` with ``c = ops[k] >= 0`` adds ``values[vals[k]] * xs[c]`` to
    the running partial sum; ``c < 0`` solves entry ``~c`` with diagonal
    ``values[vals[k]]`` and starts the next node's sum.  ``flips`` maps
    the ``k`` of each flipped add to its bit.
    """

    lo: int
    hi: int
    ext: np.ndarray
    ops: np.ndarray
    vals: np.ndarray
    flips: dict


class _ReplayPlan(NamedTuple):
    """A record's kept adds as one CSR matrix over solve slots.

    Slot ``k`` is the ``k``-th solved component in (level, index) order,
    ``perm[k]``.  Row ``k`` is its partial-sum chain in record order:
    entries ``indptr[k]:indptr[k + 1]`` of ``cols`` (each add's source
    column, as a slot) and ``edges`` (its matrix entry).  ``steps``
    replays the slots in level order: a :class:`_MatvecLevel` per level
    with no adds or at least :data:`_REPLAY_VECTOR_MIN` of them and no
    flipped add, and a :class:`_NarrowRun` per run of the other levels.
    """

    perm: np.ndarray
    indptr: np.ndarray
    cols: np.ndarray
    edges: np.ndarray
    steps: tuple


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for int keys in ``[0, 2**32)``,
    as stable sorts of 16-bit digits, which numpy radix-sorts: at 400k
    slot keys in record order, 6–15 ms against 40–60 ms for its timsort
    of the int64 keys."""
    if not len(keys) or keys.max() < 1 << 16:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    order = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
    high = (keys[order] >> 16).astype(np.uint16)
    return order[np.argsort(high, kind="stable")]


def _replay_plan(lower: CscMatrix, record: DrainRecord) -> _ReplayPlan:
    """Group a drain record by level and node, in slot space.

    A component's value needs only its own adds in record order (its
    partial-sum chain) and the values of their source columns, which sit
    on lower levels of the DAG, so at lower slots.  Adds that landed
    after their destination's solve (late stale-sync deliveries) no
    longer change ``x`` and are dropped.  A stable sort on the
    destination's slot lays the kept adds out slot-major, so each
    level's adds are one contiguous block of whole chains, and every
    step of the plan is a slot range of its arrays.  Every array is an
    int array: the plan holds no matrix value, so it replays any matrix
    with ``lower``'s pattern.
    """
    n = lower.shape[0]
    solved, solve_pos, add_at, edges = _split_record(record, n)
    dst = lower.indices[edges]
    keep = add_at < solve_pos[dst]
    edges, dst = edges[keep], dst[keep]
    flip = None  # each add's flipped bit, -1 for none
    if record.flips:
        f_at, f_bit = np.array(record.flips, dtype=np.int64).T
        flip = np.full(len(record.ops), -1, dtype=np.int64)
        flip[f_at] = f_bit
        flip = flip[add_at[keep]]
    del solve_pos, add_at, keep

    level_of = get_artefacts(lower).levels.level_of
    n_levels = int(level_of.max(initial=-1)) + 1
    # Solved components by index, then stably by level: slot order.
    is_solved = np.zeros(n, dtype=bool)
    is_solved[solved] = True
    perm = np.flatnonzero(is_solved)
    perm = perm[np.argsort(level_of[perm], kind="stable")]
    cut = np.searchsorted(level_of[perm], np.arange(n_levels + 1))
    slot = np.empty(n, dtype=np.int64)
    slot[perm] = np.arange(len(perm))
    # A stable sort keeps each chain in record order.
    order = _stable_order(slot[dst])
    chain = np.bincount(dst, minlength=n)
    del dst
    edges = edges[order]
    flip_at = np.empty(0, dtype=np.int64)
    if flip is not None:
        flip = flip[order]
        flip_at = np.flatnonzero(flip >= 0)
    del order
    cols = slot[lower.entry_cols()[edges]]
    del slot
    indptr = np.zeros(len(perm) + 1, dtype=np.int64)
    np.cumsum(chain[perm], out=indptr[1:])
    m = len(edges)
    lev_adds = np.diff(indptr[cut])
    wide = (lev_adds >= _REPLAY_VECTOR_MIN) | (lev_adds == 0)
    # A flipped add is replayed in one place, the scalar loop.
    wide[np.searchsorted(indptr[cut], flip_at, side="right") - 1] = False

    # Each wide level is one step, and so is each run of narrow levels:
    # a step starts at level 0 and at every level that is wide or
    # follows a wide one.
    starts = np.ones(n_levels, dtype=bool)
    starts[1:] = wide[1:] | wide[:-1]
    starts = np.flatnonzero(starts)
    bounds = cut[np.append(starts, n_levels)].tolist()
    steps = []
    for n0, n1, is_wide in zip(bounds, bounds[1:], wide[starts].tolist()):
        if is_wide:
            steps.append(_MatvecLevel(n0, n1))
            continue
        a0, a1 = int(indptr[n0]), int(indptr[n1])
        f_at = flip_at
        if len(flip_at):
            f_at = flip_at[slice(*np.searchsorted(flip_at, (a0, a1)))]
        # One entry per add (its source's place in ``xs``) and,
        # after each node's chain, one for its solve (``~place``).
        run_cols = cols[a0:a1]
        inner = run_cols >= n0
        ext, ext_at = np.unique(run_cols[~inner], return_inverse=True)
        src = np.empty(a1 - a0, dtype=np.int64)
        src[~inner] = ext_at
        src[inner] = run_cols[inner] - n0 + len(ext)
        at_solve = indptr[n0 + 1 : n1 + 1] - a0 + np.arange(n1 - n0)
        is_solve = np.zeros(a1 - a0 + n1 - n0, dtype=bool)
        is_solve[at_solve] = True
        run_ops = np.empty(len(is_solve), dtype=np.int64)
        run_ops[is_solve] = ~(len(ext) + np.arange(n1 - n0))
        run_ops[~is_solve] = src
        vals = np.empty(len(is_solve), dtype=np.int64)
        vals[is_solve] = m + np.arange(n0, n1)
        vals[~is_solve] = np.arange(a0, a1)
        flips = {}
        if len(f_at):
            at = np.flatnonzero(~is_solve)[f_at - a0]
            flips = dict(zip(at.tolist(), flip[f_at].tolist()))
        steps.append(_NarrowRun(n0, n1, ext, run_ops, vals, flips))
    return _ReplayPlan(perm, indptr, cols, edges, tuple(steps))


def _replay_values(
    lower: CscMatrix, record: DrainRecord
) -> tuple[_ReplayPlan, np.ndarray]:
    """The record's plan and ``lower``'s values in plan order.

    The values are ``data[edges]`` (one per kept add, in plan order)
    followed by each slot's diagonal ``data[indptr[perm]]``.  The plan
    is built once per record; the values are gathered once per record
    and matrix object and kept in ``record.fill`` beside the matrix they
    came from, so a replay on another matrix of the same pattern
    gathers its own.  A matrix's values are read once (the values
    contract of :class:`~repro.sparse.csc.CscMatrix`).
    """
    plan = record.plan
    if plan is None:
        plan = record.plan = _replay_plan(lower, record)
    fill = record.fill
    if fill is None or fill[0] is not lower:
        m = len(plan.edges)
        values = np.empty(m + len(plan.perm))
        np.take(lower.data, plan.edges, out=values[:m])
        np.take(lower.data, lower.indptr[plan.perm], out=values[m:])
        fill = record.fill = (lower, values)
    return plan, fill[1]


def _csr_matvec(
    indptr: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    x: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``out + M @ x`` into ``out`` (zeros when not given) for the CSR
    matrix ``(vals, cols, indptr)`` with ``len(x)`` columns: scipy's
    compiled ``csr_matvec``, which adds each row's products to
    ``out[k]`` in storage order.  ``indptr`` may be any slice of a
    larger row pointer: it indexes ``cols`` and ``vals`` directly.
    Called directly, not through a ``csr_array``: building one per level
    made a 50k replay 40–70% slower (EXPERIMENTS.md, "Replay and certify
    through sparse matvecs")."""
    from scipy.sparse import _sparsetools

    if out is None:
        out = np.zeros(len(indptr) - 1)
    _sparsetools.csr_matvec(len(out), len(x), indptr, cols, vals, x, out)
    return out


def replay_array(
    lower: CscMatrix, record: DrainRecord, b: np.ndarray
) -> tuple[np.ndarray, float, Trace, int, int]:
    """Compute a recorded drain's solution for a right-hand side ``b``.

    Returns ``(x, total_time, trace, page_faults, events)`` for ``b``
    under the drain that filled ``record``: ``x`` is the one array-engine
    solution (a drain computes none) and the observables are the
    record's (a fresh copy of its :class:`~repro.engine.trace.Trace`
    each call).
    Each component's partial sum runs the drain's chain of binary64 adds
    in the drain's order, then the same subtract and divide.  The replay
    works in slot space (:func:`_replay_plan`): it permutes ``b`` once,
    solves each wide level as one compiled CSR matvec
    (:func:`_csr_matvec`, each row summed from ``0.0`` in chain order)
    written into a contiguous slice of the slot-ordered solution, then one
    subtract and one divide, and each narrow run as one scalar loop; it
    scatters the solution back to component order once.  The matrix
    values come from ``record.fill`` (:func:`_replay_values`), gathered
    on the first replay of each matrix object (the values contract of
    :class:`~repro.sparse.csc.CscMatrix`).  A replay reads ``lower`` and
    the record, never the drain's :class:`ArrayProgram`, and polls no
    watchdog: it has no clock to advance and always finishes.
    """
    plan, values = _replay_values(lower, record)
    indptr, cols = plan.indptr, plan.cols
    m = len(cols)
    vals, dvals = values[:m], values[m:]
    bp = np.asarray(b, dtype=np.float64)[plan.perm]
    # Slots are written level by level; a matvec reads only lower ones.
    xp = np.zeros(len(plan.perm))
    for step in plan.steps:
        lo, hi = step.lo, step.hi
        if type(step) is _MatvecLevel:
            out, r = xp[lo:hi], bp[lo:hi]
            if indptr[lo] != indptr[hi]:
                _csr_matvec(indptr[lo : hi + 1], cols, vals, xp, out)
                r = np.subtract(r, out, out=out)
            np.divide(r, dvals[lo:hi], out=out)
            continue
        ext, ops, flips = step.ext, step.ops, step.flips
        xs = xp[ext].tolist()
        xs += bp[lo:hi].tolist()  # a node's entry holds b until it solves
        s = 0.0
        if not flips:
            for c, d in zip(ops.tolist(), values[step.vals].tolist()):
                if c >= 0:
                    s += d * xs[c]
                else:
                    c = ~c
                    xs[c] = (xs[c] - s) / d
                    s = 0.0
        else:
            for k, (c, d) in enumerate(
                zip(ops.tolist(), values[step.vals].tolist())
            ):
                if c >= 0:
                    v = d * xs[c]
                    if k in flips:
                        v = flip_mantissa_bit(v, flips[k])
                    s += v
                else:
                    c = ~c
                    xs[c] = (xs[c] - s) / d
                    s = 0.0
        xp[lo:hi] = xs[len(ext):]
    x = np.zeros(lower.shape[0])
    x[plan.perm] = xp
    return (
        x,
        record.total_time,
        record.trace.copy(),
        record.page_faults,
        record.events,
    )
