"""Fast dependency-driven timing model (the package's workhorse).

Simulates a multi-GPU sync-free SpTRSV execution in a single ascending
pass over components, combining:

* **warp-slot list scheduling** per GPU (dispatch in index order — the
  hardware scheduler's issue order, which also guarantees deadlock
  freedom under finite occupancy);
* **dependency readiness** with per-edge notify latency from the design's
  :class:`~repro.exec_model.costmodel.CommCosts`;
* **producer-side update costs** (local atomics vs. remote
  faults/round-trips) charged to the producing component;
* a **concurrency-aware unified-memory fault model**: the probability
  that a system-scope update faults depends on how mixed the concurrent
  access stream to its page is.  Accesses are grouped by
  ``(level of the producer, target page)`` — components of one level run
  simultaneously — and each group's interleaving factor
  ``1 - sum_g f_g^2`` gives both the expected fault count (Fig. 3a) and
  the per-update fault probability.  Wide, high-parallelism matrices mix
  accesses from all GPUs and thrash maximally; long thin matrices keep
  pages resident and barely fault — exactly the paper's Fig. 7 spread;
* a **page-serialisation bound**: a page is a serial resource, so the
  makespan can never beat the busiest page's total fault-service time;
* **analysis-phase cost** of the in-degree pre-pass, which for the
  unified design also pays page contention (Algorithm 2 lines 6-9 use
  system-wide atomics on managed memory).

Two interchangeable scheduling passes implement the list scheduling:

* the **reference loop** (``scheduler="reference"``) walks components one
  at a time on plain Python lists and floats, with each GPU's warp-slot
  pool inlined as a ``heapq`` list (the
  :class:`~repro.machine.gpu.WarpScheduler` rule) — O(n log W + nnz)
  with n Python iterations and no numpy call per component.  It is the
  oracle, the only ``sm_granularity`` path, and the bench baseline;
* the **front-routed pass** (``scheduler="routed"``, the default) walks
  the segments of :class:`~repro.analysis.levels.FrontRouting`, built
  once per matrix from the dispatch fronts (maximal index-contiguous
  antichains).  Each wide front is resolved with array operations —
  a segment max over its in-edges, then
  :class:`~repro.machine.gpu.BatchWarpPool` pops and finish times per
  GPU — and the pools stay sorted arrays across consecutive wide
  fronts.  Runs of narrow fronts are cut into chunks; a chunk with
  enough "far" in-edges (predecessor before the chunk start) reduces
  them in one ``np.maximum.reduceat``, and a scalar loop walks the
  remaining in-edges and the slot heaps.  On low-degree graphs the
  reduce would cost what it saves, so there the loop walks every
  in-edge.  The routing is a per-matrix structure decision, not a
  global width threshold, and the report is bit-identical to the
  reference loop's.

Structure products (DAG, level sets, fronts and their routing, edge
arrays, cost tables) come from the shared :mod:`~repro.exec_model.artefacts` cache, so
sweeping designs and machines over one matrix pays the analysis once.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace

import numpy as np

from repro.analysis.levels import SEG_SCALAR, SEG_WIDE, FrontRouting, LevelSets
from repro.errors import ConfigurationError, SolverError
from repro.exec_model.artefacts import PlacementArtefacts, get_artefacts
from repro.exec_model.costmodel import CommCosts, Design
from repro.machine.gpu import BatchWarpPool
from repro.machine.node import MachineConfig
from repro.machine.specs import GpuSpec
from repro.sparse.coo import run_heads
from repro.sparse.csc import CscMatrix
from repro.tasks.schedule import Distribution

__all__ = ["ExecutionReport", "simulate_execution", "analysis_phase_time"]

@dataclass(frozen=True)
class ExecutionReport:
    """Outcome of one simulated SpTRSV execution.

    All times are simulated seconds.  ``total_time`` is what the paper's
    figures report (analysis + solve); the per-GPU breakdowns feed the
    balance studies, and the fault/traffic counters feed Fig. 3.
    """

    design: str
    machine: str
    n_gpus: int
    n_tasks: int
    analysis_time: float
    solve_time: float
    gpu_busy: np.ndarray
    gpu_spin: np.ndarray
    gpu_comm: np.ndarray
    gpu_finish: np.ndarray
    local_updates: int
    remote_updates: int
    page_faults: float
    migrated_bytes: float
    fabric_bytes: float

    @property
    def total_time(self) -> float:
        return self.analysis_time + self.solve_time

    @property
    def imbalance(self) -> float:
        """max/mean of per-GPU busy time (1.0 = perfectly balanced)."""
        m = self.gpu_busy.mean()
        return float(self.gpu_busy.max() / m) if m > 0 else 1.0

    def speedup_over(self, other: "ExecutionReport") -> float:
        """``other.total_time / self.total_time`` (how much faster self is)."""
        if self.total_time <= 0:
            raise SolverError("non-positive total_time in speedup computation")
        return other.total_time / self.total_time


def analysis_phase_time(
    machine: MachineConfig,
    design: Design,
    nnz_per_gpu: np.ndarray,
) -> float:
    """Cost of the in-degree pre-pass (Algorithm 2/3 'Get in.degree').

    Every GPU sweeps its local nonzeros with atomic increments; the GPUs
    run concurrently so the slowest one bounds the phase.  The unified
    design increments *shared managed* counters (system atomics + page
    contention); the NVSHMEM designs increment PE-local symmetric arrays
    (device atomics, zero fabric traffic — Algorithm 3 lines 13-15).
    """
    gpu = machine.gpu
    ilp = float(max(gpu.analysis_parallelism, 1))
    worst_nnz = float(np.max(nnz_per_gpu)) if len(nnz_per_gpu) else 0.0
    if design is Design.UNIFIED:
        n = machine.n_gpus
        um = machine.um
        if n > 1:
            # Interleaved multi-writer stream, batched as in the solve.
            fault_prob = (1.0 - 1.0 / n) * um.fault_batching
            fault_eff = um.fault_cost * (1.0 + um.thrash_coupling * (n - 1))
            per_op = um.atomic_system + fault_prob * fault_eff / ilp
        else:
            per_op = um.atomic_system
        return worst_nnz * per_op / ilp
    return worst_nnz * gpu.t_atomic_device / ilp


@dataclass(frozen=True)
class _UnifiedFaultModel:
    """Per-edge fault probabilities + aggregate counters for UNIFIED."""

    edge_fault_prob: np.ndarray  # over remote edges only
    consumer_fault_prob: np.ndarray  # over all n components (0 if no remote pred)
    total_faults: float
    faults_per_gpu: np.ndarray
    page_serial_bound: float
    migrated_bytes: float


def _unified_fault_model(
    machine: MachineConfig,
    levels: LevelSets,
    gpu_of: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    src_g: np.ndarray,
    remote_edge: np.ndarray,
    has_remote_pred: np.ndarray,
) -> _UnifiedFaultModel:
    """Concurrency-aware page-fault model for the unified design.

    Groups every access to the shared intermediate arrays by
    ``(producer level, target page)``: accesses within a group are
    temporally concurrent, so their interleaving factor
    ``1 - sum_g f_g^2`` estimates the fraction that change page ownership
    (fault).  Narrow levels whose active components live on one GPU keep
    pages resident; wide levels mix all GPUs and thrash.
    """
    um = machine.um
    n_gpus = machine.n_gpus
    epp = um.entries_per_page
    n = len(gpu_of)
    n_pages = (n + epp - 1) // epp
    lvl = levels.level_of

    r_src = src[remote_edge]
    r_dst = dst[remote_edge]
    r_gpu = src_g[remote_edge]
    consumers = np.nonzero(has_remote_pred)[0]

    # Consumer polls run concurrently with their *producers'* level (the
    # spin loop is live while level l-1 executes), so attribute them one
    # level down — that is when they contend with the incoming writes.
    consumer_lvl = np.maximum(lvl[consumers] - 1, 0)
    acc_group = np.concatenate(
        [lvl[r_src] * n_pages + r_dst // epp,
         consumer_lvl * n_pages + consumers // epp]
    )
    acc_gpu = np.concatenate([r_gpu, gpu_of[consumers]])
    # A spinning consumer re-touches its page every poll interval for the
    # whole wait, so it weighs poll_weight producer updates.
    acc_weight = np.concatenate(
        [np.ones(len(r_src)), np.full(len(consumers), um.poll_weight)]
    )
    if len(acc_group) == 0:
        return _UnifiedFaultModel(
            edge_fault_prob=np.zeros(0),
            consumer_fault_prob=np.zeros(n),
            total_faults=0.0,
            faults_per_gpu=np.zeros(n_gpus),
            page_serial_bound=0.0,
            migrated_bytes=0.0,
        )

    # np.bincount adds its weights in input order starting from 0.0, the
    # same sums np.add.at would give.
    gg = acc_group * n_gpus + acc_gpu
    order = np.argsort(gg)
    sorted_gg = gg[order]
    head = run_heads(sorted_gg)
    uniq_gg = sorted_gg[head]
    gg_inv = np.empty(len(gg), dtype=np.int64)
    gg_inv[order] = np.cumsum(head) - 1
    cnt_gg = np.bincount(gg_inv, weights=acc_weight, minlength=len(uniq_gg))
    grp_of_gg = uniq_gg // n_gpus  # sorted, as uniq_gg is
    head = run_heads(grp_of_gg)
    uniq_grp = grp_of_gg[head]
    grp_inv = np.cumsum(head) - 1
    tot = np.bincount(grp_inv, weights=cnt_gg, minlength=len(uniq_grp))
    sumsq = np.bincount(grp_inv, weights=cnt_gg**2, minlength=len(uniq_grp))
    mixing_raw = 1.0 - sumsq / (tot * tot)
    mixing = mixing_raw * um.fault_batching
    faults_per_grp = tot * mixing

    # Group of every access: remote edges first, then consumers.
    acc_grp = grp_inv[gg_inv]
    n_edge = len(r_src)

    # Per remote edge: its group's (batched) mixing = fault probability.
    edge_fault_prob = mixing[acc_grp[:n_edge]]

    # Per consumer: the final successful poll faults with probability
    # ~ the page's raw contention mix (some remote producer wrote last,
    # stealing the page); batching does not apply to this one-shot read.
    consumer_fault_prob = np.zeros(n)
    consumer_fault_prob[consumers] = mixing_raw[acc_grp[n_edge:]]

    # Page-serialisation bound: each page services its faults serially.
    fault_eff = um.fault_cost * (1.0 + um.thrash_coupling * (n_gpus - 1))
    page_of_grp = uniq_grp % n_pages
    page_time = np.bincount(
        page_of_grp, weights=faults_per_grp * fault_eff, minlength=n_pages
    )

    total_faults = 2.0 * float(faults_per_grp.sum())  # twin s-arrays
    # Attribute each group's faults to GPUs proportionally to their share
    # of the group's accesses (who initiated the steal).
    fault_share_gg = mixing[grp_inv] * cnt_gg
    faults_per_gpu = 2.0 * np.bincount(
        (uniq_gg % n_gpus).astype(np.int64),
        weights=fault_share_gg,
        minlength=n_gpus,
    )
    return _UnifiedFaultModel(
        edge_fault_prob=edge_fault_prob,
        consumer_fault_prob=consumer_fault_prob,
        total_faults=total_faults,
        faults_per_gpu=faults_per_gpu,
        page_serial_bound=float(page_time.max(initial=0.0)),
        migrated_bytes=total_faults * um.page_bytes,
    )


def _schedule_reference(
    gpu_spec: GpuSpec,
    n_gpus: int,
    gpu_of: np.ndarray,
    comp_not_before: np.ndarray,
    in_ptr: np.ndarray,
    in_idx: np.ndarray,
    in_notify: np.ndarray,
    gather_cost: np.ndarray,
    update_cost: np.ndarray,
    solve: np.ndarray,
    sm_granularity: bool = False,
) -> tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
    np.ndarray,
]:
    """Per-component list-scheduling loop (the reference semantics).

    Returns ``(finish, dispatch, ready, gpu_busy, gpu_spin, gpu_comm,
    gpu_finish)``; the per-component dispatch/ready times feed the
    causality checker in :mod:`repro.verify.causality`.

    The loop runs on Python lists and floats: binary64 arithmetic is the
    same on Python floats as on numpy float64, and a max over finite
    non-negative values does not depend on order, so every output is
    bit-identical to driving :class:`~repro.machine.gpu.WarpScheduler`
    objects over the arrays.  The flat warp pool is that scheduler's
    slot heap inlined, one list per GPU; ``sm_granularity`` keeps its
    :class:`~repro.machine.sm.SmWarpScheduler` objects.  The per-GPU
    sums are taken after the loop with ``np.bincount``, which adds its
    weights in input order — component order, as a running sum would.
    """
    if sm_granularity:
        from repro.machine.sm import SmWarpScheduler

        sm_pools = [SmWarpScheduler(gpu_spec) for _ in range(n_gpus)]
    heaps: list[list[float]] = [[] for _ in range(n_gpus)]
    warp_slots = gpu_spec.warp_slots
    t_warp = gpu_spec.t_warp_dispatch
    comm = gather_cost + update_cost
    gpu_l = gpu_of.tolist()
    not_before = comp_not_before.tolist()
    ptr = in_ptr.tolist()
    idx = in_idx.tolist()
    notify = in_notify.tolist()
    comm_l = comm.tolist()
    work = solve.tolist()
    n = len(gpu_l)
    finish = [0.0] * n
    dispatch_t = [0.0] * n
    ready_t = [0.0] * n
    lo = ptr[0]
    for i in range(n):
        nb = not_before[i]
        if sm_granularity:
            pool = sm_pools[gpu_l[i]]
            dispatch = pool.dispatch(nb)
        else:
            heap = heaps[gpu_l[i]]
            if len(heap) < warp_slots:
                dispatch = nb + t_warp
            else:
                free = heappop(heap)
                dispatch = (free if free > nb else nb) + t_warp
        hi = ptr[i + 1]
        ready = 0.0
        for k in range(lo, hi):
            r = finish[idx[k]] + notify[k]
            if r > ready:
                ready = r
        lo = hi
        fin = (dispatch if ready <= dispatch else ready) + comm_l[i] + work[i]
        finish[i] = fin
        dispatch_t[i] = dispatch
        ready_t[i] = ready
        if sm_granularity:
            pool.retire(fin)
        else:
            heappush(heap, fin)
    finish_a = np.array(finish)
    dispatch_a = np.array(dispatch_t)
    ready_a = np.array(ready_t)
    spin = np.maximum(ready_a - dispatch_a, 0.0)
    gpu_finish = np.zeros(n_gpus)
    np.maximum.at(gpu_finish, gpu_of, finish_a)
    return (
        finish_a,
        dispatch_a,
        ready_a,
        np.bincount(gpu_of, weights=solve, minlength=n_gpus),
        np.bincount(gpu_of, weights=spin, minlength=n_gpus),
        np.bincount(gpu_of, weights=comm, minlength=n_gpus),
        gpu_finish,
    )


def _schedule_routed(
    gpu_spec: GpuSpec,
    n_gpus: int,
    place: PlacementArtefacts,
    routing: FrontRouting,
    comp_not_before: np.ndarray,
    in_ptr: np.ndarray,
    in_idx: np.ndarray,
    in_notify: np.ndarray,
    gather_cost: np.ndarray,
    update_cost: np.ndarray,
    solve: np.ndarray,
) -> tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
    np.ndarray,
]:
    """Front-routed scheduling pass (the default).

    Walks the segments of :class:`~repro.analysis.levels.FrontRouting`
    in dispatch order.  A wide front is resolved with array operations:
    a segment max over its in-edges for readiness, then one
    :meth:`~repro.machine.gpu.BatchWarpPool.dispatch_batch` per GPU with
    members in it.  A chunk of narrow fronts first reduces its far
    in-edges in one array call (when it has enough of them), then runs
    the reference loop's per-component steps over the remaining in-edges
    and the slot heaps.  Each GPU's pool stays a sorted array across
    consecutive wide fronts and becomes a heap list at a chunk.

    Every float operation replays the reference loop's, and a max over
    finite non-negative values does not depend on order, so the
    returned arrays are bit-identical to :func:`_schedule_reference`.
    """
    n = len(place.gpu_of)
    comm = gather_cost + update_cost
    warp_slots = gpu_spec.warp_slots
    t_warp = gpu_spec.t_warp_dispatch
    # Not-yet-scheduled entries stay -inf, so a chunk's array reduce over
    # all its in-edges yields the max over the far ones alone.
    finish = np.full(n, -np.inf)
    dispatch_t = np.empty(n)
    ready_t = np.empty(n)
    modes = routing.seg_mode.tolist()
    seg_ptr = routing.seg_ptr.tolist()
    red_ptr = routing.red_ptr.tolist()
    red_off, red_comp = routing.red_off, routing.red_comp
    pos_by_gpu, seg_cuts = place.pos_by_gpu, place.seg_cuts
    if any(mode != SEG_WIDE for mode in modes):
        gpu_l = place.gpu_of.tolist()
        not_before = comp_not_before.tolist()
        comm_l = comm.tolist()
        work = solve.tolist()
        loop_ptr = routing.loop_ptr.tolist()
        loop_src = in_idx[routing.loop_pos].tolist()
        loop_notify = in_notify[routing.loop_pos].tolist()
        fin_l = [0.0] * n
    heaps = [[-np.inf] * warp_slots for _ in range(n_gpus)]
    pools: list = [None] * n_gpus
    # finish (array) and fin_l (list) each hold the finish times below
    # their mark; the other form is brought up to date before use.
    arr_upto = list_upto = 0
    for seg, mode in enumerate(modes):
        s, e = seg_ptr[seg], seg_ptr[seg + 1]
        if mode != SEG_SCALAR:
            if arr_upto < s:
                finish[arr_upto:s] = fin_l[arr_upto:s]
            arr_upto = s
            r0, r1 = red_ptr[seg], red_ptr[seg + 1]
            ready = np.zeros(e - s)
            if r1 > r0:
                lo, hi = int(in_ptr[s]), int(in_ptr[e])
                # reduceat is fed only the starts of non-empty segments:
                # consecutive starts then span exactly one segment each.
                vals = finish[in_idx[lo:hi]] + in_notify[lo:hi]
                far = np.maximum.reduceat(vals, red_off[r0:r1])
                ready[red_comp[r0:r1]] = np.maximum(far, 0.0)
        if mode == SEG_WIDE:
            for g in range(n_gpus):
                a, b = seg_cuts[g][seg], seg_cuts[g][seg + 1]
                if b <= a:
                    continue
                pool = pools[g]
                if pool is None:
                    pool = pools[g] = BatchWarpPool(gpu_spec, heaps[g])
                mem = pos_by_gpu[g][a:b]
                dsp, fin = pool.dispatch_batch(
                    comp_not_before[mem], ready[mem - s], comm[mem], solve[mem]
                )
                dispatch_t[mem] = dsp
                finish[mem] = fin
            ready_t[s:e] = ready
            arr_upto = e
            continue
        for g in range(n_gpus):
            if pools[g] is not None:
                heaps[g] = pools[g].heap()
                pools[g] = None
        if list_upto < s:
            fin_l[list_upto:s] = finish[list_upto:s].tolist()
        list_upto = e
        disp_l: list[float] = []
        ready_l: list[float] = []
        push_disp, push_ready = disp_l.append, ready_l.append
        lo = loop_ptr[s]
        for i, rd, g, nb, c, w, hi in zip(
            range(s, e),
            [0.0] * (e - s) if mode == SEG_SCALAR else ready.tolist(),
            gpu_l[s:e],
            not_before[s:e],
            comm_l[s:e],
            work[s:e],
            loop_ptr[s + 1 : e + 1],
        ):
            # A while loop beats building a range for the one or two
            # in-edges most components have here.
            while lo < hi:
                r = fin_l[loop_src[lo]] + loop_notify[lo]
                if r > rd:
                    rd = r
                lo += 1
            # A free slot holds -inf, so it never delays the dispatch.
            heap = heaps[g]
            free = heap[0]
            dsp = (free if free > nb else nb) + t_warp
            fin = (dsp if rd <= dsp else rd) + c + w
            heapreplace(heap, fin)
            fin_l[i] = fin
            push_disp(dsp)
            push_ready(rd)
        dispatch_t[s:e] = disp_l
        ready_t[s:e] = ready_l
    if arr_upto < n:
        finish[arr_upto:] = fin_l[arr_upto:]
    spin = np.maximum(ready_t - dispatch_t, 0.0)
    gpu_finish = np.zeros(n_gpus)
    np.maximum.at(gpu_finish, place.gpu_of, finish)
    return (
        finish,
        dispatch_t,
        ready_t,
        np.bincount(place.gpu_of, weights=solve, minlength=n_gpus),
        np.bincount(place.gpu_of, weights=spin, minlength=n_gpus),
        np.bincount(place.gpu_of, weights=comm, minlength=n_gpus),
        gpu_finish,
    )


def simulate_execution(
    lower: CscMatrix,
    dist: Distribution,
    machine: MachineConfig,
    design: Design | str = Design.SHMEM_READONLY,
    *,
    costs: CommCosts | None = None,
    scheduler: str = "routed",
    sm_granularity: bool = False,
    schedule_out: dict | None = None,
) -> ExecutionReport:
    """Run the fast timing model for one design on one machine.

    Parameters
    ----------
    lower:
        The lower-triangular system (CSC).
    dist:
        Component placement (block or task-model round-robin).
    machine:
        Node configuration.
    design:
        Communication design to price.
    costs:
        The design's communication cost table.  Defaults to the
        bundle's ``comm_costs(machine, design)``; pass one only to price
        a modified design (the ablation knobs of
        :func:`~repro.exec_model.costmodel.build_comm_costs`) or a
        modified machine.  The DAG, level sets, dispatch fronts and
        placement always come from the matrix's artefact bundle
        (:func:`~repro.exec_model.artefacts.get_artefacts`), so repeated
        calls on the same matrix skip the structure analysis.
    scheduler:
        ``"routed"`` (default) runs the front-routed pass, and
        ``"reference"`` the per-component loop it is checked against.
        Both produce bit-identical reports and schedules;
        ``sm_granularity`` always uses the reference loop (the per-SM
        pool has no batch formulation).
    sm_granularity:
        Schedule warps through per-SM slot pools with block placement
        (:class:`repro.machine.sm.SmWarpScheduler`) instead of the flat
        work-conserving pool — never faster, and quantifies how much the
        flat model's optimism is worth (an ablation knob).
    schedule_out:
        Optional dict that, when supplied, is filled with the
        per-component schedule (``finish``, ``dispatch``, ``ready``,
        ``comm``, ``solve``, ``comp_not_before``, ``in_notify``) so an
        external validator — :func:`repro.verify.causality.check_timeline_schedule`
        — can audit the scheduling pass without re-deriving the cost
        model.  Has no effect on the returned report.
    """
    from repro.engine.protocol import coerce_design

    design = coerce_design(design)
    if dist.n != lower.shape[0]:
        raise SolverError(
            f"distribution covers {dist.n} components, matrix has "
            f"{lower.shape[0]} rows"
        )
    if dist.n_gpus != machine.n_gpus:
        raise SolverError(
            f"distribution targets {dist.n_gpus} GPUs, machine has "
            f"{machine.n_gpus}"
        )
    if scheduler not in ("routed", "reference"):
        raise ConfigurationError(
            f"unknown scheduler {scheduler!r}; valid choices: routed, "
            "reference",
            parameter="scheduler",
            value=scheduler,
            choices=("routed", "reference"),
        )
    artefacts = get_artefacts(lower)
    dag = artefacts.dag
    if costs is None:
        costs = artefacts.comm_costs(machine, design)

    n = dag.n
    n_gpus = machine.n_gpus
    gpu_spec = machine.gpu
    gpu_of = dist.gpu_of
    col_nnz = artefacts.col_nnz

    # ---------------- edge structure (shared analysis artefacts) ----------
    edges = artefacts.edges
    place = artefacts.placement(dist)
    src, dst = edges["src"], edges["dst"]
    in_counts = edges["in_counts"]
    n_remote = place.n_remote
    n_local = int(len(src) - n_remote)
    has_remote_pred = place.has_remote_pred

    # ---------------- producer-side update cost per component ------------
    faults = 0.0
    migrated = 0.0
    fabric = 0.0
    serial_bound = 0.0
    if design is Design.UNIFIED and n_gpus > 1:
        src_g, dst_g = np.divmod(place.edge_pair, n_gpus)
        remote_edge = src_g != dst_g
        fm = _unified_fault_model(
            machine, artefacts.levels, gpu_of, src, dst, src_g, remote_edge,
            has_remote_pred,
        )
        um = machine.um
        fault_eff = um.fault_cost * (1.0 + um.thrash_coupling * (n_gpus - 1))
        page_dma = um.page_bytes / machine.topology.link.bandwidth
        edge_cost = np.full(len(src), costs.update_local)
        edge_cost[remote_edge] = um.atomic_system + fm.edge_fault_prob * (
            fault_eff + page_dma
        )
        faults = fm.total_faults
        migrated = fm.migrated_bytes
        fabric = migrated
        # A page is a serial resource, and so is each GPU's fault engine.
        serial_bound = max(
            fm.page_serial_bound,
            float(fm.faults_per_gpu.max(initial=0.0)) * um.fault_serial
            if n_gpus > 1
            else 0.0,
        )
    else:
        update = costs.update_remote.copy()
        np.fill_diagonal(update, costs.update_local)
        edge_cost = update.ravel()[place.edge_pair]
        if n_gpus > 1:
            if design is Design.SHMEM_NAIVE:
                fabric = 16.0 * n_remote  # get + put per remote update
            elif design in (Design.SHMEM_READONLY, Design.STALE_SYNC):
                # Consumer get round: in_degree + left_sum from every
                # remote PE per component with remote predecessors
                # (stale-sync reads the same symmetric heap; elasticity
                # changes when a consumer reads, not the traffic shape).
                fabric = 16.0 * (n_gpus - 1) * float(np.sum(has_remote_pred))
    # bincount accumulates its weights in input order, exactly like the
    # np.add.at it replaces (src is non-decreasing), only ~10x faster.
    update_cost = np.bincount(src, weights=edge_cost, minlength=n)

    # ---------------- consumer-side notify latency per in-edge -----------
    in_notify = costs.notify.ravel()[place.in_pair]
    if design is Design.UNIFIED and n_gpus > 1:
        # Final-poll page fault, weighted by the page's contention mix.
        um = machine.um
        fault_eff = um.fault_cost * (1.0 + um.thrash_coupling * (n_gpus - 1))
        gather_cost = (
            um.consumer_fault_weight * fm.consumer_fault_prob * fault_eff
        )
    else:
        gather_cost = np.where(has_remote_pred, costs.gather, 0.0)

    # ---------------- productive solve cost per component ----------------
    solve = gpu_spec.t_per_nnz * (
        np.maximum(col_nnz, 1).astype(np.float64) + in_counts.astype(np.float64)
    )

    # ---------------- kernel launch times ---------------------------------
    # The host process issues every task's kernel serially in task order
    # ("higher scheduling overhead to issue tasks to different GPUs",
    # Section V) — the cost side of the Fig. 9 granularity trade-off.
    task_of = dist.task_of()
    host_launch = (
        np.arange(dist.n_tasks, dtype=np.float64) * gpu_spec.t_kernel_launch
    )
    if design is Design.UNIFIED and n_gpus > 1:
        # Managed-memory kernels additionally pay a cold-start on their
        # pages (evicted between launches); warmups chain per GPU.
        um = machine.um
        sizes = dist.partition.sizes().astype(np.float64)
        pages_per_task = np.ceil(sizes / um.entries_per_page)
        warmup = 2.0 * pages_per_task * um.fault_cost * um.task_warmup_weight
        launch_time = np.zeros(dist.n_tasks)
        next_free = np.zeros(n_gpus)
        for t in range(dist.n_tasks):
            g = int(dist.task_gpu[t])
            launch_time[t] = max(host_launch[t], next_free[g])
            next_free[g] = launch_time[t] + warmup[t]
    else:
        launch_time = host_launch
    comp_not_before = launch_time[task_of]

    # ---------------- the ascending list-scheduling pass ------------------
    in_ptr, in_idx = dag.in_ptr, dag.in_idx
    if sm_granularity or scheduler == "reference":
        finish, disp, ready, gpu_busy, gpu_spin, gpu_comm, gpu_finish = (
            _schedule_reference(
                gpu_spec, n_gpus, gpu_of, comp_not_before,
                in_ptr, in_idx, in_notify, gather_cost, update_cost, solve,
                sm_granularity=sm_granularity,
            )
        )
    else:
        finish, disp, ready, gpu_busy, gpu_spin, gpu_comm, gpu_finish = (
            _schedule_routed(
                gpu_spec, n_gpus, place, artefacts.routing, comp_not_before,
                in_ptr, in_idx, in_notify, gather_cost, update_cost, solve,
            )
        )
    if schedule_out is not None:
        schedule_out.update(
            finish=finish,
            dispatch=disp,
            ready=ready,
            comm=gather_cost + update_cost,
            solve=solve,
            comp_not_before=comp_not_before,
            in_notify=in_notify,
            gpu_of=gpu_of,
            warp_slots=gpu_spec.warp_slots,
            in_ptr=in_ptr,
            in_idx=in_idx,
        )
    solve_time = max(float(gpu_finish.max(initial=0.0)), serial_bound)

    # ---------------- analysis phase ---------------------------------------
    analysis = analysis_phase_time(machine, design, place.nnz_per_gpu)

    return ExecutionReport(
        design=design.value,
        machine=machine.topology.name,
        n_gpus=n_gpus,
        n_tasks=dist.n_tasks,
        analysis_time=analysis,
        solve_time=solve_time,
        gpu_busy=gpu_busy,
        gpu_spin=gpu_spin,
        gpu_comm=gpu_comm,
        gpu_finish=gpu_finish,
        local_updates=n_local,
        remote_updates=n_remote,
        page_faults=faults,
        migrated_bytes=migrated,
        fabric_bytes=fabric,
    )
