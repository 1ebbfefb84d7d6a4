"""Single-source SpTRSV execution protocol shared by both DES engines.

The sync-free design plays one per-component state machine (dispatch,
wait on the counter, gather, solve, update, release) and one per-edge
transfer machine.  Two engines run it: the array engine
(:mod:`repro.solvers.des_array`) compiles it to integer tokens, and the
reference engine (:mod:`repro.solvers.des_solver` on
:class:`repro.engine.des.Simulator`) plays it as one generator per
process.  This module holds everything the two must agree on:

* **state constants** — the component states (:data:`COMP_ACQUIRE` …
  :data:`COMP_DEAD`) and cross-GPU transfer states (:data:`XFER_CLAIM`
  … :data:`XFER_RETIRE`); each constant's comment states its
  transition;
* **token layout** — :class:`TokenLayout` fixes the array engine's
  integer token ranges (delivery / component / local-hop / transfer /
  failure) and builds the per-edge fan-out spawn tokens;
* **timing rules** — one home for every cost formula both engines pay:
  kernel-launch serialisation (:func:`launch_times`), solve and gather
  costs (:func:`solve_cost` / :func:`solve_cost_table` /
  :func:`gather_cost_table`), link capacity and wire time
  (:func:`link_capacity` / :func:`wire_time`), the failure-relaunch
  delay (:func:`relaunch_delay`) and the producer-side update pricing
  (:func:`edge_update_inc` / :func:`edge_notify_delay` and the
  vectorised :func:`edge_cost_tables`).  Timestamp ties resolve FIFO in
  schedule order: the reference simulator's heap orders by ``(time,
  seq)`` and the array calendar appends to per-time buckets (see
  :mod:`repro.solvers.des_array`, invariant 1);
* **the delivery protocol** — :func:`delivery_action` maps an
  injector-reported fate and the recovery policy to one of the
  :data:`ACT_DELIVER` … :data:`ACT_EXHAUSTED` verdicts, and
  :func:`exhausted_delivery` builds the shared
  :class:`~repro.errors.RecoveryExhaustedError`;
* **the fail-stop protocol** — :func:`failure_victims` (which components
  a dying GPU cancels, in wake order) and :func:`remap_plan` (survivor
  targets plus the detector-latency + kernel-launch-serialised relaunch
  delays);
* **the stale-synchronous protocol** — :class:`StalePolicy`,
  :func:`wake_threshold` (the readiness gate) and
  :func:`stale_validation_times` (the post-hoc pass's timestamps);
* **link tiers** — :func:`rank_tier_matrix`, :func:`fallback_legal` and
  :func:`validate_fabric_reach` for the multi-node fabric;
* **validation** — :func:`coerce_design`, :func:`missing_diagonal` /
  :func:`validate_diagonals` and :func:`deadlock_error` give both
  engines identical typed errors.

``tests/test_protocol_parity.py`` statically asserts that neither engine
re-declares a protocol constant and that every public name here is used
by the program, and ``tests/test_des_array.py`` keeps the two engines
bit-identical in every observable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import (
    ConfigurationError,
    DeadlockError,
    RecoveryExhaustedError,
    SolverError,
)
from repro.exec_model.costmodel import CommCosts, Design

__all__ = [
    # lifecycle states
    "COMP_ACQUIRE",
    "COMP_DISPATCH",
    "COMP_GATHER",
    "COMP_SOLVE",
    "COMP_POST",
    "COMP_RELEASE",
    "COMP_DEAD",
    "COMP_SHIFT",
    "XFER_CLAIM",
    "XFER_WIRE",
    "XFER_RETIRE",
    "XFER_SHIFT",
    # trace vocabulary
    "TRACE_DISPATCH",
    "TRACE_SOLVE",
    "TRACE_RELEASE",
    "TRACE_FAULT",
    "TRACE_XFER_BEGIN",
    "TRACE_XFER_END",
    "TRACE_INJECT",
    "TRACE_RETRY",
    "TRACE_RECOVERED",
    "TRACE_MSG_LOST",
    "TRACE_GPU_FAIL",
    "TRACE_REMAP",
    "TRACE_STALE_LAUNCH",
    "TRACE_VALIDATE",
    "TRACE_REPLAY",
    "ALL_TRACE_KINDS",
    # delivery fates + protocol verdicts
    "FATE_DROP",
    "FATE_DELAY",
    "FATE_CORRUPT",
    "ACT_DELIVER",
    "ACT_DELAY",
    "ACT_CORRUPT",
    "ACT_STARVE",
    "ACT_RETRY",
    "ACT_EXHAUSTED",
    "delivery_action",
    "exhausted_delivery",
    # fail-stop protocol
    "failure_victims",
    "remap_plan",
    # token layout
    "TokenLayout",
    # timing rules
    "MESSAGE_BYTES",
    "MESSAGES_IN_FLIGHT_PER_LINK",
    "launch_times",
    "solve_cost",
    "solve_cost_table",
    "gather_cost_table",
    "link_capacity",
    "wire_time",
    "relaunch_delay",
    # stale-synchronous protocol
    "StalePolicy",
    "DEFAULT_STALE_POLICY",
    "resolve_stale_policy",
    "wake_threshold",
    "stale_validation_times",
    # producer-side update pricing
    "edge_update_inc",
    "edge_notify_delay",
    "edge_cost_tables",
    # link tiers (multi-node fabric)
    "LINK_TIER_LOCAL",
    "LINK_TIER_DIRECT",
    "LINK_TIER_FALLBACK",
    "rank_tier_matrix",
    "fallback_legal",
    "validate_fabric_reach",
    # validation
    "VALID_ENGINES",
    "coerce_design",
    "missing_diagonal",
    "validate_diagonals",
    "frontier_diagnostics",
    "deadlock_error",
    # parity-check manifest
    "PROTOCOL_CONSTANTS",
]

# ---------------------------------------------------------------------------
# Component lifecycle states (array token = (component << COMP_SHIFT) | state).
# ---------------------------------------------------------------------------
COMP_ACQUIRE = 0  #: initial: claim a warp slot
COMP_DISPATCH = 1  #: slot granted: emit dispatch, pay warp-dispatch cost
COMP_GATHER = 2  #: dependencies satisfied: pay the gather cost
COMP_SOLVE = 3  #: gather done: pay the solve cost
COMP_POST = 4  #: value ready: update dependants
COMP_RELEASE = 5  #: updates issued: retire the slot

#: Tombstone state: a cancelled component step (its GPU failed).  The
#: token keeps its exact (time, insertion) slot in the calendar and burns
#: one event when drained — mirroring the reference engine, where the
#: stale generator resumes once, sees its epoch mismatch, and exits.
COMP_DEAD = 6

#: Bits reserved for the component state in an array token (8 states).
COMP_SHIFT = 3

# Cross-GPU transfer states (token = xfer_base + ((edge << XFER_SHIFT) | st)).
XFER_CLAIM = 0  #: claim a link channel
XFER_WIRE = 1  #: channel granted: message on the wire
XFER_RETIRE = 2  #: wire time paid: retire the channel, deliver

#: Bits reserved for the transfer state in an array token (4 states).
XFER_SHIFT = 2

# ---------------------------------------------------------------------------
# Trace vocabulary: every record kind either engine may emit.
# ---------------------------------------------------------------------------
TRACE_DISPATCH = "dispatch"
TRACE_SOLVE = "solve"
TRACE_RELEASE = "release"
TRACE_FAULT = "fault"
TRACE_XFER_BEGIN = "xfer_begin"
TRACE_XFER_END = "xfer_end"
TRACE_INJECT = "inject"
TRACE_RETRY = "retry"
TRACE_RECOVERED = "recovered"
TRACE_MSG_LOST = "msg_lost"
TRACE_GPU_FAIL = "gpu_fail"
TRACE_REMAP = "remap"
# Stale-synchronous vocabulary (the elastic design of Steiner et al.):
# a component that launches on a bounded-stale partial sum records
# ``stale_launch`` with ``(component, missing)``; the post-hoc pass
# records one ``validate`` summary ``(n_suspects, n_replayed)`` and one
# ``replay`` per forward-closure component it re-solves.
TRACE_STALE_LAUNCH = "stale_launch"
TRACE_VALIDATE = "validate"
TRACE_REPLAY = "replay"

#: The closed set of DES trace kinds (causality replay + chrometrace
#: enumerate exactly these).
ALL_TRACE_KINDS = (
    TRACE_DISPATCH,
    TRACE_SOLVE,
    TRACE_RELEASE,
    TRACE_FAULT,
    TRACE_XFER_BEGIN,
    TRACE_XFER_END,
    TRACE_INJECT,
    TRACE_RETRY,
    TRACE_RECOVERED,
    TRACE_MSG_LOST,
    TRACE_GPU_FAIL,
    TRACE_REMAP,
    TRACE_STALE_LAUNCH,
    TRACE_VALIDATE,
    TRACE_REPLAY,
)


# ---------------------------------------------------------------------------
# Delivery fates (the injector's vocabulary) and protocol verdicts.
# ---------------------------------------------------------------------------
#: Fate tags returned by ``FaultInjector.delivery_fate`` (re-exported by
#: :mod:`repro.resilience.faults`; defined here so the protocol core is
#: the single source).
FATE_DROP = "drop"
FATE_DELAY = "delay"
FATE_CORRUPT = "corrupt"

#: Verdicts of :func:`delivery_action` — what one delivery attempt does.
ACT_DELIVER = "deliver"  #: clean: land the contribution
ACT_DELAY = "delay"  #: wait ``arg`` extra, bump the attempt, re-evaluate
ACT_CORRUPT = "corrupt"  #: flip mantissa bit ``arg``, bump attempt, land
ACT_STARVE = "starve"  #: lost with no retry policy: dependant starves
ACT_RETRY = "retry"  #: re-send after backoff ``arg`` (re-pay the wire)
ACT_EXHAUSTED = "exhausted"  #: bounded retries spent: raise


def delivery_action(
    fate: tuple | None, attempt: int, recovery
) -> tuple[str, float | int | None]:
    """Resolve one delivery attempt's fate against the recovery policy.

    This is the single decision tree of the fault/retry protocol — the
    branches PRs 3-4 mirrored across both engines.  ``fate`` is what the
    injector reported for ``attempt`` (``None`` = clean), ``recovery``
    the :class:`~repro.resilience.recovery.RecoveryPolicy` (or ``None``).

    Returns ``(verdict, arg)``:

    * ``(ACT_DELIVER, None)`` — land the contribution unchanged;
    * ``(ACT_DELAY, extra)`` — hold the message ``extra`` longer, bump
      the attempt counter, then re-evaluate;
    * ``(ACT_CORRUPT, bit)`` — no checksum: the bit-flipped value lands;
    * ``(ACT_STARVE, None)`` — detected loss, no retry policy: the
      dependant starves loudly (deadlock detector reports it);
    * ``(ACT_RETRY, backoff)`` — re-send after exponential backoff,
      re-paying the wire on cross-GPU edges;
    * ``(ACT_EXHAUSTED, None)`` — bounded retries spent: the engine must
      raise :func:`exhausted_delivery`.
    """
    if fate is None:
        return (ACT_DELIVER, None)
    kind = fate[0]
    if kind == FATE_DELAY:
        return (ACT_DELAY, fate[1])
    if kind == FATE_CORRUPT and (
        recovery is None or not recovery.detect_corruption
    ):
        return (ACT_CORRUPT, fate[1])
    # Detected loss: a drop, or a corruption the checksum caught.
    if recovery is None or not recovery.retry:
        return (ACT_STARVE, None)
    if attempt >= recovery.max_retries:
        return (ACT_EXHAUSTED, None)
    return (ACT_RETRY, recovery.retry_delay(attempt))


def exhausted_delivery(edge: int, dst: int, attempts: int) -> RecoveryExhaustedError:
    """The one retry-exhaustion error both engines raise, bit-for-bit."""
    return RecoveryExhaustedError(
        f"delivery on edge {edge} to component {dst} still failing "
        f"after {attempts} attempts",
        context={
            "edge": int(edge),
            "dst": int(dst),
            "attempts": attempts,
        },
    )


# ---------------------------------------------------------------------------
# Fail-stop protocol: victim cancellation and survivor remap.
# ---------------------------------------------------------------------------
def failure_victims(owner, done, gpu: int, n: int) -> list[int]:
    """Components a fail-stopping ``gpu`` cancels, in wake order.

    A victim is an unsolved component the dead rank owns at failure
    time; the ascending-index order is part of the protocol (it fixes
    the ready-channel wake order and therefore the tie-break of every
    tombstone event).
    """
    return [i for i in range(n) if int(owner[i]) == gpu and not done[i]]


def remap_plan(
    owner: np.ndarray,
    victims: list[int],
    failed: int,
    n_gpus: int,
    dead: set[int],
    recovery,
    t_kernel_launch: float,
) -> list[tuple[int, int, float]]:
    """Survivor targets and relaunch delays for a failed GPU's victims.

    Wraps :func:`repro.tasks.schedule.remap_failed_components` (targets
    must be computed against the *pre-mutation* ownership) and attaches
    the protocol's relaunch timing: victim ``k`` restarts after the
    failure-detector latency plus ``k`` serialised kernel launches.
    Returns ``[(victim, new_gpu, delay), ...]`` in victim order; the
    caller mutates ownership and schedules the relaunch.
    """
    from repro.tasks.schedule import remap_failed_components

    targets = remap_failed_components(owner, victims, failed, n_gpus, dead)
    return [
        (i, int(targets[k]), relaunch_delay(recovery, k, t_kernel_launch))
        for k, i in enumerate(victims)
    ]


# ---------------------------------------------------------------------------
# Token layout: the array engine's integer token ranges.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TokenLayout:
    """Integer token ranges for one ``(n, nnz)`` system.

    Tokens are classed by range so the hottest kinds decode cheapest:

    * ``-1 - e`` — edge ``e``'s *update delivery* (the hottest kind);
    * ``(i << COMP_SHIFT) | state`` — component ``i`` at a lifecycle
      state (``[0, local_base)``);
    * ``local_base + e`` — local edge ``e``'s start hop;
    * ``xfer_base + ((e << XFER_SHIFT) | state)`` — cross-GPU transfer
      steps of edge ``e``;
    * ``failure_base + k`` — the k-th scheduled GPU fail-stop event.
    """

    n: int
    nnz: int
    local_base: int  # == n << COMP_SHIFT
    xfer_base: int  # == local_base + nnz
    failure_base: int  # == xfer_base + (nnz << XFER_SHIFT)

    @classmethod
    def for_system(cls, n: int, nnz: int) -> "TokenLayout":
        local_base = n << COMP_SHIFT
        xfer_base = local_base + nnz
        failure_base = xfer_base + (nnz << XFER_SHIFT)
        return cls(
            n=n,
            nnz=nnz,
            local_base=local_base,
            xfer_base=xfer_base,
            failure_base=failure_base,
        )

    def spawn_codes(self, local_mask: np.ndarray) -> np.ndarray:
        """Per-edge fan-out spawn tokens: local start hop or transfer claim."""
        eids = np.arange(self.nnz, dtype=np.int64)
        return np.where(
            local_mask,
            self.local_base + eids,
            self.xfer_base + (eids << XFER_SHIFT),
        )


# ---------------------------------------------------------------------------
# Timing rules: the single home of every cost formula the engines share.
# All functions reproduce the exact binary64 operation chains of the
# original engines, so extracting them preserves bit-equality.
# ---------------------------------------------------------------------------
#: Fine-grained message size on the wire (one float64 update).
MESSAGE_BYTES = 8.0

#: Fine-grained messages a single physical link keeps in flight; beyond
#: this, notifications queue on the link channel.
MESSAGES_IN_FLIGHT_PER_LINK = 16


def launch_times(n_tasks: int, t_kernel_launch: float) -> np.ndarray:
    """Host-serialised kernel-launch times: task ``k`` launches at
    ``k * t_kernel_launch`` (the same model as the fast tier)."""
    return np.arange(n_tasks, dtype=np.float64) * t_kernel_launch


def solve_cost(t_per_nnz: float, col_nnz: int, in_count: int) -> float:
    """Solve cost of one component (scalar form, reference engine)."""
    return t_per_nnz * (max(col_nnz, 1) + in_count)


def solve_cost_table(
    t_per_nnz: float, col_nnz: np.ndarray, in_counts: np.ndarray
) -> np.ndarray:
    """Vectorised :func:`solve_cost` (array engine build time)."""
    return t_per_nnz * (np.maximum(col_nnz, 1) + in_counts)


def gather_cost_table(gather: float, in_counts: np.ndarray) -> np.ndarray:
    """Per-component gather cost: paid only with at least one dependency."""
    return np.where(in_counts > 0, gather, 0.0)


def link_capacity(topology, ga: int, gb: int, per_link: int) -> int:
    """In-flight message capacity of the ``ga -> gb`` physical link pair."""
    return max(int(topology.link_count[ga, gb]), 1) * per_link


def wire_time(topology, ga: int, gb: int) -> float:
    """Wire time of one fine-grained message between physical GPUs."""
    return MESSAGE_BYTES / topology.peer_bandwidth(ga, gb)


def relaunch_delay(recovery, k: int, t_kernel_launch: float) -> float:
    """Relaunch delay of the k-th remapped victim: failure-detector
    latency plus ``k`` serialised kernel launches."""
    return recovery.detect_latency + k * t_kernel_launch


# ---------------------------------------------------------------------------
# Stale-synchronous protocol: bounded-stale launch + validation/replay.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class StalePolicy:
    """Staleness bound of the ``stale_sync`` design.

    Attributes
    ----------
    k:
        A component may launch once at most ``k`` contributions are
        still missing from its partial sum (all-but-k elasticity).
        Components with in-degree ``<= k`` never block at all.
    ceiling:
        Per-row backward-error ceiling of the post-hoc validation pass:
        any solved row whose stale-read error exceeds it is replayed
        (with its forward closure).  Much tighter than the resilience
        residual ceiling (1e-8) so repaired solutions still clear the
        1e-9 differential-oracle tolerance.
    """

    k: int = 1
    ceiling: float = 1e-12

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError(
                f"stale policy k must be >= 1, got {self.k}",
                parameter="stale_k",
                value=self.k,
            )
        if not self.ceiling > 0.0:
            raise ConfigurationError(
                f"stale validation ceiling must be > 0, got {self.ceiling}",
                parameter="stale_ceiling",
                value=self.ceiling,
            )


#: Policy used when the ``stale_sync`` design is selected without an
#: explicit override.
DEFAULT_STALE_POLICY = StalePolicy()


def resolve_stale_policy(
    design: Design, stale: "StalePolicy | None"
) -> "StalePolicy | None":
    """The effective staleness policy of one run.

    ``stale_sync`` runs get the default policy unless one is supplied;
    any other design must not carry a policy (typed error — staleness is
    a property of the design, not a free knob)."""
    if design is Design.STALE_SYNC:
        return stale if stale is not None else DEFAULT_STALE_POLICY
    if stale is not None:
        raise ConfigurationError(
            f"stale policy requires design={Design.STALE_SYNC.value!r}, "
            f"got {design.value!r}",
            parameter="stale",
            value=stale,
        )
    return None


def wake_threshold(stale: "StalePolicy | None") -> int:
    """Ready-wake threshold both engines gate on: a component may leave
    the GATHER park once at most this many contributions are missing
    (0 = fully synchronous, the base protocol)."""
    return 0 if stale is None else stale.k


def stale_validation_times(
    total_time: float, n_replayed: int, t_kernel_launch: float
) -> tuple[float, np.ndarray]:
    """Timestamps of the post-hoc validation pass records.

    The ``validate`` summary lands exactly when the calendar drains;
    replayed component ``j`` (ascending index order) lands after ``j+1``
    host-serialised kernel launches — the same serialisation model as
    :func:`launch_times` / :func:`relaunch_delay`.  Pure function of the
    run's observables, so every engine extends the trace and the wall
    clock bit-identically."""
    replays = total_time + (
        np.arange(1, n_replayed + 1, dtype=np.float64) * t_kernel_launch
    )
    return total_time, replays


# ---------------------------------------------------------------------------
# Producer-side update pricing (every design but the unified page table).
# ---------------------------------------------------------------------------
def edge_update_inc(costs: CommCosts, src_g: int, dst_g: int) -> float:
    """Producer-side cost of one dependant update (non-page-table path)."""
    if src_g == dst_g:
        return costs.update_local
    return costs.update_remote[src_g, dst_g]


def edge_notify_delay(costs: CommCosts, src_g: int, dst_g: int) -> float:
    """Post-update notify latency from producer to consumer."""
    if src_g == dst_g:
        return 0.0
    return costs.notify[src_g, dst_g]


def edge_cost_tables(
    costs: CommCosts,
    src_g_e: np.ndarray,
    dst_g_e: np.ndarray,
    local_e: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised per-edge ``(update_inc, notify_delay)`` tables.

    The array engine compiles these at build time for non-page-table
    designs; values are bit-identical to the scalar forms.
    """
    inc = np.where(
        local_e, costs.update_local, costs.update_remote[src_g_e, dst_g_e]
    )
    delay = np.where(local_e, 0.0, costs.notify[src_g_e, dst_g_e])
    return inc, delay


# ---------------------------------------------------------------------------
# Link tiers: the multi-node fabric's classification of every GPU pair.
# Pricing already flows per pair through the CommCosts matrices (built
# from the topology's tiered latencies/bandwidths), so these helpers add
# *metadata*, never arithmetic — every float an engine pays is unchanged
# and both engines stay bit-identical by construction.
# ---------------------------------------------------------------------------
#: Same rank: no wire.
LINK_TIER_LOCAL = 0
#: Direct link (NVLink / NVSwitch island).
LINK_TIER_DIRECT = 1
#: Fallback path: PCIe staging on a single node, RDMA over IB across
#: nodes.  NVSHMEM one-sided designs may use it only when the topology
#: grants ``shmem_over_fallback``.
LINK_TIER_FALLBACK = 2


def rank_tier_matrix(machine) -> np.ndarray:
    """``(n_gpus, n_gpus)`` link tier of every PE-rank pair.

    Ranks map to physical GPUs through ``machine.active_gpus`` before
    the topology is consulted, so a DGX-1 clique run and a full-cluster
    run both classify correctly.
    """
    phys = np.asarray(machine.active_gpus, dtype=np.int64)
    return machine.topology.tier_matrix()[np.ix_(phys, phys)]


def fallback_legal(design: Design | str, topology) -> bool:
    """Whether ``design`` may carry traffic over the fallback tier.

    One-sided NVSHMEM designs (naive, read-only/zerocopy, stale-sync)
    need the topology to grant ``shmem_over_fallback`` — the IB RDMA
    transport of multi-node NVSHMEM; the CUDA-10-era single-node
    fallback (PCIe staging) cannot carry one-sided gets, which is the
    paper's 4-GPU DGX-1 limit.  The unified design stages through the
    page-migration path, so any fallback link is legal.  The causality
    replayer enforces the same rule on every recorded transfer.
    """
    if topology.fallback is None:
        return False
    if coerce_design(design) is not Design.UNIFIED:
        return bool(topology.shmem_over_fallback)
    return True


def validate_fabric_reach(machine, design: Design | str) -> None:
    """Reject a run whose design cannot reach every active rank pair.

    Raises a typed :class:`~repro.errors.TopologyError` naming the first
    offending pair when any pair of active ranks needs the fallback tier
    and :func:`fallback_legal` denies it — the shared upfront check of
    ``des_execute``, so all engines fail identically before any event is
    played.
    """
    from repro.errors import TopologyError

    topo = machine.topology
    tiers = rank_tier_matrix(machine)
    needs_fallback = np.argwhere(tiers >= LINK_TIER_FALLBACK)
    if needs_fallback.size and not fallback_legal(design, topo):
        a, b = (int(v) for v in needs_fallback[0])
        design = coerce_design(design)
        raise TopologyError(
            f"design {design.value!r} cannot reach rank {a} -> rank {b}: "
            f"the pair crosses the fallback tier of {topo.name} and "
            + (
                "the topology has no fallback link"
                if topo.fallback is None
                else f"{topo.fallback.name} does not carry one-sided access "
                "(shmem_over_fallback=False)"
            )
        )


# ---------------------------------------------------------------------------
# Validation: identical typed errors from both engines.
# ---------------------------------------------------------------------------
#: Engine names accepted by ``des_execute(engine=...)``: the array
#: engine every production path runs, and the reference oracle.
VALID_ENGINES = ("array", "reference")


def coerce_design(design: Design | str) -> Design:
    """Coerce a design argument, raising a typed error listing choices."""
    try:
        return Design(design)
    except (ValueError, KeyError):
        choices = [d.value for d in Design]
        raise ConfigurationError(
            f"unknown design {design!r}; valid choices: "
            + ", ".join(choices),
            parameter="design",
            value=design,
            choices=tuple(choices),
        ) from None


def missing_diagonal(col: int) -> SolverError:
    """The shared missing-diagonal error (identical message, both engines)."""
    return SolverError(f"missing diagonal at column {col}")


def frontier_diagnostics(components, gpu_of) -> dict:
    """Per-GPU pending-dependency frontier for deadlock diagnostics.

    ``components`` are the component ids still parked on their readiness
    channel when the calendar drained; ``gpu_of`` maps components to
    owning ranks.  Both engines attach the identical payload to
    :class:`~repro.errors.DeadlockError` so service logs can name the
    starved components and the ranks holding them:

    * ``pending_frontier`` — ascending ``{"component", "gpu"}`` rows;
    * ``frontier_by_gpu`` — ``{gpu: [component, ...]}``, ids ascending.
    """
    comps = sorted(int(i) for i in components)
    by_gpu: dict[int, list[int]] = {}
    for i in comps:
        by_gpu.setdefault(int(gpu_of[i]), []).append(i)
    return {
        "pending_frontier": [
            {"component": i, "gpu": int(gpu_of[i])} for i in comps
        ],
        "frontier_by_gpu": by_gpu,
    }


def deadlock_error(
    now: float, events: int, parked, queued: dict, gpu_of
) -> DeadlockError:
    """The shared quiescent-with-waiters error (identical, both engines).

    Raised when the calendar drains with work still blocked.
    ``parked`` are the components still parked on their readiness
    channel and ``queued`` maps each resource (warp-slot pool or link
    channel) with a non-empty wait queue to its queue length.  The
    ``blocked`` mapping lists the readiness channels in ascending
    component order, then the resources in name order, so the message,
    ``blocked`` and the :func:`frontier_diagnostics` payload do not
    depend on the engine's bookkeeping order.
    """
    comps = sorted(int(i) for i in parked)
    blocked = {repr(("ready", i)): 1 for i in comps}
    blocked.update(sorted(queued.items()))
    diagnostics = {"now": now, "events_processed": events}
    diagnostics.update(frontier_diagnostics(comps, gpu_of))
    return DeadlockError(
        f"deadlock: {sum(blocked.values())} waiters with empty event "
        f"calendar; waiters per channel: {blocked}",
        blocked=blocked,
        diagnostics=diagnostics,
    )


def validate_diagonals(indptr: np.ndarray, indices: np.ndarray, n: int) -> None:
    """Reject a matrix whose unit-position diagonal entries are absent.

    The reference engine discovers a missing diagonal when the solve
    front reaches the column; with the whole structure in hand the array
    engine rejects it upfront — with the identical error the reference
    engine would eventually raise for the first bad column.
    """
    col_nnz = np.diff(indptr)
    if np.any(col_nnz == 0):
        raise missing_diagonal(int(np.nonzero(col_nnz == 0)[0][0]))
    diag_bad = indices[indptr[:-1]] != np.arange(n)
    if np.any(diag_bad):
        raise missing_diagonal(int(np.nonzero(diag_bad)[0][0]))


# ---------------------------------------------------------------------------
# Parity-check manifest: every constant the static check enforces.
# ---------------------------------------------------------------------------
#: Name → value of every protocol constant.  ``tests/test_protocol_parity.py``
#: asserts no engine module re-declares any of these names and that the
#: values each engine binds resolve to these definitions.
PROTOCOL_CONSTANTS: dict[str, object] = {
    "COMP_ACQUIRE": COMP_ACQUIRE,
    "COMP_DISPATCH": COMP_DISPATCH,
    "COMP_GATHER": COMP_GATHER,
    "COMP_SOLVE": COMP_SOLVE,
    "COMP_POST": COMP_POST,
    "COMP_RELEASE": COMP_RELEASE,
    "COMP_DEAD": COMP_DEAD,
    "COMP_SHIFT": COMP_SHIFT,
    "XFER_CLAIM": XFER_CLAIM,
    "XFER_WIRE": XFER_WIRE,
    "XFER_RETIRE": XFER_RETIRE,
    "XFER_SHIFT": XFER_SHIFT,
    "TRACE_DISPATCH": TRACE_DISPATCH,
    "TRACE_SOLVE": TRACE_SOLVE,
    "TRACE_RELEASE": TRACE_RELEASE,
    "TRACE_FAULT": TRACE_FAULT,
    "TRACE_XFER_BEGIN": TRACE_XFER_BEGIN,
    "TRACE_XFER_END": TRACE_XFER_END,
    "TRACE_INJECT": TRACE_INJECT,
    "TRACE_RETRY": TRACE_RETRY,
    "TRACE_RECOVERED": TRACE_RECOVERED,
    "TRACE_MSG_LOST": TRACE_MSG_LOST,
    "TRACE_GPU_FAIL": TRACE_GPU_FAIL,
    "TRACE_REMAP": TRACE_REMAP,
    "TRACE_STALE_LAUNCH": TRACE_STALE_LAUNCH,
    "TRACE_VALIDATE": TRACE_VALIDATE,
    "TRACE_REPLAY": TRACE_REPLAY,
    "FATE_DROP": FATE_DROP,
    "FATE_DELAY": FATE_DELAY,
    "FATE_CORRUPT": FATE_CORRUPT,
    "ACT_DELIVER": ACT_DELIVER,
    "ACT_DELAY": ACT_DELAY,
    "ACT_CORRUPT": ACT_CORRUPT,
    "ACT_STARVE": ACT_STARVE,
    "ACT_RETRY": ACT_RETRY,
    "ACT_EXHAUSTED": ACT_EXHAUSTED,
    "MESSAGE_BYTES": MESSAGE_BYTES,
    "MESSAGES_IN_FLIGHT_PER_LINK": MESSAGES_IN_FLIGHT_PER_LINK,
    "LINK_TIER_LOCAL": LINK_TIER_LOCAL,
    "LINK_TIER_DIRECT": LINK_TIER_DIRECT,
    "LINK_TIER_FALLBACK": LINK_TIER_FALLBACK,
}
