"""Level-set analysis of the SpTRSV dependency DAG.

The *level* of component ``i`` is the length of the longest dependency
chain ending at ``i`` (level 0 = no dependencies).  All components in the
same level are mutually independent and can be solved in parallel after a
barrier — the classical level-scheduling strategy of Naumov's cuSPARSE
solver (Section II-B), and the source of the ``#Levels`` / ``Parallelism``
columns of Table I.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.analysis.dag import DependencyDag, build_dag
from repro.sparse.coo import sorted_unique
from repro.sparse.csc import CscMatrix
from repro.sparse.csr import CsrMatrix

#: Frontier width below which :func:`compute_levels` may stop sweeping
#: level by level and level the rest in one scalar pass.  At 16, a
#: 4,096-level band is levelled about 8x faster than by sweeps alone,
#: and no Table I stand-in gets slower.
_FANOUT_SCALAR_TAIL = 16

__all__ = [
    "LevelSets",
    "compute_levels",
    "DispatchFronts",
    "compute_dispatch_fronts",
    "FrontRouting",
    "compute_front_routing",
]


@dataclass(frozen=True)
class LevelSets:
    """Level-set decomposition of a dependency DAG.

    Attributes
    ----------
    level_of:
        ``level_of[i]`` = level index of component ``i``.
    level_ptr, level_idx:
        CSR-style grouping: level ``l`` contains components
        ``level_idx[level_ptr[l]:level_ptr[l+1]]`` (ascending within each
        level).
    """

    level_of: np.ndarray
    level_ptr: np.ndarray
    level_idx: np.ndarray

    @property
    def n_levels(self) -> int:
        return int(len(self.level_ptr) - 1)

    @property
    def n(self) -> int:
        return int(len(self.level_of))

    def level(self, l: int) -> np.ndarray:
        """Components in level ``l`` (ascending index order)."""
        return self.level_idx[self.level_ptr[l] : self.level_ptr[l + 1]]

    def level_sizes(self) -> np.ndarray:
        """Number of components per level."""
        return np.diff(self.level_ptr)

    @property
    def parallelism(self) -> float:
        """Average available concurrency per level (Table I definition:
        ``nRow / nLevel``)."""
        if self.n_levels == 0:
            return 0.0
        return self.n / self.n_levels

    @property
    def max_width(self) -> int:
        """Widest level — the peak instantaneous parallelism."""
        if self.n_levels == 0:
            return 0
        return int(self.level_sizes().max())

    @property
    def critical_path_length(self) -> int:
        """Length (in components) of the longest dependency chain."""
        return self.n_levels


def compute_levels(
    source: CscMatrix | CsrMatrix | DependencyDag,
) -> LevelSets:
    """Compute level sets with a vectorised Kahn-style sweep.

    Each sweep processes the entire frontier with NumPy primitives, so
    the Python-level loop runs once per level rather than once per
    component.  A sweep also costs a few ``O(n)`` array passes, which a
    deep, narrow DAG (a band, a chain) would pay once per level; once
    the frontier stays narrow, the remaining components are levelled in
    one scalar pass in index order instead (same result).
    """
    dag = source if isinstance(source, DependencyDag) else build_dag(source)
    n = dag.n
    level_of = np.full(n, -1, dtype=np.int64)
    remaining = dag.in_degree.copy()
    frontier = np.nonzero(remaining == 0)[0]

    level_groups: list[np.ndarray] = []
    sizes: list[int] = []
    processed = 0
    out_ptr, out_idx = dag.out_ptr, dag.out_idx
    while len(frontier):
        level = len(sizes)
        # Narrow now, and fewer components left than _FANOUT_SCALAR_TAIL
        # per level swept so far: a narrow start that widens later (a
        # bulge profile) stays on the sweep.
        if (
            len(frontier) < _FANOUT_SCALAR_TAIL
            and n - processed < _FANOUT_SCALAR_TAIL * level
        ):
            tail, tail_sizes = _level_in_index_order(dag, level_of, level)
            level_groups.append(tail)
            sizes += tail_sizes
            processed = n
            break
        level_of[frontier] = level
        level_groups.append(frontier)
        sizes.append(len(frontier))
        processed += len(frontier)
        # Gather all successor edges of the frontier at once.
        targets = _gather(out_ptr, out_idx, frontier)[0]
        remaining -= np.bincount(targets, minlength=n)
        # The next frontier: each target that reached zero, once, in
        # ascending order.
        frontier = sorted_unique(targets[remaining[targets] == 0])

    if processed != n:
        # Can only happen for non-triangular input that slipped through.
        raise RuntimeError(
            f"level analysis processed {processed} of {n} components: cycle?"
        )

    level_ptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=level_ptr[1:])
    level_idx = (
        np.concatenate(level_groups) if level_groups else np.zeros(0, dtype=np.int64)
    )
    return LevelSets(level_of=level_of, level_ptr=level_ptr, level_idx=level_idx)


def _gather(
    ptr: np.ndarray, idx: np.ndarray, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated adjacency ``idx[ptr[v]:ptr[v+1]]`` of ``nodes`` and
    each node's run length, built without a Python loop."""
    starts = ptr[nodes]
    counts = ptr[nodes + 1] - starts
    # within[k] enumerates 0..total, shifted back to each run's start.
    total = int(counts.sum())
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return idx[np.repeat(starts, counts) + within], counts


def _level_in_index_order(
    dag: DependencyDag, level_of: np.ndarray, first_level: int
) -> tuple[np.ndarray, list[int]]:
    """Level every component not yet levelled, in one scalar pass.

    ``level[i] = 1 + max(level[preds])`` in index order: a predecessor
    has a lower index than its consumer, so its level is final by the
    time the consumer is reached.  Fills ``level_of`` in place and
    returns the newly levelled components grouped by level (ascending
    index within a level, as the sweep emits them) and the sizes of
    levels ``first_level, first_level + 1, ...``.
    """
    tail = np.flatnonzero(level_of < 0)
    preds, counts = _gather(dag.in_ptr, dag.in_idx, tail)
    ptr = np.concatenate(([0], np.cumsum(counts))).tolist()
    preds = preds.tolist()
    levels = level_of.tolist()
    for k, i in enumerate(tail.tolist()):
        levels[i] = 1 + max(
            [levels[p] for p in preds[ptr[k] : ptr[k + 1]]], default=-1
        )
    tail_levels = np.asarray(levels, dtype=np.int64)[tail]
    level_of[tail] = tail_levels
    grouped = tail[np.argsort(tail_levels, kind="stable")]
    return grouped, np.bincount(tail_levels - first_level).tolist()


@dataclass(frozen=True)
class DispatchFronts:
    """Greedy index-contiguous antichain decomposition of a dependency DAG.

    Front ``f`` is the component range ``[front_ptr[f], front_ptr[f+1])``:
    a maximal run of consecutive indices none of which depends on another
    member of the run.  Fronts are the routing unit of the fast model's
    scheduling pass (:class:`FrontRouting`): the hardware dispatches
    components in ascending index order, and within a front every
    readiness, slot-pool, and finish-time decision can be resolved with
    one array operation because no member waits on another.  That pays
    off only on wide fronts; runs of narrow ones go to a scalar loop.

    When the component numbering is level-major (each level set occupies
    a contiguous index range, e.g. ``dag_profile_matrix`` with
    ``scatter=0``), the fronts coincide exactly with the level sets of
    :func:`compute_levels`; for scattered numberings they are the finest
    index-contiguous refinement that still respects dispatch order.
    """

    front_ptr: np.ndarray

    @property
    def n_fronts(self) -> int:
        return int(len(self.front_ptr) - 1)

    @property
    def n(self) -> int:
        return int(self.front_ptr[-1]) if len(self.front_ptr) else 0

    def front(self, f: int) -> slice:
        """Index range of front ``f`` (contiguous by construction)."""
        return slice(int(self.front_ptr[f]), int(self.front_ptr[f + 1]))

    def front_sizes(self) -> np.ndarray:
        """Number of components per front."""
        return np.diff(self.front_ptr)

    @property
    def mean_width(self) -> float:
        """Average batch size — the vectorisation payoff per Python step."""
        if self.n_fronts == 0:
            return 0.0
        return self.n / self.n_fronts


def compute_dispatch_fronts(dag: DependencyDag) -> DispatchFronts:
    """Partition ``0..n`` into maximal independent index-contiguous runs.

    Greedy left-to-right: a front starting at ``s`` absorbs components
    while every predecessor index stays below ``s``; the first component
    with a predecessor inside the running front starts the next one.
    Equivalently, with ``M[i] = max(maxpred[0..i])`` (non-decreasing,
    since every predecessor index is below its consumer), the front
    starting at ``s`` ends at the first ``i`` with ``M[i] >= s`` — a
    binary search.  Total cost ``O(n + nnz + F log n)`` for ``F`` fronts.
    """
    n = dag.n
    if n == 0:
        return DispatchFronts(front_ptr=np.zeros(1, dtype=np.int64))
    in_ptr, in_idx = dag.in_ptr, dag.in_idx
    maxpred = np.full(n, -1, dtype=np.int64)
    nonempty = in_ptr[1:] > in_ptr[:-1]
    if len(in_idx):
        # reduceat over the non-empty segment starts: consecutive offsets
        # span exactly one segment each because the empty segments between
        # them contribute no elements.
        maxpred[nonempty] = np.maximum.reduceat(in_idx, in_ptr[:-1][nonempty])
    # A list bisect per front, not one ``np.searchsorted`` call each:
    # the call overhead dominates with tens of thousands of fronts.
    running_max = np.maximum.accumulate(maxpred).tolist()

    bounds = [0]
    s = 0
    while s < n:
        # First i with running_max[i] >= s; such i is always > s because
        # a predecessor index is strictly below its consumer.
        e = bisect_left(running_max, s)
        if e <= s:  # pragma: no cover - defensive (cannot happen on a DAG)
            e = s + 1
        bounds.append(e)
        s = e
    return DispatchFronts(front_ptr=np.asarray(bounds, dtype=np.int64))


#: Fronts at least this wide are resolved with array operations by the
#: fast model's scheduling pass; narrower ones run in its scalar loop.
WIDE_FRONT = 32
#: Runs of narrow fronts are cut into chunks of at most this many
#: components.
CHUNK = 128
#: A chunk reduces its far in-edges (predecessor before the chunk start)
#: in one array call when it has at least this many of them; below,
#: the call costs more than the scalar loop over those edges saves.
REDUCE_MIN_FAR = 128

#: :attr:`FrontRouting.seg_mode` values.
SEG_WIDE, SEG_REDUCE, SEG_SCALAR = 0, 1, 2


@dataclass(frozen=True)
class FrontRouting:
    """Segmentation of the dispatch order for the fast model's pass.

    Segment ``s`` is the component range ``[seg_ptr[s], seg_ptr[s+1])``
    and its :attr:`seg_mode` says how the pass resolves it:

    * ``SEG_WIDE`` - one dispatch front of at least :data:`WIDE_FRONT`
      components: readiness and slot pools in array operations;
    * ``SEG_REDUCE`` - a chunk of at most :data:`CHUNK` components from
      a run of narrow fronts whose far in-edges (predecessor before the
      chunk start) are reduced in one array call; a scalar loop walks
      the near in-edges and the slot pools;
    * ``SEG_SCALAR`` - consecutive chunks with fewer than
      :data:`REDUCE_MIN_FAR` far in-edges each: the scalar loop walks
      every in-edge, so chunk bounds do not matter and they merge.

    Everything depends on the structure only, so the bundle builds it
    once per matrix.  ``red_off``/``red_comp`` list, per array-reduced
    segment (range ``red_ptr[s]:red_ptr[s+1]``), each member with
    in-edges: its first in-edge offset from the segment's first and its
    offset from the segment start.  ``loop_pos[loop_ptr[i]:loop_ptr[i+1]]``
    are the in-edge positions the scalar loop walks for component ``i``.
    """

    seg_ptr: np.ndarray
    seg_mode: np.ndarray
    red_ptr: np.ndarray
    red_off: np.ndarray
    red_comp: np.ndarray
    loop_ptr: np.ndarray
    loop_pos: np.ndarray

    @property
    def n_segments(self) -> int:
        return int(len(self.seg_ptr) - 1)


def compute_front_routing(
    dag: DependencyDag, fronts: DispatchFronts
) -> FrontRouting:
    """Route wide fronts to array operations, cut narrow runs in chunks."""
    n = dag.n
    in_ptr, in_idx = dag.in_ptr, dag.in_idx
    front_ptr = fronts.front_ptr
    wide = np.diff(front_ptr) >= WIDE_FRONT
    # Narrow runs: maximal sequences of narrow fronts, cut every CHUNK.
    edge = np.diff(np.concatenate([[True], wide, [True]]).astype(np.int8))
    run_s = front_ptr[:-1][edge[:-1] == -1]
    run_e = front_ptr[1:][edge[1:] == 1]
    n_chunks = -(-(run_e - run_s) // CHUNK)
    first = np.cumsum(n_chunks) - n_chunks
    chunk_s = np.repeat(run_s, n_chunks) + CHUNK * (
        np.arange(int(n_chunks.sum())) - np.repeat(first, n_chunks)
    )
    starts = np.concatenate([front_ptr[:-1][wide], chunk_s])
    order = np.argsort(starts, kind="stable")
    starts = starts[order]
    is_chunk = order >= int(wide.sum())

    in_counts = np.diff(in_ptr)
    seg_of = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, n)))
    consumer_seg = np.repeat(seg_of, in_counts)
    far = in_idx < starts[consumer_seg]
    n_far = np.bincount(consumer_seg[far], minlength=len(starts))
    mode = np.where(
        is_chunk,
        np.where(n_far >= REDUCE_MIN_FAR, SEG_REDUCE, SEG_SCALAR),
        SEG_WIDE,
    ).astype(np.int8)
    scalar = mode == SEG_SCALAR
    walked = is_chunk[consumer_seg] & (scalar[consumer_seg] | ~far)
    reduced = ~scalar[seg_of] & (in_counts > 0)
    keep = np.ones(len(starts), dtype=bool)
    keep[1:] = ~(scalar[1:] & scalar[:-1])
    seg_ptr = np.append(starts[keep], n).astype(np.int64)
    seg_of = np.cumsum(keep)[seg_of] - 1

    itype = np.int32 if max(n, len(in_idx)) < 2**31 else np.int64
    loop_ptr = np.zeros(n + 1, dtype=itype)
    np.cumsum(
        np.bincount(np.repeat(np.arange(n), in_counts)[walked], minlength=n),
        out=loop_ptr[1:],
    )
    red_of = np.flatnonzero(reduced)
    red_seg = seg_of[red_of]
    red_ptr = np.zeros(len(seg_ptr), dtype=itype)
    np.cumsum(np.bincount(red_seg, minlength=len(seg_ptr) - 1), out=red_ptr[1:])
    return FrontRouting(
        seg_ptr=seg_ptr,
        seg_mode=mode[keep],
        red_ptr=red_ptr,
        red_off=(in_ptr[red_of] - in_ptr[seg_ptr[red_seg]]).astype(itype),
        red_comp=(red_of - seg_ptr[red_seg]).astype(itype),
        loop_ptr=loop_ptr,
        loop_pos=np.flatnonzero(walked).astype(itype),
    )
