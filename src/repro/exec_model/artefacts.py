"""Shared analysis-artefact cache: pay the structure analysis once.

The paper's central workflow splits SpTRSV into an *analysis* phase paid
once per matrix structure and a *solve* phase amortised across designs,
machines, and right-hand sides (Algorithms 2/3's pre-pass; the same
split as cuSPARSE's ``csrsv2_analysis``/``csrsv2_solve``).  This module
is that split's single home: every layer outside :mod:`repro.analysis`
(which defines the products) and :mod:`repro.verify` (whose oracles
re-derive them on purpose) takes its DAG, level sets and default cost
tables from here, never from ``build_dag``/``compute_levels`` directly.

* :class:`AnalysisArtefacts` bundles everything derivable from one
  matrix structure — dependency DAG, level sets, dispatch fronts and
  their scheduling-pass routing, edge arrays — plus small keyed
  sub-caches for placement-dependent edge classifications and
  per-``(machine, design)`` communication cost tables;
* :func:`get_artefacts` is the process-wide lookup, weakly keyed by the
  matrix object so bundles die with their matrices;
* :func:`spill_artefacts` / :func:`load_artefacts` move a materialised
  bundle through a pickle file, so a parent process pays the structure
  analysis once and worker processes (the ``tools/sweep.py`` fan-out)
  load it instead of re-deriving the DAG per process;
* ``hits`` / ``build_counts`` expose how much re-derivation the cache
  absorbed, so benches can assert a sweep builds each structure exactly
  once.
"""

from __future__ import annotations

import pickle
import shutil
import tempfile
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.analysis.dag import DependencyDag, build_dag
from repro.analysis.levels import (
    DispatchFronts,
    FrontRouting,
    LevelSets,
    compute_dispatch_fronts,
    compute_front_routing,
    compute_levels,
)
from repro.exec_model.costmodel import CommCosts, Design, build_comm_costs
from repro.machine.node import MachineConfig
from repro.sparse.csc import CscMatrix
from repro.tasks.schedule import Distribution

__all__ = [
    "AnalysisArtefacts",
    "PlacementArtefacts",
    "EdgeTierArtefacts",
    "SpillStore",
    "get_artefacts",
    "spill_artefacts",
    "load_artefacts",
]

#: Keyed sub-cache capacity (placements / cost tables per bundle).
_SUBCACHE_CAP = 16

#: Process-wide bundle capacity (bundles die with their matrix anyway;
#: the cap only bounds the pathological many-live-matrices case).
_CACHE_CAP = 128


@dataclass(frozen=True)
class PlacementArtefacts:
    """Edge classifications for one component-to-GPU placement.

    Everything here depends only on ``gpu_of`` (and the structure), so it
    is shared by every design priced on the same distribution.  Per edge
    it holds one GPU-pair code, ``src_gpu * n_gpus + dst_gpu``, in the
    narrowest signed int holding ``n_gpus**2 - 1`` (int16 up to 181
    GPUs, int32 beyond): a flat index into any ``(n_gpus, n_gpus)``
    table, from which ``np.divmod(code, n_gpus)`` recovers both GPUs.
    """

    gpu_of: np.ndarray
    n_remote: int  # out-edges crossing GPUs
    has_remote_pred: np.ndarray  # component has >= 1 remote predecessor
    edge_pair: np.ndarray  # GPU-pair code per out-edge (cost lookup)
    in_pair: np.ndarray  # GPU-pair code per in-edge (notify lookup)
    nnz_per_gpu: np.ndarray
    pos_by_gpu: tuple[np.ndarray, ...]  # sorted int32 component ids per GPU
    seg_cuts: tuple[np.ndarray, ...]  # per GPU: routing seg_ptr positions


@dataclass(frozen=True)
class EdgeTierArtefacts:
    """Link-tier classification of one placement on one fabric.

    The node axis of a mesh-built machine, projected onto the DAG's
    out-edges: which dependency edges ride the fast intra-island link
    and which must cross the fallback tier (RDMA over IB on a cluster,
    PCIe staging on a single node).  Pure metadata — pricing stays in
    the :class:`~repro.exec_model.costmodel.CommCosts` matrices — but
    it is what scale-out studies and schedulers reason about.
    """

    tier_e: np.ndarray  # per out-edge link tier (protocol LINK_TIER_*)
    n_local: int  # same-rank edges
    n_direct: int  # remote edges on the direct link tier
    n_fallback: int  # remote edges crossing the fallback tier
    node_of_rank: np.ndarray  # owning node per PE rank (node axis)
    node_of_comp: np.ndarray  # owning node per component
    internode_edge: np.ndarray  # out-edge crosses the node axis

    @property
    def fallback_fraction(self) -> float:
        """Fraction of all dependency edges crossing the fallback tier."""
        total = self.tier_e.size
        return self.n_fallback / total if total else 0.0


class AnalysisArtefacts:
    """Structure-keyed bundle of reusable SpTRSV analysis products.

    Construction only stores the matrix (weakly) and the DAG; every
    other product — level sets, dispatch fronts, edge arrays — is built
    lazily on first use and memoised, with ``build_counts`` recording
    each build so callers can verify the amortisation.
    """

    def __init__(self, lower: CscMatrix, dag: DependencyDag | None = None):
        self._lower_ref = weakref.ref(lower)
        self.n = lower.shape[0]
        self.col_nnz = lower.col_nnz()
        self.hits = 0
        self.build_counts: dict[str, int] = {"dag": 0}
        if dag is None:
            dag = build_dag(lower)
            self.build_counts["dag"] = 1
        self.dag = dag
        self._levels: LevelSets | None = None
        self._fronts: DispatchFronts | None = None
        self._routing: FrontRouting | None = None
        self._edges: dict[str, np.ndarray] | None = None
        self._placements: dict[tuple, PlacementArtefacts] = {}
        self._costs: dict[tuple, tuple[MachineConfig, CommCosts]] = {}
        self._edge_tiers: dict[tuple, tuple[MachineConfig, EdgeTierArtefacts]] = {}

    # ----------------------------------------------------------- structure
    @property
    def lower(self) -> CscMatrix:
        m = self._lower_ref()
        if m is None:  # pragma: no cover - caller always holds the matrix
            raise ReferenceError("matrix behind this artefact bundle is gone")
        return m

    @property
    def levels(self) -> LevelSets:
        if self._levels is None:
            self._levels = compute_levels(self.dag)
            self.build_counts["levels"] = self.build_counts.get("levels", 0) + 1
        return self._levels

    @property
    def fronts(self) -> DispatchFronts:
        if self._fronts is None:
            self._fronts = compute_dispatch_fronts(self.dag)
            self.build_counts["fronts"] = self.build_counts.get("fronts", 0) + 1
        return self._fronts

    @property
    def routing(self) -> FrontRouting:
        """Segmentation of the dispatch order for the fast model's pass."""
        if self._routing is None:
            self._routing = compute_front_routing(self.dag, self.fronts)
            self.build_counts["routing"] = self.build_counts.get("routing", 0) + 1
        return self._routing

    @property
    def edges(self) -> dict[str, np.ndarray]:
        """Flat edge arrays of the DAG in both orientations.

        Keys: ``src``/``dst`` (out-edges, ascending ``src``),
        ``in_src``/``in_dst`` (in-edges, ascending ``in_dst``),
        ``out_counts``/``in_counts``.
        """
        if self._edges is None:
            dag = self.dag
            out_counts = np.diff(dag.out_ptr)
            in_counts = np.diff(dag.in_ptr)
            n = dag.n
            self._edges = {
                "src": np.repeat(np.arange(n, dtype=np.int64), out_counts),
                "dst": dag.out_idx,
                "in_src": dag.in_idx,
                "in_dst": np.repeat(np.arange(n, dtype=np.int64), in_counts),
                "out_counts": out_counts,
                "in_counts": in_counts,
            }
            self.build_counts["edges"] = self.build_counts.get("edges", 0) + 1
        return self._edges

    # ----------------------------------------------------------- placements
    def placement(self, dist: Distribution) -> PlacementArtefacts:
        """Edge classifications for ``dist`` (cached by placement content)."""
        key = (dist.n_gpus, dist.gpu_of.tobytes())
        cached = self._placements.get(key)
        if cached is not None:
            return cached
        edges = self.edges
        gpu_of = dist.gpu_of
        n_gpus = dist.n_gpus
        fits16 = n_gpus**2 - 1 <= np.iinfo(np.int16).max
        code = np.int16 if fits16 else np.int32
        gpu_c = gpu_of.astype(code)
        src_g = gpu_c[edges["src"]]
        dst_g = gpu_c[edges["dst"]]
        in_src_g = gpu_c[edges["in_src"]]
        in_dst_g = gpu_c[edges["in_dst"]]
        has_remote_pred = np.zeros(self.n, dtype=bool)
        has_remote_pred[edges["in_dst"][in_src_g != in_dst_g]] = True
        by_gpu = np.argsort(gpu_of, kind="stable").astype(np.int32)
        gpu_ends = np.cumsum(np.bincount(gpu_of, minlength=n_gpus))
        pos_by_gpu = tuple(np.split(by_gpu, gpu_ends[:-1]))
        seg_ptr = self.routing.seg_ptr
        seg_cuts = tuple(np.searchsorted(pos, seg_ptr) for pos in pos_by_gpu)
        place = PlacementArtefacts(
            gpu_of=gpu_of,
            n_remote=int(np.count_nonzero(src_g != dst_g)),
            has_remote_pred=has_remote_pred,
            edge_pair=src_g * code(n_gpus) + dst_g,
            in_pair=in_src_g * code(n_gpus) + in_dst_g,
            nnz_per_gpu=np.bincount(
                gpu_of, weights=self.col_nnz.astype(np.float64), minlength=n_gpus
            ),
            pos_by_gpu=pos_by_gpu,
            seg_cuts=seg_cuts,
        )
        if len(self._placements) >= _SUBCACHE_CAP:
            self._placements.pop(next(iter(self._placements)))
        self._placements[key] = place
        self.build_counts["placements"] = (
            self.build_counts.get("placements", 0) + 1
        )
        return place

    def edge_tiers(
        self, dist: Distribution, machine: MachineConfig
    ) -> EdgeTierArtefacts:
        """Link-tier classification of ``dist`` on ``machine``'s fabric.

        Cached by placement content and machine identity, like
        :meth:`placement` / :meth:`comm_costs`: a sweep re-pricing one
        placement across designs classifies the node axis exactly once.
        """
        key = (dist.n_gpus, dist.gpu_of.tobytes(), id(machine))
        cached = self._edge_tiers.get(key)
        if cached is not None and cached[0] is machine:
            return cached[1]
        from repro.engine.protocol import (
            LINK_TIER_DIRECT,
            LINK_TIER_FALLBACK,
            LINK_TIER_LOCAL,
            rank_tier_matrix,
        )

        place = self.placement(dist)
        tier_e = rank_tier_matrix(machine).ravel()[place.edge_pair]
        shape = machine.topology.node_shape
        gpus_per_node = shape[1] if shape is not None else machine.n_gpus
        phys = np.asarray(machine.active_gpus, dtype=np.int64)
        node_of_rank = phys // gpus_per_node
        node_of_comp = node_of_rank[place.gpu_of]
        internode = (node_of_rank[:, None] != node_of_rank).ravel()[
            place.edge_pair
        ]
        tiers = EdgeTierArtefacts(
            tier_e=tier_e,
            n_local=int(np.count_nonzero(tier_e == LINK_TIER_LOCAL)),
            n_direct=int(np.count_nonzero(tier_e == LINK_TIER_DIRECT)),
            n_fallback=int(np.count_nonzero(tier_e >= LINK_TIER_FALLBACK)),
            node_of_rank=node_of_rank,
            node_of_comp=node_of_comp,
            internode_edge=internode,
        )
        if len(self._edge_tiers) >= _SUBCACHE_CAP:
            self._edge_tiers.pop(next(iter(self._edge_tiers)))
        self._edge_tiers[key] = (machine, tiers)
        self.build_counts["edge_tiers"] = (
            self.build_counts.get("edge_tiers", 0) + 1
        )
        return tiers

    # ----------------------------------------------------------- cost tables
    def comm_costs(
        self,
        machine: MachineConfig,
        design: Design | str,
        *,
        warp_reduce: bool = True,
        shortcircuit: bool = True,
    ) -> CommCosts:
        """Per-``(machine, design)`` cost table (cached by machine identity)."""
        design = Design(design)
        if design in (Design.UNIFIED, Design.SHMEM_NAIVE):
            # Their tables read neither ablation knob: one entry serves all.
            warp_reduce = shortcircuit = True
        key = (id(machine), design, warp_reduce, shortcircuit)
        cached = self._costs.get(key)
        if cached is not None and cached[0] is machine:
            return cached[1]
        costs = build_comm_costs(
            machine, design, warp_reduce=warp_reduce, shortcircuit=shortcircuit
        )
        if len(self._costs) >= _SUBCACHE_CAP:
            self._costs.pop(next(iter(self._costs)))
        self._costs[key] = (machine, costs)
        self.build_counts["costs"] = self.build_counts.get("costs", 0) + 1
        return costs


# ---------------------------------------------------------------------------
_CACHE: dict[int, tuple[weakref.ref, AnalysisArtefacts]] = {}


def get_artefacts(lower: CscMatrix) -> AnalysisArtefacts:
    """Fetch (or build) the artefact bundle for one matrix.

    Bundles are keyed by matrix *object* and evicted automatically when
    the matrix is garbage collected, so repeated pricing of the same
    matrix — a 4-design x 2-machine bench sweep, a session serving many
    solves, a DES cross-check — derives the structure exactly once.
    """
    key = id(lower)
    entry = _CACHE.get(key)
    if entry is not None and entry[0]() is lower:
        bundle = entry[1]
        bundle.hits += 1
        return bundle
    bundle = AnalysisArtefacts(lower)
    _register(lower, bundle)
    return bundle


def _register(lower: CscMatrix, bundle: AnalysisArtefacts) -> None:
    key = id(lower)
    if len(_CACHE) >= _CACHE_CAP:
        _CACHE.pop(next(iter(_CACHE)))
    _CACHE[key] = (weakref.ref(lower, lambda _, k=key: _CACHE.pop(k, None)), bundle)


def spill_artefacts(lower: CscMatrix, path: str | Path) -> Path:
    """Materialise and pickle one matrix's artefact bundle to ``path``.

    The DAG, level sets, dispatch fronts and their routing, and edge
    arrays are forced before the dump so the loading side inherits them
    fully built.  The keyed sub-caches are deliberately *not* spilled:
    placements are cheap to re-derive and cost tables are keyed by
    machine object identity, which is meaningless in another process.
    """
    path = Path(path)
    art = get_artefacts(lower)
    payload = {
        "lower": lower,
        "dag": art.dag,
        "levels": art.levels,
        "fronts": art.fronts,
        "routing": art.routing,
        "edges": art.edges,
    }
    with path.open("wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return path


class SpillStore:
    """Context-managed spill directory with an LRU byte budget.

    :func:`spill_artefacts` writes a pickle per call and reclaims
    nothing — fine for a one-shot sweep fan-out, a leak for a
    long-lived session server spilling a bundle per distinct matrix.
    A ``SpillStore`` owns the lifecycle instead:

    * :meth:`put` spills a matrix's bundle at most once per ``key``
      (the caller's fingerprint) and returns the path;
    * every ``put`` / :meth:`get` refreshes the key's LRU position, and
      any ``put`` that pushes :attr:`total_bytes` over ``byte_budget``
      evicts least-recently-used spill files (never the one just
      written) until the store fits again;
    * :meth:`close` — or leaving the ``with`` block — removes every
      spill file, and the directory too when the store created it.

    A long session therefore cannot grow the spill directory without
    bound: the on-disk footprint is ``max(byte_budget, largest single
    bundle)``.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        byte_budget: int | None = None,
    ):
        self._owns_root = root is None
        self.root = Path(
            tempfile.mkdtemp(prefix="repro-spill-") if root is None else root
        )
        self.root.mkdir(parents=True, exist_ok=True)
        self.byte_budget = byte_budget
        self._entries: OrderedDict[str, tuple[Path, int]] = OrderedDict()
        self.evictions = 0
        self.spills = 0

    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        """Bytes currently held by live (non-evicted) spill files."""
        return sum(size for _p, size in self._entries.values())

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Path | None:
        """Path of ``key``'s spill file (refreshes LRU), or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def put(self, key: str, lower: CscMatrix) -> Path:
        """Spill ``lower``'s bundle under ``key`` (idempotent per key)."""
        cached = self.get(key)
        if cached is not None:
            return cached
        path = self.root / f"{key}.pkl"
        spill_artefacts(lower, path)
        self.spills += 1
        self._entries[key] = (path, path.stat().st_size)
        self._evict(keep=key)
        return path

    def _evict(self, keep: str) -> None:
        if self.byte_budget is None:
            return
        while self.total_bytes > self.byte_budget and len(self._entries) > 1:
            old_key = next(k for k in self._entries if k != keep)
            path, _size = self._entries.pop(old_key)
            path.unlink(missing_ok=True)
            self.evictions += 1

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Remove every spill file (and the directory, when owned)."""
        for path, _size in self._entries.values():
            path.unlink(missing_ok=True)
        self._entries.clear()
        if self._owns_root:
            shutil.rmtree(self.root, ignore_errors=True)

    def __enter__(self) -> "SpillStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_artefacts(path: str | Path) -> tuple[CscMatrix, AnalysisArtefacts]:
    """Load a spilled bundle; returns ``(matrix, bundle)``.

    The bundle is registered in the process-wide cache under the loaded
    matrix object, so a subsequent :func:`get_artefacts` on that matrix
    hits instead of re-deriving — the whole point of the spill.  The
    caller must keep the returned matrix alive (bundles hold it weakly).
    """
    with Path(path).open("rb") as fh:
        payload = pickle.load(fh)
    lower = payload["lower"]
    bundle = AnalysisArtefacts(lower, dag=payload["dag"])
    bundle._levels = payload["levels"]
    bundle._fronts = payload["fronts"]
    bundle._routing = payload["routing"]
    bundle._edges = payload["edges"]
    _register(lower, bundle)
    return lower, bundle
