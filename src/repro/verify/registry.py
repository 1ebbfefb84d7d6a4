"""Solver conformance registry with subclass auto-discovery.

Every concrete :class:`~repro.solvers.base.TriangularSolver` in the
package must appear in the conformance matrix — the registry has teeth:
:meth:`ConformanceRegistry.coverage_gaps` walks the live subclass tree
(``TriangularSolver.__subclasses__`` recursively, restricted to
``repro.*`` modules) and reports any concrete solver class nobody
registered a :class:`ConformanceCase` for.  Adding a solver without a
conformance entry fails ``tests/test_conformance.py`` immediately.

Cases carry a factory (constructor arguments are part of the contract),
the solve *kind* (forward ``Lx=b`` or backward ``Ux=b``), a relative
tolerance, and the set of metamorphic relations from
:mod:`repro.verify.oracles` that apply to them.

Coverage has two more axes beyond solver classes: execution *designs*
(:class:`~repro.exec_model.costmodel.Design` values) and task
*distributions* (``repro.tasks.schedule.VALID_DISTRIBUTIONS``).  Cases
declare which design/distribution they exercise;
:meth:`ConformanceRegistry.design_coverage_gaps` and
:meth:`ConformanceRegistry.distribution_coverage_gaps` report required
axes nobody covers, so dropping e.g. the ``stale_sync`` case fails
``tests/test_conformance.py`` the same way an unregistered solver does.
"""

from __future__ import annotations

import importlib
import pkgutil
from dataclasses import dataclass
from typing import Callable

from repro.machine.node import dgx1
from repro.solvers.base import TriangularSolver

__all__ = [
    "ConformanceCase",
    "ConformanceRegistry",
    "discover_solver_classes",
    "default_registry",
    "FORWARD_RELATIONS",
    "BACKWARD_RELATIONS",
    "REQUIRED_DESIGNS",
    "REQUIRED_DISTRIBUTIONS",
]

#: Relations applied to forward (``Lx = b``) cases by default.
FORWARD_RELATIONS: tuple[str, ...] = (
    "differential",
    "permutation",
    "row_scaling",
    "rhs_linearity",
    "multi_rhs",
)

#: Backward cases skip relations that presuppose a lower-triangular
#: input (topological permutation, and ``solve_multi_rhs``, whose block
#: sweep is the forward ``levelset_forward``).
BACKWARD_RELATIONS: tuple[str, ...] = (
    "differential",
    "row_scaling",
    "rhs_linearity",
)

#: Execution designs the matrix must exercise (``Design`` values).
REQUIRED_DESIGNS: tuple[str, ...] = (
    "unified",
    "shmem_naive",
    "shmem_readonly",
    "stale_sync",
)

#: Task distributions the matrix must exercise.
REQUIRED_DISTRIBUTIONS: tuple[str, ...] = (
    "block",
    "taskpool",
    "costaware",
    "hierarchical",
)


@dataclass(frozen=True)
class ConformanceCase:
    """One registered solver configuration.

    Attributes
    ----------
    name:
        Unique case name (CLI/report key).
    factory:
        Zero-argument constructor; a fresh solver is built per workload
        so stateful solvers (refinement history, session caches) cannot
        leak between checks.
    solver_cls:
        The class the case covers (for gap accounting).
    kind:
        ``"forward"`` solves ``Lx = b``; ``"backward"`` receives the
        anti-transposed upper system ``Ux = b``.
    rtol:
        Relative tolerance against the serial reference (looser for
        iterative-refinement solvers).
    max_n:
        Skip workloads larger than this (the DES tier is O(events) in
        Python).
    relations:
        Metamorphic relations to run, by name.
    design:
        Execution design this case exercises (a
        :class:`~repro.exec_model.costmodel.Design` value string), or
        ``None`` for solvers with no design axis.
    distribution:
        Task distribution this case exercises, or ``None`` when the
        solver has no distribution axis.
    """

    name: str
    factory: Callable[[], TriangularSolver]
    solver_cls: type
    kind: str = "forward"
    rtol: float = 1e-9
    max_n: int | None = None
    relations: tuple[str, ...] = FORWARD_RELATIONS
    design: str | None = None
    distribution: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("forward", "backward"):
            raise ValueError(f"unknown solve kind {self.kind!r}")


class ConformanceRegistry:
    """Named collection of conformance cases with coverage accounting."""

    def __init__(self) -> None:
        self._cases: dict[str, ConformanceCase] = {}

    def register(self, case: ConformanceCase) -> ConformanceCase:
        if case.name in self._cases:
            raise ValueError(f"duplicate conformance case {case.name!r}")
        self._cases[case.name] = case
        return case

    @property
    def cases(self) -> list[ConformanceCase]:
        return list(self._cases.values())

    def __len__(self) -> int:
        return len(self._cases)

    def __iter__(self):
        return iter(self._cases.values())

    def get(self, name: str) -> ConformanceCase:
        return self._cases[name]

    def covered_classes(self) -> set[type]:
        return {c.solver_cls for c in self._cases.values()}

    def coverage_gaps(self) -> list[type]:
        """Concrete ``repro.*`` solver classes with no registered case."""
        covered = self.covered_classes()
        return [
            cls for cls in discover_solver_classes() if cls not in covered
        ]

    def design_coverage_gaps(
        self, required: tuple[str, ...] = REQUIRED_DESIGNS
    ) -> list[str]:
        """Required execution designs no registered case exercises."""
        covered = {c.design for c in self._cases.values() if c.design}
        return [d for d in required if d not in covered]

    def distribution_coverage_gaps(
        self, required: tuple[str, ...] = REQUIRED_DISTRIBUTIONS
    ) -> list[str]:
        """Required task distributions no registered case exercises."""
        covered = {
            c.distribution for c in self._cases.values() if c.distribution
        }
        return [d for d in required if d not in covered]


def discover_solver_classes() -> list[type]:
    """Every concrete TriangularSolver subclass defined in ``repro.*``.

    Imports all ``repro.solvers`` submodules first so lazily-imported
    solvers still show up, then walks the subclass tree recursively.
    Abstract intermediates (with ``__abstractmethods__``) are skipped.
    """
    import repro.solvers as pkg

    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"repro.solvers.{info.name}")

    found: list[type] = []
    stack = list(TriangularSolver.__subclasses__())
    seen: set[type] = set()
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        stack.extend(cls.__subclasses__())
        if not cls.__module__.startswith("repro."):
            continue
        if getattr(cls, "__abstractmethods__", None):
            continue
        found.append(cls)
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


def _cluster_des():
    """DES solver on a 2-node x 2-GPU cluster with hierarchical placement.

    The smallest machine whose topology has a real fallback tier between
    nodes, so conformance runs exercise ``tier_of``/``fallback_legal``
    and the hierarchical node axis end to end.
    """
    from repro.machine.multinode import cluster
    from repro.solvers.des_solver import DesSolver

    return DesSolver(
        machine=cluster(2, 2),
        distribution="hierarchical",
        node_run=2,
    )


def default_registry() -> ConformanceRegistry:
    """The full conformance matrix: every solver class in the package."""
    from repro.machine.node import dgx2
    from repro.solvers.backward import BackwardSolver
    from repro.solvers.blocked import BlockedSolver
    from repro.solvers.cusparse import CusparseCsrsv2Solver
    from repro.solvers.des_solver import DesSolver
    from repro.solvers.levelset import LevelSetSolver
    from repro.solvers.mixedprec import MixedPrecisionSolver
    from repro.solvers.nvshmem import NaiveShmemSolver, ShmemSolver
    from repro.solvers.serial import SerialSolver
    from repro.solvers.syncfree import SyncFreeSolver
    from repro.solvers.threadlevel import ThreadLevelSolver
    from repro.solvers.unified import UnifiedMemorySolver
    from repro.solvers.zerocopy import ZeroCopySolver

    reg = ConformanceRegistry()
    add = reg.register
    add(ConformanceCase("serial", SerialSolver, SerialSolver, rtol=1e-12))
    add(ConformanceCase("levelset", LevelSetSolver, LevelSetSolver))
    add(
        ConformanceCase(
            "cusparse-csrsv2", CusparseCsrsv2Solver, CusparseCsrsv2Solver
        )
    )
    add(ConformanceCase("syncfree-1gpu", SyncFreeSolver, SyncFreeSolver))
    add(
        ConformanceCase(
            "threadlevel-1gpu", ThreadLevelSolver, ThreadLevelSolver
        )
    )
    add(ConformanceCase("blocked-supernodal", BlockedSolver, BlockedSolver))
    add(
        ConformanceCase(
            "mixed-precision",
            MixedPrecisionSolver,
            MixedPrecisionSolver,
            # Iterative refinement converges to ~1e-12 backward error;
            # metamorphic identities hold only to the refinement floor.
            rtol=1e-6,
        )
    )
    add(
        ConformanceCase(
            "unified-4gpu",
            UnifiedMemorySolver,
            UnifiedMemorySolver,
            design="unified",
        )
    )
    add(ConformanceCase("shmem-4gpu", ShmemSolver, ShmemSolver))
    add(
        ConformanceCase(
            "shmem-naive-4gpu",
            NaiveShmemSolver,
            NaiveShmemSolver,
            design="shmem_naive",
        )
    )
    add(
        ConformanceCase(
            "zerocopy-4gpu",
            ZeroCopySolver,
            ZeroCopySolver,
            design="shmem_readonly",
        )
    )
    add(
        ConformanceCase(
            "zerocopy-8gpu-dgx2",
            lambda: ZeroCopySolver(machine=dgx2(8)),
            ZeroCopySolver,
        )
    )
    add(
        ConformanceCase(
            "des-2gpu-array",
            # The production DES path.  The reference engine faces the
            # same workloads in tests/test_des_array.py's cross-engine
            # identity test rather than as a case of its own.
            lambda: DesSolver(machine=dgx1(2)),
            DesSolver,
            # The DES tier replays every event in Python; cap workload
            # size and skip the solve-heavy multi-RHS relation.
            max_n=300,
            relations=("differential", "permutation", "row_scaling"),
            design="shmem_readonly",
            distribution="block",
        )
    )
    add(
        ConformanceCase(
            "des-2gpu-stale",
            # Stale-synchronous design: components may launch on a
            # bounded-stale partial sum; the post-hoc validation pass
            # must repair every above-ceiling stale read, so the case
            # keeps the same oracle tolerance as the strict designs.
            lambda: DesSolver(machine=dgx1(2), design="stale_sync"),
            DesSolver,
            max_n=300,
            relations=("differential", "permutation", "row_scaling"),
            design="stale_sync",
            distribution="block",
        )
    )
    add(
        ConformanceCase(
            "des-2gpu-costaware",
            # Cost-aware placement must be solution-invariant: any
            # task-to-GPU map yields the same x, only timings move.
            lambda: DesSolver(machine=dgx1(2), distribution="costaware"),
            DesSolver,
            max_n=300,
            relations=("differential", "permutation", "row_scaling"),
            design="shmem_readonly",
            distribution="costaware",
        )
    )
    add(
        ConformanceCase(
            "des-cluster-2x2",
            # Multi-node fabric: two NVSwitch islands joined by an IB
            # tier.  Hierarchical placement keeps dependency runs on a
            # node; the causality replayer checks every transfer against
            # the tiered reachability rule (IB hops are legal only
            # because the cluster fabric sets ``shmem_over_fallback``).
            _cluster_des,
            DesSolver,
            max_n=300,
            relations=("differential", "permutation", "row_scaling"),
            design="shmem_readonly",
            distribution="hierarchical",
        )
    )
    add(
        ConformanceCase(
            "des-2gpu-taskpool",
            # Round-robin task pools through the session pipeline: the
            # registry's taskpool row.
            lambda: DesSolver(machine=dgx1(2), distribution="taskpool"),
            DesSolver,
            max_n=300,
            relations=("differential", "permutation", "row_scaling"),
            design="shmem_readonly",
            distribution="taskpool",
        )
    )
    add(
        ConformanceCase(
            "backward-zerocopy",
            lambda: BackwardSolver(ZeroCopySolver()),
            BackwardSolver,
            kind="backward",
            relations=BACKWARD_RELATIONS,
        )
    )
    return reg
