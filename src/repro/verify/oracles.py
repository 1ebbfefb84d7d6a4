"""Differential and metamorphic oracles for the conformance matrix.

Each relation is a function ``(solver, case, mat, seed) -> None`` that
raises :class:`AssertionError` on a conformance breach.  ``mat`` is
lower-triangular for forward cases and upper-triangular (the
anti-transpose of the generated workload) for backward cases, so every
relation sees exactly what the solver under test expects.

Relations
---------
``differential``
    The solver's ``x`` matches a manufactured true solution, the serial
    reference substitution, and has a small componentwise backward error.
``permutation`` (forward only)
    Renumbering components along a *random topological linear extension*
    of the dependency DAG keeps ``P L P^T`` lower-triangular and must not
    change the solution: ``x'[perm] == x``.  This is the paper's
    reordering experiment as an oracle — scheduling changes, numerics
    must not.
``row_scaling``
    Scaling row ``i`` of the matrix and ``b[i]`` by the same ``d_i > 0``
    leaves ``x`` unchanged (each row's equation is scaled through).
``rhs_linearity``
    ``solve(a*b1 + c*b2) == a*solve(b1) + c*solve(b2)`` — substitution
    is a linear map; any state leaking between solves breaks this.
``multi_rhs`` (forward only)
    :func:`~repro.solvers.multirhs.solve_multi_rhs` columns are
    independent (solving a block equals solving each column alone,
    bitwise) and column 0 agrees with the case solver.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.analysis.dag import build_dag
from repro.solvers.backward import anti_transpose
from repro.solvers.base import TriangularSolver
from repro.solvers.serial import serial_backward, serial_forward
from repro.sparse.csc import CscMatrix
from repro.sparse.triangular import permute_symmetric, require_lower_triangular
from repro.sparse.validate import (
    assert_solutions_close,
    random_rhs_for_solution,
    residual_norm,
)
from repro.verify.registry import ConformanceCase, ConformanceRegistry
from repro.workloads.generators import (
    banded_lower,
    dag_profile_matrix,
    grid_graph_lower,
    random_lower,
    tridiagonal_lower,
)

__all__ = [
    "Finding",
    "ConformanceReport",
    "random_topological_permutation",
    "default_generators",
    "quick_generators",
    "run_conformance",
]

#: Backward-error ceiling for the differential oracle (componentwise,
#: scaled — see :func:`repro.sparse.validate.residual_norm`).
RESIDUAL_CEILING = 1e-8


# ======================================================================
# workload generators
# ======================================================================
def default_generators() -> list[tuple[str, Callable[[int], CscMatrix]]]:
    """The full workload matrix: one generator per dependency regime.

    Sizes are kept small (n <= 240) so the entire conformance matrix —
    including the Python DES tier — stays CI-friendly.
    """
    return [
        ("chain", lambda seed: tridiagonal_lower(96, seed=seed)),
        ("banded", lambda seed: banded_lower(160, 5, fill=0.7, seed=seed)),
        ("grid", lambda seed: grid_graph_lower(10, 12, seed=seed)),
        ("random", lambda seed: random_lower(180, 3.5, seed=seed)),
        (
            "level-major",
            lambda seed: dag_profile_matrix(
                200, 10, 3.0, "uniform", 0.5, 0.0, 0.0, seed=seed
            ),
        ),
        (
            "scattered",
            lambda seed: dag_profile_matrix(
                200, 8, 2.5, "uniform", 0.5, 0.3, 0.8, seed=seed
            ),
        ),
        ("diagonal", _diagonal_matrix),
    ]


def quick_generators() -> list[tuple[str, Callable[[int], CscMatrix]]]:
    """A 4-generator subset covering the extreme regimes (CLI ``--quick``)."""
    full = dict(default_generators())
    return [(k, full[k]) for k in ("chain", "random", "level-major", "scattered")]


def _diagonal_matrix(seed: int) -> CscMatrix:
    """Pure-diagonal system: every component is a root (no edges at all)."""
    n = 40
    rng = np.random.default_rng(seed)
    data = rng.uniform(0.5, 2.0, n)
    return CscMatrix(
        np.arange(n + 1, dtype=np.int64),
        np.arange(n, dtype=np.int64),
        data,
        (n, n),
    )


# ======================================================================
# relation helpers
# ======================================================================
def random_topological_permutation(
    lower: CscMatrix, rng: np.random.Generator
) -> np.ndarray:
    """A random linear extension of the dependency DAG, as ``perm[old] = new``.

    Kahn's algorithm with randomised heap priorities: every prefix of
    the new numbering is dependency-closed, so the symmetric permutation
    ``P L P^T`` is again lower-triangular — a different schedule for the
    *same* equations.
    """
    dag = build_dag(lower)
    n = dag.n
    prio = rng.permutation(n)
    indeg = dag.in_degree.copy()
    heap = [(int(prio[i]), i) for i in range(n) if indeg[i] == 0]
    heapq.heapify(heap)
    perm = np.empty(n, dtype=np.int64)
    nxt = 0
    while heap:
        _, i = heapq.heappop(heap)
        perm[i] = nxt
        nxt += 1
        for j in dag.successors(i):
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, (int(prio[j]), int(j)))
    if nxt != n:  # pragma: no cover - generators produce DAGs
        raise ValueError("dependency graph is cyclic")
    return perm


def _scale_rows(mat: CscMatrix, d: np.ndarray) -> CscMatrix:
    """Left-multiply by ``diag(d)`` (CSC stores row ids in ``indices``)."""
    return CscMatrix(mat.indptr, mat.indices, mat.data * d[mat.indices], mat.shape)


def _reference(case: ConformanceCase, mat: CscMatrix, b: np.ndarray) -> np.ndarray:
    if case.kind == "backward":
        return serial_backward(mat, b)
    return serial_forward(mat, b)


# ======================================================================
# relations
# ======================================================================
def _rel_differential(
    solver: TriangularSolver, case: ConformanceCase, mat: CscMatrix, seed: int
) -> None:
    b, x_true = random_rhs_for_solution(mat, seed=seed)
    x = solver.solve(mat, b).x
    assert_solutions_close(
        x, x_true, rtol=max(case.rtol, 1e-9), context="manufactured solution"
    )
    assert_solutions_close(
        x, _reference(case, mat, b), rtol=case.rtol, context="serial reference"
    )
    res = residual_norm(mat, x, b)
    ceiling = max(RESIDUAL_CEILING, case.rtol)
    assert res <= ceiling, (
        f"backward error {res:.3e} exceeds ceiling {ceiling:.1e}"
    )


def _rel_permutation(
    solver: TriangularSolver, case: ConformanceCase, mat: CscMatrix, seed: int
) -> None:
    rng = np.random.default_rng(seed + 1)
    b, _ = random_rhs_for_solution(mat, seed=seed)
    perm = random_topological_permutation(mat, rng)
    permuted = permute_symmetric(mat, perm)
    require_lower_triangular(permuted)
    b_p = np.empty_like(b)
    b_p[perm] = b
    x = solver.solve(mat, b).x
    x_p = solver.solve(permuted, b_p).x
    # Float ops per component are identical up to summation order of the
    # left-sum gathers; allow a small multiple of the case tolerance.
    assert_solutions_close(
        x_p[perm], x, rtol=case.rtol * 10, context="topological renumbering"
    )


def _rel_row_scaling(
    solver: TriangularSolver, case: ConformanceCase, mat: CscMatrix, seed: int
) -> None:
    rng = np.random.default_rng(seed + 2)
    b, _ = random_rhs_for_solution(mat, seed=seed)
    d = rng.uniform(0.5, 2.0, mat.shape[0])
    x = solver.solve(mat, b).x
    x_s = solver.solve(_scale_rows(mat, d), b * d).x
    assert_solutions_close(
        x_s, x, rtol=case.rtol * 10, context="diagonal row scaling"
    )


def _rel_rhs_linearity(
    solver: TriangularSolver, case: ConformanceCase, mat: CscMatrix, seed: int
) -> None:
    rng = np.random.default_rng(seed + 3)
    n = mat.shape[0]
    b1 = rng.uniform(-1.0, 1.0, n)
    b2 = rng.uniform(-1.0, 1.0, n)
    a, c = 2.0, -0.5  # exact in binary floating point
    x1 = solver.solve(mat, b1).x
    x2 = solver.solve(mat, b2).x
    x12 = solver.solve(mat, a * b1 + c * b2).x
    # Substitution is linear; rounding differs per path, so compare at a
    # loosened tolerance anchored on the case's own.
    assert_solutions_close(
        x12, a * x1 + c * x2, rtol=max(case.rtol * 100, 1e-7),
        context="rhs linearity",
    )


def _rel_multi_rhs(
    solver: TriangularSolver, case: ConformanceCase, mat: CscMatrix, seed: int
) -> None:
    from repro.machine.node import dgx1
    from repro.solvers.multirhs import solve_multi_rhs

    rng = np.random.default_rng(seed + 4)
    n = mat.shape[0]
    bb = rng.uniform(-1.0, 1.0, (n, 3))
    res = solve_multi_rhs(mat, bb, machine=dgx1(2))
    assert res.x.shape == (n, 3)
    # Column independence: a column solved inside the block is bitwise
    # the column solved alone (the level sweep is elementwise per RHS).
    solo = solve_multi_rhs(mat, bb[:, :1], machine=dgx1(2))
    np.testing.assert_array_equal(
        res.x[:, 0], solo.x[:, 0], err_msg="multi-RHS column independence"
    )
    for k in range(3):
        assert_solutions_close(
            res.x[:, k],
            serial_forward(mat, bb[:, k]),
            rtol=1e-9,
            context=f"multi-RHS column {k} vs serial",
        )
    x0 = solver.solve(mat, bb[:, 0].copy()).x
    assert_solutions_close(
        res.x[:, 0], x0, rtol=max(case.rtol * 10, 1e-8),
        context="multi-RHS column 0 vs case solver",
    )


RELATIONS: dict[str, Callable] = {
    "differential": _rel_differential,
    "permutation": _rel_permutation,
    "row_scaling": _rel_row_scaling,
    "rhs_linearity": _rel_rhs_linearity,
    "multi_rhs": _rel_multi_rhs,
}


# ======================================================================
# runner
# ======================================================================
@dataclass(frozen=True)
class Finding:
    """Outcome of one (case, generator, relation) cell."""

    case: str
    generator: str
    relation: str
    ok: bool
    detail: str = ""
    elapsed: float = 0.0


@dataclass
class ConformanceReport:
    """All findings of one conformance run."""

    findings: list[Finding] = field(default_factory=list)

    @property
    def failures(self) -> list[Finding]:
        return [f for f in self.findings if not f.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        n = len(self.findings)
        bad = self.failures
        lines = [f"conformance: {n - len(bad)}/{n} cells passed"]
        for f in bad:
            lines.append(
                f"  FAIL {f.case} × {f.generator} × {f.relation}: {f.detail}"
            )
        return "\n".join(lines)


def run_conformance(
    registry: ConformanceRegistry,
    generators: list[tuple[str, Callable[[int], CscMatrix]]] | None = None,
    *,
    seed: int = 0,
    cases: list[str] | None = None,
) -> ConformanceReport:
    """Run every registered case against every workload generator.

    Forward cases receive the generated lower-triangular matrix;
    backward cases receive its anti-transpose (upper).  A fresh solver
    is constructed per (case, generator) so state cannot leak across
    workloads.  Failures are collected, never raised.
    """
    if generators is None:
        generators = default_generators()
    report = ConformanceReport()
    for case in registry:
        if cases is not None and case.name not in cases:
            continue
        for gen_name, gen in generators:
            lower = gen(seed)
            if case.max_n is not None and lower.shape[0] > case.max_n:
                continue
            mat = anti_transpose(lower) if case.kind == "backward" else lower
            for rel_name in case.relations:
                rel = RELATIONS[rel_name]
                t0 = time.perf_counter()
                try:
                    rel(case.factory(), case, mat, seed)
                except Exception as exc:  # noqa: BLE001 - report, don't die
                    report.findings.append(
                        Finding(
                            case.name, gen_name, rel_name,
                            ok=False,
                            detail=f"{type(exc).__name__}: {exc}",
                            elapsed=time.perf_counter() - t0,
                        )
                    )
                else:
                    report.findings.append(
                        Finding(
                            case.name, gen_name, rel_name,
                            ok=True,
                            elapsed=time.perf_counter() - t0,
                        )
                    )
    return report
