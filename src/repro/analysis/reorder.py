"""Reordering strategies (extension study).

The paper notes (Section II-B) that level-set structure — and with it
every parallel SpTRSV's behaviour — is determined by the matrix ordering.
This module implements two classic symmetric reorderings from scratch so
the benches can study how ordering moves a matrix through the
``(#levels, parallelism)`` plane:

* :func:`rcm_ordering` — reverse Cuthill–McKee on the symmetrised
  pattern: minimises bandwidth, typically *lengthening* dependency
  chains (good for cache, bad for parallel SpTRSV);
* :func:`level_packing_ordering` — sorts components by level (ties by
  original index): produces the level-major numbering that maximises the
  contiguity of independent work.

Both return permutations usable with
:func:`repro.sparse.triangular.permute_symmetric`; note that a symmetric
permutation of a triangular matrix is generally *not* triangular — use
:func:`reorder_lower` which re-extracts the lower triangle of the
permuted pattern, the standard workflow when benchmarking orderings.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.analysis.levels import compute_levels
from repro.errors import ShapeError
from repro.sparse.coo import sorted_unique
from repro.sparse.csc import CscMatrix
from repro.sparse.triangular import lower_triangle, permute_symmetric

__all__ = [
    "rcm_ordering",
    "level_packing_ordering",
    "red_black_ordering",
    "reorder_lower",
]


def red_black_ordering(nx: int, ny: int) -> np.ndarray:
    """Red-black (checkerboard) permutation of an ``nx x ny`` grid.

    The classical parallel ordering for 5-point stencils: all "red"
    vertices (``(r + c)`` even) are numbered before all "black" ones.
    No red vertex neighbours another red vertex, so an incomplete
    factorisation in this order yields a nearly two-level dependency
    structure — the textbook demonstration that ordering, not the
    operator, decides how parallel a triangular solve can be.

    Returns ``perm`` with ``perm[old] = new`` (row-major old numbering).
    """
    if nx < 1 or ny < 1:
        raise ShapeError("grid must be at least 1x1")
    n = nx * ny
    rr, cc = np.divmod(np.arange(n), nx)
    red = (rr + cc) % 2 == 0
    perm = np.empty(n, dtype=np.int64)
    perm[red] = np.arange(int(red.sum()), dtype=np.int64)
    perm[~red] = int(red.sum()) + np.arange(n - int(red.sum()), dtype=np.int64)
    return perm


def _symmetric_adjacency(mat: CscMatrix) -> tuple[np.ndarray, np.ndarray]:
    """CSR adjacency of the symmetrised pattern, self-loops removed."""
    coo = mat.to_coo()
    off = coo.row != coo.col
    r = np.concatenate([coo.row[off], coo.col[off]])
    c = np.concatenate([coo.col[off], coo.row[off]])
    key = sorted_unique(r * mat.shape[0] + c)
    r, c = key // mat.shape[0], key % mat.shape[0]
    ptr = np.zeros(mat.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(r, minlength=mat.shape[0]), out=ptr[1:])
    return ptr, c


def rcm_ordering(mat: CscMatrix) -> np.ndarray:
    """Reverse Cuthill–McKee permutation of a square sparse matrix.

    Returns ``perm`` with ``perm[old] = new`` (the convention of
    :func:`~repro.sparse.triangular.permute_symmetric`).  BFS starts from
    a minimum-degree vertex of each connected component and visits
    neighbours in increasing-degree order; the final order is reversed.
    """
    n, m = mat.shape
    if n != m:
        raise ShapeError("RCM needs a square matrix")
    ptr, adj = _symmetric_adjacency(mat)
    degree = np.diff(ptr)
    visited = np.zeros(n, dtype=bool)
    order: list[int] = []
    # Process components in order of their minimum-degree seed.
    seeds = np.argsort(degree, kind="stable")
    for seed in seeds:
        if visited[seed]:
            continue
        visited[seed] = True
        queue = deque([int(seed)])
        while queue:
            v = queue.popleft()
            order.append(v)
            nbrs = adj[ptr[v] : ptr[v + 1]]
            nbrs = nbrs[~visited[nbrs]]
            visited[nbrs] = True
            for u in nbrs[np.argsort(degree[nbrs], kind="stable")]:
                queue.append(int(u))
    order.reverse()
    perm = np.empty(n, dtype=np.int64)
    perm[np.asarray(order)] = np.arange(n, dtype=np.int64)
    return perm


def level_packing_ordering(lower: CscMatrix) -> np.ndarray:
    """Permutation sorting components level-major (stable on index).

    Applied to a lower-triangular matrix this yields a numbering whose
    level sets are contiguous index ranges — the idealised layout for
    level-scheduled solvers and the block-distribution worst case for the
    task-model study.
    """
    levels = compute_levels(lower)
    order = np.lexsort((np.arange(levels.n), levels.level_of))
    perm = np.empty(levels.n, dtype=np.int64)
    perm[order] = np.arange(levels.n, dtype=np.int64)
    return perm


def reorder_lower(lower: CscMatrix, perm: np.ndarray) -> CscMatrix:
    """Apply a symmetric permutation and re-extract the lower triangle.

    ``P L P^T`` of a triangular matrix is not triangular in general; the
    benchmark-standard workflow keeps the permuted *pattern* and solves
    its lower triangle.  Off-diagonal values are preserved where they
    land in the lower triangle; the diagonal is refreshed to stay
    row-dominant.
    """
    permuted = permute_symmetric(lower, perm)
    return lower_triangle(permuted, ensure_nonzero_diag=True)
