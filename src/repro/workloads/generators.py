"""Synthetic lower-triangular matrix generators.

The centrepiece is :func:`dag_profile_matrix`, which constructs a lower
triangular matrix with a *prescribed level structure*: you choose the
number of level sets, the level-width profile, the average dependency
(nnz/row), and how strongly extra dependencies cluster near their
consumer.  Because the paper explains all per-matrix behaviour through
``#levels``/``parallelism``/``dependency`` (Table I, Section VI-D),
controlling those knobs directly is what makes laptop-scale stand-ins
faithful to the SuiteSparse originals.

Simpler generators (:func:`tridiagonal_lower`, :func:`banded_lower`,
:func:`random_lower`, :func:`grid_graph_lower`) serve tests and examples.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Literal

import numpy as np

from repro.errors import WorkloadError
from repro.sparse.coo import CooMatrix, sorted_unique
from repro.sparse.csc import CscMatrix

__all__ = [
    "dag_profile_matrix",
    "tridiagonal_lower",
    "banded_lower",
    "random_lower",
    "forest_lower",
    "grid_graph_lower",
    "level_widths",
]

WidthProfile = Literal["uniform", "geometric", "bulge", "front"]


def level_widths(
    n: int, n_levels: int, profile: WidthProfile, rng: np.random.Generator
) -> np.ndarray:
    """Partition ``n`` components into ``n_levels`` positive level widths.

    Profiles
    --------
    ``uniform``
        Near-equal widths — regular meshes, road networks.
    ``geometric``
        Wide first levels decaying geometrically — social/citation graphs
        where most vertices are near the roots.
    ``bulge``
        Rise-then-fall — FEM factors whose elimination fronts grow then
        shrink.
    ``front``
        One huge root level, thin tail — KKT systems, web graphs with a
        dominant independent set.
    """
    if n_levels < 1 or n_levels > n:
        raise WorkloadError(f"need 1 <= n_levels <= n, got {n_levels} for n={n}")
    if profile == "uniform":
        raw = np.ones(n_levels)
    elif profile == "geometric":
        raw = 0.93 ** np.arange(n_levels, dtype=np.float64)
    elif profile == "bulge":
        t = np.linspace(0.0, 1.0, n_levels)
        raw = 0.1 + np.sin(np.pi * t) ** 2
    elif profile == "front":
        # First level holds ~half the components, remainder spread evenly
        # (a KKT-like bipartite-ish structure).
        raw = np.full(n_levels, 1.0)
        raw[0] = max(n_levels - 1.0, 1.0)
    else:  # pragma: no cover - guarded by Literal
        raise WorkloadError(f"unknown width profile {profile!r}")
    raw = raw * (1.0 + 0.15 * rng.random(n_levels))  # mild irregularity
    widths = np.maximum(1, np.floor(raw / raw.sum() * n).astype(np.int64))
    # Fix rounding drift while keeping every width >= 1.
    drift = n - int(widths.sum())
    if drift > 0:
        idx = rng.choice(n_levels, size=drift, replace=True, p=raw / raw.sum())
        np.add.at(widths, idx, 1)
    while drift < 0:
        candidates = np.nonzero(widths > 1)[0]
        take = candidates[: min(len(candidates), -drift)]
        widths[take] -= 1
        drift += len(take)
    assert int(widths.sum()) == n and widths.min() >= 1
    return widths


def dag_profile_matrix(
    n: int,
    n_levels: int,
    dependency: float,
    profile: WidthProfile = "uniform",
    locality: float = 0.5,
    order_mix: float = 0.3,
    scatter: float = 0.0,
    seed: int = 0,
) -> CscMatrix:
    """Build a lower-triangular matrix with an exact level-set count.

    Parameters
    ----------
    n:
        Number of rows/components.
    n_levels:
        Exact number of level sets the result will have.
    dependency:
        Target average nonzeros per row (Table I's ``NNZ/nRow``),
        including the diagonal.  Must be >= 1.
    profile:
        Level-width profile (see :func:`level_widths`).
    locality:
        In [0, 1]: how strongly extra dependencies cluster in levels just
        below the consumer (1 = tight chains / banded structure, 0 =
        uniform over all earlier levels / scale-free structure).
    order_mix:
        In [0, 1]: how far the component numbering deviates from strict
        level-major order.  0 keeps each level contiguous in index space;
        larger values interleave components of adjacent levels (noise is
        bounded below one level so the numbering always remains a valid
        topological order).
    scatter:
        In [0, 1]: global level/index decorrelation.  When positive, the
        final numbering is a *random linear extension* drawn by Kahn's
        algorithm with heap priority ``(1 - scatter) * level + scatter *
        noise``: components of one level spread across the whole index
        range (as in real factors of natural/fill-reducing orderings)
        while the numbering remains topologically valid.  ``scatter``
        subsumes ``order_mix`` when nonzero.
    seed:
        RNG seed; generation is fully deterministic given the arguments.

    Returns
    -------
    CscMatrix
        Row-diagonally-dominant lower-triangular matrix whose level-set
        decomposition has exactly ``n_levels`` levels.
    """
    if n < 1:
        raise WorkloadError(f"n must be >= 1, got {n}")
    if dependency < 1.0:
        raise WorkloadError(f"dependency must be >= 1.0, got {dependency}")
    if (
        not 0.0 <= locality <= 1.0
        or not 0.0 <= order_mix <= 1.0
        or not 0.0 <= scatter <= 1.0
    ):
        raise WorkloadError("locality, order_mix and scatter must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    widths = level_widths(n, n_levels, profile, rng)
    level_ptr = np.zeros(n_levels + 1, dtype=np.int64)
    np.cumsum(widths, out=level_ptr[1:])
    # Provisional node ids are level-major: level l owns
    # [level_ptr[l], level_ptr[l+1]).
    level_of = np.repeat(np.arange(n_levels, dtype=np.int64), widths)

    # --- mandatory parents: one per node from the level directly below ---
    children = np.arange(level_ptr[1], n, dtype=np.int64)
    child_levels = level_of[children]
    lo = level_ptr[child_levels - 1]
    hi = level_ptr[child_levels]
    parents = lo + (rng.random(len(children)) * (hi - lo)).astype(np.int64)

    # --- extra dependencies to reach the target nnz ----------------------
    # nnz = n (diagonal) + mandatory + extra.
    target_extra = int(round(n * (dependency - 1.0))) - len(children)
    # A single-level matrix has no eligible consumers: every component is
    # independent, so a dependency target above 1.0 is quietly unreachable.
    if target_extra > 0 and len(children):
        # Eligible consumers: any node not in level 0.
        extra_child = children[
            (rng.random(target_extra) * len(children)).astype(np.int64)
        ]
        cl = level_of[extra_child]
        # Parent level: geometric-like decay below the child's level with
        # strength set by `locality`.
        span = cl.astype(np.float64)  # levels available below child
        if locality > 0.0:
            scale = np.maximum((1.0 - locality) * span, 0.35)
            back = np.floor(rng.exponential(scale=scale)).astype(np.int64)
        else:
            back = (rng.random(target_extra) * span).astype(np.int64)
        plevel = np.clip(cl - 1 - back, 0, None)
        plo = level_ptr[plevel]
        phi = level_ptr[plevel + 1]
        extra_parent = plo + (rng.random(target_extra) * (phi - plo)).astype(
            np.int64
        )
        children_all = np.concatenate([children, extra_child])
        parents_all = np.concatenate([parents, extra_parent])
    else:
        children_all, parents_all = children, parents

    # Deduplicate (child, parent) pairs.
    key = children_all * n + parents_all
    uniq = sorted_unique(key)
    child_f = uniq // n
    parent_f = uniq % n

    # --- linear extension for the final numbering ------------------------
    if scatter > 0.0:
        new_id = _random_linear_extension(
            n, child_f, parent_f, level_of, scatter, rng
        )
    else:
        # priority = level + noise with amplitude < 1: a node can only
        # leapfrog into the neighbouring level's index range, so the
        # numbering stays a valid topological order (edges always span
        # >= 1 level).
        noise = rng.random(n) * min(order_mix, 0.999)
        priority = level_of.astype(np.float64) + noise
        order = np.argsort(priority, kind="stable")  # order[k] = prov. id
        new_id = np.empty(n, dtype=np.int64)
        new_id[order] = np.arange(n, dtype=np.int64)

    rows = new_id[child_f]
    cols = new_id[parent_f]

    # --- values: row-diagonally dominant --------------------------------
    vals = rng.uniform(-1.0, 1.0, size=len(rows))
    vals[vals == 0.0] = 0.5
    row_abs = np.zeros(n)
    np.add.at(row_abs, rows, np.abs(vals))
    diag_idx = np.arange(n, dtype=np.int64)
    diag_vals = 1.0 + row_abs
    coo = CooMatrix(
        np.concatenate([rows, diag_idx]),
        np.concatenate([cols, diag_idx]),
        np.concatenate([vals, diag_vals]),
        (n, n),
    )
    return coo.to_csc()


def _random_linear_extension(
    n: int,
    child: np.ndarray,
    parent: np.ndarray,
    level_of: np.ndarray,
    scatter: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw a randomised topological numbering of the DAG.

    Kahn's algorithm with a heap keyed by
    ``(1 - scatter) * level + scatter * noise`` (noise on the level
    scale): at ``scatter=1`` ready nodes pop in near-uniform random
    order, fully decorrelating level from index; smaller values retain a
    level/index correlation gradient.  Returns ``new_id`` mapping
    provisional (level-major) ids to final indices.
    """
    n_levels = int(level_of.max(initial=0)) + 1
    indeg = np.bincount(child, minlength=n)
    # Successor lists in provisional-id space, children ascending: the
    # (child, parent) pairs are distinct, so one plain sort of the
    # (parent, child) keys orders them.
    sorted_children = np.sort(parent * n + child) % n
    succ_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(parent, minlength=n), out=succ_ptr[1:])

    priority = (1.0 - scatter) * level_of + scatter * rng.random(n) * n_levels
    # Kahn's loop runs on Python lists: indexing numpy scalars per edge
    # costs several times the heap operations themselves.
    prio = priority.tolist()
    waiting = indeg.tolist()
    ptr = succ_ptr.tolist()
    succ = sorted_children.tolist()
    heap = [(prio[v], v) for v in np.flatnonzero(indeg == 0).tolist()]
    heapify(heap)
    numbered: list[int] = []  # numbered[k] = provisional id of index k
    while heap:
        _, v = heappop(heap)
        numbered.append(v)
        for c in succ[ptr[v] : ptr[v + 1]]:
            waiting[c] -= 1
            if not waiting[c]:
                heappush(heap, (prio[c], c))
    if len(numbered) != n:  # pragma: no cover - DAG by construction
        raise WorkloadError("cycle detected while numbering the DAG")
    new_id = np.empty(n, dtype=np.int64)
    new_id[numbered] = np.arange(n, dtype=np.int64)
    return new_id


def tridiagonal_lower(n: int, seed: int = 0) -> CscMatrix:
    """Bidiagonal lower matrix (the fully serial worst case: n levels)."""
    if n < 1:
        raise WorkloadError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    sub = rng.uniform(0.2, 1.0, size=max(n - 1, 0))
    rows = np.concatenate([np.arange(n), np.arange(1, n)])
    cols = np.concatenate([np.arange(n), np.arange(n - 1)])
    vals = np.concatenate([np.full(n, 2.0), sub])
    return CooMatrix(rows, cols, vals, (n, n)).to_csc()


def banded_lower(n: int, bandwidth: int, fill: float = 1.0, seed: int = 0) -> CscMatrix:
    """Banded lower-triangular matrix (FEM-like long dependency chains).

    ``fill`` is the probability that each in-band subdiagonal entry is
    present.
    """
    if n < 1 or bandwidth < 0:
        raise WorkloadError("need n >= 1 and bandwidth >= 0")
    if not 0.0 <= fill <= 1.0:
        raise WorkloadError("fill must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    rows_list = [np.arange(n, dtype=np.int64)]
    cols_list = [np.arange(n, dtype=np.int64)]
    for k in range(1, bandwidth + 1):
        keep = rng.random(n - k) <= fill
        rows_list.append(np.arange(k, n, dtype=np.int64)[keep])
        cols_list.append(np.arange(0, n - k, dtype=np.int64)[keep])
    rows = np.concatenate(rows_list)
    cols = np.concatenate(cols_list)
    off = rows != cols
    vals = np.empty(len(rows))
    vals[off] = rng.uniform(-1.0, 1.0, size=int(off.sum()))
    # Row-diagonal dominance.
    row_abs = np.zeros(n)
    np.add.at(row_abs, rows[off], np.abs(vals[off]))
    vals[~off] = 1.0 + row_abs
    return CooMatrix(rows, cols, vals, (n, n)).to_csc()


def random_lower(n: int, avg_nnz_per_row: float = 3.0, seed: int = 0) -> CscMatrix:
    """Uniformly random strictly-lower pattern plus a dominant diagonal."""
    if n < 1:
        raise WorkloadError(f"n must be >= 1, got {n}")
    if avg_nnz_per_row < 1.0:
        raise WorkloadError("avg_nnz_per_row must be >= 1.0")
    rng = np.random.default_rng(seed)
    n_off = int(round(n * (avg_nnz_per_row - 1.0)))
    rows = (rng.random(n_off) * (n - 1)).astype(np.int64) + 1 if n > 1 else np.zeros(
        0, dtype=np.int64
    )
    cols = (rng.random(len(rows)) * rows).astype(np.int64)
    key = sorted_unique(rows * n + cols)
    rows, cols = key // n, key % n
    vals = rng.uniform(-1.0, 1.0, size=len(rows))
    row_abs = np.zeros(n)
    np.add.at(row_abs, rows, np.abs(vals))
    diag = np.arange(n, dtype=np.int64)
    return CooMatrix(
        np.concatenate([rows, diag]),
        np.concatenate([cols, diag]),
        np.concatenate([vals, 1.0 + row_abs]),
        (n, n),
    ).to_csc()


def forest_lower(n: int, seed: int = 0) -> CscMatrix:
    """Random in-forest: every row has at most one off-diagonal entry.

    Component ``i >= 1`` depends on exactly one uniformly drawn parent
    ``p < i`` (component 0 is the lone root), so every ``left.sum`` is a
    single product — there is no accumulation order to permute.  That
    makes these systems the *bitwise oracle* workload of the chaos
    harness: no matter how fault injection reorders deliveries, a
    correctly recovered DES solve must equal the serial forward
    substitution bit for bit, so silent corruption can never hide behind
    floating-point reassociation.
    """
    if n < 1:
        raise WorkloadError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    child = np.arange(1, n, dtype=np.int64)
    parent = (rng.random(n - 1) * child).astype(np.int64)
    vals = rng.uniform(-1.0, 1.0, size=n - 1)
    vals[vals == 0.0] = 0.5
    row_abs = np.zeros(n)
    np.add.at(row_abs, child, np.abs(vals))
    diag = np.arange(n, dtype=np.int64)
    return CooMatrix(
        np.concatenate([child, diag]),
        np.concatenate([parent, diag]),
        np.concatenate([vals, 1.0 + row_abs]),
        (n, n),
    ).to_csc()


def grid_graph_lower(rows: int, cols: int, seed: int = 0) -> CscMatrix:
    """Lower triangle of a 2-D grid graph Laplacian-like matrix.

    Row-major vertex numbering: vertex ``(r, c)`` depends on its west and
    north neighbours — the structured-grid pattern of the paper's
    motivating applications (structured-grid problems, Section I).
    """
    if rows < 1 or cols < 1:
        raise WorkloadError("grid needs rows >= 1 and cols >= 1")
    n = rows * cols
    rng = np.random.default_rng(seed)
    vid = np.arange(n, dtype=np.int64).reshape(rows, cols)
    west_child = vid[:, 1:].ravel()
    west_parent = vid[:, :-1].ravel()
    north_child = vid[1:, :].ravel()
    north_parent = vid[:-1, :].ravel()
    r = np.concatenate([west_child, north_child])
    c = np.concatenate([west_parent, north_parent])
    vals = rng.uniform(0.2, 0.5, size=len(r)) * -1.0
    row_abs = np.zeros(n)
    np.add.at(row_abs, r, np.abs(vals))
    diag = np.arange(n, dtype=np.int64)
    return CooMatrix(
        np.concatenate([r, diag]),
        np.concatenate([c, diag]),
        np.concatenate([vals, 1.0 + row_abs]),
        (n, n),
    ).to_csc()
