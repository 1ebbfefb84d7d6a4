"""Whole-array sparse kernels on the solve path, held bitwise to the
``np.add.at`` loops they replace.

* :meth:`CscMatrix.matvec` and :func:`backward_errors` (whose max is
  :func:`residual_norm`) sum every row with one ``np.bincount`` in entry
  order; the references below scatter with ``np.add.at``.  Both add a
  row's terms from ``0.0`` in ascending column order, so every byte
  agrees, ``-0.0`` terms, empty columns and ``nnz == 0`` included.
* The column-of-entry index is built once per matrix and never pickled.
* The forward-closure replay of :func:`residual_repair` and
  :func:`stale_validate` equals its per-column loop (kept below as the
  oracle) on the serve-mix structures and on a silent bit-flip.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.exec_model import artefacts
from repro.resilience import recovery
from repro.resilience.faults import FaultPlan
from repro.resilience.recovery import RecoveryPolicy
from repro.runtime.config import RunConfig
from repro.runtime.session import SolverSession
from repro.serve.request import build_workload
from repro.sparse.csc import CscMatrix
from repro.sparse.validate import backward_errors, residual_norm
from repro.workloads.generators import dag_profile_matrix


# ------------------------------------------------------------ references
def _matvec_ref(a: CscMatrix, x: np.ndarray) -> np.ndarray:
    cols = np.repeat(np.arange(a.n_cols, dtype=np.int64), a.col_nnz())
    out = np.zeros(a.shape[0])
    np.add.at(out, a.indices, a.data * x[cols])
    return out


def _backward_errors_ref(a: CscMatrix, x: np.ndarray, b: np.ndarray):
    r = _matvec_ref(a, x) - b
    scale_mat = CscMatrix(a.indptr, a.indices, np.abs(a.data), a.shape)
    scale = _matvec_ref(scale_mat, np.abs(x)) + np.abs(b)
    scale[scale == 0.0] = 1.0
    return np.abs(r) / scale


def _random_csc(n_rows, n_cols, density, seed, empty_cols=()) -> CscMatrix:
    """Entries spanning 16 decades, a share of them ``-0.0``, so that a
    change of summation order shows in the low bits."""
    rng = np.random.default_rng(seed)
    indptr, indices, data = [0], [], []
    for j in range(n_cols):
        if j not in empty_cols:
            rows = np.flatnonzero(rng.random(n_rows) < density)
            vals = rng.uniform(-1.0, 1.0, len(rows)) * 10.0 ** rng.uniform(
                -8, 8, len(rows)
            )
            vals[rng.random(len(rows)) < 0.1] = -0.0
            indices.extend(rows.tolist())
            data.extend(vals.tolist())
        indptr.append(len(indices))
    return CscMatrix(
        np.array(indptr), np.array(indices, dtype=np.int64),
        np.array(data), (n_rows, n_cols),
    ).validated()


def _operand(n, seed) -> np.ndarray:
    rng = np.random.default_rng([seed, n])
    v = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-8, 8, n)
    v[rng.random(n) < 0.1] = -0.0
    return v


MATRICES = {
    "square": lambda: _random_csc(60, 60, 0.2, 1),
    "empty-columns": lambda: _random_csc(40, 40, 0.3, 2, empty_cols={0, 7, 39}),
    "tall": lambda: _random_csc(50, 13, 0.4, 3),
    "wide": lambda: _random_csc(13, 50, 0.4, 4, empty_cols={49}),
    "nnz-0": lambda: CscMatrix(np.zeros(6, np.int64), [], [], (4, 5)),
    "level-major": lambda: dag_profile_matrix(
        500, 10, 6.0, "uniform", 0.5, 0.3, 0.0, seed=5
    ),
}


@pytest.fixture(params=sorted(MATRICES))
def matrix(request) -> CscMatrix:
    return MATRICES[request.param]()


def _same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# --------------------------------------------------------------- kernels
def test_matvec_matches_add_at_bitwise(matrix):
    x = _operand(matrix.n_cols, 1)
    _same_bytes(matrix.matvec(x), _matvec_ref(matrix, x))


def test_backward_errors_match_add_at_bitwise(matrix):
    x = _operand(matrix.n_cols, 2)
    b = _operand(matrix.n_rows, 3)
    b[::5] = 0.0  # with empty rows, a zero scale
    want = _backward_errors_ref(matrix, x, b)
    _same_bytes(backward_errors(matrix, x, b), want)
    if matrix.n_rows:
        assert residual_norm(matrix, x, b) == float(np.max(want))


def test_backward_errors_check_the_operand_shape():
    a = MATRICES["square"]()
    with pytest.raises(ShapeError):
        backward_errors(a, np.ones(59), np.ones(60))


def test_residual_norm_builds_no_artefacts():
    a = MATRICES["level-major"]()
    residual_norm(a, np.ones(500), np.ones(500))
    assert id(a) not in artefacts._CACHE


# ---------------------------------------------------- column-of-entry index
def test_entry_cols_is_built_once_and_read_only(matrix):
    cols = matrix.entry_cols()
    assert cols is matrix.entry_cols()
    assert not cols.flags.writeable
    want = np.repeat(np.arange(matrix.n_cols), matrix.col_nnz())
    assert np.array_equal(cols, want)


def test_pickle_leaves_the_entry_cols_out(matrix):
    x = _operand(matrix.n_cols, 4)
    matrix.matvec(x)
    assert "_entry_cols" in vars(matrix)
    clone = pickle.loads(pickle.dumps(matrix))
    assert "_entry_cols" not in vars(clone)
    assert clone == matrix
    _same_bytes(clone.matvec(x), _matvec_ref(matrix, x))


# ------------------------------------------------------- closure replay
def _closure_replay_oracle(lower, b, x, suspects):
    """The per-column loop the whole-array closure replay replaced."""
    n = lower.shape[0]
    indptr, indices, data = lower.indptr, lower.indices, lower.data
    affected = np.zeros(n, dtype=bool)
    stack = [int(i) for i in suspects]
    while stack:
        i = stack.pop()
        if affected[i]:
            continue
        affected[i] = True
        for e in range(int(indptr[i]) + 1, int(indptr[i + 1])):
            j = int(indices[e])
            if not affected[j]:
                stack.append(j)

    x_fixed = np.asarray(x, dtype=np.float64).copy()
    left = np.zeros(n)
    for i in range(n):
        if affected[i]:
            continue
        lo, hi = int(indptr[i]), int(indptr[i + 1])
        rows = indices[lo + 1 : hi]
        mask = affected[rows]
        if np.any(mask):
            left[rows[mask]] += data[lo + 1 : hi][mask] * x_fixed[i]
    replayed = np.nonzero(affected)[0]
    for i in replayed.tolist():
        lo, hi = int(indptr[i]), int(indptr[i + 1])
        x_fixed[i] = (b[i] - left[i]) / data[lo]
        rows = indices[lo + 1 : hi]
        mask = affected[rows]
        if np.any(mask):
            left[rows[mask]] += data[lo + 1 : hi][mask] * x_fixed[i]
    return x_fixed, replayed


@pytest.fixture
def checked_closures(monkeypatch):
    """Run the oracle beside every closure replay; count the calls."""
    calls = []
    real = recovery._closure_replay

    def both(lower, b, x, suspects):
        got = real(lower, b, x, suspects)
        want = _closure_replay_oracle(lower, b, x, suspects)
        assert got[0].tobytes() == want[0].tobytes()
        assert np.array_equal(got[1], want[1])
        calls.append(len(got[1]))
        return got

    monkeypatch.setattr(recovery, "_closure_replay", both)
    return calls


def _rhs(k, n):
    return np.random.default_rng([13, k]).uniform(-1.0, 1.0, n)


SERVE_STRUCTURES = {
    "grid": {"generator": "grid", "rows": 64, "cols": 64, "seed": 1},
    "random": {"generator": "random", "n": 4096, "seed": 1},
    "banded": {"generator": "banded", "n": 4096, "bandwidth": 3, "seed": 1},
}


@pytest.mark.parametrize("structure", sorted(SERVE_STRUCTURES))
def test_stale_sync_closure_matches_the_loop(structure, checked_closures):
    lower = build_workload(SERVE_STRUCTURES[structure])
    n = lower.shape[0]
    session = SolverSession(RunConfig(design="stale_sync"))
    for k in range(3):  # drain, recorded drain, replay
        session.solve(lower, _rhs(k, n), with_report=False)
    # The banded structure's stale reads stay under the ceiling.
    assert bool(checked_closures) == (structure != "banded")
    # A few suspects deep in the matrix, on any structure.
    x = _rhs(9, n)
    b = lower.matvec(x)
    poisoned = x.copy()
    poisoned[[n // 3, n // 2, n - 2]] += 1.0
    fixed, _, _ = recovery.residual_repair(lower, b, poisoned)
    assert fixed.tobytes() != poisoned.tobytes()
    assert checked_closures


def test_silent_bitflip_repair_matches_the_loop(checked_closures):
    lower = dag_profile_matrix(
        n=600, n_levels=10, dependency=3.0, profile="bulge", seed=3
    )
    config = RunConfig(
        plan=FaultPlan.single("bitflip", count=6, bit=40, seed=14),
        recovery=RecoveryPolicy(detect_corruption=False),
    )
    session = SolverSession(config)
    repaired = [
        session.solve(lower, _rhs(k, 600), with_report=False).repaired
        for k in range(3)
    ]
    assert any(repaired) and checked_closures
