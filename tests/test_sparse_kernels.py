"""Compiled sparse kernels on the solve path, held bitwise to the
``np.add.at`` loops they replace.

* :meth:`CscMatrix.matvec` and :func:`backward_errors` (whose max is
  :func:`residual_norm`) run scipy's ``csc_matvec`` through the matrix's
  cached operators, and a wide replay level runs ``csr_matvec``
  (:func:`repro.solvers.des_array._csr_matvec`); the references below
  scatter with ``np.add.at``.  All add a row's terms from ``0.0`` in
  ascending column order, so every byte agrees, ``-0.0`` terms, empty
  columns and ``nnz == 0`` included.  On an input where a fused
  multiply-add rounds differently, a scipy build whose loops contract
  into FMA instructions fails here instead of moving the digests.
* The column-of-entry index and the two operators are built once per
  matrix and never pickled; the ``L`` operator shares the matrix's
  arrays.
* The forward-closure replay behind :func:`residual_repair` and the
  stale-sync validation pass equals its per-column loop (kept below as
  the oracle) on the serve-mix structures and on a silent bit-flip.
"""

from __future__ import annotations

import pickle
from fractions import Fraction

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
from repro.solvers.des_array import _csr_matvec
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


def _fma_sensitive() -> tuple[CscMatrix, np.ndarray]:
    """Rows of ``A x`` whose last product is inexact: with the product
    rounded before the add, row 0 is ``-(1 + 2**-29) + (1 + 2**-30)**2
    == 0.0`` and row 1 is ``1 - (1 + 2**-30)**2 == -2**-29``; a fused
    add keeps the product's ``2**-60`` in both."""
    u = 1.0 + 2.0**-30
    a = CscMatrix(
        np.array([0, 2, 4]), np.array([0, 1, 0, 1]),
        np.array([-(1.0 + 2.0**-29), 1.0, u, -u]), (2, 2),
    ).validated()
    return a, np.array([1.0, u])


def _fused_row_sums(a: CscMatrix, x: np.ndarray) -> np.ndarray:
    """What an FMA-contracted row loop computes: each add rounds
    ``s + a*x`` once (``float(Fraction)`` rounds correctly)."""
    out = [0.0] * a.n_rows
    for j, rows, vals in a.iter_cols():
        for i, v in zip(rows.tolist(), vals.tolist()):
            out[i] = float(Fraction(v) * Fraction(float(x[j])) + Fraction(out[i]))
    return np.array(out)


# --------------------------------------------------------------- kernels
def test_matvec_matches_add_at_bitwise(matrix):
    x = _operand(matrix.n_cols, 1)
    _same_bytes(matrix.matvec(x), _matvec_ref(matrix, x))


def test_kernels_do_not_fuse_multiply_add():
    a, x = _fma_sensitive()
    want = _matvec_ref(a, x)
    assert want.tolist() == [0.0, -(2.0**-29)]
    assert (_fused_row_sums(a, x) != want).all()  # the input tells them apart
    _same_bytes(a.matvec(x), want)
    csr = a.to_csr()  # row by row, columns ascending
    _same_bytes(_csr_matvec(csr.indptr, csr.indices, csr.data, x), want)
    b = np.array([0.0, -(2.0**-29)])
    _same_bytes(backward_errors(a, x, b), _backward_errors_ref(a, x, b))
    assert residual_norm(a, x, b) == 0.0


def test_replay_level_matvec_matches_add_at_bitwise(matrix):
    x = _operand(matrix.n_cols, 5)
    csr = matrix.to_csr()
    got = _csr_matvec(csr.indptr, csr.indices, csr.data, x)
    _same_bytes(got, _matvec_ref(matrix, x))


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


# ------------------------------------------------- cached per-matrix views
def test_entry_cols_is_built_once_and_read_only(matrix):
    cols = matrix.entry_cols()
    assert cols is matrix.entry_cols()
    assert not cols.flags.writeable
    want = np.repeat(np.arange(matrix.n_cols), matrix.col_nnz())
    assert np.array_equal(cols, want)


def test_pickle_leaves_the_entry_cols_out(matrix):
    matrix.entry_cols()
    assert "_entry_cols" in vars(matrix)
    clone = pickle.loads(pickle.dumps(matrix))
    assert "_entry_cols" not in vars(clone)
    assert clone == matrix
    assert np.array_equal(clone.entry_cols(), matrix.entry_cols())


def test_operators_are_built_once_and_share_the_arrays(matrix):
    op, abs_op = matrix.operator(), matrix.abs_operator()
    assert op is matrix.operator() and abs_op is matrix.abs_operator()
    nnz = matrix.nnz  # empty arrays share no memory
    for view in (op, abs_op):
        assert view.shape == matrix.shape and view.format == "csc"
        assert view.indices.dtype == np.int64
        assert np.shares_memory(view.indptr, matrix.indptr)
        assert np.shares_memory(view.indices, matrix.indices) == bool(nnz)
    assert np.shares_memory(op.data, matrix.data) == bool(nnz)
    assert abs_op.data.tobytes() == np.abs(matrix.data).tobytes()


def test_pickle_leaves_the_operators_out(matrix):
    x = _operand(matrix.n_cols, 4)
    b = _operand(matrix.n_rows, 6)
    want = backward_errors(matrix, x, b)
    assert {"_operator", "_abs_operator"} <= set(vars(matrix))
    clone = pickle.loads(pickle.dumps(matrix))
    assert not {"_operator", "_abs_operator"} & set(vars(clone))
    assert clone == matrix
    _same_bytes(backward_errors(clone, x, b), want)
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
