"""Compressed Sparse Column (CSC) matrix format.

CSC is the paper's input format for SpTRSV (Algorithms 2 and 3 consume
``col.ptr`` / ``row.idx`` / ``val``): the solve walks columns in ascending
order, and after solving ``x_i`` the entries of column ``i`` below the
diagonal identify the dependants whose ``left_sum`` must be updated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.errors import ShapeError, SparseFormatError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sparse.coo import CooMatrix
    from repro.sparse.csr import CsrMatrix

__all__ = ["CscMatrix"]


@dataclass
class CscMatrix:
    """Sparse matrix in compressed sparse column format.

    Parameters
    ----------
    indptr:
        ``(n_cols + 1,)`` column-pointer array; column ``j`` occupies the
        slice ``indptr[j]:indptr[j+1]`` of ``indices``/``data``.
    indices:
        Row index of each stored entry.
    data:
        Value of each stored entry.
    shape:
        ``(n_rows, n_cols)``.

    A matrix keeps three derived views once built, none of them pickled:
    the column of every entry (:meth:`entry_cols`) and two scipy
    ``csc_array`` operators for compiled matvecs, one sharing the arrays
    above (:meth:`operator`, used by :meth:`matvec` and the certificate)
    and one over ``|data|`` (:meth:`abs_operator`).

    Values contract: a matrix's entries are not changed in place after
    its first certificate or replay.  Copies of the values are read
    once and kept (:meth:`abs_operator`, and a drain record's gathered
    values, see :func:`~repro.solvers.des_array.replay_array`); to
    solve with other values, build a new matrix.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.data = np.asarray(self.data, dtype=np.float64)
        self.shape = (int(self.shape[0]), int(self.shape[1]))
        if self.indptr.ndim != 1 or len(self.indptr) != self.shape[1] + 1:
            raise SparseFormatError(
                f"indptr length {len(self.indptr)} != n_cols+1 = {self.shape[1] + 1}"
            )
        if len(self.indices) != len(self.data):
            raise SparseFormatError("indices and data must have equal length")

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(len(self.data))

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    def col_slice(self, j: int) -> slice:
        """The slice of ``indices``/``data`` belonging to column ``j``."""
        return slice(int(self.indptr[j]), int(self.indptr[j + 1]))

    def col_nnz(self) -> np.ndarray:
        """Number of stored entries per column, shape ``(n_cols,)``."""
        return np.diff(self.indptr)

    def entry_cols(self) -> np.ndarray:
        """Column of every stored entry, shape ``(nnz,)``, read-only.

        Built on first use and kept on the matrix (a matrix's structure
        does not change after construction); a pickle leaves it out.
        """
        cols = self.__dict__.get("_entry_cols")
        if cols is None:
            cols = np.repeat(
                np.arange(self.n_cols, dtype=np.int64), self.col_nnz()
            )
            cols.flags.writeable = False
            self._entry_cols = cols
        return cols

    def operator(self):
        """This matrix as a :class:`scipy.sparse.csc_array`, built once.

        The view shares ``data``, ``indices`` and ``indptr`` (no copy, the
        indices stay int64), so ``operator() @ x`` runs scipy's compiled
        ``csc_matvec``: each row adds its products from ``0.0`` in entry
        order (ascending column), as ``np.add.at`` would.  Kept on the
        matrix like :meth:`entry_cols`; a pickle leaves it out.
        """
        op = self.__dict__.get("_operator")
        if op is None:
            op = self._operator = self._csc_array(self.data)
        return op

    def abs_operator(self):
        """``|A|`` as a :class:`scipy.sparse.csc_array`: :meth:`operator`
        with its own ``np.abs(data)``, built once and left out of a
        pickle.  The values are read once (see the values contract
        above)."""
        op = self.__dict__.get("_abs_operator")
        if op is None:
            op = self._abs_operator = self._csc_array(np.abs(self.data))
        return op

    def _csc_array(self, data: np.ndarray):
        from scipy.sparse import csc_array

        return csc_array((data, self.indices, self.indptr), shape=self.shape)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for cached in ("_entry_cols", "_operator", "_abs_operator"):
            state.pop(cached, None)
        return state

    def iter_cols(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(j, rows, vals)`` per column (views, do not mutate)."""
        for j in range(self.n_cols):
            sl = self.col_slice(j)
            yield j, self.indices[sl], self.data[sl]

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise :class:`SparseFormatError`."""
        if self.indptr[0] != 0:
            raise SparseFormatError("indptr must start at 0")
        if self.indptr[-1] != self.nnz:
            raise SparseFormatError(
                f"indptr must end at nnz={self.nnz}, got {int(self.indptr[-1])}"
            )
        if np.any(np.diff(self.indptr) < 0):
            raise SparseFormatError("indptr must be non-decreasing")
        if self.nnz:
            if self.indices.min() < 0 or self.indices.max() >= self.shape[0]:
                raise SparseFormatError("row index out of range")
            d = np.diff(self.indices)
            boundary = np.zeros(len(d), dtype=bool)
            inner_ptr = self.indptr[1:-1]
            boundary[inner_ptr[(inner_ptr > 0) & (inner_ptr < self.nnz)] - 1] = True
            if np.any((d <= 0) & ~boundary):
                raise SparseFormatError(
                    "row indices must be strictly increasing within each column"
                )
        if not np.all(np.isfinite(self.data)):
            raise SparseFormatError("non-finite values in CSC matrix")

    def validated(self) -> "CscMatrix":
        self.validate()
        return self

    # ------------------------------------------------------------------
    def to_coo(self) -> "CooMatrix":
        from repro.sparse.coo import CooMatrix

        cols = np.repeat(np.arange(self.n_cols, dtype=np.int64), self.col_nnz())
        return CooMatrix(self.indices.copy(), cols, self.data.copy(), self.shape)

    def to_csr(self) -> "CsrMatrix":
        from repro.sparse.convert import csc_to_csr

        return csc_to_csr(self)

    def to_dense(self) -> np.ndarray:
        return self.to_coo().to_dense()

    def transpose(self) -> "CsrMatrix":
        """Zero-cost transpose: a CSC matrix reinterpreted as CSR."""
        from repro.sparse.csr import CsrMatrix

        return CsrMatrix(
            self.indptr, self.indices, self.data, (self.shape[1], self.shape[0])
        )

    def copy(self) -> "CscMatrix":
        return CscMatrix(
            self.indptr.copy(), self.indices.copy(), self.data.copy(), self.shape
        )

    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` through :meth:`operator` (rows summed in entry order)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.shape[1],):
            raise ShapeError(
                f"matvec operand has shape {x.shape}, expected ({self.shape[1]},)"
            )
        return self.operator() @ x

    def diagonal(self) -> np.ndarray:
        """The main diagonal as a dense vector (missing entries are 0)."""
        n = min(self.shape)
        out = np.zeros(n)
        for j in range(n):
            sl = self.col_slice(j)
            hit = np.searchsorted(self.indices[sl], j)
            if hit < sl.stop - sl.start and self.indices[sl.start + hit] == j:
                out[j] = self.data[sl.start + hit]
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CscMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.data, other.data)
        )

    __hash__ = None  # type: ignore[assignment]
