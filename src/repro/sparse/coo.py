"""Coordinate (COO/triplet) sparse matrix format.

COO is the interchange format of the package: MatrixMarket files load into
COO, synthetic generators emit COO, and CSR/CSC are built from it.  The
class stores three parallel arrays ``(row, col, data)`` plus an explicit
shape; duplicate entries are allowed until :meth:`CooMatrix.sum_duplicates`
is called (conversions call it implicitly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ShapeError, SparseFormatError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sparse.csc import CscMatrix
    from repro.sparse.csr import CsrMatrix

__all__ = ["CooMatrix"]


def run_heads(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values in a sorted array."""
    head = np.empty(len(sorted_keys), dtype=bool)
    head[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:])
    return head


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an int array: ``np.unique`` by sorting.

    On numpy >= 2.3 a plain ``np.unique`` of ints takes a hash path that
    costs 5-50x a sort plus a neighbour mask, with or without many
    repeats; every int dedup of the package goes through here instead.
    """
    keys = np.sort(np.ravel(values))
    return keys[run_heads(keys)]


@dataclass
class CooMatrix:
    """Sparse matrix in coordinate (triplet) format.

    Parameters
    ----------
    row, col:
        Integer arrays of equal length holding the coordinates of each
        stored entry.
    data:
        Float array of the stored values, parallel to ``row``/``col``.
    shape:
        ``(n_rows, n_cols)`` of the logical matrix.

    Notes
    -----
    The constructor copies nothing; callers that mutate the arrays after
    construction are responsible for keeping them consistent.  Use
    :meth:`validated` to get a checked instance.
    """

    row: np.ndarray
    col: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]
    _canonical: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.row = np.asarray(self.row, dtype=np.int64)
        self.col = np.asarray(self.col, dtype=np.int64)
        self.data = np.asarray(self.data, dtype=np.float64)
        if not (self.row.ndim == self.col.ndim == self.data.ndim == 1):
            raise SparseFormatError("COO arrays must be one-dimensional")
        if not (len(self.row) == len(self.col) == len(self.data)):
            raise SparseFormatError(
                "COO arrays must have equal length: "
                f"row={len(self.row)}, col={len(self.col)}, data={len(self.data)}"
            )
        if len(self.shape) != 2 or self.shape[0] < 0 or self.shape[1] < 0:
            raise ShapeError(f"invalid shape {self.shape!r}")
        self.shape = (int(self.shape[0]), int(self.shape[1]))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, shape: tuple[int, int]) -> "CooMatrix":
        """An all-zero matrix of the given shape."""
        z = np.zeros(0, dtype=np.int64)
        return cls(z, z.copy(), np.zeros(0), shape)

    @classmethod
    def from_dense(cls, dense: np.ndarray, tol: float = 0.0) -> "CooMatrix":
        """Build from a dense array, keeping entries with ``|a_ij| > tol``.

        Exact zeros are always dropped; pass ``tol > 0`` to also drop tiny
        values (useful when densifying numerically-noisy factors).
        """
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ShapeError("from_dense expects a 2-D array")
        mask = np.abs(dense) > tol
        r, c = np.nonzero(mask)
        return cls(r, c, dense[r, c], dense.shape)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries (including duplicates, if any)."""
        return int(len(self.data))

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    # ------------------------------------------------------------------
    # Validation / canonicalisation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`SparseFormatError` if any index is out of range."""
        if self.nnz == 0:
            return
        if self.row.min(initial=0) < 0 or self.col.min(initial=0) < 0:
            raise SparseFormatError("negative indices in COO matrix")
        if self.row.max(initial=-1) >= self.shape[0]:
            raise SparseFormatError(
                f"row index {int(self.row.max())} out of range for shape {self.shape}"
            )
        if self.col.max(initial=-1) >= self.shape[1]:
            raise SparseFormatError(
                f"col index {int(self.col.max())} out of range for shape {self.shape}"
            )
        if not np.all(np.isfinite(self.data)):
            raise SparseFormatError("non-finite values in COO matrix")

    def validated(self) -> "CooMatrix":
        """Return ``self`` after running :meth:`validate` (fluent helper)."""
        self.validate()
        return self

    def sum_duplicates(self) -> "CooMatrix":
        """Return a canonical copy: duplicates summed, entries sorted.

        Entries are sorted by ``(row, col)``; explicit zeros produced by
        cancellation are *kept* (structural nonzeros matter for dependency
        analysis, mirroring how factorisation codes treat fill-in).
        """
        if self._canonical:
            return self
        if self.nnz == 0:
            out = CooMatrix(self.row, self.col, self.data, self.shape)
            out._canonical = True
            return out
        keys = self.row * self.shape[1] + self.col
        # Distinct keys have one sorted order, so any sort will do; with
        # duplicates the stable order fixes reduceat's summation order.
        order = np.argsort(keys)
        head = run_heads(keys[order])
        if not head.all():
            order = np.argsort(keys, kind="stable")
            head = run_heads(keys[order])
        keys = keys[order]
        first = np.flatnonzero(head)
        uniq = keys[first]
        data = np.add.reduceat(self.data[order], first)
        out = CooMatrix(uniq // self.shape[1], uniq % self.shape[1], data, self.shape)
        out._canonical = True
        return out

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Densify (duplicates are summed)."""
        out = np.zeros(self.shape)
        np.add.at(out, (self.row, self.col), self.data)
        return out

    def to_csr(self) -> "CsrMatrix":
        from repro.sparse.convert import coo_to_csr

        return coo_to_csr(self)

    def to_csc(self) -> "CscMatrix":
        from repro.sparse.convert import coo_to_csc

        return coo_to_csc(self)

    def transpose(self) -> "CooMatrix":
        """Transpose view as a new COO matrix (arrays are shared)."""
        return CooMatrix(self.col, self.row, self.data, (self.shape[1], self.shape[0]))

    def copy(self) -> "CooMatrix":
        out = CooMatrix(
            self.row.copy(), self.col.copy(), self.data.copy(), self.shape
        )
        out._canonical = self._canonical
        return out

    # ------------------------------------------------------------------
    # Arithmetic helpers used by tests / examples
    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Dense mat-vec ``A @ x`` (duplicates contribute additively)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.shape[1],):
            raise ShapeError(
                f"matvec operand has shape {x.shape}, expected ({self.shape[1]},)"
            )
        out = np.zeros(self.shape[0])
        np.add.at(out, self.row, self.data * x[self.col])
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CooMatrix):
            return NotImplemented
        a, b = self.sum_duplicates(), other.sum_duplicates()
        return (
            a.shape == b.shape
            and np.array_equal(a.row, b.row)
            and np.array_equal(a.col, b.col)
            and np.array_equal(a.data, b.data)
        )

    __hash__ = None  # type: ignore[assignment]
