"""Sparse matrix substrate: formats, conversion, I/O, triangles, LU.

Built from scratch on NumPy (no scipy.sparse in the hot paths) so that the
package fully owns the data layout the solvers consume — in particular the
CSC ``(col.ptr, row.idx, val)`` triple that the paper's Algorithms 2 and 3
take as input.
"""

from repro.sparse.coo import CooMatrix
from repro.sparse.csc import CscMatrix
from repro.sparse.csr import CsrMatrix
from repro.sparse.convert import (
    coo_to_csc,
    coo_to_csr,
    csc_to_csr,
    csr_to_csc,
    from_scipy,
    to_scipy,
)
from repro.sparse.io import dumps, loads, read_matrix_market, write_matrix_market
from repro.sparse.lu import LuFactors, ilu0, sparse_lu
from repro.sparse.triangular import (
    check_nonzero_diagonal,
    is_lower_triangular,
    is_upper_triangular,
    lower_triangle,
    permute_symmetric,
    require_lower_triangular,
    upper_triangle,
)
from repro.sparse.validate import (
    assert_solutions_close,
    backward_errors,
    random_rhs_for_solution,
    relative_error,
    residual_norm,
)

__all__ = [
    "CooMatrix",
    "CscMatrix",
    "CsrMatrix",
    "coo_to_csc",
    "coo_to_csr",
    "csc_to_csr",
    "csr_to_csc",
    "from_scipy",
    "to_scipy",
    "read_matrix_market",
    "write_matrix_market",
    "loads",
    "dumps",
    "LuFactors",
    "sparse_lu",
    "ilu0",
    "lower_triangle",
    "upper_triangle",
    "is_lower_triangular",
    "is_upper_triangular",
    "require_lower_triangular",
    "check_nonzero_diagonal",
    "permute_symmetric",
    "backward_errors",
    "residual_norm",
    "relative_error",
    "assert_solutions_close",
    "random_rhs_for_solution",
]
