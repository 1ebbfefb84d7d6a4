"""Backward substitution (``Ux = b``) on the multi-GPU designs.

Section II of the paper: "backward substitution follows the similar
procedure as forward substitution (i.e., solving x in descending
order)".  Rather than duplicating every kernel, this module exploits the
exact symmetry: reversing both the row and column order of an upper
triangular matrix yields a lower-triangular matrix with the identical
dependency DAG (edges flipped end-to-end), so

    solve_upper(U, b) == reverse(solve_lower(reverse(U), reverse(b)))

where ``reverse(U)`` is the anti-transpose (flip both axes).  All
communication behaviour — level structure, cross-GPU edges, waiting
chains — is preserved under the mapping, so simulated reports for the
backward solve are exactly as faithful as forward ones.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.errors import NotTriangularError
from repro.solvers.base import SolveResult, TriangularSolver
from repro.sparse.coo import CooMatrix
from repro.sparse.csc import CscMatrix
from repro.sparse.triangular import is_upper_triangular

__all__ = ["anti_transpose", "BackwardSolver"]


def anti_transpose(mat: CscMatrix) -> CscMatrix:
    """Flip a square matrix along both axes (``B[i, j] = A[n-1-i, n-1-j]``).

    Maps upper triangular to lower triangular (and back) while preserving
    the sparsity *pattern geometry*: chains stay chains, levels keep
    their widths, bandwidth is unchanged.
    """
    n, m = mat.shape
    if n != m:
        raise NotTriangularError(f"anti_transpose needs a square matrix: {mat.shape}")
    coo = mat.to_coo()
    return CooMatrix(
        (n - 1) - coo.row, (n - 1) - coo.col, coo.data, (n, n)
    ).to_csc()


class BackwardSolver(TriangularSolver):
    """Solve ``Ux = b`` by symmetry through any forward solver.

    Parameters
    ----------
    forward:
        Any :class:`TriangularSolver` for lower systems (e.g.
        :class:`~repro.solvers.zerocopy.ZeroCopySolver`).  Its simulated
        report carries over unchanged.
    """

    def __init__(self, forward: TriangularSolver):
        self.forward = forward
        self.name = f"backward<{forward.name}>"
        self._mirror: tuple[weakref.ref, CscMatrix] | None = None

    def _lower_of(self, upper: CscMatrix) -> CscMatrix:
        """The anti-transpose of ``upper``, kept for the last matrix solved.

        Keyed weakly by identity, like the artefact cache: a repeated
        solve of the same ``upper`` hands the forward solver the same
        lower matrix, so its analysis and compiled program stay cache
        hits instead of being re-derived from a fresh copy.
        """
        if self._mirror is not None and self._mirror[0]() is upper:
            return self._mirror[1]
        lower = anti_transpose(upper)
        self._mirror = (weakref.ref(upper), lower)
        return lower

    def solve(self, upper: CscMatrix, b: np.ndarray) -> SolveResult:
        if not is_upper_triangular(upper):
            raise NotTriangularError(
                "BackwardSolver expects an upper-triangular matrix"
            )
        lower = self._lower_of(upper)
        b = np.asarray(b, dtype=np.float64)
        res = self.forward.solve(lower, b[::-1].copy())
        return SolveResult(
            x=res.x[::-1].copy(), report=res.report, solver=self.name
        )
