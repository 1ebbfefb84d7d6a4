"""Numerical validation helpers shared by tests, examples and benches.

SpTRSV implementations in this package are checked two ways:

* against the dense solve of the same system (:func:`residual_norm`), and
* against each other (:func:`assert_solutions_close`), since every solver
  variant must produce the same ``x`` regardless of its communication
  model.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.sparse.csc import CscMatrix

__all__ = [
    "backward_errors",
    "residual_norm",
    "relative_error",
    "assert_solutions_close",
    "random_rhs_for_solution",
]


def backward_errors(
    lower: CscMatrix, x: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Componentwise backward error of every row: ``|L x - b|`` over
    ``|L| |x| + |b|`` (a zero scale counts as 1).

    Two compiled matvecs: ``L x`` through :meth:`CscMatrix.operator`
    and ``|L| |x|`` through :meth:`CscMatrix.abs_operator`, both views
    built once per matrix.  Each row adds its products from ``0.0`` in
    entry order, as ``np.add.at`` would, and ``|a| |b| == |a b|``
    exactly, so the bytes equal the ``np.add.at`` matvecs as long as
    scipy's loop does not fuse a multiply and an add into one FMA
    (``tests/test_sparse_kernels.py`` pins this).
    """
    x = np.asarray(x, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if x.shape != (lower.shape[1],):
        raise ShapeError(
            f"x has shape {x.shape}, expected ({lower.shape[1]},)"
        )
    r = lower.operator() @ x
    r -= b
    scale = lower.abs_operator() @ np.abs(x)
    scale += np.abs(b)
    scale[scale == 0.0] = 1.0
    return np.abs(r) / scale


def residual_norm(lower: CscMatrix, x: np.ndarray, b: np.ndarray) -> float:
    """Infinity-norm of ``L x - b`` scaled by ``|L| |x| + |b|`` (componentwise
    backward-error style), robust to wildly varying magnitudes: the max
    of :func:`backward_errors`."""
    return float(np.max(backward_errors(lower, x, b)))


def relative_error(x: np.ndarray, x_ref: np.ndarray) -> float:
    """Relative infinity-norm error of ``x`` versus a reference solution."""
    x = np.asarray(x, dtype=np.float64)
    x_ref = np.asarray(x_ref, dtype=np.float64)
    denom = max(float(np.max(np.abs(x_ref))), 1e-300)
    return float(np.max(np.abs(x - x_ref))) / denom


def assert_solutions_close(
    x: np.ndarray,
    x_ref: np.ndarray,
    rtol: float = 1e-9,
    context: str = "",
) -> None:
    """Assert two solver outputs agree; raise AssertionError with detail."""
    err = relative_error(x, x_ref)
    if err > rtol:
        worst = int(np.argmax(np.abs(np.asarray(x) - np.asarray(x_ref))))
        raise AssertionError(
            f"solutions differ{' (' + context + ')' if context else ''}: "
            f"rel err {err:.3e} > {rtol:.1e}; worst component {worst}: "
            f"{x[worst]!r} vs {x_ref[worst]!r}"
        )


def random_rhs_for_solution(
    lower: CscMatrix, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Manufacture ``(b, x_true)`` with known solution ``x_true``.

    Draws ``x_true`` from U(0.5, 1.5) (away from zero so relative error is
    well defined) and returns ``b = L x_true``.
    """
    rng = np.random.default_rng(seed)
    x_true = rng.uniform(0.5, 1.5, size=lower.shape[1])
    return lower.matvec(x_true), x_true
