"""Correctness oracles for the benchmark's operations.

A sync-free solve adds each row's contributions in the order they
arrive, and that order is not the serial one.  Where a row has at most
two off-diagonal entries the order cannot change the sum (``0 + a + b``
and ``0 + b + a`` round identically), so the solution must equal serial
forward substitution bit for bit.  Elsewhere it must have the backward
error that forward substitution in *some* summation order can have:
componentwise ``|b - L x| <= gamma_k (|L| |x| + |b|)`` with
``gamma_k = k u / (1 - k u)``, ``k`` the longest row and ``u`` the unit
round-off, doubled to cover the rounding of the residual itself.  A
design that certifies against its own ceiling (``stale_sync``, a
degraded rung) is held to that ceiling instead.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

UNIT_ROUNDOFF = 2.0**-53


class System:
    """One lower-triangular matrix ``L``, prepared for checking solves."""

    def __init__(self, lower):
        self.lower = lower
        self.n = lower.shape[0]
        self.matrix = sp.csc_matrix(
            (lower.data, lower.indices, lower.indptr), shape=(self.n, self.n)
        )
        self.abs_matrix = abs(self.matrix)
        row_len = np.bincount(lower.indices, minlength=self.n)
        self.order_free = int(row_len.max()) <= 3
        k = int(row_len.max()) + 1
        self.gamma = 2.0 * k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)

    def backward_error(self, x: np.ndarray, b: np.ndarray) -> float:
        r = np.abs(self.matrix @ x - b)
        scale = self.abs_matrix @ np.abs(x) + np.abs(b)
        scale[scale == 0.0] = 1.0
        return float(np.max(r / scale))

    def exact(self, x, b, *, ceiling: float | None = None) -> bool:
        """Is ``x`` a correct solution of ``L x = b``?"""
        from repro import serial_forward

        x = np.asarray(x)
        if x.shape != (self.n,) or not np.all(np.isfinite(x)):
            return False
        if ceiling is not None:
            return self.backward_error(x, b) <= ceiling
        if self.order_free:
            return bool(np.array_equal(x, serial_forward(self.lower, b)))
        return self.backward_error(x, b) <= self.gamma


def estimate_ok(total_time) -> bool:
    """An estimate must be a finite, positive time."""
    return total_time is not None and math.isfinite(total_time) and total_time > 0
