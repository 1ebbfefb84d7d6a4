"""Backward substitution and multiple right-hand-side tests."""

import numpy as np
import pytest

from repro.errors import NotTriangularError, ShapeError
from repro.machine.node import dgx1
from repro.solvers.backward import BackwardSolver, anti_transpose
from repro.solvers.levelset import levelset_forward
from repro.solvers.multirhs import solve_multi_rhs
from repro.solvers.serial import SerialSolver, serial_backward, serial_forward
from repro.solvers.zerocopy import ZeroCopySolver
from repro.sparse.coo import CooMatrix
from repro.sparse.triangular import (
    is_lower_triangular,
    is_upper_triangular,
    upper_triangle,
)
from repro.sparse.validate import assert_solutions_close


@pytest.fixture
def upper(rng):
    d = rng.normal(size=(60, 60))
    d[np.abs(d) < 0.7] = 0.0
    return upper_triangle(CooMatrix.from_dense(d))


class TestAntiTranspose:
    def test_maps_upper_to_lower(self, upper):
        lo = anti_transpose(upper)
        assert is_lower_triangular(lo)

    def test_involution(self, upper):
        assert anti_transpose(anti_transpose(upper)) == upper

    def test_values_flipped(self, upper):
        n = upper.shape[0]
        a = upper.to_dense()
        b = anti_transpose(upper).to_dense()
        np.testing.assert_array_equal(b, a[::-1, ::-1])

    def test_preserves_level_structure(self, small_lower):
        """Anti-transposing twice through upper form keeps levels."""
        from repro.analysis.levels import compute_levels

        up = anti_transpose(small_lower)  # lower -> upper-like flip
        # The flipped matrix of a lower matrix is upper; its dependency
        # DAG (in descending order) has identical level widths.
        back = anti_transpose(up)
        a = compute_levels(small_lower)
        b = compute_levels(back)
        assert a.n_levels == b.n_levels
        np.testing.assert_array_equal(a.level_sizes(), b.level_sizes())

    def test_rejects_rectangular(self):
        from repro.sparse.coo import CooMatrix

        with pytest.raises(NotTriangularError):
            anti_transpose(CooMatrix.empty((2, 3)).to_csc())


class TestBackwardSolver:
    def test_matches_serial_backward(self, upper, rng):
        x_true = rng.uniform(0.5, 1.5, size=upper.shape[0])
        b = upper.matvec(x_true)
        ref = serial_backward(upper, b)
        res = BackwardSolver(SerialSolver()).solve(upper, b)
        assert_solutions_close(res.x, ref)
        assert_solutions_close(res.x, x_true)

    def test_multi_gpu_backward(self, upper, rng):
        x_true = rng.uniform(0.5, 1.5, size=upper.shape[0])
        b = upper.matvec(x_true)
        solver = BackwardSolver(ZeroCopySolver(machine=dgx1(4), tasks_per_gpu=4))
        res = solver.solve(upper, b)
        assert_solutions_close(res.x, x_true)
        assert res.report is not None
        assert res.report.n_gpus == 4

    def test_name_composed(self):
        s = BackwardSolver(SerialSolver())
        assert "serial-reference" in s.name

    def test_rejects_lower_input(self, small_lower):
        with pytest.raises(NotTriangularError):
            BackwardSolver(SerialSolver()).solve(
                small_lower, np.ones(small_lower.shape[0])
            )


class TestMultiRhs:
    def test_matches_column_by_column(self, small_lower, rng):
        k = 5
        b_block = rng.uniform(-1, 1, size=(small_lower.shape[0], k))
        x_block = levelset_forward(small_lower, b_block)
        for j in range(k):
            np.testing.assert_allclose(
                x_block[:, j],
                serial_forward(small_lower, b_block[:, j]),
                rtol=1e-10,
            )

    def test_single_column(self, small_lower, rng):
        b = rng.uniform(-1, 1, size=(small_lower.shape[0], 1))
        x = levelset_forward(small_lower, b)
        np.testing.assert_allclose(
            x[:, 0], serial_forward(small_lower, b[:, 0]), rtol=1e-10
        )

    def test_shape_checked(self, small_lower):
        with pytest.raises(ShapeError):
            solve_multi_rhs(small_lower, np.ones(small_lower.shape[0]))
        with pytest.raises(ShapeError):
            levelset_forward(small_lower, np.ones((3, 2)))

    @pytest.mark.parametrize(
        "shape", [(None,), (None, 0), (3, 2)], ids=["1-d", "k=0", "rows"]
    )
    def test_solve_multi_rhs_names_the_block_shape(self, small_lower, shape):
        n = small_lower.shape[0]
        block = np.ones(tuple(n if d is None else d for d in shape))
        with pytest.raises(ShapeError) as err:
            solve_multi_rhs(small_lower, block, machine=dgx1(2))
        assert f"({n}, k) with k >= 1" in str(err.value)
        assert str(block.shape) in str(err.value)

    def test_solve_multi_rhs_end_to_end(self, scattered_lower, rng):
        k = 4
        x_true = rng.uniform(0.5, 1.5, size=(scattered_lower.shape[0], k))
        b_block = np.column_stack(
            [scattered_lower.matvec(x_true[:, j]) for j in range(k)]
        )
        res = solve_multi_rhs(scattered_lower, b_block, machine=dgx1(4))
        np.testing.assert_allclose(res.x, x_true, rtol=1e-8)
        assert res.x.shape == b_block.shape
        assert "multi-rhs[4]" == res.solver

    def test_time_sublinear_in_rhs_count(self, scattered_lower, rng):
        """The whole point of multi-RHS: k columns cost far less than k
        separate solves (shared analysis + counters)."""
        n = scattered_lower.shape[0]
        b1 = rng.uniform(-1, 1, size=(n, 1))
        b8 = rng.uniform(-1, 1, size=(n, 8))
        t1 = solve_multi_rhs(scattered_lower, b1, machine=dgx1(4)).report.total_time
        t8 = solve_multi_rhs(scattered_lower, b8, machine=dgx1(4)).report.total_time
        assert t8 < 6 * t1

    def test_fabric_bytes_grow_with_width(self, scattered_lower, rng):
        n = scattered_lower.shape[0]
        f1 = solve_multi_rhs(
            scattered_lower, rng.random((n, 1)), machine=dgx1(4)
        ).report.fabric_bytes
        f8 = solve_multi_rhs(
            scattered_lower, rng.random((n, 8)), machine=dgx1(4)
        ).report.fabric_bytes
        assert f8 > f1
