"""Mixed-precision refinement and real-factor workload tests."""

import numpy as np
import pytest

from repro.analysis.metrics import profile_matrix
from repro.errors import SolverError, WorkloadError
from repro.machine.node import dgx1
from repro.solvers.levelset import levelset_forward
from repro.solvers.mixedprec import MixedPrecisionSolver
from repro.solvers.serial import serial_forward
from repro.sparse.triangular import is_lower_triangular
from repro.sparse.validate import (
    assert_solutions_close,
    random_rhs_for_solution,
    relative_error,
)
from repro.workloads.factors import (
    anisotropic_factor,
    circuit_factor,
    poisson2d_factor,
)


class TestFloat32Forward:
    def test_roughly_correct(self, small_lower):
        b, x_true = random_rhs_for_solution(small_lower, seed=1)
        x32 = levelset_forward(small_lower, b.astype(np.float32))
        assert x32.dtype == np.float32
        assert relative_error(x32, x_true) < 1e-4

    def test_visibly_less_accurate_than_fp64(self, scattered_lower):
        """The fp32 sweep must actually round — otherwise the refinement
        test below proves nothing."""
        b, x_true = random_rhs_for_solution(scattered_lower, seed=2)
        x32 = levelset_forward(scattered_lower, b.astype(np.float32))
        err32 = relative_error(x32, x_true)
        err64 = relative_error(serial_forward(scattered_lower, b), x_true)
        assert err32 > 10 * max(err64, 1e-16)
        assert err32 > 1e-9  # genuine single precision


class TestMixedPrecisionSolver:
    def test_reaches_fp64_accuracy(self, small_lower):
        b, x_true = random_rhs_for_solution(small_lower, seed=3)
        solver = MixedPrecisionSolver(machine=dgx1(4))
        res = solver.solve(small_lower, b)
        assert_solutions_close(res.x, x_true, rtol=1e-9)
        stats = solver.last_refinement
        assert stats is not None
        assert stats.final_residual <= solver.tol
        # Residual drops monotonically across sweeps.
        hist = stats.residual_history
        assert all(b < a for a, b in zip(hist, hist[1:]))

    def test_few_sweeps_needed(self, scattered_lower):
        b, _ = random_rhs_for_solution(scattered_lower, seed=4)
        solver = MixedPrecisionSolver(machine=dgx1(4))
        solver.solve(scattered_lower, b)
        assert solver.last_refinement.sweeps <= 3

    def test_report_scales_with_sweeps(self, small_lower):
        b, _ = random_rhs_for_solution(small_lower, seed=5)
        solver = MixedPrecisionSolver(machine=dgx1(4))
        res = solver.solve(small_lower, b)
        sweeps = solver.last_refinement.sweeps
        assert res.report.design == "mixed_precision"
        assert res.report.remote_updates % sweeps == 0

    def test_unreachable_tolerance_raises(self, small_lower):
        b, _ = random_rhs_for_solution(small_lower, seed=6)
        solver = MixedPrecisionSolver(machine=dgx1(4), tol=0.0, max_sweeps=2)
        with pytest.raises(SolverError, match="refinement"):
            solver.solve(small_lower, b)

    def test_fp32_traffic_cheaper_than_fp64(self, scattered_lower):
        """Per sweep, the mixed-precision report moves fewer fabric
        bytes than the fp64 zero-copy run."""
        from repro.solvers.zerocopy import ZeroCopySolver

        b, _ = random_rhs_for_solution(scattered_lower, seed=7)
        solver = MixedPrecisionSolver(machine=dgx1(4))
        res = solver.solve(scattered_lower, b)
        sweeps = solver.last_refinement.sweeps
        full = ZeroCopySolver(machine=dgx1(4), emulate=False).solve(
            scattered_lower, b
        )
        assert res.report.fabric_bytes / sweeps < full.report.fabric_bytes


class TestFactorWorkloads:
    def test_poisson_factor_valid(self):
        lo = poisson2d_factor(12, 12)
        lo.validate()
        assert is_lower_triangular(lo)
        assert lo.shape == (144, 144)

    def test_poisson_factor_has_fill(self):
        """Natural-order elimination must create fill beyond the stencil."""
        lo = poisson2d_factor(12, 12)
        stencil_lower_nnz = 144 + 143 + 132  # diag + west + north chains
        assert lo.nnz > 1.5 * stencil_lower_nnz

    def test_factor_solves_reference(self):
        lo = poisson2d_factor(10, 10)
        b, x_true = random_rhs_for_solution(lo, seed=8)
        np.testing.assert_allclose(serial_forward(lo, b), x_true, rtol=1e-8)

    def test_anisotropic_changes_values_not_pattern(self):
        """Exact LU of the same stencil keeps the symbolic pattern (no
        dropping) but the anisotropy shows up in the numeric factor."""
        iso = poisson2d_factor(12, 12)
        aniso = anisotropic_factor(12, 12, anisotropy=50.0)
        assert iso.nnz == aniso.nnz
        np.testing.assert_array_equal(iso.indices, aniso.indices)
        assert not np.allclose(iso.data, aniso.data)

    def test_natural_order_band_factor_is_sequential(self):
        """Fill-in of natural-order elimination chains every column to its
        predecessor: the factor has n levels — exactly why reordering
        matters for parallel SpTRSV (Section II-B)."""
        prof = profile_matrix(poisson2d_factor(10, 10))
        assert prof.n_levels == prof.n_rows
        assert prof.parallelism == 1.0

    def test_circuit_factor_deterministic(self):
        assert circuit_factor(8, seed=3) == circuit_factor(8, seed=3)
        assert circuit_factor(8, seed=3) != circuit_factor(8, seed=4)

    def test_factor_on_multi_gpu_solver(self):
        from repro.solvers.zerocopy import ZeroCopySolver

        lo = circuit_factor(12, seed=1)
        b, x_true = random_rhs_for_solution(lo, seed=9)
        res = ZeroCopySolver(machine=dgx1(4), tasks_per_gpu=4).solve(lo, b)
        assert_solutions_close(res.x, x_true)

    def test_invalid_params(self):
        with pytest.raises(WorkloadError):
            poisson2d_factor(1, 5)
        with pytest.raises(WorkloadError):
            anisotropic_factor(5, 5, anisotropy=-1.0)
        with pytest.raises(WorkloadError):
            circuit_factor(1)
