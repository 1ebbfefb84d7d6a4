"""Every solver must produce the same x as the serial reference.

This is the core numerical contract of the package: the multi-GPU designs
differ in *where* partial sums accumulate and *how* counters propagate,
but the solution must be identical (to rounding) on every matrix family.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.machine.node import dgx1, dgx2
from repro.solvers.cusparse import CusparseCsrsv2Solver
from repro.solvers.levelset import LevelSetSolver
from repro.solvers.nvshmem import NaiveShmemSolver, ShmemSolver
from repro.solvers.serial import SerialSolver, serial_backward, serial_forward
from repro.solvers.syncfree import SyncFreeSolver
from repro.solvers.threadlevel import ThreadLevelSolver
from repro.solvers.unified import UnifiedMemorySolver
from repro.solvers.zerocopy import ZeroCopySolver
from repro.sparse.validate import (
    assert_solutions_close,
    random_rhs_for_solution,
    residual_norm,
)


def solvers():
    return [
        SerialSolver(),
        LevelSetSolver(),
        CusparseCsrsv2Solver(),
        SyncFreeSolver(),
        UnifiedMemorySolver(machine=dgx1(4, require_p2p=False)),
        ShmemSolver(machine=dgx1(4)),
        NaiveShmemSolver(machine=dgx1(4)),
        ZeroCopySolver(machine=dgx1(4), tasks_per_gpu=4),
    ]


@pytest.mark.parametrize("solver", solvers(), ids=lambda s: s.name)
def test_solver_matches_manufactured_solution(solver, any_lower):
    b, x_true = random_rhs_for_solution(any_lower, seed=7)
    result = solver.solve(any_lower, b)
    assert_solutions_close(result.x, x_true, rtol=1e-8, context=solver.name)
    assert residual_norm(any_lower, result.x, b) < 1e-10


@pytest.mark.parametrize("solver", solvers(), ids=lambda s: s.name)
def test_solver_result_metadata(solver, small_lower):
    b, _ = random_rhs_for_solution(small_lower, seed=1)
    result = solver.solve(small_lower, b)
    assert result.solver == solver.name
    if solver.name == "serial-reference":
        assert result.report is None
        assert result.simulated_time == 0.0
    else:
        assert result.report is not None
        assert result.simulated_time > 0.0


def test_multi_gpu_solvers_agree_with_each_other(scattered_lower):
    b, _ = random_rhs_for_solution(scattered_lower, seed=3)
    x_ref = serial_forward(scattered_lower, b)
    for solver in (
        UnifiedMemorySolver(machine=dgx1(3, require_p2p=False)),
        ShmemSolver(machine=dgx1(3)),
        ZeroCopySolver(machine=dgx2(6), tasks_per_gpu=3),
    ):
        assert_solutions_close(
            solver.solve(scattered_lower, b).x, x_ref, context=solver.name
        )


def test_backward_substitution(rng):
    from repro.sparse.coo import CooMatrix
    from repro.sparse.triangular import upper_triangle

    d = rng.normal(size=(40, 40))
    d[np.abs(d) < 0.7] = 0.0
    upper = upper_triangle(CooMatrix.from_dense(d))
    x_true = rng.uniform(0.5, 1.5, size=40)
    b = upper.matvec(x_true)
    np.testing.assert_allclose(serial_backward(upper, b), x_true, rtol=1e-9)


def test_forward_missing_diagonal_raises():
    from repro.errors import SingularMatrixError, ReproError
    from repro.sparse.coo import CooMatrix

    m = CooMatrix(
        np.array([0, 1]), np.array([0, 0]), np.array([1.0, 1.0]), (2, 2)
    ).to_csc()
    with pytest.raises(ReproError):
        SerialSolver().solve(m, np.ones(2))


def test_rhs_shape_checked(small_lower):
    from repro.errors import ShapeError

    with pytest.raises(ShapeError):
        SerialSolver().solve(small_lower, np.ones(3))


def test_non_triangular_rejected(rng):
    from repro.errors import NotTriangularError
    from repro.sparse.coo import CooMatrix

    d = rng.normal(size=(5, 5)) + 10 * np.eye(5)
    full = CooMatrix.from_dense(d).to_csc()
    with pytest.raises(NotTriangularError):
        ShmemSolver().solve(full, np.ones(5))


def test_zerocopy_invalid_tasks():
    from repro.errors import TaskModelError

    with pytest.raises(TaskModelError):
        ZeroCopySolver(tasks_per_gpu=0)


def test_syncfree_rejects_multi_gpu_machine():
    with pytest.raises(ValueError):
        SyncFreeSolver(machine=dgx1(4))


def test_cusparse_rejects_bad_factor():
    with pytest.raises(ValueError):
        CusparseCsrsv2Solver(analysis_factor=-1.0)


@pytest.mark.parametrize(
    "make, parameter, value",
    [
        (lambda: SyncFreeSolver(machine=dgx1(4)), "n_gpus", 4),
        (lambda: ThreadLevelSolver(machine=dgx1(2)), "n_gpus", 2),
        (lambda: CusparseCsrsv2Solver(analysis_factor=0.0), "analysis_factor", 0.0),
    ],
    ids=["syncfree", "threadlevel", "cusparse"],
)
def test_constructor_rejects_bad_knob_with_typed_error(make, parameter, value):
    with pytest.raises(ConfigurationError) as err:
        make()
    assert err.value.parameter == parameter
    assert err.value.value == value


def test_solvers_without_emulation_match(scattered_lower):
    """emulate=False (bench mode) must produce the same numerics."""
    b, x_true = random_rhs_for_solution(scattered_lower, seed=5)
    for fast, slow in (
        (
            ZeroCopySolver(machine=dgx1(4), emulate=False),
            ZeroCopySolver(machine=dgx1(4), emulate=True),
        ),
        (
            UnifiedMemorySolver(machine=dgx1(4, require_p2p=False), emulate=False),
            UnifiedMemorySolver(machine=dgx1(4, require_p2p=False), emulate=True),
        ),
    ):
        xf = fast.solve(scattered_lower, b).x
        xs = slow.solve(scattered_lower, b).x
        assert_solutions_close(xf, x_true)
        assert_solutions_close(xf, xs)
