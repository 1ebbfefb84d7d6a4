"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dag import build_dag
from repro.analysis.levels import compute_levels
from repro.sparse.coo import CooMatrix
from repro.solvers.serial import serial_forward
from repro.tasks.partition import partition_components
from repro.tasks.schedule import round_robin_distribution
from repro.workloads.generators import dag_profile_matrix, random_lower


@st.composite
def lower_matrices(draw):
    """Random well-conditioned lower-triangular matrices."""
    n = draw(st.integers(min_value=1, max_value=60))
    avg = draw(st.floats(min_value=1.0, max_value=6.0))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return random_lower(n, avg_nnz_per_row=min(avg, float(n)), seed=seed)


@st.composite
def profiled_matrices(draw):
    n = draw(st.integers(min_value=2, max_value=120))
    n_levels = draw(st.integers(min_value=1, max_value=n))
    dep = draw(st.floats(min_value=1.0, max_value=4.0))
    scatter = draw(st.sampled_from([0.0, 0.5, 1.0]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return (
        dag_profile_matrix(
            n=n, n_levels=n_levels, dependency=dep, scatter=scatter, seed=seed
        ),
        n_levels,
    )


@settings(max_examples=40, deadline=None)
@given(lower_matrices())
def test_serial_solve_matches_dense_oracle(lower):
    rng = np.random.default_rng(0)
    x_true = rng.uniform(0.5, 1.5, size=lower.shape[0])
    b = lower.matvec(x_true)
    x = serial_forward(lower, b)
    np.testing.assert_allclose(x, x_true, rtol=1e-7, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(lower_matrices())
def test_format_roundtrip_preserves_matrix(lower):
    dense = lower.to_dense()
    np.testing.assert_array_equal(lower.to_csr().to_csc().to_dense(), dense)
    np.testing.assert_array_equal(
        lower.to_coo().to_csr().to_coo().to_dense(), dense
    )


@settings(max_examples=40, deadline=None)
@given(lower_matrices())
def test_transpose_involution(lower):
    transposed = lower.transpose()  # CSR view of L^T
    back = transposed.transpose()  # CSC view of L again
    np.testing.assert_array_equal(back.to_dense(), lower.to_dense())
    np.testing.assert_array_equal(
        transposed.to_dense(), lower.to_dense().T
    )


@settings(max_examples=40, deadline=None)
@given(lower_matrices())
def test_level_invariants(lower):
    dag = build_dag(lower)
    levels = compute_levels(dag)
    # Every component assigned exactly once.
    assert levels.level_sizes().sum() == dag.n
    # Dependencies strictly increase levels.
    for i in range(dag.n):
        preds = dag.predecessors(i)
        if len(preds):
            assert levels.level_of[preds].max() < levels.level_of[i]
    # Level 0 is exactly the root set.
    np.testing.assert_array_equal(levels.level(0), dag.roots())


@settings(max_examples=30, deadline=None)
@given(profiled_matrices())
def test_generator_hits_exact_level_count(pair):
    matrix, n_levels = pair
    assert compute_levels(matrix).n_levels == n_levels


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=10_000),
    k=st.integers(min_value=1, max_value=64),
)
def test_partition_properties(n, k):
    k_eff = min(k, n) if n else 1
    if n == 0:
        part = partition_components(0, 1)
        assert part.n_tasks == 0
        return
    part = partition_components(n, k_eff)
    sizes = part.sizes()
    assert sizes.sum() == n
    assert sizes.min() >= 1
    assert sizes.max() - sizes.min() <= 1
    # Boundaries are monotone and cover [0, n].
    assert part.task_ptr[0] == 0 and part.task_ptr[-1] == n
    assert np.all(np.diff(part.task_ptr) > 0)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5_000),
    g=st.integers(min_value=1, max_value=16),
    t=st.integers(min_value=1, max_value=16),
)
def test_round_robin_covers_everything(n, g, t):
    d = round_robin_distribution(n, g, tasks_per_gpu=t)
    assert len(d.gpu_of) == n
    assert d.gpu_of.min() >= 0 and d.gpu_of.max() < g
    # Per-GPU component order ascending (deadlock-freedom invariant).
    for gpu in range(g):
        comps = d.components_on_gpu(gpu)
        assert np.all(np.diff(comps) > 0)
    # Task sizes balanced.
    sizes = d.partition.sizes()
    assert sizes.max() - sizes.min() <= 1


@settings(max_examples=30, deadline=None)
@given(
    counts=st.lists(
        st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=16
    )
)
def test_expected_faults_bounds(counts):
    from repro.machine.unified import expected_faults

    arr = np.asarray(counts)
    f = expected_faults(arr)
    assert 0.0 <= f <= arr.sum() + 1e-6
    # Single writer never faults.
    single = np.zeros_like(arr)
    if len(single):
        single[0] = arr.sum()
        assert expected_faults(single) == 0.0


@settings(max_examples=25, deadline=None)
@given(lower_matrices())
def test_backward_solve_matches_serial_reference(lower):
    """Backward substitution via anti-transpose equals serial backward."""
    from repro.solvers.backward import BackwardSolver, anti_transpose
    from repro.solvers.levelset import LevelSetSolver
    from repro.solvers.serial import serial_backward

    upper = anti_transpose(lower)
    rng = np.random.default_rng(1)
    x_true = rng.uniform(0.5, 1.5, size=upper.shape[0])
    b = upper.matvec(x_true)
    x_ref = serial_backward(upper, b)
    np.testing.assert_allclose(x_ref, x_true, rtol=1e-7, atol=1e-10)
    x = BackwardSolver(LevelSetSolver()).solve(upper, b).x
    np.testing.assert_allclose(x, x_ref, rtol=1e-9, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(lower_matrices(), st.integers(min_value=1, max_value=5))
def test_multi_rhs_columns_are_independent(lower, k):
    """Block solves equal per-column solves — bitwise — and the serial
    reference per column."""
    from repro.machine.node import dgx1
    from repro.solvers.multirhs import solve_multi_rhs

    rng = np.random.default_rng(2)
    n = lower.shape[0]
    bb = rng.uniform(-1.0, 1.0, (n, k))
    res = solve_multi_rhs(lower, bb, machine=dgx1(2))
    assert res.x.shape == (n, k)
    for j in range(k):
        solo = solve_multi_rhs(lower, bb[:, j : j + 1], machine=dgx1(2))
        np.testing.assert_array_equal(res.x[:, j], solo.x[:, 0])
        np.testing.assert_allclose(
            res.x[:, j], serial_forward(lower, bb[:, j]), rtol=1e-9,
            atol=1e-12,
        )


@settings(max_examples=20, deadline=None)
@given(lower_matrices())
def test_mixed_precision_error_bounds(lower):
    """Refinement must reach its componentwise residual target within the
    sweep budget, and the result must match the float64 reference."""
    from repro.solvers.mixedprec import MixedPrecisionSolver
    from repro.sparse.validate import residual_norm

    rng = np.random.default_rng(3)
    x_true = rng.uniform(0.5, 1.5, size=lower.shape[0])
    b = lower.matvec(x_true)
    solver = MixedPrecisionSolver(tol=1e-12, max_sweeps=6)
    x = solver.solve(lower, b).x
    stats = solver.last_refinement
    assert stats is not None
    assert 1 <= stats.sweeps <= solver.max_sweeps
    assert len(stats.residual_history) == stats.sweeps
    assert stats.final_residual == stats.residual_history[-1]
    assert stats.final_residual <= solver.tol
    assert residual_norm(lower, x, b) <= 1e-10
    np.testing.assert_allclose(x, x_true, rtol=1e-8, atol=1e-11)


@settings(max_examples=25, deadline=None)
@given(lower_matrices())
def test_simulation_finish_respects_dependencies(lower):
    """List-scheduled finish times must honour the DAG for any input."""
    from repro.exec_model.costmodel import Design
    from repro.exec_model.timeline import simulate_execution
    from repro.machine.node import dgx1
    from repro.tasks.schedule import block_distribution

    machine = dgx1(2)
    dist = block_distribution(lower.shape[0], 2)
    rep = simulate_execution(lower, dist, machine, Design.SHMEM_READONLY)
    assert rep.solve_time >= 0.0
    assert rep.local_updates + rep.remote_updates == lower.nnz - lower.shape[0]
