"""Event-granular DES solver tests (and fast-model cross-validation)."""

import numpy as np
import pytest

from repro.analysis.dag import build_dag
from repro.exec_model.costmodel import Design
from repro.machine.node import dgx1
from repro.solvers.des_solver import DesSolver, des_execute
from repro.solvers.serial import serial_forward
from repro.sparse.validate import assert_solutions_close, random_rhs_for_solution
from repro.tasks.schedule import block_distribution, round_robin_distribution


@pytest.fixture
def system(small_lower):
    b, x_true = random_rhs_for_solution(small_lower, seed=21)
    return small_lower, b, x_true


class TestNumerics:
    @pytest.mark.parametrize(
        "design", [Design.SHMEM_READONLY, Design.SHMEM_NAIVE, Design.UNIFIED]
    )
    def test_solution_matches_serial(self, system, design):
        lower, b, x_true = system
        machine = dgx1(4, require_p2p=design is not Design.UNIFIED)
        dist = block_distribution(lower.shape[0], 4)
        ex = des_execute(lower, b, dist, machine, design)
        assert_solutions_close(ex.x, x_true, context=str(design))

    def test_round_robin_distribution(self, system):
        lower, b, x_true = system
        dist = round_robin_distribution(lower.shape[0], 4, tasks_per_gpu=4)
        ex = des_execute(lower, b, dist, dgx1(4))
        assert_solutions_close(ex.x, x_true)

    def test_single_gpu(self, system):
        lower, b, x_true = system
        dist = block_distribution(lower.shape[0], 1)
        ex = des_execute(lower, b, dist, dgx1(1))
        assert_solutions_close(ex.x, x_true)


class TestOrderingInvariants:
    def test_no_component_before_dependencies(self, system):
        lower, b, _ = system
        dag = build_dag(lower)
        dist = block_distribution(lower.shape[0], 4)
        ex = des_execute(lower, b, dist, dgx1(4))
        position = {c: k for k, c in enumerate(ex.solve_order())}
        for i in range(dag.n):
            for p in dag.predecessors(i):
                assert position[int(p)] < position[i]

    def test_all_components_solved_once(self, system):
        lower, b, _ = system
        dist = block_distribution(lower.shape[0], 4)
        ex = des_execute(lower, b, dist, dgx1(4))
        assert sorted(ex.solve_order()) == list(range(lower.shape[0]))

    def test_solve_times_monotone_along_chains(self, chain_lower):
        b, _ = random_rhs_for_solution(chain_lower, seed=1)
        dist = block_distribution(chain_lower.shape[0], 2)
        ex = des_execute(chain_lower, b, dist, dgx1(2))
        times = [r.time for r in ex.trace.of_kind("solve")]
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))


class TestExactFaultCounting:
    def test_unified_counts_faults(self, system):
        lower, b, _ = system
        dist = block_distribution(lower.shape[0], 4)
        ex = des_execute(
            lower, b, dist, dgx1(4, require_p2p=False), Design.UNIFIED
        )
        assert ex.page_faults > 0
        assert ex.trace.count("fault") > 0

    def test_shmem_no_faults(self, system):
        lower, b, _ = system
        dist = block_distribution(lower.shape[0], 4)
        ex = des_execute(lower, b, dist, dgx1(4), Design.SHMEM_READONLY)
        assert ex.page_faults == 0

    def test_faults_grow_with_gpus(self, scattered_lower):
        b, _ = random_rhs_for_solution(scattered_lower, seed=2)
        counts = []
        for g in (2, 4):
            dist = block_distribution(scattered_lower.shape[0], g)
            ex = des_execute(
                scattered_lower,
                b,
                dist,
                dgx1(g, require_p2p=False),
                Design.UNIFIED,
            )
            counts.append(ex.page_faults)
        assert counts[1] > counts[0]


class TestTimingBehaviour:
    def test_readonly_faster_than_naive(self, scattered_lower):
        b, _ = random_rhs_for_solution(scattered_lower, seed=3)
        dist = block_distribution(scattered_lower.shape[0], 4)
        ro = des_execute(scattered_lower, b, dist, dgx1(4), Design.SHMEM_READONLY)
        nv = des_execute(scattered_lower, b, dist, dgx1(4), Design.SHMEM_NAIVE)
        assert ro.total_time < nv.total_time

    def test_chain_serialises(self, chain_lower):
        b, _ = random_rhs_for_solution(chain_lower, seed=4)
        n = chain_lower.shape[0]
        ex = des_execute(chain_lower, b, block_distribution(n, 2), dgx1(2))
        # Chain of n solves: total time at least n * per-solve cost.
        per = dgx1(2).gpu.t_per_nnz
        assert ex.total_time > n * per

    def test_occupancy_limits_throughput(self, diag_only):
        """With fewer warp slots, independent work takes longer."""
        b, _ = random_rhs_for_solution(diag_only, seed=5)
        n = diag_only.shape[0]
        dist = block_distribution(n, 1)
        wide = des_execute(
            diag_only, b, dist, dgx1(1).with_gpu(warp_slots=64)
        )
        narrow = des_execute(
            diag_only, b, dist, dgx1(1).with_gpu(warp_slots=1)
        )
        assert narrow.total_time > wide.total_time

    def test_deterministic(self, system):
        lower, b, _ = system
        dist = block_distribution(lower.shape[0], 4)
        a = des_execute(lower, b, dist, dgx1(4))
        c = des_execute(lower, b, dist, dgx1(4))
        assert a.total_time == c.total_time
        assert a.solve_order() == c.solve_order()
        assert a.events == c.events


class TestFrontEnd:
    def test_solver_front_end(self, system):
        lower, b, x_true = system
        result = DesSolver(machine=dgx1(4)).solve(lower, b)
        assert_solutions_close(result.x, x_true)
        assert result.report is not None


class TestLinkContention:
    def test_fewer_channels_slow_cross_traffic(self, scattered_lower):
        """Throttling the in-flight message budget must lengthen runs with
        heavy cross-GPU traffic (monkeypatched channel count)."""
        import repro.solvers.des_solver as mod

        b, _ = random_rhs_for_solution(scattered_lower, seed=31)
        dist = block_distribution(scattered_lower.shape[0], 4)
        orig = mod.MESSAGES_IN_FLIGHT_PER_LINK
        try:
            mod.MESSAGES_IN_FLIGHT_PER_LINK = 16
            roomy = des_execute(scattered_lower, b, dist, dgx1(4))
            mod.MESSAGES_IN_FLIGHT_PER_LINK = 1
            tight = des_execute(scattered_lower, b, dist, dgx1(4))
        finally:
            mod.MESSAGES_IN_FLIGHT_PER_LINK = orig
        assert tight.total_time >= roomy.total_time
        # Numerics unaffected by congestion.
        np.testing.assert_allclose(tight.x, roomy.x)

    def test_single_gpu_never_touches_links(self, small_lower):
        b, _ = random_rhs_for_solution(small_lower, seed=32)
        dist = block_distribution(small_lower.shape[0], 1)
        ex = des_execute(small_lower, b, dist, dgx1(1))
        assert ex.total_time > 0  # and no TopologyError from link lookup


class TestFailureInjection:
    def test_lost_notification_detected_as_deadlock(
        self, small_lower, monkeypatch
    ):
        """If a producer's update never arrives, the waiting component can
        never wake: the DES core must report a deadlock rather than hang
        or return wrong numerics."""
        from dataclasses import replace

        from repro.errors import SimulationError, SolverError
        from repro.exec_model.artefacts import get_artefacts

        b, _ = random_rhs_for_solution(small_lower, seed=41)
        dist = block_distribution(small_lower.shape[0], 4)

        # Lose one notification: the easiest reliable injection is an
        # in-degree one too high in the DAG the matrix's bundle serves.
        art = get_artefacts(small_lower)
        dag = art.dag
        in_degree = dag.in_degree.copy()
        in_degree[-1] += 1
        monkeypatch.setattr(art, "dag", replace(dag, in_degree=in_degree))
        with pytest.raises((SimulationError, SolverError)):
            des_execute(
                small_lower, b, dist, dgx1(4), engine="reference"
            )
