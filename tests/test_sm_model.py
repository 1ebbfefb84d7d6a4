"""SM-granular occupancy model tests."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.exec_model.costmodel import Design
from repro.exec_model.timeline import simulate_execution
from repro.machine.node import dgx1
from repro.machine.sm import SmWarpScheduler
from repro.machine.specs import V100
from repro.tasks.schedule import block_distribution, round_robin_distribution


class TestSmWarpScheduler:
    def test_unconstrained_matches_flat(self):
        """With plenty of free slots everywhere, dispatch is immediate."""
        sched = SmWarpScheduler(V100.with_(t_warp_dispatch=0.0))
        for _ in range(V100.warp_slots // 2):
            t = sched.dispatch(1.0)
            assert t == 1.0
            sched.retire(5.0)

    def test_fragmentation_delays_within_sm(self):
        """A full SM delays its own blocks even though other SMs idle."""
        spec = V100.with_(
            warp_slots=8, n_sms=2, block_warps=4, t_warp_dispatch=0.0
        )
        sched = SmWarpScheduler(spec)  # 4 slots per SM
        # Block 0 (4 warps) fills SM0; they retire late.
        for _ in range(4):
            sched.dispatch(0.0)
            sched.retire(100.0)
        # Block 1 lands on SM1: free, dispatches at once.
        t = sched.dispatch(0.0)
        sched.retire(1.0)
        assert t == 0.0
        # Fill the rest of SM1's block.
        for _ in range(3):
            sched.dispatch(0.0)
            sched.retire(1.0)
        # Next block wraps to SM0 again: must wait for the 100.0 retires
        # even though SM1 is now empty.
        t = sched.dispatch(0.0)
        assert t == 100.0

    def test_round_robin_block_placement(self):
        spec = V100.with_(warp_slots=8, n_sms=4, block_warps=2)
        sched = SmWarpScheduler(spec)
        sms = []
        for _ in range(8):
            sched.dispatch(0.0)
            sms.append(sched._last_sm)
            sched.retire(1.0)
        assert sms == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_counters(self):
        sched = SmWarpScheduler(V100)
        sched.dispatch(0.0)
        sched.retire(2.0)
        assert sched.counters.last_finish == 2.0
        assert sched.resident == 1

    def test_invalid_spec(self):
        with pytest.raises(SimulationError):
            SmWarpScheduler(V100.with_(n_sms=0))


class TestSmGranularTimeline:
    def test_never_faster_than_flat(self, scattered_lower):
        dist = block_distribution(scattered_lower.shape[0], 4)
        flat = simulate_execution(
            scattered_lower, dist, dgx1(4), Design.SHMEM_READONLY
        )
        sm = simulate_execution(
            scattered_lower,
            dist,
            dgx1(4),
            Design.SHMEM_READONLY,
            sm_granularity=True,
        )
        assert sm.solve_time >= flat.solve_time * 0.999

    def test_same_numeric_counters(self, scattered_lower):
        """The occupancy model changes timing only."""
        dist = round_robin_distribution(scattered_lower.shape[0], 4, 8)
        flat = simulate_execution(
            scattered_lower, dist, dgx1(4), Design.SHMEM_READONLY
        )
        sm = simulate_execution(
            scattered_lower,
            dist,
            dgx1(4),
            Design.SHMEM_READONLY,
            sm_granularity=True,
        )
        assert sm.remote_updates == flat.remote_updates
        assert sm.local_updates == flat.local_updates
        np.testing.assert_allclose(sm.gpu_busy, flat.gpu_busy)

    def test_conclusions_stable_under_sm_model(self, scattered_lower):
        """The headline ordering (zerocopy > unified) survives the
        higher-fidelity occupancy model."""
        n = scattered_lower.shape[0]
        m_sh = dgx1(4)
        m_um = dgx1(4, require_p2p=False)
        rr = round_robin_distribution(n, 4, 8)
        block = block_distribution(n, 4)
        t_zero = simulate_execution(
            scattered_lower, rr, m_sh, Design.SHMEM_READONLY,
            sm_granularity=True,
        ).total_time
        t_um = simulate_execution(
            scattered_lower, block, m_um, Design.UNIFIED, sm_granularity=True
        ).total_time
        assert t_zero < t_um

    def test_finer_sm_split_fragments_more(self, scattered_lower):
        """Splitting the same slot budget across more SMs shrinks each
        pool, so a stalled block blocks a larger fraction of its SM —
        fragmentation grows with the number of pools."""
        dist = block_distribution(scattered_lower.shape[0], 4)
        few_pools = simulate_execution(
            scattered_lower,
            dist,
            dgx1(4).with_gpu(n_sms=2),
            Design.SHMEM_READONLY,
            sm_granularity=True,
        ).solve_time
        many_pools = simulate_execution(
            scattered_lower,
            dist,
            dgx1(4).with_gpu(n_sms=16),
            Design.SHMEM_READONLY,
            sm_granularity=True,
        ).solve_time
        assert many_pools >= few_pools * 0.98
