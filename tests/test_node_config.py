"""MachineConfig / node factory tests."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.machine.node import MachineConfig, dgx1, dgx2
from repro.machine.specs import V100
from repro.machine.topology import dgx1_topology


class TestDgx1Factory:
    def test_default_four_gpu_clique(self):
        m = dgx1()
        assert m.n_gpus == 4
        assert m.require_p2p
        # The clique really is fully connected.
        from itertools import combinations

        for a, b in combinations(m.active_gpus, 2):
            assert m.topology.connected(a, b)

    def test_p2p_limit_at_five(self):
        with pytest.raises(TopologyError):
            dgx1(5)

    def test_unified_reaches_eight(self):
        m = dgx1(8, require_p2p=False)
        assert m.n_gpus == 8

    def test_unified_nine_rejected(self):
        with pytest.raises(TopologyError):
            dgx1(9, require_p2p=False)

    def test_single_gpu(self):
        assert dgx1(1).n_gpus == 1


class TestDgx2Factory:
    def test_sixteen(self):
        assert dgx2(16).n_gpus == 16

    def test_seventeen_rejected(self):
        with pytest.raises(TopologyError):
            dgx2(17)


class TestMachineConfig:
    def test_duplicate_gpus_rejected(self):
        with pytest.raises(TopologyError, match="duplicate"):
            MachineConfig(topology=dgx1_topology(), active_gpus=(0, 0))

    def test_out_of_range_gpu(self):
        with pytest.raises(TopologyError):
            MachineConfig(topology=dgx1_topology(), active_gpus=(99,))

    def test_empty_active_set(self):
        with pytest.raises(TopologyError):
            MachineConfig(topology=dgx1_topology(), active_gpus=())

    def test_p2p_enforced_when_requested(self):
        # GPUs 0 and 5 are not linked on DGX-1.
        with pytest.raises(TopologyError, match="P2P"):
            MachineConfig(
                topology=dgx1_topology(), active_gpus=(0, 5), require_p2p=True
            )
        # But allowed for unified-memory runs.
        MachineConfig(
            topology=dgx1_topology(), active_gpus=(0, 5), require_p2p=False
        )

    def test_gpu_of_pe(self):
        m = MachineConfig(topology=dgx1_topology(), active_gpus=(2, 3))
        assert m.gpu_of_pe(0) == 2
        assert m.gpu_of_pe(1) == 3

    def test_pe_latency(self):
        m = dgx1(4)
        assert m.pe_latency(0, 0) == 0.0
        assert m.pe_latency(0, 1) > 0.0

    def test_device_memories_fresh(self):
        m = dgx1(2)
        mems = m.device_memories()
        assert len(mems) == 2
        assert all(mem.used() == 0 for mem in mems)
        mems[0].malloc("x", 10)
        assert m.device_memories()[0].used() == 0  # independent

    def test_with_gpu_override(self):
        m = dgx1(2).with_gpu(warp_slots=7)
        assert m.gpu.warp_slots == 7
        assert m.gpu.t_per_nnz == V100.t_per_nnz  # everything else intact

    def test_with_um_and_shmem_override(self):
        m = dgx1(2).with_um(fault_cost=1e-6).with_shmem(get_overhead=9e-9)
        assert m.um.fault_cost == 1e-6
        assert m.shmem.get_overhead == 9e-9

    def test_frozen(self):
        m = dgx1(2)
        with pytest.raises(Exception):
            m.active_gpus = (0,)


class TestWarpScheduler:
    def test_slots_fill_then_queue(self):
        from repro.machine.gpu import WarpScheduler

        sched = WarpScheduler(V100.with_(warp_slots=2, t_warp_dispatch=0.0))
        t1 = sched.dispatch(0.0)
        t2 = sched.dispatch(0.0)
        sched.retire(5.0)
        sched.retire(7.0)
        assert t1 == 0.0 and t2 == 0.0
        # Third dispatch waits for the earliest retirement.
        t3 = sched.dispatch(0.0)
        assert t3 == 5.0

    def test_not_before_respected(self):
        from repro.machine.gpu import WarpScheduler

        sched = WarpScheduler(V100.with_(warp_slots=4, t_warp_dispatch=0.0))
        assert sched.dispatch(3.5) == 3.5

    def test_dispatch_cost_added(self):
        from repro.machine.gpu import WarpScheduler

        sched = WarpScheduler(V100.with_(warp_slots=4, t_warp_dispatch=0.25))
        assert sched.dispatch(1.0) == 1.25

    def test_counters(self):
        from repro.machine.gpu import WarpScheduler

        sched = WarpScheduler(V100)
        assert sched.dispatch(0.0) == V100.t_warp_dispatch
        sched.retire(2.0)
        assert sched.resident == 1
        assert sched.counters.last_finish == 2.0

    def test_solve_cost_monotone(self):
        from repro.engine.protocol import solve_cost

        t = V100.t_per_nnz
        assert solve_cost(t, 10, 3) > solve_cost(t, 2, 1)
        assert solve_cost(t, 0, 0) > 0  # floor of one entry
