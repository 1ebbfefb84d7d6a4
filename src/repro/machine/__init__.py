"""Simulated multi-GPU machine: GPUs, fabrics, unified memory, NVSHMEM.

This subpackage is the substitution for the paper's physical DGX-1/DGX-2
hardware (see DESIGN.md): it models the behaviours the evaluation is
sensitive to — warp occupancy, NVLink/NVSwitch connectivity and cost,
unified-memory page migration, and NVSHMEM one-sided semantics — while
carrying real NumPy data so solvers produce real numerics.
"""

from repro.machine.gpu import BatchWarpPool, GpuCounters, WarpScheduler
from repro.machine.link import LinkTracker
from repro.machine.memory import DeviceMemory
from repro.machine.mesh import (
    DeviceMesh,
    cluster_mesh,
    mesh_machine,
    mesh_topology,
)
from repro.machine.multinode import INFINIBAND, cluster, multinode_topology, node_of
from repro.machine.node import MachineConfig, dgx1, dgx2
from repro.machine.sm import SmWarpScheduler
from repro.machine.shmem import (
    SymmetricHeap,
    serial_reduction_time,
    warp_reduction_time,
)
from repro.machine.specs import (
    NVLINK2,
    NVSWITCH,
    PCIE3,
    SHMEM_DEFAULT,
    UM_DEFAULT,
    V100,
    GpuSpec,
    LinkSpec,
    ShmemSpec,
    UnifiedMemorySpec,
)
from repro.machine.topology import (
    Topology,
    dgx1_topology,
    dgx2_topology,
    pcie_topology,
)
from repro.machine.unified import ManagedArray, UnifiedMemory, expected_faults

__all__ = [
    "GpuCounters",
    "WarpScheduler",
    "BatchWarpPool",
    "SmWarpScheduler",
    "LinkTracker",
    "DeviceMemory",
    "MachineConfig",
    "dgx1",
    "dgx2",
    "cluster",
    "multinode_topology",
    "node_of",
    "INFINIBAND",
    "DeviceMesh",
    "cluster_mesh",
    "mesh_topology",
    "mesh_machine",
    "SymmetricHeap",
    "warp_reduction_time",
    "serial_reduction_time",
    "GpuSpec",
    "LinkSpec",
    "ShmemSpec",
    "UnifiedMemorySpec",
    "V100",
    "NVLINK2",
    "NVSWITCH",
    "PCIE3",
    "UM_DEFAULT",
    "SHMEM_DEFAULT",
    "Topology",
    "dgx1_topology",
    "dgx2_topology",
    "pcie_topology",
    "ManagedArray",
    "UnifiedMemory",
    "expected_faults",
]
