"""Machine-parameter sensitivity: does the zero-copy win depend on one knob?

Sweeps the three constants a sceptic would poke first — unified-memory
fault service time, fabric latency, and warp-slot occupancy — and checks
the Fig. 7 conclusion (zero-copy beats unified) survives the whole swept
range, while responding in the physically expected direction:

* larger fault cost  -> larger zero-copy speedup (unified pays it);
* larger link latency -> *smaller* speedup (the NVSHMEM gets pay it);
* occupancy moves throughput for both designs without flipping the sign.
"""

import numpy as np
from conftest import once, publish

from repro.bench.harness import context, geomean
from repro.bench.report import format_table
from repro.exec_model.costmodel import Design
from repro.exec_model.timeline import simulate_execution
from repro.machine.node import dgx1
from repro.tasks.schedule import block_distribution, round_robin_distribution

MATRICES = ("powersim", "Wordnet3", "roadNet-CA")


def speedup(machine_um, machine_sh, ctx):
    n = ctx.lower.shape[0]
    t_u = simulate_execution(
        ctx.lower, block_distribution(n, 4), machine_um, Design.UNIFIED
    ).total_time
    t_z = simulate_execution(
        ctx.lower,
        round_robin_distribution(n, 4, 8),
        machine_sh,
        Design.SHMEM_READONLY,
    ).total_time
    return t_u / t_z


def run_study():
    rows = []
    base_um = dgx1(4, require_p2p=False)
    base_sh = dgx1(4)

    for factor in (0.5, 1.0, 2.0, 4.0):
        m_um = base_um.with_um(fault_cost=base_um.um.fault_cost * factor)
        s = geomean(speedup(m_um, base_sh, context(n)) for n in MATRICES)
        rows.append([f"fault_cost x{factor}", s])

    for factor in (0.5, 1.0, 2.0, 4.0):
        # Latency enters through the shmem get path; scale the software
        # overheads that sit on every remote read.
        m_sh = base_sh.with_shmem(
            get_overhead=base_sh.shmem.get_overhead * factor,
            poll_interval=base_sh.shmem.poll_interval * factor,
        )
        s = geomean(speedup(base_um, m_sh, context(n)) for n in MATRICES)
        rows.append([f"get_latency x{factor}", s])

    for slots in (16, 64, 256):
        m_um = base_um.with_gpu(warp_slots=slots)
        m_sh = base_sh.with_gpu(warp_slots=slots)
        s = geomean(speedup(m_um, m_sh, context(n)) for n in MATRICES)
        rows.append([f"warp_slots {slots}", s])
    return rows


def test_sensitivity_machine_parameters(benchmark):
    rows = once(benchmark, run_study)
    publish(
        "sensitivity_machine",
        format_table(
            "Sensitivity - zero-copy speedup over unified vs machine knobs",
            ["configuration", "speedup"],
            rows,
            name_width=22,
        ),
    )
    by = {r[0]: r[1] for r in rows}
    # The conclusion never flips anywhere in the swept space.
    assert all(v > 1.0 for v in by.values())
    # Directions: fault cost helps, get latency hurts.
    assert by["fault_cost x4.0"] > by["fault_cost x0.5"]
    assert by["get_latency x4.0"] < by["get_latency x0.5"]
    # Occupancy does not change the sign and stays within sane bounds.
    assert 1.0 < by["warp_slots 16"] and 1.0 < by["warp_slots 256"]
