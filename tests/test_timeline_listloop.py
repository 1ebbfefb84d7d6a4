"""Bit-identity battery for the fast model's list-based reference loop.

``_schedule_reference`` runs its per-component loop on Python lists and
floats.  The numpy loop it replaced is kept here as a test-only oracle
(:func:`_numpy_reference_loop`): every case runs ``simulate_execution``
with ``scheduler="reference"`` once through the production loop and
once with the oracle swapped in, and asserts that the report and the
captured per-component schedule are bitwise equal.  The cases span the
seven generator families, the four designs (``unified`` on several
GPUs, so the fault model runs), the block/taskpool/costaware
placements, a 2x4 cluster with hierarchical placement, and the per-SM
slot pools.  Each case also passes the causality audit.
"""

import pytest
import numpy as np

from repro.exec_model import Design, simulate_execution
from repro.exec_model import timeline
from repro.machine.gpu import WarpScheduler
from repro.machine.multinode import cluster
from repro.machine.node import dgx1
from repro.tasks.schedule import build_distribution
from repro.verify.causality import (
    check_timeline_schedule,
    validate_captured_schedule,
)
from repro.workloads.factors import circuit_factor
from repro.workloads.generators import (
    banded_lower,
    dag_profile_matrix,
    forest_lower,
    grid_graph_lower,
    random_lower,
    tridiagonal_lower,
)

REPORT_FIELDS = (
    "analysis_time",
    "solve_time",
    "gpu_busy",
    "gpu_spin",
    "gpu_comm",
    "gpu_finish",
    "local_updates",
    "remote_updates",
    "page_faults",
    "migrated_bytes",
    "fabric_bytes",
)
SCHEDULE_FIELDS = ("finish", "dispatch", "ready")


def _numpy_reference_loop(
    gpu_spec,
    n_gpus,
    gpu_of,
    comp_not_before,
    in_ptr,
    in_idx,
    in_notify,
    gather_cost,
    update_cost,
    solve,
    sm_granularity=False,
):
    """The per-component loop on numpy arrays and scheduler objects."""
    if sm_granularity:
        from repro.machine.sm import SmWarpScheduler

        schedulers = [SmWarpScheduler(gpu_spec) for _ in range(n_gpus)]
    else:
        schedulers = [WarpScheduler(gpu_spec) for _ in range(n_gpus)]
    n = len(gpu_of)
    finish = np.zeros(n)
    dispatch_t = np.zeros(n)
    ready_t = np.zeros(n)
    gpu_busy = np.zeros(n_gpus)
    gpu_spin = np.zeros(n_gpus)
    gpu_comm = np.zeros(n_gpus)
    for i in range(n):
        g = int(gpu_of[i])
        sched = schedulers[g]
        dispatch = sched.dispatch(float(comp_not_before[i]))
        lo, hi = in_ptr[i], in_ptr[i + 1]
        if hi > lo:
            ready = float(np.max(finish[in_idx[lo:hi]] + in_notify[lo:hi]))
        else:
            ready = 0.0
        start = dispatch if ready <= dispatch else ready
        comm = gather_cost[i] + update_cost[i]
        fin = start + comm + solve[i]
        finish[i] = fin
        dispatch_t[i] = dispatch
        ready_t[i] = ready
        sched.retire(fin)
        gpu_busy[g] += solve[i]
        gpu_spin[g] += max(0.0, ready - dispatch)
        gpu_comm[g] += comm
    gpu_finish = np.array([s.counters.last_finish for s in schedulers])
    return finish, dispatch_t, ready_t, gpu_busy, gpu_spin, gpu_comm, gpu_finish


FAMILIES = {
    "tridiagonal": lambda: tridiagonal_lower(120),
    "banded": lambda: banded_lower(160, 4, seed=1),
    "random": lambda: random_lower(200, 4.0, seed=2),
    "forest": lambda: forest_lower(200, seed=3),
    "grid": lambda: grid_graph_lower(12, 14, seed=4),
    "profile": lambda: dag_profile_matrix(
        240, 10, 3.0, "uniform", 0.5, 0.3, 0.8, seed=5
    ),
    "circuit": lambda: circuit_factor(12, seed=6),
}
DISTRIBUTIONS = ("block", "taskpool", "costaware")


def _bits(value):
    return np.asarray(value).tobytes()


def _assert_same_run(low, dist, machine, design, monkeypatch, **kw):
    """Run both loops on one case; assert bitwise-equal outputs."""
    got_sched: dict = {}
    got = simulate_execution(
        low, dist, machine, design,
        scheduler="reference", schedule_out=got_sched, **kw,
    )
    want_sched: dict = {}
    with monkeypatch.context() as m:
        m.setattr(timeline, "_schedule_reference", _numpy_reference_loop)
        want = simulate_execution(
            low, dist, machine, design,
            scheduler="reference", schedule_out=want_sched, **kw,
        )
    for f in REPORT_FIELDS:
        assert _bits(getattr(got, f)) == _bits(getattr(want, f)), f
    for f in SCHEDULE_FIELDS:
        assert got_sched[f].dtype == np.float64, f
        assert _bits(got_sched[f]) == _bits(want_sched[f]), f
    return got_sched


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("design", list(Design))
def test_list_loop_matches_numpy_loop(family, design, monkeypatch):
    low = FAMILIES[family]()
    n = low.shape[0]
    machine = dgx1(n_gpus=4)
    for name in DISTRIBUTIONS:
        dist = build_distribution(name, n, 4, lower=low, machine=machine)
        _assert_same_run(low, dist, machine, design, monkeypatch)
        rep = check_timeline_schedule(
            low, dist, machine, design, scheduler="reference"
        )
        assert rep.ok, f"{family}/{design.value}/{name}: {rep.summary()}"


@pytest.mark.parametrize("design", list(Design))
def test_list_loop_matches_on_cluster_hierarchical(design, monkeypatch):
    low = dag_profile_matrix(320, 12, 3.0, "uniform", 0.3, 0.3, 0.6, seed=7)
    machine = cluster(2, 4)
    dist = build_distribution(
        "hierarchical", low.shape[0], 8, machine=machine, tasks_per_gpu=4
    )
    _assert_same_run(low, dist, machine, design, monkeypatch)
    rep = check_timeline_schedule(
        low, dist, machine, design, scheduler="reference"
    )
    assert rep.ok, rep.summary()


@pytest.mark.parametrize("family", ["random", "grid", "profile"])
@pytest.mark.parametrize("design", [Design.SHMEM_READONLY, Design.UNIFIED])
def test_list_loop_matches_with_sm_granularity(family, design, monkeypatch):
    low = FAMILIES[family]()
    machine = dgx1(n_gpus=2)
    dist = build_distribution("taskpool", low.shape[0], 2)
    captured = _assert_same_run(
        low, dist, machine, design, monkeypatch, sm_granularity=True
    )
    rep = validate_captured_schedule(captured, subject=f"sm/{family}")
    assert rep.ok, rep.summary()
