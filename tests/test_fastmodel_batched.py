"""Bit-exact equivalence of the front-routed scheduler with the reference loop.

The front-routed pass (wide fronts in array operations, narrow runs in
chunks of a scalar loop) is only admissible because it replays the
reference per-component loop's exact IEEE operation sequence; these
tests pin that property across matrix shapes, designs, machine sizes,
and distributions, plus the structural invariants of the dispatch-front
decomposition, its routing, and the batch slot pool they rest on.
"""

import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.dag import build_dag
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.levels import (
    CHUNK,
    SEG_REDUCE,
    SEG_SCALAR,
    SEG_WIDE,
    WIDE_FRONT,
    compute_dispatch_fronts,
    compute_front_routing,
    compute_levels,
)
from repro.exec_model import Design, simulate_execution
from repro.exec_model.artefacts import get_artefacts
from repro.machine.gpu import BatchWarpPool, WarpScheduler
from repro.machine.node import dgx1, dgx2
from repro.machine.specs import V100
from repro.tasks.schedule import block_distribution, round_robin_distribution
from repro.workloads.generators import (
    banded_lower,
    dag_profile_matrix,
    grid_graph_lower,
    random_lower,
    tridiagonal_lower,
)

ARRAY_FIELDS = ("gpu_busy", "gpu_spin", "gpu_comm", "gpu_finish")
SCALAR_FIELDS = (
    "analysis_time",
    "solve_time",
    "local_updates",
    "remote_updates",
    "page_faults",
    "migrated_bytes",
    "fabric_bytes",
)


def assert_reports_identical(ref, bat):
    for f in SCALAR_FIELDS:
        assert getattr(ref, f) == getattr(bat, f), f
    for f in ARRAY_FIELDS:
        np.testing.assert_array_equal(getattr(ref, f), getattr(bat, f), err_msg=f)


def matrices():
    yield "tri", tridiagonal_lower(150)
    yield "band", banded_lower(200, 4)
    yield "grid", grid_graph_lower(12, 12)
    yield "rand", random_lower(250, 4.0, seed=7)
    for seed, scatter in [(0, 0.0), (1, 0.4), (2, 0.8)]:
        yield f"profile-s{scatter}", dag_profile_matrix(
            300, 20, 3.0, "uniform", 0.5, 0.3, scatter, seed=seed
        )


MACHINES = [dgx1(n_gpus=1), dgx1(n_gpus=2), dgx1(n_gpus=4), dgx2(n_gpus=8)]


@pytest.mark.parametrize("design", list(Design))
def test_batched_matches_reference_bitwise(design):
    """Every report field is bit-identical across schedulers."""
    for (tag, low), machine in itertools.product(matrices(), MACHINES):
        n = low.shape[0]
        dists = [block_distribution(n, machine.n_gpus)]
        if machine.n_gpus > 1:
            dists.append(round_robin_distribution(n, machine.n_gpus, 4))
        for dist in dists:
            ref = simulate_execution(
                low, dist, machine, design, scheduler="reference"
            )
            rtd = simulate_execution(low, dist, machine, design)
            assert_reports_identical(ref, rtd)


def test_batched_finish_times_identical():
    """Per-component finish times match, not just the aggregates."""
    from repro.exec_model.artefacts import get_artefacts
    from repro.exec_model.timeline import _schedule_reference, _schedule_routed

    low = dag_profile_matrix(300, 15, 3.0, "uniform", 0.5, 0.3, 0.6, seed=5)
    n = low.shape[0]
    machine = dgx1(n_gpus=4)
    dist = round_robin_distribution(n, 4, 4)
    art = get_artefacts(low)
    place = art.placement(dist)
    dag = art.dag
    rng = np.random.default_rng(0)
    nb = np.repeat(rng.uniform(0, 1e-5, 10), n // 10 + 1)[:n]
    in_notify = rng.uniform(0, 1e-6, len(dag.in_idx))
    gather = rng.uniform(0, 1e-6, n)
    update = rng.uniform(0, 1e-6, n)
    solve = rng.uniform(1e-8, 1e-6, n)
    ref = _schedule_reference(
        machine.gpu, 4, dist.gpu_of, nb, dag.in_ptr, dag.in_idx,
        in_notify, gather, update, solve,
    )
    rtd = _schedule_routed(
        machine.gpu, 4, place, art.routing, nb, dag.in_ptr, dag.in_idx,
        in_notify, gather, update, solve,
    )
    for a, b in zip(ref, rtd):
        np.testing.assert_array_equal(a, b)


def test_sm_granularity_ignores_scheduler_choice():
    low = random_lower(120, 3.0, seed=2)
    machine = dgx1(n_gpus=2)
    dist = block_distribution(120, 2)
    a = simulate_execution(low, dist, machine, sm_granularity=True)
    b = simulate_execution(
        low, dist, machine, sm_granularity=True, scheduler="reference"
    )
    assert_reports_identical(a, b)


def _schedules(low, dist, machine, design=Design.SHMEM_READONLY):
    out = {}
    for scheduler in ("routed", "reference"):
        sched: dict = {}
        rep = simulate_execution(
            low, dist, machine, design, scheduler=scheduler,
            schedule_out=sched,
        )
        out[scheduler] = (rep, sched)
    return out


def assert_schedules_identical(low, dist, machine, design=Design.SHMEM_READONLY):
    out = _schedules(low, dist, machine, design)
    (rtd, rs), (ref, fs) = out["routed"], out["reference"]
    assert_reports_identical(ref, rtd)
    for f in ("finish", "dispatch", "ready"):
        np.testing.assert_array_equal(rs[f], fs[f], err_msg=f)


def test_scattered_numbering_spans_many_chunks():
    """n >= 4 B scattered systems exercise reduced and scalar chunks."""
    low = dag_profile_matrix(
        6 * CHUNK, 40, 6.0, "uniform", 0.5, 0.3, 0.8, seed=21
    )
    routing = get_artefacts(low).routing
    chunks = routing.seg_mode != SEG_WIDE
    assert chunks.sum() >= 4
    assert (routing.seg_mode == SEG_REDUCE).any()
    for machine in (dgx1(n_gpus=2), dgx2(n_gpus=8)):
        n = low.shape[0]
        for dist in (
            block_distribution(n, machine.n_gpus),
            round_robin_distribution(n, machine.n_gpus, 4),
        ):
            assert_schedules_identical(low, dist, machine)


def test_run_boundary_next_to_wide_front_with_saturated_pool():
    """A wide front hands a full pool to a chunk, and back again.

    Wide level-major fronts (order_mix > 0) saturate every GPU's slots;
    a scattered tail follows as narrow chunks, and a final wide block
    follows those.  Pools cross both run boundaries saturated.
    """
    wide = dag_profile_matrix(800, 4, 4.0, "uniform", 0.5, 0.4, 0.0, seed=3)
    narrow = dag_profile_matrix(
        3 * CHUNK, 30, 4.0, "uniform", 0.5, 0.4, 0.9, seed=4
    )
    low = _stack_lower(wide, narrow, wide)
    routing = get_artefacts(low).routing
    modes = routing.seg_mode.tolist()
    assert modes[0] == SEG_WIDE and modes[-1] == SEG_WIDE
    assert any(m != SEG_WIDE for m in modes)
    n = low.shape[0]
    machine = dgx1(n_gpus=2)
    assert (np.diff(routing.seg_ptr)[routing.seg_mode == SEG_WIDE]).max() > (
        2 * machine.gpu.warp_slots
    )
    for dist in (
        block_distribution(n, 2),
        round_robin_distribution(n, 2, 4),
    ):
        assert_schedules_identical(low, dist, machine)


def _stack_lower(*blocks):
    """Block-diagonal stack of lower-triangular matrices plus a coupling.

    Each block after the first also depends on the last row of the block
    before it, so the blocks run in sequence.
    """
    from repro.sparse.coo import CooMatrix

    rows, cols, vals = [], [], []
    off = 0
    for k, blk in enumerate(blocks):
        coo = blk.to_coo()
        rows.append(coo.row + off)
        cols.append(coo.col + off)
        vals.append(coo.data)
        if k:
            rows.append(np.arange(off, off + blk.shape[0]))
            cols.append(np.full(blk.shape[0], off - 1))
            vals.append(np.full(blk.shape[0], 0.01))
        off += blk.shape[0]
    coo = CooMatrix(
        np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
        (off, off),
    )
    return coo.to_csc()


@settings(max_examples=25, deadline=None)
@given(
    family=st.sampled_from(["dag", "scattered", "random", "banded", "grid"]),
    n_gpus=st.sampled_from([1, 2, 4, 8]),
    distribution=st.sampled_from(["block", "taskpool", "costaware"]),
    seed=st.integers(0, 2**16),
)
def test_routed_equals_reference_property(family, n_gpus, distribution, seed):
    from repro.runtime.config import RunConfig

    rng = np.random.default_rng(seed)
    n = int(rng.integers(2 * CHUNK, 5 * CHUNK))
    if family == "dag":
        low = dag_profile_matrix(n, 20, 4.0, "uniform", 0.5, 0.3, 0.0, seed=seed)
    elif family == "scattered":
        low = dag_profile_matrix(n, 30, 5.0, "uniform", 0.5, 0.3, 0.7, seed=seed)
    elif family == "random":
        low = random_lower(n, 4.0, seed=seed)
    elif family == "banded":
        low = banded_lower(n, int(rng.integers(1, 8)))
    else:
        side = int(np.sqrt(n))
        low = grid_graph_lower(side, side)
    cfg = RunConfig(
        topology="dgx2" if n_gpus == 8 else "dgx1", n_gpus=n_gpus,
        distribution=distribution,
    )
    machine = cfg.resolve_machine()
    dist = cfg.build_distribution(low.shape[0], n_gpus, lower=low)
    assert_schedules_identical(low, dist, machine)


def test_unknown_scheduler_rejected():
    from repro.errors import SolverError

    low = tridiagonal_lower(10)
    with pytest.raises(SolverError):
        simulate_execution(
            low, block_distribution(10, 1), dgx1(n_gpus=1), scheduler="fast"
        )


# ---------------------------------------------------------------- fronts
def test_fronts_cover_and_are_antichains():
    for tag, low in matrices():
        dag = build_dag(low)
        fronts = compute_dispatch_fronts(dag)
        ptr = fronts.front_ptr
        assert ptr[0] == 0 and ptr[-1] == dag.n
        assert np.all(np.diff(ptr) >= 1)
        # No member of a front may depend on another member of the same
        # front: every in-edge source must precede the front's start.
        for f in range(fronts.n_fronts):
            s, e = int(ptr[f]), int(ptr[f + 1])
            lo, hi = int(dag.in_ptr[s]), int(dag.in_ptr[e])
            if hi > lo:
                assert dag.in_idx[lo:hi].max() < s, tag


def test_fronts_equal_levels_for_level_major_numbering():
    low = dag_profile_matrix(
        400, 25, 3.0, "uniform", 0.5, 0.0, 0.0, seed=3
    )
    dag = build_dag(low)
    levels = compute_levels(dag)
    fronts = compute_dispatch_fronts(dag)
    # With scatter=0 each level occupies one contiguous index range, so
    # the greedy antichain decomposition recovers the level sets exactly.
    np.testing.assert_array_equal(fronts.front_ptr, levels.level_ptr)
    assert fronts.mean_width == levels.parallelism


def test_routing_segments_cover_and_route_by_width():
    for tag, low in matrices():
        fronts = compute_dispatch_fronts(build_dag(low))
        routing = compute_front_routing(build_dag(low), fronts)
        ptr = routing.seg_ptr
        assert ptr[0] == 0 and ptr[-1] == low.shape[0], tag
        assert np.all(np.diff(ptr) >= 1), tag
        sizes = np.diff(ptr)
        wide = routing.seg_mode == SEG_WIDE
        assert np.all(sizes[wide] >= WIDE_FRONT), tag
        assert np.all(sizes[routing.seg_mode == SEG_REDUCE] <= CHUNK), tag
        # Scalar chunks of one narrow run merge into one segment.
        scalar = routing.seg_mode == SEG_SCALAR
        assert not np.any(scalar[1:] & scalar[:-1]), tag
        # Every wide front is a segment of its own.
        fsizes = np.diff(fronts.front_ptr)
        starts = fronts.front_ptr[:-1][fsizes >= WIDE_FRONT]
        np.testing.assert_array_equal(ptr[:-1][wide], starts)


def test_fronts_serial_chain():
    dag = build_dag(tridiagonal_lower(50))
    fronts = compute_dispatch_fronts(dag)
    assert fronts.n_fronts == 50
    assert np.all(fronts.front_sizes() == 1)


# ---------------------------------------------------------------- pool
def _reference_pool_run(spec, batches):
    ws = WarpScheduler(spec)
    out = []
    for nb, rd, cm, sv in batches:
        dsp = np.empty(len(nb))
        fin = np.empty(len(nb))
        for i in range(len(nb)):
            d = ws.dispatch(float(nb[i]))
            start = d if rd[i] <= d else rd[i]
            f = (start + cm[i]) + sv[i]
            ws.retire(f)
            dsp[i] = d
            fin[i] = f
        out.append((dsp, fin))
    return out, ws


@pytest.mark.parametrize("warp_slots", [1, 2, 7, 64])
def test_batch_pool_matches_heap_scheduler(warp_slots):
    spec = dataclasses.replace(V100, warp_slots=warp_slots)
    rng = np.random.default_rng(warp_slots)
    batches = []
    t = 0.0
    for _ in range(12):
        m = int(rng.integers(1, 40))
        nb = np.full(m, t)
        rd = rng.uniform(0, 5e-5, m) * (rng.random(m) < 0.5)
        cm = rng.uniform(0, 1e-6, m)
        sv = rng.uniform(1e-8, 2e-6, m)
        batches.append((nb, rd, cm, sv))
        t += 1e-5
    ref, ws = _reference_pool_run(spec, batches)
    pool = BatchWarpPool(spec)
    for (nb, rd, cm, sv), (rdsp, rfin) in zip(batches, ref):
        dsp, fin = pool.dispatch_batch(nb, rd, cm, sv)
        np.testing.assert_array_equal(dsp, rdsp)
        np.testing.assert_array_equal(fin, rfin)
    assert pool.resident == ws.resident
    assert pool.counters.last_finish == ws.counters.last_finish


def test_batch_pool_empty_batch():
    pool = BatchWarpPool(V100)
    dsp, fin = pool.dispatch_batch(
        np.empty(0), np.empty(0), np.empty(0), np.empty(0)
    )
    assert len(dsp) == 0 and len(fin) == 0
    assert pool.resident == 0


# ---------------------------------------------------------------- golden
GOLDEN_PATH = Path(__file__).parent / "golden" / "fastmodel_reports.json"


def golden_cases():
    """The three scheduling regimes the golden file pins.

    ``chain`` exercises the serial path (one scalar segment),
    ``scattered`` narrow fronts in chunks, ``level-major`` wide fronts
    in array operations.
    """
    return {
        "chain": tridiagonal_lower(120),
        "scattered": dag_profile_matrix(
            300, 10, 2.5, "uniform", 0.5, 0.3, 0.8, seed=11
        ),
        "level-major": dag_profile_matrix(
            300, 12, 3.0, "uniform", 0.5, 0.0, 0.0, seed=12
        ),
    }


def _report_to_golden(rep) -> dict:
    entry = {f: getattr(rep, f) for f in SCALAR_FIELDS}
    entry.update({f: list(getattr(rep, f)) for f in ARRAY_FIELDS})
    return entry


def _golden_report(tag, low, scheduler):
    machine = dgx1(n_gpus=4)
    dist = block_distribution(low.shape[0], 4)
    return simulate_execution(
        low, dist, machine, Design.SHMEM_READONLY, scheduler=scheduler
    )


@pytest.mark.parametrize("scheduler", ["routed", "reference"])
def test_reports_match_golden(scheduler):
    """Both schedulers reproduce the checked-in reports bit for bit.

    JSON floats round-trip float64 exactly (shortest-repr), so equality
    here is bitwise: any change to the scheduling numerics — either
    pass — shows up as a diff against the pinned fixtures.
    """
    golden = json.loads(GOLDEN_PATH.read_text())
    assert set(golden) == set(golden_cases())
    for tag, low in golden_cases().items():
        rep = _golden_report(tag, low, scheduler)
        got = _report_to_golden(rep)
        want = golden[tag]
        for f in SCALAR_FIELDS:
            assert got[f] == want[f], f"{tag}/{scheduler}: {f}"
        for f in ARRAY_FIELDS:
            np.testing.assert_array_equal(
                got[f], want[f], err_msg=f"{tag}/{scheduler}: {f}"
            )


def _regen_golden():  # pragma: no cover - maintenance entry point
    out = {
        tag: _report_to_golden(_golden_report(tag, low, "reference"))
        for tag, low in golden_cases().items()
    }
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":  # python tests/test_fastmodel_batched.py regen
    import sys

    if len(sys.argv) > 1 and sys.argv[1] == "regen":
        _regen_golden()
