"""Conformance registry, oracle matrix, and causality checker tests.

Tier-1 keeps the quick cells; the full (solver x generator x relation)
matrix and the CLI run are marked ``conformance`` so CI can run them in
a dedicated job (they still pass locally in a few seconds).
"""

import dataclasses
import gc
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.engine.trace import Trace, TraceRecord
from repro.exec_model.costmodel import Design
from repro.exec_model.timeline import simulate_execution
from repro.machine.node import dgx1, dgx2
from repro.solvers.base import SolveResult, TriangularSolver
from repro.solvers.des_solver import des_execute
from repro.sparse.validate import random_rhs_for_solution
from repro.tasks.schedule import block_distribution, round_robin_distribution
from repro.verify import (
    ConformanceCase,
    ConformanceRegistry,
    check_des_execution,
    check_des_trace,
    check_timeline_schedule,
    default_generators,
    default_registry,
    discover_solver_classes,
    quick_generators,
    random_topological_permutation,
    run_conformance,
    validate_captured_schedule,
)
from repro.verify.registry import FORWARD_RELATIONS
from repro.workloads.generators import dag_profile_matrix

REPO = Path(__file__).resolve().parent.parent


# ======================================================================
# registry
# ======================================================================
def test_every_concrete_solver_is_registered():
    """The registry's teeth: a solver class without a case is a failure."""
    gaps = default_registry().coverage_gaps()
    assert not gaps, (
        "solver classes missing a conformance case: "
        + ", ".join(c.__qualname__ for c in gaps)
        + " — register them in repro/verify/registry.py:default_registry"
    )


def test_discovery_sees_new_solver_subclass():
    """A freshly defined repro.* solver shows up as a coverage gap."""

    class SyntheticSolver(TriangularSolver):
        name = "synthetic"

        def solve(self, lower, b) -> SolveResult:
            raise NotImplementedError

    SyntheticSolver.__module__ = "repro._synthetic"
    try:
        assert SyntheticSolver in discover_solver_classes()
        assert SyntheticSolver in default_registry().coverage_gaps()
    finally:
        del SyntheticSolver
        gc.collect()


def test_abstract_intermediates_are_not_discovered():
    class HalfSolver(TriangularSolver):
        pass

    HalfSolver.__module__ = "repro._synthetic"
    try:
        assert HalfSolver not in discover_solver_classes()
    finally:
        del HalfSolver
        gc.collect()


def test_registry_rejects_duplicates_and_bad_kind():
    from repro.solvers.serial import SerialSolver

    reg = ConformanceRegistry()
    case = ConformanceCase("serial", SerialSolver, SerialSolver)
    reg.register(case)
    with pytest.raises(ValueError, match="duplicate"):
        reg.register(case)
    with pytest.raises(ValueError, match="kind"):
        ConformanceCase("x", SerialSolver, SerialSolver, kind="sideways")


def test_registered_relations_exist():
    from repro.verify import RELATIONS

    for case in default_registry():
        for rel in case.relations:
            assert rel in RELATIONS, f"{case.name} references unknown {rel}"


# ======================================================================
# oracles
# ======================================================================
def test_topological_permutation_is_linear_extension(small_lower):
    from repro.analysis.dag import build_dag
    from repro.sparse.triangular import (
        permute_symmetric,
        require_lower_triangular,
    )

    rng = np.random.default_rng(0)
    perm = random_topological_permutation(small_lower, rng)
    n = small_lower.shape[0]
    assert np.array_equal(np.sort(perm), np.arange(n))
    require_lower_triangular(permute_symmetric(small_lower, perm))
    # Every edge points forward in the new numbering.
    dag = build_dag(small_lower)
    for v in range(n):
        for u in dag.predecessors(v):
            assert perm[u] < perm[v]


def test_quick_matrix_passes():
    """Fast tier-1 cell: two representative cases over the quick set."""
    rep = run_conformance(
        default_registry(),
        quick_generators(),
        seed=0,
        cases=["serial", "zerocopy-4gpu", "backward-zerocopy"],
    )
    assert rep.findings, "filter matched no cases"
    assert rep.ok, rep.summary()


def test_oracles_catch_a_wrong_solver():
    """A solver that perturbs one component must fail the matrix."""

    class OffByEpsSolver(TriangularSolver):
        name = "off-by-eps"

        def solve(self, lower, b) -> SolveResult:
            from repro.solvers.serial import serial_forward

            x = serial_forward(lower, b)
            x[len(x) // 2] *= 1.0 + 1e-4
            return SolveResult(x=x, report=None, solver=self.name)

    reg = ConformanceRegistry()
    reg.register(
        ConformanceCase(
            "off-by-eps",
            OffByEpsSolver,
            OffByEpsSolver,
            relations=FORWARD_RELATIONS,
        )
    )
    rep = run_conformance(reg, quick_generators(), seed=0)
    assert not rep.ok
    assert any(f.relation == "differential" for f in rep.failures)


@pytest.mark.conformance
def test_full_conformance_matrix():
    rep = run_conformance(default_registry(), default_generators(), seed=0)
    n_cases = len(default_registry())
    assert len({f.case for f in rep.findings}) == n_cases
    assert len({f.generator for f in rep.findings}) >= 4
    assert rep.ok, rep.summary()


@pytest.mark.conformance
def test_verify_solvers_cli_quick():
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "verify_solvers.py"), "--quick"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "VERIFY: PASS" in proc.stdout


# ======================================================================
# causality: positive
# ======================================================================
@pytest.fixture(scope="module")
def causality_matrix():
    return dag_profile_matrix(260, 10, 3.0, "uniform", 0.5, 0.3, 0.5, seed=7)


@pytest.mark.parametrize(
    "design,n_gpus,tasks_per_gpu",
    [
        (Design.UNIFIED, 4, None),          # unified design
        (Design.SHMEM_READONLY, 4, None),   # shmem (block placement)
        (Design.SHMEM_READONLY, 4, 4),      # zero-copy (task model)
        (Design.SHMEM_NAIVE, 2, None),
    ],
)
def test_des_traces_are_causal(causality_matrix, design, n_gpus, tasks_per_gpu):
    low = causality_matrix
    n = low.shape[0]
    machine = dgx1(n_gpus, require_p2p=design is not Design.UNIFIED)
    if tasks_per_gpu is None:
        dist = block_distribution(n, n_gpus)
    else:
        dist = round_robin_distribution(n, n_gpus, tasks_per_gpu)
    b, _ = random_rhs_for_solution(low, seed=1)
    ex = des_execute(low, b, dist, machine, design)
    rep = check_des_execution(ex, low, dist, machine, design)
    assert rep.ok, rep.summary()
    assert rep.n_checks > n


def test_des_solver_run_is_causal(causality_matrix):
    """The DesSolver front-end's own configuration validates cleanly."""
    from repro.solvers.des_solver import DesSolver

    solver = DesSolver(machine=dgx1(4))
    low = causality_matrix
    b, _ = random_rhs_for_solution(low, seed=2)
    dist = block_distribution(low.shape[0], 4)
    ex = des_execute(low, b, dist, solver.machine, solver.design)
    rep = check_des_execution(ex, low, dist, solver.machine, solver.design)
    assert rep.ok, rep.summary()


@pytest.mark.parametrize("scheduler", ["routed", "reference"])
@pytest.mark.parametrize("design", list(Design))
def test_timeline_schedules_are_causal(causality_matrix, design, scheduler):
    low = causality_matrix
    n = low.shape[0]
    machine = dgx1(4, require_p2p=design is not Design.UNIFIED)
    for dist in (
        block_distribution(n, 4),
        round_robin_distribution(n, 4, 4),
    ):
        rep = check_timeline_schedule(
            low, dist, machine, design, scheduler=scheduler
        )
        assert rep.ok, rep.summary()


def test_timeline_schedule_causal_on_dgx2(causality_matrix):
    low = causality_matrix
    dist = block_distribution(low.shape[0], 8)
    rep = check_timeline_schedule(
        low, dist, dgx2(8), Design.SHMEM_READONLY
    )
    assert rep.ok, rep.summary()


# ======================================================================
# causality: negative (corrupted schedules must be detected)
# ======================================================================
def _captured(low, n_gpus=4):
    dist = block_distribution(low.shape[0], n_gpus)
    cap: dict = {}
    simulate_execution(
        low, dist, dgx1(n_gpus), Design.SHMEM_READONLY, schedule_out=cap
    )
    return cap


def test_corrupted_finish_is_detected(causality_matrix):
    cap = _captured(causality_matrix)
    cap["finish"] = cap["finish"].copy()
    cap["finish"][len(cap["finish"]) // 2] *= 0.5
    rep = validate_captured_schedule(cap)
    assert not rep.ok
    assert any(
        v.rule in ("finish-reconstruction", "ready-reconstruction")
        for v in rep.violations
    )


def test_corrupted_ready_is_detected(causality_matrix):
    cap = _captured(causality_matrix)
    # Zero a dependent component's ready time: it would start before its
    # predecessors' notifications land.
    counts = np.diff(cap["in_ptr"])
    victim = int(np.flatnonzero(counts > 0)[-1])
    cap["ready"] = cap["ready"].copy()
    cap["finish"] = cap["finish"].copy()
    cap["ready"][victim] = 0.0
    cap["finish"][victim] = (
        max(cap["dispatch"][victim], 0.0)
        + cap["comm"][victim]
        + cap["solve"][victim]
    )
    rep = validate_captured_schedule(cap)
    assert any(v.rule == "ready-reconstruction" for v in rep.violations)


def test_premature_dispatch_is_detected(causality_matrix):
    cap = _captured(causality_matrix)
    cap["comp_not_before"] = cap["comp_not_before"].copy()
    cap["comp_not_before"][-1] = cap["dispatch"][-1] + 1.0
    rep = validate_captured_schedule(cap)
    assert any(v.rule == "dispatch-floor" for v in rep.violations)


def test_slot_oversubscription_is_detected():
    """A synthetic schedule running cap+1 warps at once is flagged."""
    cap_slots = 4
    n = cap_slots + 1
    sched = {
        "finish": np.ones(n),
        "dispatch": np.zeros(n),
        "ready": np.zeros(n),
        "comm": np.zeros(n),
        "solve": np.ones(n),
        "comp_not_before": np.zeros(n),
        "in_notify": np.empty(0),
        "in_ptr": np.zeros(n + 1, dtype=np.int64),
        "in_idx": np.empty(0, dtype=np.int64),
        "gpu_of": np.zeros(n, dtype=np.int64),
        "warp_slots": cap_slots,
    }
    rep = validate_captured_schedule(sched)
    assert any(v.rule == "slot-occupancy" for v in rep.violations)
    # The same schedule with one fewer warp is clean.
    for k in ("finish", "dispatch", "ready", "comm", "solve",
              "comp_not_before", "gpu_of"):
        sched[k] = sched[k][:cap_slots]
    sched["in_ptr"] = sched["in_ptr"][: cap_slots + 1]
    assert validate_captured_schedule(sched).ok


def test_corrupted_des_solve_order_is_detected(causality_matrix):
    from repro.exec_model.artefacts import get_artefacts

    low = causality_matrix
    n = low.shape[0]
    machine = dgx1(4)
    dist = block_distribution(n, 4)
    b, _ = random_rhs_for_solution(low, seed=3)
    ex = des_execute(low, b, dist, machine, Design.SHMEM_READONLY)
    dag = get_artefacts(low).dag
    # Backdate a dependent component's solve to before its predecessor.
    victim = next(i for i in range(n) if len(dag.predecessors(i)))
    pred = int(dag.predecessors(victim)[0])
    pred_t = next(
        r.time for r in ex.trace.of_kind("solve") if r.detail == pred
    )
    records = [
        dataclasses.replace(r, time=pred_t / 2.0)
        if r.kind == "solve" and r.detail == victim
        else r
        for r in ex.trace.records
    ]
    rep = check_des_trace(
        Trace(records=records), dag, dist, machine, Design.SHMEM_READONLY
    )
    assert any(v.rule == "dependency-order" for v in rep.violations)


def test_missing_solve_record_is_detected(causality_matrix):
    from repro.exec_model.artefacts import get_artefacts

    low = causality_matrix
    machine = dgx1(2)
    dist = block_distribution(low.shape[0], 2)
    b, _ = random_rhs_for_solution(low, seed=4)
    ex = des_execute(low, b, dist, machine, Design.SHMEM_READONLY)
    records = [r for r in ex.trace.records
               if not (r.kind == "solve" and r.detail == 0)]
    rep = check_des_trace(
        Trace(records=records), get_artefacts(low).dag, dist, machine,
        Design.SHMEM_READONLY,
    )
    assert any(v.rule == "solve-coverage" for v in rep.violations)


def test_des_slot_oversubscription_is_detected():
    """Injected dispatches beyond warp_slots trip the occupancy sweep."""
    from repro.analysis.dag import build_dag
    from repro.workloads.generators import tridiagonal_lower

    low = tridiagonal_lower(4)
    machine = dgx1(1).with_gpu(warp_slots=2)
    dist = block_distribution(4, 1)
    records = []
    for i in range(4):  # all dispatch at t=0, no release until t=1
        records.append(TraceRecord(0.0, "dispatch", gpu=0, detail=i))
    for i in range(4):
        records.append(TraceRecord(1.0 + i, "solve", gpu=0, detail=i))
        records.append(TraceRecord(1.5 + i, "release", gpu=0, detail=i))
    rep = check_des_trace(
        Trace(records=records), build_dag(low), dist, machine,
        Design.SHMEM_READONLY,
    )
    assert any(v.rule == "slot-occupancy" for v in rep.violations)


def test_unconnected_transfer_is_detected():
    """An NVSHMEM transfer between non-P2P GPUs (0 and 5 on DGX-1) is
    physically impossible and must be flagged."""
    from repro.analysis.dag import build_dag
    from repro.workloads.generators import tridiagonal_lower

    low = tridiagonal_lower(8)
    machine = dgx1(8, require_p2p=False)
    assert not machine.topology.connected(0, 5)
    dist = block_distribution(8, 8)
    records = [
        TraceRecord(0.0, "dispatch", gpu=i, detail=i) for i in range(8)
    ] + [
        TraceRecord(0.1 * (i + 1), "solve", gpu=i, detail=i) for i in range(8)
    ] + [
        TraceRecord(0.15, "xfer_begin", gpu=0, detail=(0, 5, 5)),
        TraceRecord(0.16, "xfer_end", gpu=0, detail=(0, 5, 5)),
    ] + [
        TraceRecord(1.0 + i, "release", gpu=i, detail=i) for i in range(8)
    ]
    trace = Trace(records=records)
    dag = build_dag(low)
    rep = check_des_trace(trace, dag, dist, machine, Design.SHMEM_READONLY)
    assert any(v.rule == "link-topology" for v in rep.violations)
    # The same transfer under the unified design may stage through PCIe.
    rep_unified = check_des_trace(trace, dag, dist, machine, Design.UNIFIED)
    assert not any(
        v.rule == "link-topology" for v in rep_unified.violations
    )


def test_link_overcommit_is_detected(monkeypatch):
    """Shrinking the per-link message budget makes a real trace illegal."""
    import repro.solvers.des_solver as des_mod

    low = dag_profile_matrix(200, 8, 3.0, "uniform", 0.5, 0.3, 0.2, seed=9)
    machine = dgx1(4)
    dist = block_distribution(200, 4)
    b, _ = random_rhs_for_solution(low, seed=5)
    ex = des_execute(low, b, dist, machine, Design.SHMEM_READONLY)
    has_xfers = ex.trace.count("xfer_begin") > 0
    assert has_xfers
    monkeypatch.setattr(des_mod, "MESSAGES_IN_FLIGHT_PER_LINK", 0)
    rep = check_des_execution(ex, low, dist, machine, Design.SHMEM_READONLY)
    assert any(v.rule == "link-occupancy" for v in rep.violations)
