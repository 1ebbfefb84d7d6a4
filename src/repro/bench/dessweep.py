"""DES engine sweep: the reference generator engine vs the array engine.

Times :func:`~repro.solvers.des_solver.des_execute` with the reference
engine (one generator per process, one heap entry per event) against
the array engine (:mod:`repro.solvers.des_array`) on level-major
workloads, verifying bit-identical traces, solutions, and counters on
every case before any timing is trusted.

The sweep fans cases out across cores with a
:class:`~concurrent.futures.ProcessPoolExecutor`; the parent process
pays each case's structure analysis once and ships it to the worker via
:func:`~repro.exec_model.artefacts.spill_artefacts`, so no worker ever
re-derives a DAG (``analysis_shared`` in the payload asserts this).

Noise handling follows :mod:`repro.bench.fastmodel`: every engine's
timing takes one untimed warmup iteration and then the best of
``repeats`` timed runs, and a case whose reference timings still show a
high coefficient of variation reports its numbers but is exempt from
the speedup floors — bit-identity, which is deterministic, is always
enforced.  The ``scale-50k`` case additionally records the PR
acceptance measurement (>= 5x on the n=50k level-major workload).

Large cases (``n >= SKIP_REFERENCE_N``) skip the reference engine
entirely: replaying tens of millions of events through generators (and
holding their trace records) is what this sweep exists to avoid.  Those
rows are marked ``verified: "repeat"``: the array engine's counters
(solution bits, simulated clock, event and trace counters) must agree
between the verification run and the last timed run.  Cross-engine
equality is covered by the smaller cases, the scale-out rows, and the
test batteries.  The scale-1M throughput row is recorded, met or not,
under ``throughput_target``.
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any

import numpy as np

from repro.exec_model.artefacts import load_artefacts, spill_artefacts
from repro.exec_model.costmodel import Design
from repro.machine.node import dgx1
from repro.solvers.des_solver import des_execute
from repro.tasks.schedule import block_distribution
from repro.workloads.generators import dag_profile_matrix

__all__ = [
    "DES_CASES",
    "QUICK_CASES",
    "SCALE_OUT_CASES",
    "QUICK_SCALE_OUT",
    "NOISE_CV",
    "SPEEDUP_FLOOR",
    "THROUGHPUT_TARGET",
    "MEDIUM_N",
    "LARGE_CASE_N",
    "ACCEPTANCE_FLOOR",
    "ACCEPTANCE_CASE",
    "SKIP_REFERENCE_N",
    "COUNTER_KINDS",
    "measure_des_case",
    "measure_scaleout_case",
    "run_des_sweep",
]

#: Level-major workloads (wide fronts, scatter=0): the regime both DES
#: engines spend the bulk of their events in.  ``scale-50k`` is the PR
#: acceptance configuration (same generator settings as the fast-model
#: bench's case of the same name); ``scale-200k`` / ``scale-500k`` are
#: the large rows the array engine unlocks (reference engine
#: skipped — see :data:`SKIP_REFERENCE_N`).
DES_CASES: dict[str, dict[str, Any]] = {
    "des-2k": dict(
        n=2_000, n_levels=25, dependency=6.0, profile="uniform",
        locality=0.5, order_mix=0.3, scatter=0.0, seed=0,
    ),
    "des-medium-8k": dict(
        n=8_000, n_levels=30, dependency=9.0, profile="uniform",
        locality=0.5, order_mix=0.3, scatter=0.0, seed=0,
    ),
    "scale-50k": dict(
        n=50_000, n_levels=40, dependency=9.0, profile="uniform",
        locality=0.5, order_mix=0.3, scatter=0.0, seed=0,
    ),
    "scale-200k": dict(
        n=200_000, n_levels=50, dependency=9.0, profile="uniform",
        locality=0.5, order_mix=0.3, scatter=0.0, seed=0,
    ),
    "scale-1M": dict(
        n=1_000_000, n_levels=60, dependency=9.0, profile="uniform",
        locality=0.5, order_mix=0.3, scatter=0.0, seed=0,
    ),
}

#: Cases at or above this size are timed with a single repeat (plus the
#: untimed warmup/verification run): one scale-1M playout is tens of
#: seconds, and the counter verification — not timer variance — is what
#: the row exists for.
LARGE_CASE_N = 500_000

#: Subset run by ``tools/sweep.py --quick`` (the CI perf-smoke job):
#: everything but the expensive acceptance/scale cases.
QUICK_CASES = ("des-2k", "des-medium-8k")

#: Coefficient of variation above which a case's timings are considered
#: timer-noisy and exempt from the speedup floors.
NOISE_CV = 0.2

#: Minimum array-over-reference speedup enforced for clean cases of at
#: least :data:`MEDIUM_N` components (the CI floor).
SPEEDUP_FLOOR = 3.0
MEDIUM_N = 8_000

#: Throughput target for the scale-1M row (10M events/s); recorded
#: (met or not) under ``throughput_target`` with the array engine's
#: measured rate on that row.
THROUGHPUT_TARGET = 10_000_000.0
THROUGHPUT_TARGET_CASE = "scale-1M"

#: The acceptance case must beat this when its timings are clean.
ACCEPTANCE_FLOOR = 5.0
ACCEPTANCE_CASE = "scale-50k"

#: At and above this size the reference engine is skipped (generator
#: playout and record-level tracing are impractical) and the array
#: engine's counters are checked run against run instead.
SKIP_REFERENCE_N = 100_000

#: Trace kinds compared when record streams are unavailable.
COUNTER_KINDS = ("dispatch", "solve", "release", "xfer_begin", "xfer_end")

#: Multi-node scale-out rows (the paper's strong-scaling regime pushed
#: past a single NVSwitch island).  Each row simulates a cluster of
#: NVSwitch nodes joined by an IB tier and compares the flat taskpool
#: round-robin of Section V against the hierarchical (node-aware)
#: placement on the *same* workload, machine, and design — the
#: simulated makespan and the inter-node edge-tier split are the
#: figures of merit, so no wall-clock timing is involved.  The
#: ``geometric`` profile with high locality is the adversarial family:
#: dense short-range dependencies that flat round-robin deals across
#: the slow tier on nearly every task boundary.  Each shape is measured
#: under two designs because they expose the tier very differently:
#: ``shmem_naive`` serialises a full Get-Update-Put round trip per
#: remote dependant (per-pair latency on the critical path — flat
#: placement pays IB on most of them), while ``shmem_readonly`` buries
#: per-pair latency under the local-accumulate + warp-concurrent gather
#: and is largely insulated from placement; there the hierarchical win
#: is fabric traffic over the slow tier, not makespan.
SCALE_OUT_CASES: dict[str, dict[str, Any]] = {
    "cluster-8x8": dict(
        workload=dict(
            n=4_000, n_levels=40, dependency=6.0, profile="geometric",
            locality=0.9, order_mix=0.3, scatter=0.0, seed=0,
        ),
        n_nodes=8, gpus_per_node=8, tasks_per_gpu=4, node_run=32,
        design="shmem_readonly", record_level=True,
    ),
    "cluster-8x8-naive": dict(
        workload=dict(
            n=4_000, n_levels=40, dependency=6.0, profile="geometric",
            locality=0.9, order_mix=0.3, scatter=0.0, seed=0,
        ),
        n_nodes=8, gpus_per_node=8, tasks_per_gpu=4, node_run=32,
        design="shmem_naive",
    ),
    "cluster-16x8": dict(
        workload=dict(
            n=16_000, n_levels=48, dependency=7.0, profile="geometric",
            locality=0.9, order_mix=0.3, scatter=0.0, seed=0,
        ),
        n_nodes=16, gpus_per_node=8, tasks_per_gpu=4, node_run=32,
        design="shmem_readonly",
    ),
    "cluster-16x8-naive": dict(
        workload=dict(
            n=16_000, n_levels=48, dependency=7.0, profile="geometric",
            locality=0.9, order_mix=0.3, scatter=0.0, seed=0,
        ),
        n_nodes=16, gpus_per_node=8, tasks_per_gpu=4, node_run=32,
        design="shmem_naive",
    ),
    "cluster-16x16": dict(
        workload=dict(
            n=32_000, n_levels=56, dependency=7.0, profile="geometric",
            locality=0.9, order_mix=0.3, scatter=0.0, seed=0,
        ),
        n_nodes=16, gpus_per_node=16, tasks_per_gpu=4, node_run=32,
        design="shmem_readonly",
    ),
    "cluster-16x16-naive": dict(
        workload=dict(
            n=32_000, n_levels=56, dependency=7.0, profile="geometric",
            locality=0.9, order_mix=0.3, scatter=0.0, seed=0,
        ),
        n_nodes=16, gpus_per_node=16, tasks_per_gpu=4, node_run=32,
        design="shmem_naive",
    ),
}

#: Scale-out subset run by ``tools/sweep.py --quick``: the 64-GPU smoke
#: rows (counter-verified in quick mode; the full sweep upgrades the
#: read-only row to record-level verification).
QUICK_SCALE_OUT = ("cluster-8x8", "cluster-8x8-naive")


def _executions_identical(ref, arr) -> bool:
    """Bit-equality of two :class:`DesExecution` results.

    Record-by-record trace equality (kind, time, gpu, detail), exact
    solution bits, and identical counters — the contract the array
    engine is held to everywhere.
    """
    if (
        ref.total_time != arr.total_time
        or ref.events != arr.events
        or ref.page_faults != arr.page_faults
        or ref.x.tobytes() != arr.x.tobytes()
    ):
        return False
    if len(ref.trace.records) != len(arr.trace.records):
        return False
    return all(r == a for r, a in zip(ref.trace.records, arr.trace.records))


def _counters_identical(ea, eb) -> bool:
    """Counter-level bit-equality (traces disabled): solution bits,
    simulated clock, event count, and every bulk trace counter."""
    return (
        ea.total_time == eb.total_time
        and ea.events == eb.events
        and ea.page_faults == eb.page_faults
        and ea.x.tobytes() == eb.x.tobytes()
        and all(
            ea.trace.count(k) == eb.trace.count(k) for k in COUNTER_KINDS
        )
    )


def measure_des_case(
    name: str,
    spill_path: str,
    *,
    enforce_floor: bool = False,
    acceptance: bool = False,
    n_gpus: int = 4,
    design: Design = Design.SHMEM_READONLY,
    repeats: int = 3,
) -> dict[str, Any]:
    """Verify and time the engines on one spilled workload.

    Runs in a worker process: the artefact bundle is *loaded* from the
    parent's spill, never rebuilt — ``analysis_shared`` reports whether
    that held (the loaded bundle's DAG build count must stay 0).

    The bit-equality check runs once with traces enabled (record
    streams); the timed runs take one untimed warmup and then
    ``repeats`` trace-disabled repeats, keeping the best.  Cases at or
    above :data:`SKIP_REFERENCE_N` skip the reference engine and check
    the array engine's verification run against its last timed run at
    the counter level instead.
    """
    lower, art = load_artefacts(spill_path)
    n = lower.shape[0]
    machine = dgx1(n_gpus)
    dist = block_distribution(n, n_gpus)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(n)

    def run(engine: str, trace: bool):
        return des_execute(
            lower, b, dist, machine, design,
            engine=engine, trace_enabled=trace,
        )

    skip_reference = n >= SKIP_REFERENCE_N
    if skip_reference:
        base = run("array", False)
        verified = "repeat"
    else:
        base = run("reference", True)
        identical = _executions_identical(base, run("array", True))
        verified = "trace"
    events = int(base.events)

    def timed(engine: str) -> tuple[list[float], Any]:
        run(engine, False)  # warmup: first call pays allocator/cache setup
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            last = run(engine, False)
            times.append(time.perf_counter() - t0)
        return times, last

    def cv(times: list[float]) -> float:
        if len(times) < 2:
            return 0.0
        return statistics.stdev(times) / statistics.mean(times)

    ref_times = None if skip_reference else timed("reference")[0]
    arr_times, last = timed("array")
    if skip_reference:
        identical = _counters_identical(base, last)
    t_ref = min(ref_times) if ref_times else None
    t_arr = min(arr_times)
    cv_ref = cv(ref_times) if ref_times else 0.0
    cv_arr = cv(arr_times)
    noisy = max(cv_ref, cv_arr) > NOISE_CV
    return {
        "name": name,
        "n": int(n),
        "nnz": int(lower.nnz),
        "events": events,
        "t_reference": t_ref,
        "t_array": t_arr,
        "speedup": (
            t_ref / t_arr if t_ref is not None and t_arr > 0 else None
        ),
        "events_per_sec_array": events / t_arr if t_arr > 0 else 0.0,
        "identical": identical,
        "verified": verified,
        "cv_reference": cv_ref,
        "cv_array": cv_arr,
        "noisy": noisy,
        "enforce_floor": bool(
            enforce_floor and n >= MEDIUM_N and not skip_reference
        ),
        "acceptance": bool(acceptance),
        "analysis_shared": art.build_counts.get("dag", 0) == 0,
    }


def _scaleout_config(
    spec: dict[str, Any], design: Design
) -> dict[str, Any]:
    """The :class:`~repro.runtime.RunConfig` mapping for one scale-out
    row — the machine shape and distribution travel to the worker as
    config, not as pickled objects.  The row's own ``design`` (the
    tier-exposure axis) wins over the sweep-wide default."""
    cfg: dict[str, Any] = {
        "topology": "cluster",
        "n_nodes": spec["n_nodes"],
        "gpus_per_node": spec["gpus_per_node"],
        "distribution": "hierarchical",
        "design": spec.get("design", design.value),
    }
    if spec.get("tasks_per_gpu") is not None:
        cfg["tasks_per_gpu"] = spec["tasks_per_gpu"]
    if spec.get("node_run") is not None:
        cfg["node_run"] = spec["node_run"]
    return cfg


def measure_scaleout_case(
    name: str,
    spill_path: str,
    config: dict[str, Any],
    *,
    record_level: bool = False,
) -> dict[str, Any]:
    """Simulate one multi-node row: flat taskpool vs hierarchical.

    ``config`` is a :class:`~repro.runtime.RunConfig` mapping with the
    node axis set; the worker resolves the cluster machine and both
    distributions from it.  Both placements replay the same workload on
    the same fabric; the row records each placement's simulated
    makespan and its edge-tier split (how many dependency edges cross
    the IB fallback tier).  The reference and array engines must agree
    on both placements: record by record with ``record_level``, at the
    counter level (traces disabled) otherwise.
    """
    from repro.runtime.config import RunConfig

    lower, art = load_artefacts(spill_path)
    n = lower.shape[0]
    base_cfg = RunConfig.from_mapping(config)
    machine = base_cfg.resolve_machine()
    design = base_cfg.design
    rng = np.random.default_rng(0)
    b = rng.standard_normal(n)

    def run(dist, engine: str, trace: bool):
        return des_execute(
            lower, b, dist, machine, design,
            engine=engine, trace_enabled=trace,
        )

    flat_map = {k: v for k, v in config.items() if k != "node_run"}
    flat_map["distribution"] = "taskpool"
    placements = {}
    identical = True
    for dname, mapping in (
        ("taskpool", flat_map),
        ("hierarchical", dict(config)),
    ):
        cfg = RunConfig.from_mapping(mapping)
        dist = cfg.build_distribution(n, machine.n_gpus, lower=lower)
        tiers = art.edge_tiers(dist, machine)
        ref = run(dist, "reference", record_level)
        arr = run(dist, "array", record_level)
        same = _executions_identical if record_level else _counters_identical
        identical = identical and same(ref, arr)
        base = arr
        placements[dname] = {
            "distribution": dname,
            "sim_time": float(base.total_time),
            "events": int(base.events),
            "n_tasks": int(dist.partition.n_tasks),
            "edges_direct": int(tiers.n_direct),
            "edges_fallback": int(tiers.n_fallback),
            "fallback_fraction": float(tiers.fallback_fraction),
        }
    flat = placements["taskpool"]
    hier = placements["hierarchical"]
    node_run = base_cfg.node_run
    if node_run is None:
        node_run = 2 * base_cfg.gpus_per_node
    return {
        "name": name,
        "n": int(n),
        "nnz": int(lower.nnz),
        "n_gpus": machine.n_gpus,
        "n_nodes": base_cfg.n_nodes,
        "gpus_per_node": base_cfg.gpus_per_node,
        "node_run": int(node_run),
        "machine_shape": list(base_cfg.machine_shape()),
        "design": design.value,
        "verified": "trace" if record_level else "counters",
        "identical": identical,
        "flat": flat,
        "hierarchical": hier,
        "hier_speedup": (
            flat["sim_time"] / hier["sim_time"]
            if hier["sim_time"] > 0
            else None
        ),
        "analysis_shared": art.build_counts.get("dag", 0) == 0,
    }


def run_des_sweep(
    *,
    quick: bool = False,
    repeats: int = 3,
    jobs: int | None = None,
    cases: dict[str, dict[str, Any]] | None = None,
    n_gpus: int = 4,
    design: Design = Design.SHMEM_READONLY,
    scale_out: bool = True,
) -> dict[str, Any]:
    """Run the engine sweep; returns the ``BENCH_des.json`` payload.

    ``pass`` is False only when a deterministic property fails: an
    engine mismatch anywhere, a worker that re-derived its analysis, or
    a *clean* (non-noisy) case below its floor — ``SPEEDUP_FLOOR`` for
    medium-and-up cases, ``ACCEPTANCE_FLOOR`` for the acceptance case.
    ``cases`` overrides the case table (tests use tiny workloads);
    ``n_gpus`` / ``design`` select the simulated node shape and communication design
    every case is measured on (the ``tools/sweep.py --config``
    surface).

    ``scale_out`` adds the multi-node rows (:data:`SCALE_OUT_CASES`):
    64-256 simulated GPUs across an IB tier, flat taskpool vs
    hierarchical placement, reference-vs-array identity enforced per
    row (record level on the ``record_level`` row of the full sweep,
    counter level elsewhere).  A scale-out identity mismatch fails the sweep
    like any other; the hierarchical-vs-flat makespans are recorded
    honestly, not gated.  Scale-out rows only run against the built-in
    case table — a custom ``cases`` mapping skips them.
    """
    table = DES_CASES if cases is None else cases
    if cases is not None:
        names = list(table)
    else:
        names = [c for c in table if not quick or c in QUICK_CASES]
    if jobs is None:
        jobs = max(1, min(len(names), (os.cpu_count() or 2) - 1))
    so_names = []
    if scale_out and cases is None:
        # A custom case table is the unit-test / ad-hoc surface; the
        # scale-out shapes are fixed rows of the real sweep only.
        so_names = [
            c for c in SCALE_OUT_CASES if not quick or c in QUICK_SCALE_OUT
        ]
    results: list[dict[str, Any]] = []
    so_results: list[dict[str, Any]] = []
    with tempfile.TemporaryDirectory(prefix="des-sweep-") as tmp:
        spills = {}
        for cname in names:
            low = dag_profile_matrix(**table[cname])
            spills[cname] = str(
                spill_artefacts(low, Path(tmp) / f"{cname}.pkl")
            )
        so_spills = {}
        wl_paths: dict[tuple, str] = {}
        for cname in so_names:
            # Rows differing only in design share one spilled analysis.
            wl = SCALE_OUT_CASES[cname]["workload"]
            key = tuple(sorted(wl.items()))
            if key not in wl_paths:
                low = dag_profile_matrix(**wl)
                wl_paths[key] = str(
                    spill_artefacts(
                        low, Path(tmp) / f"so-{len(wl_paths)}.pkl"
                    )
                )
            so_spills[cname] = wl_paths[key]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                cname: pool.submit(
                    measure_des_case,
                    cname,
                    spills[cname],
                    enforce_floor=True,
                    acceptance=cname == ACCEPTANCE_CASE,
                    n_gpus=n_gpus,
                    design=design,
                    repeats=(
                        repeats
                        if table[cname].get("n", 0) < LARGE_CASE_N
                        else 1
                    ),
                )
                for cname in names
            }
            so_futures = {
                cname: pool.submit(
                    measure_scaleout_case,
                    cname,
                    so_spills[cname],
                    _scaleout_config(SCALE_OUT_CASES[cname], design),
                    # Quick mode keeps the smoke row at counter-level
                    # verification; the full sweep compares record streams.
                    record_level=bool(
                        SCALE_OUT_CASES[cname].get("record_level")
                        and not quick
                    ),
                )
                for cname in so_names
            }
            results = [futures[cname].result() for cname in names]
            so_results = [so_futures[cname].result() for cname in so_names]

    all_identical = all(c["identical"] for c in results)
    scaleout_identical = all(c["identical"] for c in so_results)
    analysis_shared = all(c["analysis_shared"] for c in results) and all(
        c["analysis_shared"] for c in so_results
    )
    floor_misses = [
        c["name"]
        for c in results
        if c["enforce_floor"]
        and not c["noisy"]
        and c["speedup"] is not None
        and c["speedup"]
        < (ACCEPTANCE_FLOOR if c["acceptance"] else SPEEDUP_FLOOR)
    ]
    noisy = any(c["noisy"] for c in results if c["enforce_floor"])
    accept_cases = [c for c in results if c["acceptance"]]
    acceptance = None
    if accept_cases:
        c = accept_cases[0]
        acceptance = {
            "case": c["name"],
            "floor": ACCEPTANCE_FLOOR,
            "speedup": c["speedup"],
            "met": (
                c["speedup"] is not None
                and c["speedup"] >= ACCEPTANCE_FLOOR
            ),
        }
    throughput_target = None
    tt = [c for c in results if c["name"] == THROUGHPUT_TARGET_CASE]
    if tt and tt[0]["events_per_sec_array"]:
        rate = tt[0]["events_per_sec_array"]
        throughput_target = {
            "case": THROUGHPUT_TARGET_CASE,
            "target": THROUGHPUT_TARGET,
            "events_per_sec": rate,
            "met": rate >= THROUGHPUT_TARGET,
        }
    return {
        "bench": "des_engine",
        "quick": quick,
        "repeats": repeats,
        "jobs": jobs,
        "n_gpus": n_gpus,
        "design": design.value,
        "speedup_floor": SPEEDUP_FLOOR,
        "medium_n": MEDIUM_N,
        "acceptance_floor": ACCEPTANCE_FLOOR,
        "noise_cv": NOISE_CV,
        "skip_reference_n": SKIP_REFERENCE_N,
        "cases": results,
        "scale_out": so_results,
        "all_identical": all_identical,
        "scaleout_identical": scaleout_identical,
        "analysis_shared": analysis_shared,
        "noisy": noisy,
        "floor_misses": floor_misses,
        "acceptance": acceptance,
        "throughput_target": throughput_target,
        "pass": (
            all_identical
            and scaleout_identical
            and analysis_shared
            and not floor_misses
        ),
    }
