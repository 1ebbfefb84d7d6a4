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

The array engine is timed the way a warm session uses it: each case
compiles its :class:`~repro.solvers.des_array.ArrayProgram` once
(``compile_first_s``, with the resident-set growth it costs as
``program_rss_mb``), then times warm recompiles (``compile_s``) and
drains of that one program (``drain_s``, ``drain_events_per_sec``)
separately; each array run is a value-free drain plus the replay of its
record that computes ``x``.  ``t_array`` is their sum, the combined compile+drain
figure the speedup and ``events_per_sec_array`` are computed from.

Noise handling follows :mod:`repro.bench.fastmodel`: every engine's
timing takes one untimed warmup iteration and then the best of
``repeats`` timed runs, and a case whose reference timings still show a
high coefficient of variation reports its numbers but is exempt from
the speedup floors — bit-identity, which is deterministic, is always
enforced.  The ``scale-50k`` case additionally records the PR
acceptance measurement (>= 5x on the n=50k level-major workload), and
when both ``scale-50k`` and ``scale-1M`` run, the ``scaling_flatness``
gate holds the 1M drain rate to at least :data:`FLATNESS_FLOOR` of the
50k one.  The gate does not read the two case rows, which are timed
minutes apart: after them one more worker drains both programs
alternately (:func:`measure_flatness_pair`), and the gate compares
those paired drains.

Large cases (``n >= SKIP_REFERENCE_N``) skip the reference engine
entirely: replaying tens of millions of events through generators (and
holding their trace records) is what this sweep exists to avoid.  Those
rows are marked ``verified: "repeat"``: the array engine's counters
(solution bits, simulated clock, event and trace counters) must agree
between the verification run and the last timed run, and the record of
the verification drain must follow the dependency order
(:func:`~repro.solvers.des_array.check_record_order` raises on a
violation).  Cross-engine
equality is covered by the smaller cases, the scale-out rows, and the
test batteries.  The scale-1M throughput row is recorded, met or not,
under ``throughput_target``.
"""

from __future__ import annotations

import dataclasses
import functools
import multiprocessing
import os
import statistics
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any

import numpy as np

from repro.engine.protocol import coerce_design, resolve_stale_policy
from repro.exec_model.artefacts import load_artefacts, spill_artefacts
from repro.exec_model.costmodel import Design
from repro.machine.node import dgx1
from repro.solvers.des_array import (
    check_record_order,
    compile_program,
    execute_array,
)
from repro.solvers.des_solver import des_execute, replay_execute
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
    "FLATNESS_FLOOR",
    "COUNTER_KINDS",
    "measure_des_case",
    "measure_flatness_pair",
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

#: Cases at or above this size are timed with at most
#: :data:`LARGE_CASE_REPEATS` repeats: one scale-1M playout is tens of
#: seconds.  Their untimed verification run already drains the program
#: trace-off, so it doubles as the drain warmup, and the drain still
#: takes the best of two runs.
LARGE_CASE_N = 500_000
LARGE_CASE_REPEATS = 2

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

#: The ``scaling_flatness`` gate: the large case's drain rate must be
#: at least this share of the small case's.  The drain's per-event work
#: does not depend on the system size, so a steeper fall is a
#: regression in the drain itself.
FLATNESS_FLOOR = 0.8
FLATNESS_CASES = ("scale-50k", "scale-1M")

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


def _case_repeats(spec: dict[str, Any], repeats: int) -> int:
    """Timed repeats for one case: at most :data:`LARGE_CASE_REPEATS`
    at and above :data:`LARGE_CASE_N`."""
    if spec.get("n", 0) < LARGE_CASE_N:
        return repeats
    return min(repeats, LARGE_CASE_REPEATS)


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


def _array_run(program, b, *, trace_enabled: bool = False):
    """An array-engine run of a compiled ``program`` for ``b``: its
    value-free drain, then the replay of the drain's record, which is
    what :func:`des_execute` does after compiling a program of its own."""
    stale = resolve_stale_policy(program.design, None)
    record = execute_array(program, trace_enabled=trace_enabled, stale=stale)
    return replay_execute(
        program.lower, b, program.machine, program.design,
        stale=stale, record=record,
    )


def _rss_mb() -> float | None:
    """Resident set size of this process in MiB (``None`` off Linux)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as f:
            pages = int(f.read().split()[1])
    except (OSError, IndexError, ValueError):
        return None
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


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

    The array engine compiles its program once (timed as
    ``compile_first_s``) and every array run drains that program.  The
    bit-equality check runs once with traces enabled (record streams);
    the timed runs take one untimed warmup and then ``repeats``
    trace-disabled repeats, keeping the best: reference solves, warm
    recompiles and drains are each timed on their own.  Cases at or
    above :data:`SKIP_REFERENCE_N` skip the reference engine, use their
    trace-disabled verification drain as the drain warmup, and check
    that run against the last timed run at the counter level instead.
    """
    lower, art = load_artefacts(spill_path)
    n = lower.shape[0]
    machine = dgx1(n_gpus)
    dist = block_distribution(n, n_gpus)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(n)

    def run(engine: str, trace: bool, program=None):
        if engine == "array":
            return _array_run(program, b, trace_enabled=trace)
        return des_execute(
            lower, b, dist, machine, design,
            engine=engine, trace_enabled=trace,
        )

    def compile_():
        return compile_program(lower, dist, machine, design)

    rss0 = _rss_mb()
    t0 = time.perf_counter()
    program = compile_()
    compile_first = time.perf_counter() - t0
    rss1 = _rss_mb()

    skip_reference = n >= SKIP_REFERENCE_N
    if skip_reference:
        base = run("array", False, program)
        check_record_order(
            base.record, lower, coerce_design(design) is Design.STALE_SYNC
        )
        # The record and its replay plan, freed before the timed drains.
        base = dataclasses.replace(base, record=None)
        verified = "repeat"
    else:
        base = run("reference", True)
        identical = _executions_identical(
            base, run("array", True, program)
        )
        verified = "trace"
    events = int(base.events)

    def timed(step, warmup: bool = True) -> tuple[list[float], Any]:
        if warmup:
            step()  # first call pays allocator/cache setup
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            last = step()
            times.append(time.perf_counter() - t0)
        return times, last

    def cv(times: list[float]) -> float:
        if len(times) < 2:
            return 0.0
        return statistics.stdev(times) / statistics.mean(times)

    ref_times = (
        None if skip_reference else timed(lambda: run("reference", False))[0]
    )
    compile_times = []
    for _ in range(repeats):
        program = None  # one program alive at a time
        t0 = time.perf_counter()
        program = compile_()
        compile_times.append(time.perf_counter() - t0)
    # Without a reference run the verification drain was the warmup.
    drain_times, last = timed(
        lambda: run("array", False, program), warmup=not skip_reference
    )
    if skip_reference:
        identical = _counters_identical(base, last)
    t_ref = min(ref_times) if ref_times else None
    compile_s = min(compile_times)
    drain_s = min(drain_times)
    t_arr = compile_s + drain_s
    cv_ref = cv(ref_times) if ref_times else 0.0
    cv_arr = cv(drain_times)
    noisy = max(cv_ref, cv_arr) > NOISE_CV
    return {
        "name": name,
        "n": int(n),
        "nnz": int(lower.nnz),
        "events": events,
        "t_reference": t_ref,
        "t_array": t_arr,
        "compile_first_s": compile_first,
        "compile_s": compile_s,
        "drain_s": drain_s,
        "program_rss_mb": (
            rss1 - rss0 if rss0 is not None and rss1 is not None else None
        ),
        "speedup": (
            t_ref / t_arr if t_ref is not None and t_arr > 0 else None
        ),
        "events_per_sec_array": events / t_arr if t_arr > 0 else 0.0,
        "drain_events_per_sec": events / drain_s if drain_s > 0 else 0.0,
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


def measure_flatness_pair(
    spills: dict[str, str],
    *,
    n_gpus: int = 4,
    design: Design = Design.SHMEM_READONLY,
    repeats: int = 2,
) -> list[dict[str, Any]]:
    """Drain two cases' programs back to back in one process,
    alternating them over ``repeats`` rounds.

    ``spills`` maps each case name (in the sweep, the
    :data:`FLATNESS_CASES`, small first) to its spilled analysis.  Both
    programs are compiled first and drained once untimed; then each
    round drains every program in turn, so the rates of a round see the
    same host load.  Returns one row per case with
    ``drain_events_per_sec`` from its best drain (the input of
    :func:`_scaling_flatness`), every drain time, and whether every
    drain of a program gave the same counters.
    """
    state = {}
    for name, path in spills.items():
        lower, _art = load_artefacts(path)
        n = lower.shape[0]
        dist = block_distribution(n, n_gpus)
        machine = dgx1(n_gpus)
        program = compile_program(lower, dist, machine, design)
        b = np.random.default_rng(0).standard_normal(n)
        drain = functools.partial(_array_run, program, b)
        state[name] = (drain, drain())
    times: dict[str, list[float]] = {name: [] for name in state}
    identical = True
    for _ in range(repeats):
        for name, (drain, first) in state.items():
            t0 = time.perf_counter()
            last = drain()
            times[name].append(time.perf_counter() - t0)
            identical = identical and _counters_identical(first, last)
    rows = []
    for name, (_drain, first) in state.items():
        events = int(first.events)
        best = min(times[name])
        rows.append({
            "name": name,
            "events": events,
            "drain_times": times[name],
            "drain_events_per_sec": events / best if best > 0 else 0.0,
            "identical": identical,
        })
    return rows


def _scaling_flatness(rows: list[dict[str, Any]]) -> dict | None:
    """The ``scaling_flatness`` gate over drain rows (in the sweep, the
    paired drains of :func:`measure_flatness_pair`): the large case's
    drain rate as a share of the small case's, or ``None`` when either
    of :data:`FLATNESS_CASES` is absent."""
    by_name = {c["name"]: c for c in rows}
    small, large = FLATNESS_CASES
    if small not in by_name or large not in by_name:
        return None
    small_rate = by_name[small]["drain_events_per_sec"]
    large_rate = by_name[large]["drain_events_per_sec"]
    ratio = large_rate / small_rate if small_rate > 0 else 0.0
    return {
        "small": small,
        "large": large,
        "floor": FLATNESS_FLOOR,
        "ratio": ratio,
        "met": ratio >= FLATNESS_FLOOR,
        "drain_times": {
            name: by_name[name].get("drain_times") for name in FLATNESS_CASES
        },
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

    ``pass`` is False when an engine mismatches anywhere, a worker
    re-derived its analysis, a *clean* (non-noisy) case falls below its
    floor — ``SPEEDUP_FLOOR`` for medium-and-up cases,
    ``ACCEPTANCE_FLOOR`` for the acceptance case — or, when both of
    :data:`FLATNESS_CASES` ran, the large case's drain rate falls below
    :data:`FLATNESS_FLOOR` of the small one's, measured by
    :func:`measure_flatness_pair` in its own worker after the case rows
    (``scaling_flatness``; ``None`` when either case is absent, as in
    ``--quick``).
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
                    repeats=_case_repeats(table[cname], repeats),
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
        pair_rows: list[dict[str, Any]] = []
        if set(FLATNESS_CASES) <= set(names):
            # A fresh process after the case rows: the pair's two drains
            # share the host with nothing else the sweep runs.
            spawn = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(1, mp_context=spawn) as pool:
                pair_rows = pool.submit(
                    measure_flatness_pair,
                    {c: spills[c] for c in FLATNESS_CASES},
                    n_gpus=n_gpus,
                    design=design,
                    repeats=min(
                        _case_repeats(table[c], repeats)
                        for c in FLATNESS_CASES
                    ),
                ).result()

    all_identical = all(c["identical"] for c in results + pair_rows)
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
    scaling_flatness = _scaling_flatness(pair_rows)
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
        "scaling_flatness": scaling_flatness,
        "pass": (
            all_identical
            and scaleout_identical
            and analysis_shared
            and not floor_misses
            and (scaling_flatness is None or scaling_flatness["met"])
        ),
    }
