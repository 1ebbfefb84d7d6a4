"""Fast-model scheduler microbenchmark: reference loop vs batched pass.

Times :func:`~repro.exec_model.timeline.simulate_execution` with the
per-component reference loop against the front-batched vectorised pass
on the Table I generator suite plus level-major scaling cases, verifying
bit-identical :class:`~repro.exec_model.timeline.ExecutionReport` fields
on every comparison.  Both the pytest bench
(``benchmarks/bench_fastmodel_speed.py``) and the standalone runner
(``tools/bench_fastmodel.py``) drive this module, so CI and local runs
produce the same ``BENCH_fastmodel.json`` payload.

Timer noise is detected per case (coefficient of variation across
repeats); a noisy run reports its numbers but is not held to the
speedup floor — identity, which is deterministic, is always enforced.
"""

from __future__ import annotations

import statistics
import time
from typing import Any

import numpy as np

from repro.exec_model.artefacts import get_artefacts
from repro.exec_model.costmodel import Design
from repro.exec_model.timeline import AUTO_WIDTH_THRESHOLD, simulate_execution
from repro.machine.node import dgx1
from repro.sparse.csc import CscMatrix
from repro.tasks.schedule import block_distribution
from repro.workloads.generators import dag_profile_matrix
from repro.workloads.suite import SUITE

__all__ = [
    "SCALING_CASES",
    "CI_SUITE_NAMES",
    "NOISE_CV",
    "SPEEDUP_FLOOR",
    "FLOOR_N",
    "BATCHED_100K_S",
    "BATCHED_100K_SLACK",
    "measure_case",
    "run_sweep",
]

#: Level-major scaling cases (scatter=0: wide dispatch fronts, the
#: batched pass's target regime).  ``scale-100k`` is the acceptance
#: configuration: n=100k, nnz ~ 1M.
SCALING_CASES: dict[str, dict[str, Any]] = {
    "scale-50k": dict(
        n=50_000, n_levels=40, dependency=9.0, profile="uniform",
        locality=0.5, order_mix=0.3, scatter=0.0, seed=0,
    ),
    "scale-100k": dict(
        n=100_000, n_levels=60, dependency=9.0, profile="uniform",
        locality=0.5, order_mix=0.3, scatter=0.0, seed=0,
    ),
}

#: Table I subset used by the quick CI sweep.
CI_SUITE_NAMES = ("chipcool0", "dc2", "powersim", "shipsec1")

#: Coefficient of variation above which a case's timings are considered
#: timer-noisy and exempt from the speedup floor.
NOISE_CV = 0.2

#: Minimum batched-over-reference speedup enforced for level-major
#: scaling cases of at least :data:`FLOOR_N` components.
SPEEDUP_FLOOR = 3.0
FLOOR_N = 50_000

#: Committed per-call time of the batched pass on ``scale-100k``, in
#: seconds: the slower of the two sweeps recorded in EXPERIMENTS.md
#: ("Fast model on lists"; 41.0 and 51.7 ms, shared 2-core x86 host).
BATCHED_100K_S = 0.0517
#: The scale-100k gate holds the batched pass to this multiple of its
#: committed time.  It replaces a batched-over-reference ratio that
#: fell whenever the reference loop got faster; 2x keeps the headroom
#: the ratio gate left against the old loop (565.5 ms / 5 = 113 ms,
#: 2.2x the committed time).
BATCHED_100K_SLACK = 2.0


def _reports_identical(a, b) -> bool:
    for f in (
        "analysis_time", "solve_time", "local_updates", "remote_updates",
        "page_faults", "migrated_bytes", "fabric_bytes",
    ):
        if getattr(a, f) != getattr(b, f):
            return False
    for f in ("gpu_busy", "gpu_spin", "gpu_comm", "gpu_finish"):
        if not np.array_equal(getattr(a, f), getattr(b, f)):
            return False
    return True


def measure_case(
    name: str,
    low: CscMatrix,
    *,
    enforce_floor: bool = False,
    n_gpus: int = 4,
    design: Design = Design.SHMEM_READONLY,
    repeats: int = 3,
) -> dict[str, Any]:
    """Time both schedulers on one matrix and compare their reports.

    The artefact bundle is warmed first, so both measurements time the
    scheduling pass itself rather than the (shared, cached) structure
    analysis.
    """
    n = low.shape[0]
    machine = dgx1(n_gpus)
    dist = block_distribution(n, n_gpus)
    art = get_artefacts(low)
    _ = art.edges
    _ = art.fronts
    art.placement(dist)
    art.comm_costs(machine, design)

    def timed(scheduler: str):
        times = []
        report = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            report = simulate_execution(
                low, dist, machine, design, scheduler=scheduler
            )
            times.append(time.perf_counter() - t0)
        return report, times

    ref_report, ref_times = timed("reference")
    bat_report, bat_times = timed("batched")
    t_ref = min(ref_times)
    t_bat = min(bat_times)
    cv = (
        statistics.stdev(ref_times) / statistics.mean(ref_times)
        if repeats > 1
        else 0.0
    )
    width = art.fronts.mean_width
    return {
        "name": name,
        "n": int(n),
        "nnz": int(low.nnz),
        "n_fronts": art.fronts.n_fronts,
        "mean_front_width": round(width, 2),
        "auto_scheduler": (
            "batched" if width >= AUTO_WIDTH_THRESHOLD else "reference"
        ),
        "t_reference": t_ref,
        "t_batched": t_bat,
        "speedup": t_ref / t_bat if t_bat > 0 else float("inf"),
        "identical": _reports_identical(ref_report, bat_report),
        "cv_reference": cv,
        "noisy": cv > NOISE_CV,
        "enforce_floor": bool(enforce_floor and n >= FLOOR_N),
    }


def run_sweep(
    *,
    ci: bool = False,
    repeats: int = 3,
) -> dict[str, Any]:
    """Run the full sweep; returns the ``BENCH_fastmodel.json`` payload.

    ``pass`` is False only when a deterministic property fails: a report
    mismatch anywhere, or a *clean* (non-noisy) scaling case below the
    speedup floor.
    """
    cases = []
    suite_names = CI_SUITE_NAMES if ci else tuple(SUITE)
    for sname in suite_names:
        cases.append(
            measure_case(sname, SUITE[sname].build(), repeats=repeats)
        )
    for cname, kwargs in SCALING_CASES.items():
        cases.append(
            measure_case(
                cname,
                dag_profile_matrix(**kwargs),
                enforce_floor=True,
                repeats=repeats,
            )
        )
    all_identical = all(c["identical"] for c in cases)
    enforced = [c for c in cases if c["enforce_floor"]]
    floor_misses = [
        c["name"]
        for c in enforced
        if not c["noisy"] and c["speedup"] < SPEEDUP_FLOOR
    ]
    noisy = any(c["noisy"] for c in enforced)
    return {
        "bench": "fastmodel_scheduler",
        "ci": ci,
        "repeats": repeats,
        "speedup_floor": SPEEDUP_FLOOR,
        "floor_n": FLOOR_N,
        "noise_cv": NOISE_CV,
        "cases": cases,
        "all_identical": all_identical,
        "noisy": noisy,
        "floor_misses": floor_misses,
        "pass": all_identical and not floor_misses,
    }
