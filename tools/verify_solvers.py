#!/usr/bin/env python3
"""Run the full solver conformance + schedule causality audit.

Conformance: every registered :class:`TriangularSolver` configuration
(auto-discovery has teeth — an unregistered concrete solver class is
itself a failure) runs through the differential oracle and metamorphic
relations over the workload generator matrix.

Causality: DES traces for the Unified, NVSHMEM, and zero-copy designs
plus captured fast-model schedules (both schedulers) are replayed
against dependency order, warp-slot capacity, and link topology.

    python tools/verify_solvers.py              # full matrix
    python tools/verify_solvers.py --quick      # 4-generator subset
    python tools/verify_solvers.py --seed 3 --json audit.json

Exit status: 0 when every cell passes and every audit is violation-free,
1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.exec_model.costmodel import Design  # noqa: E402
from repro.machine.node import dgx1, dgx2  # noqa: E402
from repro.solvers.des_solver import des_execute  # noqa: E402
from repro.sparse.validate import random_rhs_for_solution  # noqa: E402
from repro.tasks.schedule import (  # noqa: E402
    block_distribution,
    round_robin_distribution,
)
from repro.verify import (  # noqa: E402
    check_des_execution,
    check_timeline_schedule,
    default_generators,
    default_registry,
    quick_generators,
    run_conformance,
)
from repro.workloads.generators import dag_profile_matrix  # noqa: E402


def causality_scenarios(quick: bool):
    """(name, design, machine, use_des) audit scenarios.

    Covers the three paper designs across DES traces and both
    fast-model schedulers on P2P and switched fabrics.
    """
    scenarios = [
        ("des-unified-dgx1x4", Design.UNIFIED, dgx1(4, require_p2p=False), True),
        ("des-shmem-dgx1x4", Design.SHMEM_READONLY, dgx1(4), True),
        ("des-shmem-naive-dgx1x2", Design.SHMEM_NAIVE, dgx1(2), True),
        ("timeline-unified-dgx1x4", Design.UNIFIED, dgx1(4, require_p2p=False), False),
        ("timeline-shmem-dgx1x4", Design.SHMEM_READONLY, dgx1(4), False),
        ("timeline-shmem-naive-dgx1x4", Design.SHMEM_NAIVE, dgx1(4), False),
    ]
    if not quick:
        scenarios += [
            ("des-shmem-dgx2x8", Design.SHMEM_READONLY, dgx2(8), True),
            ("timeline-shmem-dgx2x8", Design.SHMEM_READONLY, dgx2(8), False),
        ]
    return scenarios


def run_causality(seed: int, quick: bool) -> list[dict]:
    low = dag_profile_matrix(
        300, 12, 3.0, "uniform", 0.5, 0.3, 0.5, seed=seed
    )
    n = low.shape[0]
    b, _ = random_rhs_for_solution(low, seed=seed)
    rows = []
    for name, design, machine, use_des in causality_scenarios(quick):
        dist = block_distribution(n, machine.n_gpus)
        t0 = time.perf_counter()
        if use_des:
            ex = des_execute(low, b, dist, machine, design)
            rep = check_des_execution(ex, low, dist, machine, design)
            reports = [rep]
        else:
            reports = [
                check_timeline_schedule(
                    low, d, machine, design, scheduler=sched
                )
                for sched in ("routed", "reference")
                for d in (
                    dist,
                    round_robin_distribution(n, machine.n_gpus, 4),
                )
            ]
        elapsed = time.perf_counter() - t0
        violations = [
            str(v) for rep in reports for v in rep.violations
        ]
        rows.append(
            {
                "scenario": name,
                "ok": not violations,
                "violations": violations,
                "elapsed": elapsed,
            }
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="4-generator subset and fewer causality scenarios",
    )
    parser.add_argument(
        "--json", type=Path, default=None, help="write the audit as JSON"
    )
    args = parser.parse_args(argv)

    registry = default_registry()
    gaps = registry.coverage_gaps()
    for cls in gaps:
        print(
            f"COVERAGE GAP: {cls.__module__}.{cls.__qualname__} has no "
            "conformance case"
        )

    gens = quick_generators() if args.quick else default_generators()
    t0 = time.perf_counter()
    conf = run_conformance(registry, gens, seed=args.seed)
    conf_elapsed = time.perf_counter() - t0
    print(conf.summary())
    print(
        f"  ({len(registry)} cases x {len(gens)} generators, "
        f"{conf_elapsed:.1f}s)"
    )

    causality = run_causality(args.seed, args.quick)
    n_ok = sum(r["ok"] for r in causality)
    print(f"causality: {n_ok}/{len(causality)} scenarios clean")
    for r in causality:
        status = "OK " if r["ok"] else "FAIL"
        print(f"  {status} {r['scenario']} ({r['elapsed']:.2f}s)")
        for v in r["violations"][:10]:
            print(f"       {v}")

    ok = conf.ok and n_ok == len(causality) and not gaps
    if args.json is not None:
        args.json.write_text(
            json.dumps(
                {
                    "ok": ok,
                    "seed": args.seed,
                    "coverage_gaps": [c.__qualname__ for c in gaps],
                    "conformance": [
                        {
                            "case": f.case,
                            "generator": f.generator,
                            "relation": f.relation,
                            "ok": f.ok,
                            "detail": f.detail,
                            "elapsed": f.elapsed,
                        }
                        for f in conf.findings
                    ],
                    "causality": causality,
                },
                indent=2,
            )
            + "\n"
        )
        print(f"wrote {args.json}")
    print("VERIFY:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
