#!/usr/bin/env python3
"""DES hotspot profiler: run one workload through a chosen engine under
cProfile and emit a ranked hotspot table.

Future perf PRs start from measurements, not guesses: this harness runs
any :class:`repro.runtime.RunConfig` (``--config``) against one workload
case (``--case`` from the sweep table, or explicit generator knobs)
through a chosen engine and reports

* a wall-clock summary (``perf_counter`` best-of-``--repeats``, events/s),
  split into the array engine's two phases: ``compile_s`` (building the
  solve-invariant :class:`~repro.solvers.des_array.ArrayProgram`, paid
  once per structure) and ``drain_s`` (one solve of it, paid per
  right-hand side; the reference engine has no compile phase),
* the top-``--top`` cProfile rows of one full compile + drain, ranked by
  tottime (self time), and
* the same table as JSON (``--json``) for trend tooling.

    python tools/profile_des.py --engine array --case des-medium-8k
    python tools/profile_des.py --engine reference --n 20000 --top 40
    python tools/profile_des.py --case scale-50k --json PROF_des.json
    python tools/profile_des.py --config '{"engine": "array", "n_gpus": 8}'

The engine comes from ``--engine`` or the RunConfig (``auto`` is
resolved by system size and reported by name); workload knobs
(``--n``, ``--levels``, ``--dependency``, ...) override the selected
case's generator parameters.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.bench.dessweep import DES_CASES  # noqa: E402
from repro.errors import ConfigurationError  # noqa: E402
from repro.exec_model.artefacts import get_artefacts  # noqa: E402
from repro.runtime import RunConfig, load_run_config  # noqa: E402
from repro.solvers.des_array import compile_program  # noqa: E402
from repro.solvers.des_solver import des_execute, resolve_engine  # noqa: E402
from repro.workloads.generators import dag_profile_matrix  # noqa: E402


def _workload(args: argparse.Namespace) -> dict:
    """Generator knobs: the chosen case's table row plus CLI overrides."""
    knobs = dict(DES_CASES[args.case])
    for name in ("n", "dependency", "locality", "seed"):
        v = getattr(args, name)
        if v is not None:
            knobs[name] = v
    if args.levels is not None:
        knobs["n_levels"] = args.levels
    return knobs


def profile_run(
    cfg: RunConfig,
    engine: str,
    knobs: dict,
    *,
    repeats: int = 3,
    top: int = 25,
    trace: bool = False,
) -> dict:
    """Profile one engine on one workload; returns the report payload."""
    lower = dag_profile_matrix(**knobs)
    n = lower.shape[0]
    engine = resolve_engine(engine, n)
    get_artefacts(lower)  # the structure analysis, outside every timed phase
    machine = cfg.resolve_machine()
    dist = cfg.build_distribution(n, machine.n_gpus, lower=lower)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(n)

    def compile_():
        if engine != "array":
            return None
        return compile_program(lower, dist, machine, cfg.design)

    def drain(program):
        return des_execute(
            lower, b, dist, machine, cfg.design,
            engine=engine,
            trace_enabled=trace, stale=cfg.build_stale_policy(),
            program=program,
        )

    program = compile_()
    result = drain(program)  # warmup; also provides the event count
    compile_times, drain_times = [], []
    for _ in range(max(repeats, 1)):
        t0 = time.perf_counter()
        program = compile_()
        t1 = time.perf_counter()
        drain(program)
        t2 = time.perf_counter()
        compile_times.append(t1 - t0)
        drain_times.append(t2 - t1)
    compile_s = min(compile_times) if engine == "array" else None
    drain_s = min(drain_times)
    best = (compile_s or 0.0) + drain_s

    prof = cProfile.Profile()
    prof.enable()
    drain(compile_())
    prof.disable()
    stats = pstats.Stats(prof)
    stats.sort_stats("tottime")
    total = sum(row[2] for row in stats.stats.values())
    hotspots = []
    for (path, lineno, func), (_cc, ncalls, tottime, cumtime, _callers) in (
        sorted(stats.stats.items(), key=lambda kv: kv[1][2], reverse=True)
    )[:top]:
        hotspots.append({
            "function": func,
            "where": f"{Path(path).name}:{lineno}",
            "ncalls": int(ncalls),
            "tottime": tottime,
            "cumtime": cumtime,
            "pct": 100.0 * tottime / total if total else 0.0,
        })
    return {
        "bench": "profile_des",
        "engine": engine,
        "design": cfg.design.value,
        "n_gpus": machine.n_gpus,
        "trace_enabled": trace,
        "workload": knobs,
        "events": int(result.events),
        "total_time_simulated": result.total_time,
        "compile_s": compile_s,
        "drain_s": drain_s,
        "wall_seconds": best,
        "events_per_sec": result.events / best if best > 0 else None,
        "repeats": repeats,
        "profile_total_seconds": total,
        "hotspots": hotspots,
    }


def render(report: dict) -> str:
    out = io.StringIO()
    w = report["workload"]
    out.write(
        f"engine={report['engine']} design={report['design']} "
        f"n={w['n']} events={report['events']} "
        f"wall={report['wall_seconds']:.4f}s "
        f"({report['events_per_sec']:.0f} ev/s)\n"
    )
    compile_s = report["compile_s"]
    out.write(
        "compile="
        + ("-" if compile_s is None else f"{compile_s:.4f}s")
        + f" drain={report['drain_s']:.4f}s\n"
    )
    out.write(
        f"{'%':>6} {'tottime':>9} {'cumtime':>9} {'ncalls':>10}  function\n"
    )
    for h in report["hotspots"]:
        out.write(
            f"{h['pct']:>6.1f} {h['tottime']:>9.4f} {h['cumtime']:>9.4f} "
            f"{h['ncalls']:>10}  {h['function']} ({h['where']})\n"
        )
    return out.getvalue()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--engine", default=None, choices=("array", "reference"),
        help="DES engine to profile (default: the RunConfig's engine)",
    )
    parser.add_argument(
        "--case", default="des-medium-8k", choices=sorted(DES_CASES),
        help="sweep case supplying the workload knobs",
    )
    parser.add_argument("--n", type=int, default=None, help="override n")
    parser.add_argument(
        "--levels", type=int, default=None, help="override n_levels"
    )
    parser.add_argument(
        "--dependency", type=float, default=None, help="override nnz/row"
    )
    parser.add_argument(
        "--locality", type=float, default=None, help="override locality"
    )
    parser.add_argument("--seed", type=int, default=None, help="override seed")
    parser.add_argument(
        "--repeats", type=int, default=3, help="wall-clock timing repeats"
    )
    parser.add_argument(
        "--top", type=int, default=25, help="hotspot rows reported"
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="profile with tracing enabled (the verification path)",
    )
    parser.add_argument(
        "--json", type=Path, default=None, help="also write the report here"
    )
    parser.add_argument(
        "--config", default=None,
        help="RunConfig JSON object (or @file.json)",
    )
    args = parser.parse_args(argv)
    try:
        cfg = load_run_config(args.config)
        report = profile_run(
            cfg, args.engine or cfg.engine, _workload(args),
            repeats=args.repeats, top=args.top, trace=args.trace,
        )
    except ConfigurationError as err:
        parser.error(str(err))
    sys.stdout.write(render(report))
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
