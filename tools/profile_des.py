#!/usr/bin/env python3
"""DES hotspot profiler: run one workload through a chosen engine under
cProfile and emit a ranked hotspot table.

Future perf PRs start from measurements, not guesses: this harness runs
any :class:`repro.runtime.RunConfig` (``--config``) against one workload
case (``--case`` from the sweep table, or explicit generator knobs)
through a chosen engine and reports

* a wall-clock summary (``perf_counter`` best-of-``--repeats``, events/s),
  split into the array engine's phases: ``compile_s`` (building the
  solve-invariant :class:`~repro.solvers.des_array.ArrayProgram`, paid
  once per structure), ``drain_s`` (one solve of it; the reference
  engine has neither compile nor the phases below), ``record_drain_s``
  (the same drain writing a :class:`~repro.solvers.des_array.DrainRecord`,
  a warm session's second solve; ``record_overhead`` is its cost over
  ``drain_s``), ``replay_first_s`` (the first replay of that record,
  which builds its plan), ``replay_s`` (each later solve of a warm
  session) and ``residual_s`` (the backward-error certificate of the
  replayed ``x``, the rest of that solve), and ``gc_warm_s`` (one full
  ``gc.collect()`` while the process holds only the replay state: the
  matrix, its artefacts, the record and its plan, as a warm session
  does) beside ``gc_program_s`` (the same with the compiled program
  still alive),
* the top-``--top`` cProfile rows of one full compile + drain, ranked by
  tottime (self time), and
* the same table as JSON (``--json``) for trend tooling.

    python tools/profile_des.py --engine array --case des-medium-8k
    python tools/profile_des.py --engine reference --n 20000 --top 40
    python tools/profile_des.py --case scale-50k --json PROF_des.json
    python tools/profile_des.py --config '{"design": "unified", "n_gpus": 8}'

``--engine`` defaults to ``array``, the engine every production path
runs; ``reference`` profiles the bit-identity oracle.  Workload knobs
(``--n``, ``--levels``, ``--dependency``, ...) override the selected
case's generator parameters.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
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
from repro.solvers.des_array import DrainRecord, compile_program  # noqa: E402
from repro.solvers.des_solver import des_execute, replay_execute  # noqa: E402
from repro.sparse.validate import residual_norm  # noqa: E402
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
    # The structure analysis, outside every timed phase.
    get_artefacts(lower).levels
    machine = cfg.resolve_machine()
    dist = cfg.build_distribution(n, machine.n_gpus, lower=lower)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(n)

    def compile_():
        if engine != "array":
            return None
        return compile_program(lower, dist, machine, cfg.design)

    def drain(program, record=None):
        return des_execute(
            lower, b, dist, machine, cfg.design,
            engine=engine,
            trace_enabled=trace, stale=cfg.build_stale_policy(),
            program=program, record=record,
        )

    def replay(record):
        return replay_execute(
            lower, b, machine, cfg.design,
            stale=cfg.build_stale_policy(), record=record,
        )

    def full_collection():
        """Best-of-``repeats`` wall of one full ``gc.collect()``."""
        times = []
        for _ in range(max(repeats, 1)):
            t0 = time.perf_counter()
            gc.collect()
            times.append(time.perf_counter() - t0)
        return min(times)

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
    record_s = replay_first_s = replay_s = residual_s = None
    gc_program_s = gc_warm_s = None
    if engine == "array":
        record_times, replay_times, residual_times = [], [], []
        for _ in range(max(repeats, 1)):
            record = DrainRecord()
            t0 = time.perf_counter()
            drain(program, record)
            record_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        replay(record)
        replay_first_s = time.perf_counter() - t0
        for _ in range(max(repeats, 1)):
            t0 = time.perf_counter()
            x = replay(record).x
            t1 = time.perf_counter()
            residual_norm(lower, x, b)
            replay_times.append(t1 - t0)
            residual_times.append(time.perf_counter() - t1)
        record_s = min(record_times)
        replay_s = min(replay_times)
        residual_s = min(residual_times)
        gc_program_s = full_collection()
        program = None  # a warm session keeps the record, not the program
        gc_warm_s = full_collection()

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
        "record_drain_s": record_s,
        "record_overhead": (
            None if record_s is None else record_s / drain_s - 1.0
        ),
        "replay_first_s": replay_first_s,
        "replay_s": replay_s,
        "residual_s": residual_s,
        "gc_program_s": gc_program_s,
        "gc_warm_s": gc_warm_s,
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
        + f" drain={report['drain_s']:.4f}s"
    )
    if report["replay_s"] is not None:
        out.write(
            f" recorded={report['record_drain_s']:.4f}s"
            f" ({100.0 * report['record_overhead']:+.1f}%)"
            f" replay={report['replay_s']:.4f}s"
            f" (first {report['replay_first_s']:.4f}s)"
            f" residual={report['residual_s']:.4f}s"
            f" gc={report['gc_warm_s']:.4f}s"
            f" (program alive {report['gc_program_s']:.4f}s)"
        )
    out.write("\n")
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
        "--engine", default="array", choices=("array", "reference"),
        help="DES engine to profile (default: array)",
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
            cfg, args.engine, _workload(args),
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
