"""Benchmark of the SpTRSV reproduction: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload solve-hot --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, with times scaled to a reference host
speed measured during the run (see ``hostspeed.py``); ``--trace 1``
wraps each layer's entry points (see ``spans.py``) and reports the
per-layer metrics instead, in raw wall seconds, with the tracing
overhead: the measured cost of one traced call times the traced calls
per operation, as a share of operation wall time.  ``README.md`` maps
each layer metric to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from hostspeed import HostSpeed
from mixes import WORKLOADS, status_kb
from spans import Op, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Host-speed probes right before and right after each set-up; one
#: scale factor from all of them applies to the median set-up.
SETUP_PROBES = 4

END_TO_END = (
    ("setup_s", "s"),
    ("latency_s", "s"),
    ("latency_p95_s", "s"),
    ("goodput_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("workloads.gen_s", "s"),
    ("artefacts.cold_s", "s"),
    ("artefacts.build_s", "s"),
    ("artefacts.builds", "count"),
    ("artefacts.hit_ratio", "ratio"),
    ("artefacts.spill_s", "s"),
    ("tasks.distribution_s", "s"),
    ("timeline.simulate_s", "s"),
    ("timeline.estimates", "count"),
    ("solvers.des_s", "s"),
    ("solvers.events", "count"),
    ("solvers.sim_time_us", "us"),
    ("solvers.page_faults", "count"),
    ("resilience.repair_s", "s"),
    ("resilience.repaired", "count"),
    ("runtime.self_s", "s"),
    ("serve.queue_s", "s"),
    ("serve.worker_s", "s"),
    ("serve.loop_stalls", "count"),
    ("serve.shed", "count"),
    ("serve.retries", "count"),
    ("serve.degraded_served", "count"),
    ("serve.estimate_hit_ratio", "ratio"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
)


def _peak_rss_mb(children: dict[int, int]) -> float:
    """Peak resident set of this process plus the growth of each child
    beyond its resident set at start-up, in MiB."""
    total_kb = status_kb("self", "VmHWM")
    for pid, base_kb in children.items():
        total_kb += max(0, status_kb(pid, "VmHWM") - base_kb)
    return total_kb / 1024.0


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool, scale=1.0):
    """One benchmark run; returns ``(result, diagnostics)``."""
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    try:
        return _run(WORKLOADS[workload], seed, seconds, tracer, scale)
    finally:
        if tracer is not None:
            tracer.uninstall()


def _run(cls, seed, seconds, tracer, scale):
    # Import the package up front so set-up times work, not imports.
    import repro.runtime.session  # noqa: F401
    import repro.serve.service  # noqa: F401

    def new_op():
        return Op() if tracer is not None else None

    setup_walls, setup_ops = [], []
    around = HostSpeed()
    for rep in range(SETUP_REPEATS):
        w = cls(seed, tracer=tracer, scale=scale)
        op = new_op()
        if tracer is not None:
            token = tracer.activate(op)
            tracer.background = op
        around.probe(SETUP_PROBES)
        gc.collect()
        t0 = time.perf_counter()
        try:
            w.setup()
            setup_walls.append(time.perf_counter() - t0)
        except BaseException:
            w.close()
            raise
        finally:
            if tracer is not None:
                tracer.deactivate(token)
        around.probe(SETUP_PROBES)
        setup_ops.append(op)
        if rep < SETUP_REPEATS - 1:
            w.close()

    host = HostSpeed()
    try:
        if tracer is not None:
            tracer.background = Op()
        window = w.measure(seconds, new_op, host)
        peak_rss = _peak_rss_mb(w.rss_children())
    finally:
        w.close()

    samples = window.samples
    walls = [s.wall for s in samples]
    p95 = _percentile(walls, 95)
    failed = sum(not s.ok for s in samples)
    result = {
        "correct": bool(samples) and failed == 0,
        "attempted": len(samples),
        "failed": failed,
    }
    beyond = [s.kind for s in samples if s.wall > p95]
    k = host.scale()
    diag = {
        "workload": cls.name,
        "ops": len(samples),
        "beyond_p95": len(beyond),
        "beyond_p95_kinds": dict(Counter(beyond)),
        "median_by_kind": {
            kind: round(_median([s.wall for s in samples if s.kind == kind]), 4)
            for kind in sorted({s.kind for s in samples})
        },
        "setup_walls": setup_walls,
        "setup_scale": around.scale(),
        "window_s": window.seconds,
        "window_scale": k,
        "probes": len(host.samples),
        "raw_latency_s": _median(walls),
    }
    if tracer is None:
        # Times in reference-host seconds (see hostspeed.py); the window
        # less the probes' own time.
        reference_s = (window.seconds - sum(host.samples)) * k
        scaled = [
            s.wall * host.scale_at(s.start, s.start + s.wall) for s in samples
        ]
        metrics = {
            "setup_s": _median(setup_walls) * around.scale(),
            "latency_s": _median(scaled),
            "latency_p95_s": _percentile(scaled, 95),
            "goodput_per_s": sum(s.certified for s in samples) / reference_s,
            "events_per_s": sum(s.events for s in samples) / reference_s,
            "peak_rss_mb": peak_rss,
        }
        units = dict(END_TO_END)
    else:
        metrics = _per_layer(cls, samples, setup_ops, tracer, window.counters)
        units = dict(PER_LAYER)
    result["metrics"] = {
        name: {"value": metrics[name], "unit": units[name]} for name in units
    }
    return result, diag


def _per_layer(cls, samples, setup_ops, tracer, delta) -> dict:
    n = max(1, len(samples))

    def per_op(layer: str) -> float:
        return sum(s.op.self_s.get(layer, 0.0) for s in samples) / n

    def total(count: str) -> int:
        return sum(s.op.counts.get(count, 0) for s in samples)

    hits, builds = total("artefact_hits"), total("artefact_builds")
    canonical = [
        d for s in samples if s.index < cls.canonical_ops for d in s.op.des
    ]
    walls = sum(s.wall for s in samples)
    covered = sum(sum(s.op.self_s.values()) - s.op.worker_s for s in samples)
    metrics = {
        "workloads.gen_s": _median(
            [op.self_s.get("workloads", 0.0) for op in setup_ops]
        ),
        "artefacts.cold_s": _median(
            [
                op.self_s.get("artefacts", 0.0) + op.self_s.get("spill", 0.0)
                for op in setup_ops
            ]
        ),
        "artefacts.build_s": per_op("artefacts"),
        "artefacts.builds": builds,
        "artefacts.hit_ratio": hits / (hits + builds) if hits + builds else 0.0,
        "artefacts.spill_s": per_op("spill")
        + tracer.background.self_s.get("spill", 0.0) / n,
        "tasks.distribution_s": per_op("tasks"),
        "timeline.simulate_s": per_op("timeline"),
        "timeline.estimates": total("estimates"),
        "solvers.des_s": per_op("solvers"),
        "solvers.events": sum(d[0] for d in canonical),
        "solvers.sim_time_us": sum(d[1] for d in canonical),
        "solvers.page_faults": sum(d[2] for d in canonical),
        "resilience.repair_s": per_op("resilience"),
        "resilience.repaired": total("repaired"),
        "runtime.self_s": per_op("runtime"),
        "serve.queue_s": sum(
            s.op.self_s.get("serve", 0.0) - s.op.worker_s for s in samples
        )
        / n,
        "serve.worker_s": sum(s.op.worker_s for s in samples) / n,
        "trace.coverage_pct": 100.0 * covered / walls if walls else 0.0,
        "trace.overhead_pct": (
            100.0 * total("spans") * tracer.span_cost_s / walls if walls else 0.0
        ),
    }
    metrics.update(
        {
            "serve.loop_stalls": delta.get("loop_stalls", 0),
            "serve.shed": delta.get("shed", 0),
            "serve.retries": delta.get("retries", 0),
            "serve.degraded_served": delta.get("degraded_served", 0),
            "serve.estimate_hit_ratio": (
                1.0 - delta["estimates"] / delta["submitted"]
                if delta.get("submitted")
                else 0.0
            ),
        }
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One core for this process and the workers it forks: the host-speed
    # probes then run on the core the serve worker runs on (a slow phase
    # of one core does not show on the other).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Spill files and any other temporaries stay inside the checkout.
    scratch = HERE / ".scratch"
    scratch.mkdir(exist_ok=True)
    tempfile.tempdir = str(scratch)
    os.environ["TMPDIR"] = str(scratch)
    try:
        result, diag = run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(diag), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
