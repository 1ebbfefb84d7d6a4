#!/usr/bin/env python3
"""Run the chaos matrix: fault scenarios × designs × distributions.

Every cell must either recover to a bit-correct solution (bitwise equal
to its unfaulted baseline, which on the forest workload is bitwise equal
to serial forward substitution) or fail with a typed error — never hang,
never return silently wrong data.  Full runs additionally execute every
cell on both DES engines and require bitwise agreement between them.

    python tools/chaos.py                 # full matrix, both engines
    python tools/chaos.py --quick         # CI subset, array engine
    python tools/chaos.py --n 96 --seed 3 --out chaos.json
    python tools/chaos.py --config '{"design": "unified", "n_gpus": 2}'

``--config`` takes a :class:`repro.runtime.RunConfig` JSON object (or
``@path/to/file.json``); its ``design`` / ``distribution`` / ``n_gpus``
knobs pin the matching matrix axis to that single value.

Exit status: 0 when every cell is green, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.resilience.chaos import axes_from_config, run_chaos_matrix  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI subset: fewer scenarios, smaller system, array engine",
    )
    parser.add_argument("--n", type=int, default=64, help="system size")
    parser.add_argument("--seed", type=int, default=7, help="workload seed")
    parser.add_argument(
        "--gpus", type=int, default=4, help="simulated GPU count"
    )
    parser.add_argument(
        "--wall-limit",
        type=float,
        default=60.0,
        help="per-run real-seconds watchdog limit",
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="write the JSON report here"
    )
    parser.add_argument(
        "--config",
        default=None,
        help="RunConfig JSON object (or @file.json) pinning matrix axes",
    )
    args = parser.parse_args(argv)

    extra = {}
    if args.config is not None:
        from repro.errors import ConfigurationError
        from repro.runtime import load_run_config

        try:
            cfg = load_run_config(args.config)
            extra = axes_from_config(cfg)
        except ConfigurationError as err:
            parser.error(str(err))
        args.gpus = cfg.n_gpus

    t0 = time.time()
    report = run_chaos_matrix(
        n=args.n,
        seed=args.seed,
        quick=args.quick,
        n_gpus=args.gpus,
        wall_limit=args.wall_limit,
        **extra,
    )
    for line in report.summary_lines():
        print(line)
    print(f"wall time: {time.time() - t0:.1f}s")
    if args.out is not None:
        report.save(args.out)
        print(f"report written to {args.out}")
    if not report.green:
        print("CHAOS MATRIX RED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
