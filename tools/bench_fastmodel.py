#!/usr/bin/env python3
"""Standalone fast-model scheduler microbenchmark.

Times the reference per-component scheduling loop against the default
front-routed pass and writes ``BENCH_fastmodel.json``.

    python tools/bench_fastmodel.py                 # full Table I sweep
    python tools/bench_fastmodel.py --ci            # quick CI subset
    python tools/bench_fastmodel.py --repeats 5 --out results.json

Exit status: 0 when every comparison is bit-identical, every clean
(non-noisy) scaling case meets the speedup floor, and no clean Table I
case runs the routed pass slower than the reference loop; 1 otherwise.
Noisy timings (cv above the threshold) exempt a case from the timing
checks — identity is always enforced.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.fastmodel import run_sweep  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_fastmodel.json"),
        help="output JSON path (default: ./BENCH_fastmodel.json)",
    )
    parser.add_argument(
        "--ci",
        action="store_true",
        help="quick mode: Table I subset + scaling cases",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats per case"
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    payload = run_sweep(ci=args.ci, repeats=args.repeats)
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    hdr = f"{'matrix':>18} {'n':>8} {'width':>9} {'segs':>6} " \
          f"{'ref-ms':>9} {'rtd-ms':>9} {'speedup':>8}  ok"
    print(hdr)
    print("-" * len(hdr))
    for c in payload["cases"]:
        print(
            f"{c['name']:>18} {c['n']:>8} {c['mean_front_width']:>9.1f} "
            f"{c['n_segments']:>6} {c['t_reference'] * 1e3:>9.2f} "
            f"{c['t_routed'] * 1e3:>9.2f} {c['speedup']:>7.2f}x  "
            f"{'yes' if c['identical'] else 'MISMATCH'}"
        )
    print(f"\nwrote {args.out}")

    if not payload["all_identical"]:
        print("FAIL: routed pass produced a non-identical report")
        return 1
    if payload["slower_than_reference"]:
        print(
            "FAIL: clean run of the routed pass slower than the reference "
            "loop: " + ", ".join(payload["slower_than_reference"])
        )
        return 1
    if payload["floor_misses"]:
        print(
            "FAIL: clean run below the "
            f"{payload['speedup_floor']}x floor: "
            + ", ".join(payload["floor_misses"])
        )
        return 1
    if payload["noisy"]:
        print("WARN: timer noise detected; timing checks not enforced")
    else:
        print("PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
