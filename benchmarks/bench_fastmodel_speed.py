"""Scheduler microbenchmark: per-component loop vs front-routed pass.

Times the fast model's two scheduling passes on the Table I suite plus
the level-major scaling cases, asserting bit-identical reports on every
comparison, the routed pass no slower than the loop on clean Table I
cases, the speedup floor on scale-50k, and on the n=100k / nnz~1M
acceptance case the routed pass's per-call time against its committed
figure (the timing checks skipped, not failed, on timer-noisy runners).
"""

import json

from conftest import RESULTS_DIR, once, publish

from repro.bench.fastmodel import (
    BATCHED_100K_S,
    BATCHED_100K_SLACK,
    SPEEDUP_FLOOR,
    run_sweep,
)
from repro.bench.report import format_table


def test_fastmodel_scheduler_speed(benchmark):
    payload = once(benchmark, run_sweep, repeats=3)
    rows = [
        [
            c["name"],
            c["n"],
            c["mean_front_width"],
            c["n_segments"],
            c["t_reference"] * 1e3,
            c["t_routed"] * 1e3,
            c["speedup"],
        ]
        for c in payload["cases"]
    ]
    publish(
        "fastmodel_speed",
        format_table(
            "Fast-model scheduling pass - reference loop vs routed "
            "(times in ms)",
            ["matrix", "n", "width", "segs", "ref-ms", "rtd-ms", "speedup"],
            rows,
        ),
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_fastmodel.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    # Identity is deterministic: every pairing must match bit for bit.
    assert payload["all_identical"]
    # Clean Table I cases: the routed pass is no slower than the loop.
    assert not payload["slower_than_reference"]
    # The headline perf criteria (scaling cases, n >= 50k, level-major)
    # are enforced only when the timings were clean.  scale-100k is held
    # to the routed pass's own committed time, not to its ratio over
    # the reference loop, which moves whenever that loop gets faster.
    scale = {c["name"]: c for c in payload["cases"]}
    if not payload["noisy"]:
        assert scale["scale-50k"]["speedup"] >= SPEEDUP_FLOOR
        assert (
            scale["scale-100k"]["t_routed"]
            <= BATCHED_100K_SLACK * BATCHED_100K_S
        )
