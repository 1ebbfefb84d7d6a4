"""Byte-identity pins of the fast model over the price-sweep grid.

The seven Table I stand-ins the price sweep prices, at reduced ``n``,
are each run through the sweep's 25 configurations (four designs x two
platforms x three placements, plus the two-node hierarchical cluster).
Every :class:`~repro.exec_model.timeline.ExecutionReport` field and the
``finish``/``dispatch``/``ready`` schedule arrays are hashed (sha256);
a change to the scheduling pass, the cost tables or the fault model
must leave every byte as it was.  The digests in
``tests/golden/fastmodel_digests.json`` are the reference.  An
intentional change re-records them with::

    PYTHONPATH=src python tests/test_fastmodel_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.levels import CHUNK, SEG_WIDE
from repro.exec_model import simulate_execution
from repro.exec_model.artefacts import get_artefacts
from repro.runtime.config import RunConfig
from repro.workloads.suite import SUITE

GOLDEN = Path(__file__).parent / "golden" / "fastmodel_digests.json"

#: The price sweep's stand-ins (``perfbench/mixes.py``).
MATRICES = (
    "chipcool0", "dc2", "nlpkkt160", "powersim", "Wordnet3", "roadNet-CA",
    "shipsec1",
)
#: Rows per stand-in: large enough that every stand-in's narrow fronts
#: span several scalar chunks of the scheduling pass.
N = 1500
#: The price sweep's first seed, applied as it offsets generator seeds.
SEED = 1

REPORT_SCALARS = (
    "design", "machine", "n_gpus", "n_tasks", "analysis_time", "solve_time",
    "local_updates", "remote_updates", "page_faults", "migrated_bytes",
    "fabric_bytes",
)
REPORT_ARRAYS = ("gpu_busy", "gpu_spin", "gpu_comm", "gpu_finish")
SCHEDULE_ARRAYS = ("finish", "dispatch", "ready")


def sweep_configs() -> list[RunConfig]:
    """The price sweep's configuration grid, in its order."""
    configs = [
        RunConfig(design=d, topology=t, n_gpus=g, distribution=dist)
        for d in ("unified", "shmem_naive", "shmem_readonly", "stale_sync")
        for t, g in (("dgx1", 4), ("dgx2", 16))
        for dist in ("block", "taskpool", "costaware")
    ]
    configs.append(
        RunConfig(
            design="shmem_readonly", topology="cluster", n_nodes=2,
            gpus_per_node=4, distribution="hierarchical",
        )
    )
    return configs


def stand_in(name: str):
    entry = SUITE[name]
    entry = replace(entry, seed=entry.seed + 1000 * SEED, n=N)
    return replace(entry, n_levels=min(entry.n_levels, N // 4)).build()


def _sha(report, sched: dict) -> str:
    h = hashlib.sha256()
    for f in REPORT_SCALARS:
        h.update(repr(getattr(report, f)).encode())
    for a in [getattr(report, f) for f in REPORT_ARRAYS] + [
        sched[f] for f in SCHEDULE_ARRAYS
    ]:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def digests(name: str, **kw) -> list[str]:
    """One digest per sweep configuration, in grid order."""
    lower = stand_in(name)
    out = []
    for cfg in sweep_configs():
        machine = cfg.resolve_machine()
        dist = cfg.build_distribution(lower.shape[0], machine.n_gpus, lower=lower)
        sched: dict = {}
        report = simulate_execution(
            lower, dist, machine, cfg.design, schedule_out=sched, **kw
        )
        out.append(_sha(report, sched))
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_stand_in(golden):
    assert sorted(golden) == sorted(MATRICES)
    assert all(len(v) == len(sweep_configs()) for v in golden.values())


@pytest.mark.parametrize("name", MATRICES)
def test_stand_in_spans_several_chunks(name):
    """Each stand-in's narrow fronts fill at least four chunks."""
    routing = get_artefacts(stand_in(name)).routing
    sizes = np.diff(routing.seg_ptr)
    assert sizes[routing.seg_mode != SEG_WIDE].sum() >= 4 * CHUNK


@pytest.mark.parametrize("name", MATRICES)
def test_digests_match_golden(name, golden):
    assert digests(name) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_fastmodel_digests.py --write")
    record = {name: digests(name) for name in MATRICES}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
