"""Byte-identity pins of the cold path: generation and structure analysis.

Every generator family at fixed arguments, the sixteen Table I
stand-ins at reduced ``n`` and the serve-mix structures are hashed
(sha256 over ``indptr``/``indices``/``data``), together with their
level sets, dispatch fronts and RCM ordering.  A change to how a
matrix is generated, canonicalised or analysed must leave every byte
as it was; the digests in ``tests/golden/generator_digests.json`` are
the reference.  An intentional change re-records them with::

    PYTHONPATH=src python tests/test_generator_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.dag import build_dag
from repro.analysis.levels import compute_dispatch_fronts, compute_levels
from repro.analysis.reorder import rcm_ordering
from repro.serve.request import build_workload
from repro.workloads import generators as gen
from repro.workloads.factors import (
    anisotropic_factor,
    circuit_factor,
    poisson2d_factor,
)
from repro.workloads.suite import SUITE

GOLDEN = Path(__file__).parent / "golden" / "generator_digests.json"
#: Stand-ins are generated with ``n`` capped here (and ``n_levels``
#: capped at ``n // 4``, as the price sweep does at small scales).
STAND_IN_N = 3000
SERVE_SEEDS = (1, 7)


def _families() -> dict:
    return {
        "tridiagonal": lambda: gen.tridiagonal_lower(300, seed=3),
        "banded": lambda: gen.banded_lower(400, 4, fill=0.7, seed=2),
        "random": lambda: gen.random_lower(500, 4.0, seed=5),
        "random-dense": lambda: gen.random_lower(60, 30.0, seed=9),
        "forest": lambda: gen.forest_lower(300, seed=1),
        "grid": lambda: gen.grid_graph_lower(17, 23, seed=4),
        "profile-level-major": lambda: gen.dag_profile_matrix(
            2000, 30, 6.0, "uniform", 0.5, 0.3, 0.0, seed=11
        ),
        "profile-geometric-local": lambda: gen.dag_profile_matrix(
            1500, 12, 3.5, "geometric", 1.0, 0.0, 0.0, seed=12
        ),
        "profile-scatter": lambda: gen.dag_profile_matrix(
            2000, 40, 5.0, "bulge", 0.3, 0.3, 0.6, seed=13
        ),
        "profile-scatter-full": lambda: gen.dag_profile_matrix(
            1200, 8, 4.0, "front", 0.0, 0.5, 1.0, seed=14
        ),
        "profile-one-level": lambda: gen.dag_profile_matrix(
            50, 1, 3.0, seed=15
        ),
        "poisson2d-factor": lambda: poisson2d_factor(10, 9),
        "anisotropic-factor": lambda: anisotropic_factor(9, 8, 20.0),
        "circuit-factor": lambda: circuit_factor(8, seed=2),
    }


def _stand_ins() -> dict:
    out = {}
    for name, entry in SUITE.items():
        n = min(entry.n, STAND_IN_N)
        small = replace(entry, n=n, n_levels=min(entry.n_levels, n // 4))
        out[f"suite-{name}"] = small.build
    return out


def _serve_structures() -> dict:
    side = 64
    specs = {
        "grid": {"generator": "grid", "rows": side, "cols": side},
        "random": {"generator": "random", "n": side * side},
        "banded": {"generator": "banded", "n": side * side, "bandwidth": 3},
    }
    return {
        f"serve-{name}-seed{seed}": (
            lambda spec=spec, seed=seed: build_workload(dict(spec, seed=seed))
        )
        for name, spec in specs.items()
        for seed in SERVE_SEEDS
    }


CASES = {**_families(), **_stand_ins(), **_serve_structures()}


def _sha(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def digests(build) -> dict:
    """sha256 of one matrix and of its structure analyses."""
    lower = build()
    dag = build_dag(lower)
    levels = compute_levels(dag)
    return {
        "matrix": _sha(lower.indptr, lower.indices, lower.data),
        "levels": _sha(levels.level_of, levels.level_ptr, levels.level_idx),
        "fronts": _sha(compute_dispatch_fronts(dag).front_ptr),
        "rcm": _sha(rcm_ordering(lower)),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_digests_match_golden(case, golden):
    assert digests(CASES[case]) == golden[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_generator_digests.py --write")
    record = {case: digests(build) for case, build in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record)} cases to {GOLDEN}")
