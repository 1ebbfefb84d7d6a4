"""Byte-level digests of the fast tier's level sweep and the solvers on it.

``levelset_forward`` is the fast tier's one level-sweep kernel: it takes
a 1-D or an ``(n, k)`` right-hand side and sweeps in float32 when ``b``
is float32.  Each case below hashes (sha256) the solution bits and, where
the case has one, every :class:`~repro.exec_model.timeline.ExecutionReport`
field, over every conformance generator family; the solver cases run on
dgx1(2) and dgx1(4).  The expected digests were recorded when the 1-D,
k-column and float32 sweeps were three separate kernels and
``NaiveShmemSolver`` had its own ``solve``, so they pin that folding
those paths together changed no output bit.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.machine.node import dgx1
from repro.solvers.levelset import levelset_forward
from repro.solvers.mixedprec import MixedPrecisionSolver
from repro.solvers.multirhs import solve_multi_rhs
from repro.solvers.nvshmem import NaiveShmemSolver
from repro.verify.oracles import default_generators

SEED = 11
K = 5
MACHINES = (2, 4)


def _report_values(report) -> list:
    return [getattr(report, f.name) for f in dataclasses.fields(report)]


def _mixed(lower, b, block, machine):
    solver = MixedPrecisionSolver(machine=machine)
    res = solver.solve(lower, b)
    stats = solver.last_refinement
    return [res.x, *_report_values(res.report), stats.sweeps, stats.residual_history]


def _multi(lower, b, block, machine):
    res = solve_multi_rhs(lower, block, machine=machine)
    return [res.x, *_report_values(res.report), res.solver]


def _naive(emulate):
    def run(lower, b, block, machine):
        res = NaiveShmemSolver(machine=machine, emulate=emulate).solve(lower, b)
        return [res.x, *_report_values(res.report), res.solver]

    return run


#: Machine-independent kernel cases: ``(lower, b, block) -> [values]``.
KERNEL_CASES = {
    "levelset-1d": lambda lower, b, block: [levelset_forward(lower, b)],
    "levelset-block": lambda lower, b, block: [levelset_forward(lower, block)],
    "levelset-float32": lambda lower, b, block: [
        np.asarray(
            levelset_forward(lower, b.astype(np.float32)), dtype=np.float64
        )
    ],
}

#: Solver cases, run on each machine: ``(lower, b, block, machine)``.
SOLVER_CASES = {
    "mixed-precision": _mixed,
    "solve-multi-rhs": _multi,
    "naive-shmem-emulate": _naive(True),
    "naive-shmem-fast": _naive(False),
}

EXPECTED = {
    "levelset-1d": (
        "ca7334095e0b399ede11fcbed41f5abdb5e2d2ac51610f31697363fe144ad39f"
    ),
    "levelset-block": (
        "6d58a05aadf7b98f33c8f1ce7a83a94ead9ef01016aeecb84c5a8efc45e53e4e"
    ),
    "levelset-float32": (
        "4e94fdff9709cf304590ee70d89e2ac247f16bcac535fd09e2969b64e34f2605"
    ),
    "mixed-precision": (
        "9d1e4c6304938bb90ddbd497a90ef7de8445c7c64d116ef2c979f62a2173e451"
    ),
    "solve-multi-rhs": (
        "1bbda6c191275e9105da67f5f063308b1c2c4810d410515faddc1475196f9a99"
    ),
    "naive-shmem-emulate": (
        "2a94d97406b4f45aedf7a71d6ec55f5048af08637870073fc410d4fa2f661c54"
    ),
    "naive-shmem-fast": (
        "189262c72e64b39e014b7635a7462e8e4e6cf6eb06189c6a66943c6b21c9fb29"
    ),
}


def _feed(h, value) -> None:
    if isinstance(value, str):
        h.update(value.encode())
        return
    arr = np.ascontiguousarray(value)
    h.update(f"{arr.dtype}{arr.shape}".encode())
    h.update(arr.tobytes())


def _systems():
    for name, gen in default_generators():
        lower = gen(SEED)
        rng = np.random.default_rng(SEED)
        b = rng.uniform(-1.0, 1.0, size=lower.shape[0])
        block = rng.uniform(-1.0, 1.0, size=(lower.shape[0], K))
        yield name, lower, b, block


def case_digest(case: str) -> str:
    h = hashlib.sha256()
    for name, lower, b, block in _systems():
        if case in KERNEL_CASES:
            runs = [(name, KERNEL_CASES[case](lower, b, block))]
        else:
            runs = [
                (f"{name}/dgx1({g})", SOLVER_CASES[case](lower, b, block, dgx1(g)))
                for g in MACHINES
            ]
        for label, values in runs:
            _feed(h, label)
            for value in values:
                _feed(h, value)
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_digest_unchanged(case):
    assert case_digest(case) == EXPECTED[case]


def test_block_equals_column_by_column():
    for _name, lower, _b, block in _systems():
        x = levelset_forward(lower, block)
        for j in range(K):
            assert np.array_equal(x[:, j], levelset_forward(lower, block[:, j]))
