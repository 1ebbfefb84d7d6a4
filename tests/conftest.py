"""Shared fixtures for the repro test suite.

Matrix fixtures are built once per session and handed out as
*copy-on-use*: the generator runs a single time (session-scoped cache),
but every test receives a fresh :meth:`CscMatrix.copy` — a solver or
test mutating the CSC arrays in place cannot poison later tests, and no
test can observe another's mutations through the shared cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine.node import dgx1, dgx2
from repro.sparse.csc import CscMatrix
from repro.workloads.generators import (
    banded_lower,
    dag_profile_matrix,
    grid_graph_lower,
    random_lower,
    tridiagonal_lower,
)


def _diag_only_matrix() -> CscMatrix:
    from repro.sparse.coo import CooMatrix

    n = 20
    idx = np.arange(n)
    return CooMatrix(idx, idx, np.full(n, 2.0), (n, n)).to_csc()


#: One builder per matrix fixture; results are cached for the session
#: and copied per use.
_MATRIX_BUILDERS = {
    # A 300-row profiled matrix: 12 levels, moderate dependency.
    "small_lower": lambda: dag_profile_matrix(
        n=300, n_levels=12, dependency=3.0, seed=42
    ),
    # A 400-row matrix with scattered level/index correlation.
    "scattered_lower": lambda: dag_profile_matrix(
        n=400, n_levels=10, dependency=2.5, scatter=0.7, seed=43
    ),
    # Fully serial bidiagonal chain (worst case for parallelism).
    "chain_lower": lambda: tridiagonal_lower(64, seed=1),
    # Structured-grid dependency pattern.
    "grid_lower": lambda: grid_graph_lower(12, 15, seed=2),
    "band_lower": lambda: banded_lower(200, bandwidth=5, fill=0.6, seed=3),
    "rand_lower": lambda: random_lower(250, avg_nnz_per_row=4.0, seed=4),
    # Diagonal matrix: the no-dependency edge case.
    "diag_only": _diag_only_matrix,
}


@pytest.fixture(scope="session")
def _matrix_cache() -> dict[str, CscMatrix]:
    """Lazily built session cache of pristine fixture matrices."""
    return {}


def _fresh(name: str, cache: dict[str, CscMatrix]) -> CscMatrix:
    if name not in cache:
        cache[name] = _MATRIX_BUILDERS[name]()
    return cache[name].copy()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_lower(_matrix_cache) -> CscMatrix:
    return _fresh("small_lower", _matrix_cache)


@pytest.fixture
def scattered_lower(_matrix_cache) -> CscMatrix:
    return _fresh("scattered_lower", _matrix_cache)


@pytest.fixture
def chain_lower(_matrix_cache) -> CscMatrix:
    return _fresh("chain_lower", _matrix_cache)


@pytest.fixture
def grid_lower(_matrix_cache) -> CscMatrix:
    return _fresh("grid_lower", _matrix_cache)


@pytest.fixture
def band_lower(_matrix_cache) -> CscMatrix:
    return _fresh("band_lower", _matrix_cache)


@pytest.fixture
def rand_lower(_matrix_cache) -> CscMatrix:
    return _fresh("rand_lower", _matrix_cache)


@pytest.fixture
def diag_only(_matrix_cache) -> CscMatrix:
    return _fresh("diag_only", _matrix_cache)


@pytest.fixture
def machine4():
    """4-GPU DGX-1 clique (NVSHMEM-capable)."""
    return dgx1(4)


@pytest.fixture
def machine4_um():
    """4-GPU DGX-1 without the P2P requirement (unified memory runs)."""
    return dgx1(4, require_p2p=False)


@pytest.fixture
def machine1():
    return dgx1(1)


@pytest.fixture
def machine8_dgx2():
    return dgx2(8)


@pytest.fixture
def compiles(monkeypatch):
    """Count ``compile_program`` calls; each entry is the compiled matrix.

    Sessions and ``des_execute`` import it from its module at call time,
    so patching the module attribute sees every compile.
    """
    import repro.solvers.des_array as des_array

    calls = []
    real = des_array.compile_program

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(des_array, "compile_program", counting)
    return calls


ALL_FIXTURE_MATRICES = list(_MATRIX_BUILDERS)


@pytest.fixture(params=ALL_FIXTURE_MATRICES)
def any_lower(request) -> CscMatrix:
    """Parametrised fixture running a test over every matrix family."""
    return request.getfixturevalue(request.param)
