"""The sort-based int dedup and the scalar level tail equal what they replace.

``sorted_unique`` stands in for ``np.unique`` on int arrays (whose hash
path on numpy >= 2.3 costs several times a sort), ``sum_duplicates``
takes run heads with a neighbour mask instead of a second sort, and
``compute_levels`` finishes deep, narrow DAGs in a scalar pass.  Each is
checked bitwise against the computation it replaced, and a guard walks
the package source so that a plain ``np.unique`` cannot come back.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.analysis.levels as levels_mod
from repro.analysis.dag import build_dag
from repro.sparse.coo import CooMatrix, sorted_unique
from repro.workloads.generators import (
    banded_lower,
    dag_profile_matrix,
    tridiagonal_lower,
)

INT64 = np.iinfo(np.int64)

int_arrays = st.one_of(
    st.lists(st.integers(INT64.min, INT64.max), max_size=60),
    st.lists(st.integers(-5, 5), max_size=200),
    st.lists(
        st.sampled_from([INT64.min, INT64.min + 1, -1, 0, INT64.max - 1, INT64.max]),
        max_size=40,
    ),
)


@settings(max_examples=200, deadline=None)
@given(int_arrays, st.sampled_from([np.int64, np.int32]))
def test_sorted_unique_equals_np_unique(values, dtype):
    info = np.iinfo(dtype)
    arr = np.clip(np.asarray(values, dtype=np.int64), info.min, info.max)
    arr = arr.astype(dtype)
    got = sorted_unique(arr)
    want = np.unique(arr)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_sorted_unique_edge_cases():
    for arr in (
        np.zeros(0, dtype=np.int64),
        np.array([7]),
        np.full(9, -3),
        np.array([INT64.max, INT64.min, INT64.max, 0, INT64.min]),
    ):
        assert np.array_equal(sorted_unique(arr), np.unique(arr))


def _sum_duplicates_by_np_unique(coo: CooMatrix) -> CooMatrix:
    """The canonicalisation as written before the neighbour mask."""
    keys = coo.row * coo.shape[1] + coo.col
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    uniq, first = np.unique(keys, return_index=True)
    data = np.add.reduceat(coo.data[order], first)
    return CooMatrix(uniq // coo.shape[1], uniq % coo.shape[1], data, coo.shape)


@st.composite
def coo_with_duplicates(draw):
    n_rows = draw(st.integers(1, 12))
    n_cols = draw(st.integers(1, 12))
    nnz = draw(st.integers(1, 80))
    cell = st.integers(0, n_rows * n_cols - 1)
    cells = draw(st.lists(cell, min_size=nnz, max_size=nnz))
    # Values with wide exponents and exact zeros: the summation order of
    # duplicates shows in the bits, and cancellation leaves explicit zeros.
    value = st.one_of(
        st.just(0.0),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        st.sampled_from([1e-17, -1e-17, 1.0, -1.0, 1e16, -1e16]),
    )
    data = draw(st.lists(value, min_size=nnz, max_size=nnz))
    cells = np.asarray(cells, dtype=np.int64)
    return CooMatrix(
        cells // n_cols, cells % n_cols, np.asarray(data), (n_rows, n_cols)
    )


@settings(max_examples=150, deadline=None)
@given(coo_with_duplicates())
def test_sum_duplicates_is_bitwise_the_np_unique_result(coo):
    got = coo.sum_duplicates()
    want = _sum_duplicates_by_np_unique(coo)
    assert np.array_equal(got.row, want.row)
    assert np.array_equal(got.col, want.col)
    assert got.data.tobytes() == want.data.tobytes()


def _levels_by_sweeps_only(dag):
    saved = levels_mod._FANOUT_SCALAR_TAIL
    levels_mod._FANOUT_SCALAR_TAIL = 0
    try:
        return levels_mod.compute_levels(dag)
    finally:
        levels_mod._FANOUT_SCALAR_TAIL = saved


def _assert_same_levels(lower):
    dag = build_dag(lower)
    got = levels_mod.compute_levels(dag)
    want = _levels_by_sweeps_only(dag)
    for name in ("level_of", "level_ptr", "level_idx"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_scalar_tail_levels_chains_and_bands_like_the_sweep():
    _assert_same_levels(tridiagonal_lower(700, seed=1))
    _assert_same_levels(banded_lower(900, 3, fill=0.8, seed=2))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(20, 600),
    st.integers(1, 200),
    st.floats(1.0, 6.0),
    st.sampled_from(["uniform", "geometric", "bulge", "front"]),
    st.sampled_from([0.0, 0.4, 1.0]),
    st.integers(0, 2**16),
)
def test_scalar_tail_matches_the_sweep(n, n_levels, dep, profile, scatter, seed):
    lower = dag_profile_matrix(
        n, min(n_levels, n), dep, profile, scatter=scatter, seed=seed
    )
    _assert_same_levels(lower)


def _plain_unique_calls(path: Path) -> list[int]:
    """Lines of ``np.unique(...)`` calls without an index/inverse/count."""
    wanted = {"return_index", "return_inverse", "return_counts"}
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unique"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in {"np", "numpy"}
            and not wanted & {kw.arg for kw in node.keywords}
        ):
            hits.append(node.lineno)
    return hits


def test_no_plain_np_unique_in_the_package():
    root = Path(repro.__file__).parent
    found = {
        str(path.relative_to(root)): lines
        for path in sorted(root.rglob("*.py"))
        if (lines := _plain_unique_calls(path))
    }
    assert not found, (
        "plain np.unique takes numpy's hash path on ints; use "
        f"repro.sparse.coo.sorted_unique instead: {found}"
    )


def test_guard_sees_a_plain_np_unique(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "a = np.unique(x)\n"
        "b, i = np.unique(x, return_index=True)\n"
    )
    assert _plain_unique_calls(probe) == [2]
