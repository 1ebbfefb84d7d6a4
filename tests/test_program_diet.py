"""The compiled ArrayProgram's shared boxed values and vectorised fan-out.

``compile_program`` builds its lists from small object pools (one boxed
float per distinct value, one ``range(n)`` int pool) and accumulates
the fan-out delays by position within a column.  These tests hold both
to the plain construction they replace: every list must equal, by bit
pattern, the ``tolist()`` of the same numpy table, and the fan-out must
equal the sequential scalar chain.
"""

import numpy as np
import pytest

from repro.engine.protocol import (
    COMP_SHIFT,
    TokenLayout,
    coerce_design,
    edge_cost_tables,
    gather_cost_table,
    launch_times,
    solve_cost_table,
)
from repro.exec_model.artefacts import get_artefacts
from repro.exec_model.costmodel import Design
from repro.runtime.config import RunConfig
from repro.serve.request import build_workload
from repro.solvers import des_array
from repro.solvers.des_array import (
    _FANOUT_SCALAR_TAIL,
    _fanout_delays,
    _interned,
    compile_program,
)
from repro.sparse.csc import CscMatrix
from repro.workloads.generators import dag_profile_matrix

SERVE_STRUCTURES = {
    "grid": {"generator": "grid", "rows": 64, "cols": 64},
    "random": {"generator": "random", "n": 4096},
    "banded": {"generator": "banded", "n": 4096, "bandwidth": 3},
}
SCALE_50K = dict(
    n=50_000, n_levels=40, dependency=9.0, profile="uniform",
    locality=0.5, order_mix=0.3, scatter=0.0, seed=0,
)
CONFIGS = {
    "readonly": RunConfig(design="shmem_readonly"),
    "unified": RunConfig(design="unified"),
    "cluster": RunConfig(
        topology="cluster", n_nodes=2, gpus_per_node=4,
        distribution="hierarchical",
    ),
}


def _scalar_fanout(indptr, inc, dl):
    """The sequential chain the reference engine's producer runs."""
    indptr_l, inc_l, dl_l = indptr.tolist(), inc.tolist(), dl.tolist()
    n = len(indptr_l) - 1
    e_delay = [0.0] * len(inc_l)
    rel = [0.0] * n
    for i in range(n):
        uc = 0.0
        for e in range(indptr_l[i] + 1, indptr_l[i + 1]):
            uc += inc_l[e]
            e_delay[e] = uc + dl_l[e]
        rel[i] = uc
    return e_delay, rel


def _plain_tables(lower, dist, machine, design):
    """Every program list built with plain ``tolist()`` calls."""
    art = get_artefacts(lower)
    costs = art.comm_costs(machine, design)
    n, n_gpus = lower.shape[0], machine.n_gpus
    indptr, gpu_of = lower.indptr, dist.gpu_of
    in_counts = np.diff(art.dag.in_ptr)
    col_nnz = np.diff(indptr)
    col_of = np.repeat(np.arange(n, dtype=np.int64), col_nnz)
    src, dst = gpu_of[col_of], gpu_of[lower.indices]
    local = src == dst
    program = compile_program(lower, dist, machine, design)
    pair = src * n_gpus + dst
    tables = {
        "indptr_l": indptr.tolist(),
        "g_l": gpu_of.tolist(),
        "in_degree_l": art.dag.in_degree.tolist(),
        "in_counts_l": in_counts.tolist(),
        "gather_l": gather_cost_table(costs.gather, in_counts).tolist(),
        "solve_l": solve_cost_table(
            machine.gpu.t_per_nnz, col_nnz, in_counts
        ).tolist(),
        "idx_l": lower.indices.tolist(),
        "srcg_l": src.tolist(),
        "dstg_l": dst.tolist(),
        "spawn_code_l": TokenLayout.for_system(n, int(indptr[-1]))
        .spawn_codes(local)
        .tolist(),
        "elink_l": np.where(local, -1, program.pair_rid[pair]).tolist(),
        "ewire_l": np.where(local, 0.0, program.pair_wire[pair]).tolist(),
        "notify_l": costs.notify.tolist(),
    }
    if coerce_design(design) is Design.UNIFIED:
        tables["e_delay"] = tables["rel"] = None
    else:
        inc, dl = edge_cost_tables(costs, src, dst, local)
        tables["e_delay"], tables["rel"] = _scalar_fanout(indptr, inc, dl)
    spawn = launch_times(dist.n_tasks, machine.gpu.t_kernel_launch)[
        dist.task_of()
    ]
    order = np.argsort(spawn, kind="stable")
    uniq, starts = np.unique(spawn[order], return_index=True)
    codes = (order.astype(np.int64) << COMP_SHIFT).tolist()
    bounds = starts.tolist() + [n]
    tables["seed_times"] = uniq.tolist()
    tables["seed_codes"] = [
        codes[bounds[j] : bounds[j + 1]] for j in range(len(starts))
    ]
    return program, tables


def _bits(values):
    """Bit patterns of a (nested) list of Python scalars, with types."""
    if values and isinstance(values[0], list):
        return [_bits(v) for v in values]
    kinds = [type(v) for v in values]
    arr = np.asarray(values)
    if arr.dtype == np.float64:
        arr = arr.view(np.uint64)
    return kinds, arr.tolist()


def _program_lists(program):
    return {
        name: value
        for name, value in vars(program).items()
        if isinstance(value, list) or value is None
    }


def _assert_plain_equal(program, tables):
    lists = _program_lists(program)
    assert set(lists) == set(tables)
    for name, plain in tables.items():
        got = lists[name]
        if plain is None:
            assert got is None, name
        else:
            assert _bits(got) == _bits(plain), name


def _system(matrix, cfg):
    machine = cfg.resolve_machine()
    dist = cfg.build_distribution(
        matrix.shape[0], machine.n_gpus, lower=matrix
    )
    return matrix, dist, machine, cfg.design


class TestListsMatchPlainTolist:
    @pytest.mark.parametrize("cname", sorted(CONFIGS))
    @pytest.mark.parametrize("structure", sorted(SERVE_STRUCTURES))
    def test_serve_structures(self, structure, cname):
        matrix = build_workload(dict(SERVE_STRUCTURES[structure], seed=3))
        program, tables = _plain_tables(*_system(matrix, CONFIGS[cname]))
        _assert_plain_equal(program, tables)

    @pytest.mark.parametrize("cname", ("readonly", "cluster"))
    def test_scale_50k(self, cname):
        matrix = dag_profile_matrix(**SCALE_50K)
        program, tables = _plain_tables(*_system(matrix, CONFIGS[cname]))
        _assert_plain_equal(program, tables)


class TestSharing:
    @pytest.fixture(scope="class")
    def program(self):
        matrix = dag_profile_matrix(**{**SCALE_50K, "n": 8_000})
        return compile_program(*_system(matrix, CONFIGS["cluster"]))

    def test_ewire_holds_one_object_per_pair(self, program):
        n_pairs = int((program.pair_rid >= 0).sum())
        assert len(set(map(id, program.ewire_l))) <= n_pairs + 1
        assert len(set(map(id, program.elink_l))) <= n_pairs + 1

    @pytest.mark.parametrize(
        "name", ("gather_l", "solve_l", "rel", "e_delay")
    )
    def test_float_tables_hold_few_objects(self, program, name):
        values = getattr(program, name)
        distinct = len(set(np.asarray(values).view(np.uint64).tolist()))
        assert len(set(map(id, values))) <= max(distinct, 64)
        assert len(set(map(id, values))) * 10 < len(values)

    def test_indices_share_one_int_pool(self, program):
        n = program.layout.n
        pool = {}
        for v in program.idx_l:
            assert pool.setdefault(v, v) is v
        assert len(pool) <= n


class TestInterned:
    def test_keeps_signed_zeros_apart(self):
        values = np.array([0.0, -0.0, 0.0, -0.0, 1.5])
        got = _interned(values)
        assert np.asarray(got).view(np.uint64).tolist() == (
            values.view(np.uint64).tolist()
        )
        assert got[0] is got[2] and got[1] is got[3]
        assert got[0] is not got[1]

    def test_hash_collisions_keep_their_own_bits(self, monkeypatch):
        # Every value lands in one slot: all but the slot's first-seen
        # value must fall back to their own objects.
        monkeypatch.setattr(des_array, "_HASH_MUL", np.uint64(0))
        for values in (
            np.array([1.0, 2.0, -0.0, 0.0, 2.0, np.inf, np.nan]),
            np.array([0.0, -0.0, -0.0, 0.0]),  # equal values, other bits
        ):
            got = _interned(values)
            assert np.asarray(got).view(np.uint64).tolist() == (
                values.view(np.uint64).tolist()
            )
            assert all(type(v) is float for v in got)

    def test_empty(self):
        assert _interned(np.zeros(0)) == []


def _lower_from_columns(lengths, seed=0):
    """A unit-lower matrix whose column ``i`` has ``lengths[i]`` entries
    below the diagonal (each column's rows are its successors)."""
    n = len(lengths)
    indptr, indices = [0], []
    for i, k in enumerate(lengths):
        rows = list(range(i, min(n, i + 1 + k)))
        indices.extend(rows)
        indptr.append(len(indices))
    data = np.random.default_rng(seed).uniform(1.0, 2.0, len(indices))
    return CscMatrix(
        np.array(indptr), np.array(indices), data, (n, n)
    )


class TestVectorisedFanout:
    @pytest.mark.parametrize(
        "lengths",
        [
            [0] * 50,  # diagonal only
            [399] + [0] * 399,  # one very long column
            [3, 0, 200, 1, 0, 7, 45, 45, 2] * 30,  # mixed lengths
            [_FANOUT_SCALAR_TAIL + 5] * 80 + [600] + [1] * 600,
        ],
        ids=["diagonal", "one-long", "mixed", "tail"],
    )
    def test_matches_sequential_chain(self, lengths):
        lower = _lower_from_columns(lengths)
        nnz = int(lower.indptr[-1])
        rng = np.random.default_rng(len(lengths))
        # Awkward increments so every rounding step of the chain shows.
        inc = rng.uniform(0.0, 1e-6, nnz) * (1 + rng.uniform(0, 1e-3, nnz))
        dl = np.where(rng.random(nnz) < 0.5, 0.0, rng.uniform(0, 1e-6, nnz))
        delay, rel = _fanout_delays(
            lower.indptr, np.arange(lower.shape[0]), inc, dl
        )
        want_delay, want_rel = _scalar_fanout(lower.indptr, inc, dl)
        assert delay.view(np.uint64).tolist() == (
            np.asarray(want_delay).view(np.uint64).tolist()
        )
        assert rel.view(np.uint64).tolist() == (
            np.asarray(want_rel).view(np.uint64).tolist()
        )

    def test_subset_of_columns(self):
        lower = _lower_from_columns([5, 0, 80, 2, 9, 40] * 20)
        nnz = int(lower.indptr[-1])
        rng = np.random.default_rng(1)
        inc, dl = rng.uniform(0, 1e-6, nnz), rng.uniform(0, 1e-6, nnz)
        cols = np.arange(1, lower.shape[0], 3)
        delay, rel = _fanout_delays(lower.indptr, cols, inc, dl)
        want_delay, want_rel = _scalar_fanout(lower.indptr, inc, dl)
        for k, i in enumerate(cols.tolist()):
            assert rel[k] == want_rel[i]
            for e in range(lower.indptr[i] + 1, lower.indptr[i + 1]):
                assert delay[e] == want_delay[e]
        # Edges of columns outside ``cols`` are left at zero.
        mask = np.ones(nnz, dtype=bool)
        for i in cols.tolist():
            mask[lower.indptr[i] + 1 : lower.indptr[i + 1]] = False
        assert not delay[mask].any()
