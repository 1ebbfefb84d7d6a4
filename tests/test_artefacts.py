"""The shared analysis-artefact cache: build-once semantics and eviction."""

import gc

import numpy as np

from repro.exec_model import Design, simulate_execution
from repro.exec_model.artefacts import get_artefacts
from repro.machine.node import dgx1, dgx2
from repro.runtime.session import SolverSession
from repro.solvers.des_solver import DesSolver
from repro.tasks.schedule import block_distribution, round_robin_distribution
from repro.workloads.generators import dag_profile_matrix, random_lower


def test_sweep_builds_structure_once():
    """A designs x machines sweep derives each structure product once."""
    low = dag_profile_matrix(400, 20, 3.0, "uniform", 0.5, 0.3, 0.5, seed=11)
    art = get_artefacts(low)
    base_hits = art.hits
    machines = [dgx1(n_gpus=4), dgx2(n_gpus=4)]
    reports = []
    for machine in machines:
        dist = block_distribution(400, machine.n_gpus)
        for design in Design:
            reports.append(simulate_execution(low, dist, machine, design))
    assert len(reports) == 2 * len(Design)
    # Every simulate call hit the same bundle...
    assert get_artefacts(low) is art
    assert art.hits >= base_hits + 2 * len(Design)
    # ...and each structure product was built exactly once.
    assert art.build_counts["dag"] <= 1
    assert art.build_counts["levels"] == 1  # unified fault model only
    assert art.build_counts["fronts"] == 1
    assert art.build_counts["edges"] == 1
    # One placement (same gpu_of content on both machines), one cost
    # table per (machine, design) pair.
    assert art.build_counts["placements"] == 1
    assert art.build_counts["costs"] == 2 * len(Design)


def test_placement_cache_keyed_by_content():
    low = random_lower(200, 3.0, seed=1)
    art = get_artefacts(low)
    d1 = block_distribution(200, 4)
    d2 = block_distribution(200, 4)
    d3 = round_robin_distribution(200, 4, 4)
    p1 = art.placement(d1)
    assert art.placement(d2) is p1  # equal content, distinct objects
    assert art.placement(d3) is not p1


def test_cost_table_cache_requires_same_machine_object():
    low = random_lower(100, 3.0, seed=2)
    art = get_artefacts(low)
    m1 = dgx1(n_gpus=2)
    c1 = art.comm_costs(m1, Design.SHMEM_READONLY)
    assert art.comm_costs(m1, Design.SHMEM_READONLY) is c1
    assert art.comm_costs(m1, Design.SHMEM_NAIVE) is not c1


def test_bundle_evicted_with_matrix():
    from repro.exec_model import artefacts as mod

    low = random_lower(80, 3.0, seed=3)
    get_artefacts(low)
    key = id(low)
    assert key in mod._CACHE
    del low
    gc.collect()
    assert key not in mod._CACHE


def test_session_and_des_share_bundle():
    low = dag_profile_matrix(200, 10, 2.5, "uniform", 0.5, 0.3, 0.2, seed=5)
    art = get_artefacts(low)
    session = SolverSession(machine=dgx1(2), distribution="taskpool",
                            tasks_per_gpu=4)
    b = low.matvec(np.ones(200))
    for _ in range(2):
        res = session.solve(low, b)
        np.testing.assert_allclose(res.x, 1.0)
    assert session._artefacts is art
    solver = DesSolver(machine=dgx1(2))
    res = solver.solve(low, b)
    np.testing.assert_allclose(res.x, 1.0)
    # Neither the session nor the DES front end re-derived the DAG.
    assert art.build_counts["dag"] == 1


# ---------------------------------------------------------------------------
# SpillStore: context-managed spill lifecycle with an LRU byte budget
# ---------------------------------------------------------------------------
def _spill_fixture(n=32, seed=0):
    from repro.workloads.generators import forest_lower

    return forest_lower(n, seed=seed)


def test_spill_store_put_is_idempotent_per_key(tmp_path):
    from repro.exec_model.artefacts import SpillStore

    lower = _spill_fixture()
    with SpillStore(tmp_path / "spill") as store:
        p1 = store.put("k", lower)
        p2 = store.put("k", lower)
        assert p1 == p2 and p1.exists()
        assert store.spills == 1
        assert "k" in store and store.get("k") == p1


def test_spill_store_round_trips_bundle(tmp_path):
    from repro.exec_model.artefacts import SpillStore, load_artefacts

    lower = _spill_fixture()
    with SpillStore(tmp_path / "spill") as store:
        path = store.put("k", lower)
        loaded, bundle = load_artefacts(path)
        assert (loaded.indptr == lower.indptr).all()
        assert (loaded.data == lower.data).all()
        assert bundle.dag.n == lower.shape[0]


def test_spill_store_close_removes_files_and_owned_root():
    from repro.exec_model.artefacts import SpillStore

    lower = _spill_fixture()
    store = SpillStore()  # owns a tempdir
    path = store.put("k", lower)
    root = store.root
    assert path.exists()
    store.close()
    assert not path.exists()
    assert not root.exists()


def test_spill_store_byte_budget_evicts_lru(tmp_path):
    from repro.exec_model.artefacts import SpillStore

    matrices = [_spill_fixture(seed=s) for s in range(4)]
    probe = SpillStore(tmp_path / "probe")
    one = probe.put("probe", matrices[0]).stat().st_size
    probe.close()

    with SpillStore(
        tmp_path / "spill", byte_budget=int(2.5 * one)
    ) as store:
        for i, lower in enumerate(matrices):
            store.put(f"k{i}", lower)
        assert store.total_bytes <= int(2.5 * one)
        assert store.evictions >= 1
        # Oldest keys evicted, newest retained.
        assert "k3" in store
        assert "k0" not in store
        live = {p.name for p in (tmp_path / "spill").iterdir()}
        assert "k3.pkl" in live and "k0.pkl" not in live


def test_spill_store_get_refreshes_lru(tmp_path):
    from repro.exec_model.artefacts import SpillStore

    matrices = [_spill_fixture(seed=s) for s in range(3)]
    probe = SpillStore(tmp_path / "probe")
    one = probe.put("probe", matrices[0]).stat().st_size
    probe.close()

    with SpillStore(
        tmp_path / "spill", byte_budget=int(2.5 * one)
    ) as store:
        store.put("k0", matrices[0])
        store.put("k1", matrices[1])
        assert store.get("k0") is not None  # k0 now most-recently-used
        store.put("k2", matrices[2])        # must evict k1, not k0
        assert "k0" in store and "k1" not in store


def test_spill_store_long_session_footprint_is_bounded(tmp_path):
    """Regression: a long session must not grow the spill dir unboundedly."""
    from repro.exec_model.artefacts import SpillStore

    probe = SpillStore(tmp_path / "probe")
    one = probe.put("probe", _spill_fixture(seed=0)).stat().st_size
    probe.close()

    budget = int(3.2 * one)
    with SpillStore(tmp_path / "spill", byte_budget=budget) as store:
        for s in range(12):  # 12 distinct matrices through one store
            store.put(f"m{s}", _spill_fixture(seed=s))
            assert store.total_bytes <= budget
            on_disk = sum(
                p.stat().st_size for p in (tmp_path / "spill").iterdir()
            )
            assert on_disk <= budget
        assert store.spills == 12
        assert store.evictions == 12 - len(
            list((tmp_path / "spill").iterdir())
        )


def test_spill_store_single_oversized_bundle_is_kept(tmp_path):
    """The budget never evicts the entry just written (floor of one)."""
    from repro.exec_model.artefacts import SpillStore

    lower = _spill_fixture()
    with SpillStore(tmp_path / "spill", byte_budget=1) as store:
        path = store.put("big", lower)
        assert path.exists()
        assert "big" in store
