"""Artefact spill/load and the parallel DES engine sweep."""

import json

import numpy as np
import pytest

from repro.bench import dessweep
from repro.bench.dessweep import measure_des_case, run_des_sweep
from repro.exec_model.artefacts import (
    get_artefacts,
    load_artefacts,
    spill_artefacts,
)
from repro.workloads.generators import dag_profile_matrix

TINY = dict(
    n=250, n_levels=10, dependency=4.0, profile="uniform",
    locality=0.5, order_mix=0.3, scatter=0.0, seed=0,
)


def _tiny_matrix(seed=0):
    return dag_profile_matrix(**{**TINY, "seed": seed})


class TestSpillLoad:
    def test_round_trip_preserves_products(self, tmp_path):
        low = _tiny_matrix()
        art = get_artefacts(low)
        path = spill_artefacts(low, tmp_path / "bundle.pkl")
        low2, art2 = load_artefacts(path)
        assert low2 is not low  # fresh object in the loading process
        assert np.array_equal(low2.indptr, low.indptr)
        assert np.array_equal(low2.data, low.data)
        assert art2.dag.n == art.dag.n
        assert np.array_equal(art2.dag.in_degree, art.dag.in_degree)
        assert art2.levels.n_levels == art.levels.n_levels
        assert art2.fronts.n_fronts == art.fronts.n_fronts
        assert set(art2.edges) == set(art.edges)

    def test_loaded_bundle_never_rebuilds(self, tmp_path):
        low = _tiny_matrix(1)
        path = spill_artefacts(low, tmp_path / "b.pkl")
        _, art2 = load_artefacts(path)
        # Touch every spilled product: no build may be recorded.
        _ = art2.levels, art2.fronts, art2.edges
        assert art2.build_counts.get("dag", 0) == 0
        assert "levels" not in art2.build_counts
        assert "fronts" not in art2.build_counts
        assert "edges" not in art2.build_counts

    def test_loaded_bundle_registered_in_cache(self, tmp_path):
        low = _tiny_matrix(2)
        path = spill_artefacts(low, tmp_path / "c.pkl")
        low2, art2 = load_artefacts(path)
        assert get_artefacts(low2) is art2
        assert art2.hits == 1

    def test_subcaches_not_spilled(self, tmp_path):
        from repro.machine.node import dgx1
        from repro.tasks.schedule import block_distribution

        low = _tiny_matrix(3)
        art = get_artefacts(low)
        art.placement(block_distribution(low.shape[0], 2))
        art.comm_costs(dgx1(2), "shmem_readonly")
        path = spill_artefacts(low, tmp_path / "d.pkl")
        _, art2 = load_artefacts(path)
        # Machine identity and placement keys are process-local.
        assert not art2._placements
        assert not art2._costs


class TestMeasureCase:
    def test_single_case_in_process(self, tmp_path):
        low = _tiny_matrix(4)
        path = spill_artefacts(low, tmp_path / "case.pkl")
        res = measure_des_case(
            "tiny", str(path), n_gpus=2, repeats=1
        )
        assert res["identical"] is True
        assert res["verified"] == "trace"
        assert res["analysis_shared"] is True
        assert res["n"] == TINY["n"]
        assert res["events"] > 0
        assert res["t_reference"] > 0 and res["t_array"] > 0
        assert res["events_per_sec_array"] > 0
        assert res["enforce_floor"] is False  # tiny: below MEDIUM_N
        # Compile and drain are timed apart; t_array is their sum.
        assert res["compile_first_s"] > 0 and res["compile_s"] > 0
        assert res["drain_s"] > 0
        assert res["t_array"] == res["compile_s"] + res["drain_s"]
        assert res["drain_events_per_sec"] == res["events"] / res["drain_s"]

    def test_large_case_skips_reference_and_checks_repeat(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(dessweep, "SKIP_REFERENCE_N", 100)
        low = _tiny_matrix(5)
        path = spill_artefacts(low, tmp_path / "case.pkl")
        res = measure_des_case("tiny", str(path), n_gpus=2, repeats=1)
        assert res["t_reference"] is None and res["speedup"] is None
        assert res["t_array"] > 0
        assert res["identical"] is True
        assert res["verified"] == "repeat"

    def test_repeat_row_raises_on_out_of_order_record(
        self, tmp_path, monkeypatch
    ):
        from repro.errors import SimulationError

        monkeypatch.setattr(dessweep, "SKIP_REFERENCE_N", 100)
        real = dessweep.execute_array

        def reversed_record(*args, **kwargs):
            record = real(*args, **kwargs)
            record.ops.reverse()  # every add before its source solves
            return record

        monkeypatch.setattr(dessweep, "execute_array", reversed_record)
        path = spill_artefacts(_tiny_matrix(5), tmp_path / "case.pkl")
        with pytest.raises(SimulationError, match="dependency order"):
            measure_des_case("tiny", str(path), n_gpus=2, repeats=1)


class TestScalingFlatness:
    @staticmethod
    def _row(name, rate):
        return {"name": name, "drain_events_per_sec": rate}

    def test_absent_without_both_rows(self):
        small, large = dessweep.FLATNESS_CASES
        assert dessweep._scaling_flatness([]) is None
        assert dessweep._scaling_flatness([self._row(small, 1e6)]) is None
        assert dessweep._scaling_flatness([self._row(large, 1e6)]) is None

    @pytest.mark.parametrize(
        "large_rate, met", [(0.8e6, True), (1.2e6, True), (0.79e6, False)]
    )
    def test_large_drain_rate_against_the_floor(self, large_rate, met):
        small, large = dessweep.FLATNESS_CASES
        gate = dessweep._scaling_flatness(
            [self._row(small, 1e6), self._row(large, large_rate)]
        )
        assert gate["floor"] == dessweep.FLATNESS_FLOOR == 0.8
        assert gate["ratio"] == pytest.approx(large_rate / 1e6)
        assert gate["met"] is met


class TestFlatnessPair:
    def test_pair_drains_alternate_in_one_process(self, tmp_path):
        spills = {
            name: str(spill_artefacts(_tiny_matrix(k), tmp_path / f"{k}.pkl"))
            for k, name in enumerate(("tiny-small", "tiny-large"))
        }
        rows = dessweep.measure_flatness_pair(spills, n_gpus=2, repeats=3)
        assert [r["name"] for r in rows] == ["tiny-small", "tiny-large"]
        for r in rows:
            assert len(r["drain_times"]) == 3
            assert r["events"] > 0 and r["identical"] is True
            assert r["drain_events_per_sec"] == pytest.approx(
                r["events"] / min(r["drain_times"])
            )

    def test_sweep_gate_reads_the_paired_drains(self, monkeypatch):
        cases = {"tiny-a": TINY, "tiny-b": {**TINY, "n": 300, "seed": 1}}
        monkeypatch.setattr(dessweep, "FLATNESS_CASES", tuple(cases))
        payload = run_des_sweep(cases=cases, repeats=2, jobs=1)
        gate = payload["scaling_flatness"]
        assert (gate["small"], gate["large"]) == tuple(cases)
        times = gate["drain_times"]
        assert [len(times[c]) for c in cases] == [2, 2]
        rows = {c["name"]: c for c in payload["cases"]}
        rates = [rows[c]["events"] / min(times[c]) for c in cases]
        assert gate["ratio"] == pytest.approx(rates[1] / rates[0])
        assert payload["all_identical"] is True


class TestScaleOutCase:
    @pytest.mark.parametrize("record_level", [False, True])
    def test_row_checks_reference_against_array(self, tmp_path, record_level):
        low = _tiny_matrix(6)
        path = spill_artefacts(low, tmp_path / "so.pkl")
        config = dessweep._scaleout_config(
            {"n_nodes": 2, "gpus_per_node": 2, "node_run": 4},
            dessweep.Design.SHMEM_READONLY,
        )
        row = dessweep.measure_scaleout_case(
            "tiny-2x2", str(path), config, record_level=record_level
        )
        assert row["identical"] is True
        assert row["verified"] == ("trace" if record_level else "counters")
        assert row["n_gpus"] == 4 and row["analysis_shared"] is True
        assert row["flat"]["events"] > 0 and row["hierarchical"]["events"] > 0


class TestSweep:
    def test_parallel_sweep_smoke(self):
        cases = {
            "tiny-a": TINY,
            "tiny-b": {**TINY, "n": 300, "seed": 1},
        }
        payload = run_des_sweep(cases=cases, repeats=1, jobs=2)
        assert [c["name"] for c in payload["cases"]] == ["tiny-a", "tiny-b"]
        assert payload["all_identical"] is True
        assert payload["analysis_shared"] is True
        assert payload["floor_misses"] == []
        assert payload["acceptance"] is None  # no scale-50k in this table
        assert payload["scaling_flatness"] is None  # nor scale-1M
        assert payload["pass"] is True
        for c in payload["cases"]:
            assert c["t_array"] > 0
        json.dumps(payload)  # BENCH_des.json payload must be serialisable

    def test_quick_selection_excludes_acceptance_case(self):
        quick = set(dessweep.QUICK_CASES)
        assert dessweep.ACCEPTANCE_CASE not in quick
        # --quick never runs the flatness pair, so the gate stays off.
        assert not set(dessweep.FLATNESS_CASES) & quick
        assert quick <= set(dessweep.DES_CASES)

    def test_acceptance_case_matches_fastmodel_config(self):
        from repro.bench.fastmodel import SCALING_CASES

        assert (
            dessweep.DES_CASES[dessweep.ACCEPTANCE_CASE]
            == SCALING_CASES["scale-50k"]
        )
