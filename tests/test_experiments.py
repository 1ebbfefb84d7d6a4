"""Experiment-driver tests: figure semantics on a reduced matrix set.

Full-suite runs live in ``benchmarks/``; these tests check that each
driver computes the right *kind* of numbers (normalisation anchors,
required keys, directional properties) quickly.
"""

import numpy as np
import pytest

from repro.bench.experiments import (
    FIG3_NAMES,
    FIG10_NAMES,
    run_fig3,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10a,
    run_fig10b,
    run_table1,
)
from repro.bench.harness import context, geomean, run_cusparse, run_design
from repro.bench.report import format_series_table, format_table, format_table1
from repro.exec_model.artefacts import get_artefacts
from repro.exec_model.costmodel import Design
from repro.machine.node import dgx1

SMALL_SET = ("powersim", "dc2")


class TestHarness:
    def test_context_cached(self):
        assert context("powersim") is context("powersim")

    def test_context_contents(self):
        ctx = context("powersim")
        assert ctx.lower.shape[0] == 15_838
        levels = get_artefacts(ctx.lower).levels
        assert levels.n_levels == ctx.profile.n_levels == 24

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert np.isnan(geomean([]))
        with pytest.raises(ValueError):
            geomean([0.0, 1.0])

    def test_run_design_block_vs_tasks(self):
        ctx = context("powersim")
        m = dgx1(4)
        block = run_design(ctx, m, Design.SHMEM_READONLY)
        tasks = run_design(ctx, m, Design.SHMEM_READONLY, tasks_per_gpu=8)
        assert block.n_tasks == 4
        assert tasks.n_tasks == 32

    def test_run_cusparse(self):
        rep = run_cusparse(context("powersim"))
        assert rep.design == "cusparse_csrsv2"
        assert rep.n_gpus == 1
        assert rep.analysis_time > 0


class TestTable1:
    def test_all_rows(self):
        rows = run_table1()
        assert len(rows) == 16
        names = [r["name"] for r in rows]
        assert "twitter7" in names

    def test_in_memory_only(self):
        assert len(run_table1(include_out_of_memory=False)) == 14

    def test_row_contents(self):
        row = next(r for r in run_table1() if r["name"] == "powersim")
        assert row["n_rows"] == 15_838
        assert row["paper_n_levels"] == 24
        assert row["parallelism"] == pytest.approx(
            row["n_rows"] / row["n_levels"]
        )

    def test_formatting(self):
        text = format_table1(run_table1())
        assert "powersim" in text and "paper-par" in text


class TestFig3:
    def test_normalisation_anchor(self):
        r = run_fig3(gpu_counts=(2, 4), names=("dc2",))
        assert r["dc2"][2]["faults_norm"] == pytest.approx(1.0)
        assert r["dc2"][2]["time_norm"] == pytest.approx(1.0)

    def test_faults_and_time_grow(self):
        r = run_fig3(gpu_counts=(2, 4, 8), names=FIG3_NAMES)
        for name in FIG3_NAMES:
            assert r[name][4]["faults_norm"] > 1.0
            assert r[name][8]["faults_norm"] > r[name][4]["faults_norm"]
            assert r[name][8]["time_norm"] > 1.0


class TestFig7:
    def test_keys_and_anchor(self):
        r = run_fig7(names=SMALL_SET)
        for name in SMALL_SET:
            assert r[name]["unified"] == 1.0
            assert set(r[name]) == {"unified", "unified+task", "shmem", "zerocopy"}
        assert "average" in r

    def test_zerocopy_beats_unified(self):
        r = run_fig7(names=SMALL_SET)
        for name in SMALL_SET:
            assert r[name]["zerocopy"] > 1.0

    def test_zerocopy_beats_plain_shmem_on_parallel_matrices(self):
        r = run_fig7(names=("dc2", "Wordnet3"))
        for name in ("dc2", "Wordnet3"):
            assert r[name]["zerocopy"] > r[name]["shmem"]


class TestFig8:
    def test_series_and_anchor(self):
        r = run_fig8(names=SMALL_SET)
        for name in SMALL_SET:
            assert r[name]["dgx1-unified"] == 1.0
            assert r[name]["dgx1-zerocopy"] > 1.0
            assert r[name]["dgx2-zerocopy"] > 1.0

    def test_dgx2_comparable_to_dgx1(self):
        """Paper: similar speedups on both platforms (3.53x vs 3.66x)."""
        r = run_fig8(names=SMALL_SET)
        for name in SMALL_SET:
            ratio = r[name]["dgx2-zerocopy"] / r[name]["dgx1-zerocopy"]
            assert 0.5 < ratio < 2.0


class TestFig9:
    def test_anchor_at_baseline_tasks(self):
        r = run_fig9(names=SMALL_SET, task_counts=(4, 8, 16))
        for name in SMALL_SET:
            assert r[name][4] == pytest.approx(1.0)

    def test_finer_tasks_help_initially(self):
        r = run_fig9(names=("dc2",), task_counts=(4, 8, 16))
        # dc2 is one of the matrices that peaks early (8 tasks/GPU).
        assert r["dc2"][8] > 1.0
        assert r["dc2"][8] > r["dc2"][16]

    def test_very_fine_tasks_degrade(self):
        r = run_fig9(names=SMALL_SET, task_counts=(4, 16, 64))
        for name in SMALL_SET:
            assert r[name][64] < r[name][16] * 1.3


class TestFig10:
    def test_fig10a_beats_cusparse(self):
        r = run_fig10a(gpu_counts=(1, 4), names=("dc2",))
        assert r["dc2"][1] > 1.0
        assert r["dc2"][4] > r["dc2"][1]

    def test_fig10a_rejects_5_gpus(self):
        """NVSHMEM on DGX-1 caps at the 4-GPU clique."""
        from repro.errors import TopologyError

        with pytest.raises(TopologyError):
            run_fig10a(gpu_counts=(5,), names=("dc2",))

    def test_fig10b_runs_to_16(self):
        r = run_fig10b(gpu_counts=(1, 16), names=("dc2",))
        assert r["dc2"][16] > 0

    def test_serial_bound_matrix_prefers_one_gpu(self):
        r = run_fig10a(gpu_counts=(1, 4), names=("chipcool0",))
        assert r["chipcool0"][1] >= r["chipcool0"][4] * 0.9


class TestReportFormatting:
    def test_format_table(self):
        text = format_table("T", ["name", "v"], [["a", 1.5]])
        assert "T" in text and "a" in text and "1.500" in text

    def test_format_series_table_moves_average_last(self):
        data = {"average": {"s": 2.0}, "m1": {"s": 1.0}}
        text = format_series_table("T", data, series=["s"])
        lines = text.splitlines()
        assert lines[-1].startswith("average")
