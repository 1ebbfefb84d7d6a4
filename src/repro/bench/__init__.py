"""Benchmark harness: experiment drivers for every table/figure + reporting."""

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
from repro.bench.dessweep import measure_des_case, run_des_sweep
from repro.bench.fastmodel import measure_case, run_sweep
from repro.bench.loadgen import run_bench, run_case
from repro.bench.harness import (
    MatrixContext,
    context,
    geomean,
    run_cusparse,
    run_design,
)
from repro.bench.report import format_series_table, format_table, format_table1
from repro.bench.stats import SpeedupStats, replicate, replicated_speedups
from repro.bench.timeline_report import solve_timeline, utilisation_bars

__all__ = [
    "FIG3_NAMES",
    "FIG10_NAMES",
    "run_table1",
    "run_fig3",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_fig10a",
    "run_fig10b",
    "MatrixContext",
    "context",
    "run_design",
    "run_cusparse",
    "geomean",
    "format_table",
    "format_series_table",
    "format_table1",
    "utilisation_bars",
    "solve_timeline",
    "SpeedupStats",
    "replicate",
    "replicated_speedups",
    "measure_case",
    "run_sweep",
    "measure_des_case",
    "run_des_sweep",
    "run_case",
    "run_bench",
]
