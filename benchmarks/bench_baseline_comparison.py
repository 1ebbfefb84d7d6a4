"""Baseline round-up: every single-GPU method vs the multi-GPU zero-copy.

One table across representative matrices comparing all the solvers the
literature would bring to this problem — the paper's csrsv2 baseline,
the level-set scheduler it wraps, Liu et al.'s warp-level sync-free
kernel, CapelliniSpTRSV's thread-level variant, Lu et al.'s supernodal
blocks — against the paper's 4-GPU zero-copy design.

Shape assertions encode the literature's established ordering: sync-free
beats level-set on level-rich matrices; blocked wins only where
supernodes exist; the multi-GPU design beats every single-GPU method on
the high-parallelism matrices.
"""

from conftest import once, publish

from repro.bench.harness import context, run_cusparse, run_design
from repro.bench.report import format_table
from repro.exec_model.artefacts import get_artefacts
from repro.exec_model.costmodel import Design
from repro.machine.node import dgx1
from repro.solvers.blocked import BlockedSolver
from repro.solvers.levelset import level_schedule_time
from repro.solvers.threadlevel import thread_level_schedule
from repro.tasks.schedule import block_distribution
from repro.exec_model.timeline import simulate_execution
from repro.workloads.rhs import ones_rhs

MATRICES = ("chipcool0", "powersim", "dc2", "Wordnet3", "shipsec1")


def run_study():
    m1 = dgx1(1)
    m4 = dgx1(4)
    rows = []
    for name in MATRICES:
        ctx = context(name)
        n = ctx.lower.shape[0]
        t_csrsv2 = run_cusparse(ctx).total_time
        t_levelset = level_schedule_time(
            ctx.lower, get_artefacts(ctx.lower).levels, m1
        ).total_time
        t_syncfree = simulate_execution(
            ctx.lower,
            block_distribution(n, 1),
            m1,
            Design.SHMEM_READONLY,
        ).total_time
        t_thread = thread_level_schedule(ctx.lower, m1).total_time
        t_blocked = (
            BlockedSolver(machine=m1, max_block=16)
            .solve(ctx.lower, ones_rhs(n))
            .report.total_time
        )
        t_zero = run_design(
            ctx, m4, Design.SHMEM_READONLY, tasks_per_gpu=8
        ).total_time
        base = t_csrsv2
        rows.append(
            [
                name,
                1.0,
                base / t_levelset,
                base / t_syncfree,
                base / t_thread,
                base / t_blocked,
                base / t_zero,
            ]
        )
    return rows


def test_baseline_comparison(benchmark):
    rows = once(benchmark, run_study)
    publish(
        "baselines",
        format_table(
            "Baseline round-up - speedup over cusparse_csrsv2 (1 GPU unless "
            "noted)",
            ["matrix", "csrsv2", "levelset", "syncfree", "threadlvl",
             "blocked", "zerocopy-4gpu"],
            rows,
            col_width=14,
        ),
    )
    by = {r[0]: r for r in rows}
    for name in MATRICES:
        r = by[name]
        # Sync-free beats the two level-scheduled methods everywhere
        # (no per-level barriers) — Liu et al.'s core result.
        assert r[3] > r[1] and r[3] > r[2], name
        # The multi-GPU zero-copy design beats every *warp-mapped*
        # single-GPU method on scalable matrices.
        if name in ("dc2", "powersim", "Wordnet3"):
            assert r[6] > max(r[1], r[2], r[3], r[5]), name
    # CapelliniSpTRSV's crossover: the thread-level mapping wins on
    # short-row matrices and loses on long-row FEM factors.
    for name in ("dc2", "powersim", "Wordnet3"):
        assert by[name][4] > by[name][3], name  # thread > warp sync-free
    for name in ("chipcool0", "shipsec1"):
        assert by[name][4] < by[name][3], name  # warp wins on long rows
    # Blocking pays on the FEM matrix with real supernodal structure
    # relative to its own level-set scalar baseline.
    assert by["shipsec1"][5] > by["shipsec1"][1]
