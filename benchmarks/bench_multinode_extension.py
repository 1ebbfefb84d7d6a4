"""Extension study: zero-copy SpTRSV across multiple nodes.

The paper targets a single node and leaves multi-node operation to
future work.  This bench extends the model: clusters of 4-GPU nodes
bridged by an InfiniBand-class fabric, comparing

* single-node DGX-2 vs a 2x2 cluster at equal GPU count (the cost of
  crossing the node boundary), and
* flat round-robin vs node-aware hierarchical placement on the cluster
  (recovering locality the flat task model loses).
"""

from conftest import once, publish

from repro.bench.harness import context, geomean
from repro.bench.report import format_table
from repro.exec_model.costmodel import Design
from repro.exec_model.timeline import simulate_execution
from repro.machine.multinode import cluster
from repro.machine.node import dgx2
from repro.tasks.hierarchical import hierarchical_distribution
from repro.tasks.schedule import round_robin_distribution

#: Scattered-dependency matrices (graphs) vs index-local ones (banded FEM).
SCATTERED = ("powersim", "Wordnet3", "roadNet-CA", "dc2")
LOCAL = ("chipcool0", "shipsec1", "pkustk14")
MATRICES = SCATTERED + LOCAL


def run_study():
    rows = []
    for name in MATRICES:
        ctx = context(name)
        n = ctx.lower.shape[0]

        single = simulate_execution(
            ctx.lower,
            round_robin_distribution(n, 4, tasks_per_gpu=8),
            dgx2(4),
            Design.SHMEM_READONLY,
        ).total_time

        machine = cluster(2, 2)  # 2 nodes x 2 GPUs = same 4 GPUs
        flat = simulate_execution(
            ctx.lower,
            round_robin_distribution(n, 4, tasks_per_gpu=8),
            machine,
            Design.SHMEM_READONLY,
        ).total_time
        hier = simulate_execution(
            ctx.lower,
            hierarchical_distribution(n, 2, 2, tasks_per_gpu=8, node_run=8),
            machine,
            Design.SHMEM_READONLY,
        ).total_time
        rows.append(
            [name, single / flat, single / hier, flat / hier]
        )
    rows.append(
        [
            "geomean",
            geomean(r[1] for r in rows),
            geomean(r[2] for r in rows),
            geomean(r[3] for r in rows),
        ]
    )
    return rows


def test_multinode_extension(benchmark):
    rows = once(benchmark, run_study)
    publish(
        "multinode",
        format_table(
            "Extension - 2x2 cluster vs single node (values are speedup "
            "relative to single-node DGX-2 = 1 / value)",
            ["matrix", "flat-vs-1node", "hier-vs-1node", "hier-vs-flat"],
            rows,
        ),
    )
    geo = rows[-1]
    by = {r[0]: r for r in rows}
    # Crossing the node boundary costs performance at equal GPU count.
    assert geo[1] < 1.0
    # Node-aware placement only pays where dependencies are index-local:
    # the hier-vs-flat ratio must be better on the banded FEM matrices
    # than on the scattered graph matrices, and >= breakeven on FEM.
    fem = geomean(by[n][3] for n in LOCAL)
    scat = geomean(by[n][3] for n in SCATTERED)
    assert fem > scat
    assert fem >= 0.99
