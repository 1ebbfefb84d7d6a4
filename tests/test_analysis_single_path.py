"""One analysis path: every consumer takes its DAG and level sets from the
artefact cache.

The structure analysis is paid once per matrix in
:mod:`repro.exec_model.artefacts`; everything else reads the bundle.  A
static guard keeps new ``build_dag`` / ``compute_levels`` calls out of
the consumer layers, a second keeps ``levels`` / ``dag`` parameters out
of the solvers, and a counting patch shows that repeating a solve or a
bench scenario on the same matrix re-derives nothing.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis.dag import build_dag
from repro.analysis.levels import compute_levels
from repro.bench.harness import context, run_cusparse, run_design
from repro.exec_model.costmodel import Design
from repro.machine.node import dgx1
from repro.solvers.backward import anti_transpose
from repro.verify.registry import default_registry
from repro.workloads.generators import dag_profile_matrix

SRC = Path(repro.__file__).resolve().parent
ANALYSIS_CALLS = {"build_dag", "compute_levels"}
#: Where the analysis may run: the layer that defines it, the cache that
#: owns it, and the oracles that re-derive it independently on purpose.
ALLOWED = ("analysis/", "exec_model/artefacts.py", "verify/")
#: Parameter names that would hand a solver an analysis product.
ANALYSIS_PARAMS = {"levels", "dag"}


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def test_consumers_never_run_the_analysis_themselves():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith(ALLOWED):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node) in ANALYSIS_CALLS:
                offenders.append(f"repro/{rel}:{node.lineno}")
            if isinstance(node, ast.ImportFrom):
                offenders.extend(
                    f"repro/{rel}:{node.lineno} (aliased import)"
                    for alias in node.names
                    if alias.name in ANALYSIS_CALLS and alias.asname
                )
    assert offenders == [], (
        "take the DAG / level sets from get_artefacts(lower) instead: "
        + ", ".join(offenders)
    )


def test_solvers_take_no_analysis_products():
    """Only the numeric emulations accept level sets: tests feed them
    forged ones to show that the counter protocol rejects a premature
    schedule.  Every other solver function reads the bundle."""
    offenders = []
    for path in sorted((SRC / "solvers").glob("*.py")):
        if path.name == "numerics.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            offenders.extend(
                f"repro/solvers/{path.name}:{node.lineno} ({name})"
                for name in names
                if name in ANALYSIS_PARAMS
            )
    assert offenders == [], (
        "take the DAG / level sets from get_artefacts(lower) instead: "
        + ", ".join(offenders)
    )


@pytest.fixture
def analysis_calls(monkeypatch):
    """Count every build_dag / compute_levels call, wherever it is bound."""
    calls: list[str] = []
    originals = {"build_dag": build_dag, "compute_levels": compute_levels}

    def counting(name):
        original = originals[name]

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    wrappers = {name: counting(name) for name in originals}
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("repro"):
            continue
        for name, original in originals.items():
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrappers[name])
    return calls


FORWARD_CASES = [c for c in default_registry() if c.kind == "forward"]
BACKWARD_CASES = [default_registry().get("backward-zerocopy")]


@pytest.mark.parametrize(
    "case", FORWARD_CASES + BACKWARD_CASES, ids=lambda c: c.name
)
def test_second_solve_rebuilds_nothing(case, analysis_calls):
    lower = dag_profile_matrix(240, 12, 2.5, "uniform", 0.5, 0.3, 0.3, seed=3)
    mat = anti_transpose(lower) if case.kind == "backward" else lower
    b = mat.matvec(np.ones(mat.shape[0]))
    solver = case.factory()
    first = solver.solve(mat, b)
    built = len(analysis_calls)
    second = solver.solve(mat, b)
    assert analysis_calls[built:] == []
    assert np.array_equal(first.x, second.x)


def test_second_run_design_rebuilds_nothing(analysis_calls):
    ctx = context("shipsec1")
    machine = dgx1(4)
    run_design(ctx, machine, Design.SHMEM_READONLY, tasks_per_gpu=8)
    run_cusparse(ctx)
    built = len(analysis_calls)
    for design in Design:
        run_design(ctx, machine, design)
    run_design(ctx, machine, Design.SHMEM_READONLY, warp_reduce=False)
    run_cusparse(ctx)
    assert analysis_calls[built:] == []


def test_context_builds_each_dag_once(analysis_calls, monkeypatch):
    from repro.bench import harness
    from repro.workloads import suite

    # Bypass both memos so the matrix and its bundle are new.
    monkeypatch.setattr(suite, "load", suite.load.__wrapped__)
    ctx = harness.context.__wrapped__("shipsec1")
    assert analysis_calls.count("build_dag") == 1
    assert analysis_calls.count("compute_levels") == 1
    assert ctx.profile.n_levels > 0


def test_analyse_efficiency_reuses_the_level_sets(analysis_calls):
    from repro.exec_model.artefacts import get_artefacts
    from repro.exec_model.efficiency import analyse_efficiency
    from repro.exec_model.timeline import simulate_execution
    from repro.tasks.schedule import block_distribution

    lower = dag_profile_matrix(240, 12, 2.5, "uniform", 0.5, 0.3, 0.3, seed=5)
    machine = dgx1(4)
    report = simulate_execution(
        lower, block_distribution(lower.shape[0], 4), machine
    )
    get_artefacts(lower).levels
    built = len(analysis_calls)
    effs = [analyse_efficiency(lower, machine, report) for _ in range(3)]
    assert analysis_calls[built:] == []
    assert len({e.chain_bound for e in effs}) == 1
