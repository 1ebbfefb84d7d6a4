"""One analysis path: every consumer takes its DAG and level sets from the
artefact cache.

The structure analysis is paid once per matrix in
:mod:`repro.exec_model.artefacts`; everything else reads the bundle.  A
static guard keeps new ``build_dag`` / ``compute_levels`` calls out of
the consumer layers, and a counting patch shows that repeating a solve
or a bench scenario on the same matrix re-derives nothing.
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
from repro.verify.registry import default_registry
from repro.workloads.generators import dag_profile_matrix

SRC = Path(repro.__file__).resolve().parent
ANALYSIS_CALLS = {"build_dag", "compute_levels"}
#: Where the analysis may run: the layer that defines it, the cache that
#: owns it, and the oracles that re-derive it independently on purpose.
ALLOWED = ("analysis/", "exec_model/artefacts.py", "verify/")


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


@pytest.mark.parametrize("case", FORWARD_CASES, ids=lambda c: c.name)
def test_second_solve_rebuilds_nothing(case, analysis_calls):
    lower = dag_profile_matrix(240, 12, 2.5, "uniform", 0.5, 0.3, 0.3, seed=3)
    b = lower.matvec(np.ones(lower.shape[0]))
    solver = case.factory()
    first = solver.solve(lower, b)
    built = len(analysis_calls)
    second = solver.solve(lower, b)
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
