"""Correctness tooling: conformance oracles and schedule causality checks.

Two independent audits gate every solver in the package:

* the **conformance matrix** (:mod:`repro.verify.registry`,
  :mod:`repro.verify.oracles`) — every concrete
  :class:`~repro.solvers.base.TriangularSolver` is auto-discovered and
  run through a differential oracle plus metamorphic relations over the
  workload generators;
* the **causality checker** (:mod:`repro.verify.causality`) — a race
  detector for both simulation tiers, replaying DES traces and captured
  fast-model schedules against dependency order, warp-slot capacity,
  and link topology.

``tools/verify_solvers.py`` drives both from the command line;
``tests/test_conformance.py`` wires them into pytest.
"""

from repro.verify.causality import (
    CausalityReport,
    Violation,
    check_des_execution,
    check_des_trace,
    check_timeline_schedule,
    validate_captured_schedule,
)
from repro.verify.oracles import (
    ConformanceReport,
    Finding,
    RELATIONS,
    default_generators,
    quick_generators,
    random_topological_permutation,
    run_conformance,
)
from repro.verify.registry import (
    ConformanceCase,
    ConformanceRegistry,
    default_registry,
    discover_solver_classes,
)

__all__ = [
    "CausalityReport",
    "Violation",
    "check_des_execution",
    "check_des_trace",
    "check_timeline_schedule",
    "validate_captured_schedule",
    "ConformanceReport",
    "Finding",
    "default_generators",
    "quick_generators",
    "random_topological_permutation",
    "run_conformance",
    "ConformanceCase",
    "ConformanceRegistry",
    "default_registry",
    "discover_solver_classes",
]
