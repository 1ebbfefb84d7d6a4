"""SpTRSV solver implementations: reference, baselines, and the paper's designs."""

from repro.solvers.backward import BackwardSolver, anti_transpose
from repro.solvers.base import SolveResult, TriangularSolver, validate_system
from repro.solvers.blocked import (
    BlockedLower,
    BlockedSolver,
    blocked_forward,
    detect_supernodes,
)
from repro.solvers.cusparse import CusparseCsrsv2Solver
from repro.solvers.des_solver import DesExecution, DesSolver, des_execute
from repro.solvers.levelset import LevelSetSolver, level_schedule_time, levelset_forward
from repro.solvers.numerics import (
    emulate_shmem_solve,
    emulate_unified_solve,
    interleaved_order,
    random_level_order,
)
from repro.solvers.mixedprec import MixedPrecisionSolver
from repro.solvers.multirhs import solve_multi_rhs
from repro.solvers.nvshmem import NaiveShmemSolver, ShmemSolver
from repro.solvers.serial import SerialSolver, serial_backward, serial_forward
from repro.solvers.syncfree import SyncFreeSolver
from repro.solvers.threadlevel import ThreadLevelSolver, thread_level_schedule
from repro.solvers.unified import UnifiedMemorySolver
from repro.solvers.zerocopy import ZeroCopySolver

__all__ = [
    "SolveResult",
    "TriangularSolver",
    "validate_system",
    "SerialSolver",
    "serial_forward",
    "serial_backward",
    "LevelSetSolver",
    "levelset_forward",
    "level_schedule_time",
    "CusparseCsrsv2Solver",
    "DesSolver",
    "DesExecution",
    "des_execute",
    "SyncFreeSolver",
    "ThreadLevelSolver",
    "thread_level_schedule",
    "UnifiedMemorySolver",
    "ShmemSolver",
    "NaiveShmemSolver",
    "ZeroCopySolver",
    "BackwardSolver",
    "anti_transpose",
    "BlockedSolver",
    "BlockedLower",
    "blocked_forward",
    "detect_supernodes",
    "solve_multi_rhs",
    "MixedPrecisionSolver",
    "emulate_unified_solve",
    "emulate_shmem_solve",
    "interleaved_order",
    "random_level_order",
]
