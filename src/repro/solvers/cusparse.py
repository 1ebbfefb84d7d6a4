"""Model of cuSPARSE ``csrsv2`` — the paper's single-GPU baseline (Fig. 10).

``csrsv2`` is a level-scheduled solver: ``csrsv2_analysis`` builds the
level structure (an expensive pre-pass over the matrix), then
``csrsv2_solve`` sweeps the levels with a synchronisation between
consecutive levels.  We model it as :class:`~repro.solvers.levelset`
with a heavier analysis factor (cuSPARSE's analysis does a full symbolic
traversal plus workspace setup) and a slightly larger inter-level
synchronisation cost (stream-ordered event waits rather than in-kernel
barriers).

Numerically it is the same level-set sweep and is validated against the
serial reference like every other solver.
"""

from __future__ import annotations

from repro.exec_model.artefacts import get_artefacts
from repro.machine.node import MachineConfig, dgx1
from repro.solvers.base import SolveResult, TriangularSolver, validate_system
from repro.solvers.levelset import level_schedule_time, levelset_forward
from repro.sparse.csc import CscMatrix

__all__ = ["CusparseCsrsv2Solver"]


class CusparseCsrsv2Solver(TriangularSolver):
    """The ``cusparse_csrsv2()`` reference point of the scalability study.

    Parameters
    ----------
    machine:
        Node config; only the GPU spec matters (single-GPU kernel).
    analysis_factor:
        Multiplier on the level-analysis cost relative to a plain
        dependency count.  cuSPARSE's analysis phase is routinely
        reported at 5-20x the solve cost on level-rich matrices; the
        default of 6.0 sits in that band.
    """

    name = "cusparse-csrsv2"

    def __init__(
        self,
        machine: MachineConfig | None = None,
        analysis_factor: float = 6.0,
    ):
        self.machine = machine if machine is not None else dgx1(1)
        if analysis_factor <= 0:
            raise ValueError("analysis_factor must be positive")
        self.analysis_factor = analysis_factor

    def solve(self, lower: CscMatrix, b: np.ndarray) -> SolveResult:
        b = validate_system(lower, b)
        levels = get_artefacts(lower).levels
        x = levelset_forward(lower, b, levels)
        report = level_schedule_time(
            lower,
            levels,
            self.machine,
            analysis_factor=self.analysis_factor,
            design="cusparse_csrsv2",
        )
        return SolveResult(x=x, report=report, solver=self.name)
