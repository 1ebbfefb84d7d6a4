"""The graceful-degradation ladder: shed precision before requests.

Steiner et al.'s elastic/stale-synchronous reading of SpTRSV (arXiv
2607.02324, encoded as our ``stale_sync`` design in PR 7) is exactly a
*controlled-degradation knob*: accept bounded staleness, keep making
progress, certify the result after the fact.  The service generalises
that into a ladder of modes, each strictly cheaper / more fault-tolerant
than the one above, each with a defined result contract:

====================  =====================================================
rung                  contract
====================  =====================================================
``exact``             the configured pipeline, bitwise-reproducible
``stale``             ``stale_sync`` overlay with the ladder's certified
                      residual ceiling: the validation pass replays every
                      above-ceiling stale read, so the response carries
                      ``residual <= ceiling`` or a typed error
``estimate``          no solve at all — the fast model's priced
                      :class:`~repro.exec_model.timeline.ExecutionReport`
                      (the admission oracle) returned as an estimate-only
                      response
====================  =====================================================

The service walks the ladder downward on structural failures (tripped
breakers, exhausted recovery) and jumps straight to ``estimate`` under
queue pressure — requests are shed (typed
:class:`~repro.errors.ServiceOverloadError`) only when even
estimate-serving capacity is gone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from repro.exec_model.costmodel import Design
from repro.runtime.config import RunConfig

__all__ = ["DegradeMode", "DegradationLadder", "LADDER"]


class DegradeMode(str, Enum):
    """The ladder's rungs, in strictly decreasing fidelity."""

    EXACT = "exact"
    STALE = "stale"
    ESTIMATE = "estimate"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Ladder order, top (full fidelity) to bottom (estimate-only).
LADDER = (
    DegradeMode.EXACT,
    DegradeMode.STALE,
    DegradeMode.ESTIMATE,
)


@dataclass(frozen=True)
class DegradationLadder:
    """Mode-selection policy plus the config surgery for each rung.

    Attributes
    ----------
    stale_k / stale_ceiling:
        The :class:`~repro.engine.protocol.StalePolicy` knobs of the
        ``stale`` rung.  The ceiling doubles as the rung's *certified
        residual ceiling*: a degraded-stale response is certified iff
        its backward error is at or below it.
    """

    stale_k: int = 2
    stale_ceiling: float = 1e-8

    # ------------------------------------------------------------------
    def applicable(self, mode: DegradeMode, config: RunConfig) -> bool:
        """Can ``config`` be degraded onto ``mode``'s rung at all?"""
        if mode is DegradeMode.EXACT or mode is DegradeMode.ESTIMATE:
            return True
        if mode is DegradeMode.STALE:
            # Staleness is an overlay of the read-only NVSHMEM design;
            # a config already running stale (or on a design with
            # different memory semantics) skips this rung.
            return config.design is Design.SHMEM_READONLY
        return False  # pragma: no cover - exhaustive enum

    def next_mode(
        self, mode: DegradeMode, config: RunConfig
    ) -> DegradeMode | None:
        """First applicable rung strictly below ``mode`` (None at floor)."""
        idx = LADDER.index(DegradeMode(mode))
        for candidate in LADDER[idx + 1 :]:
            if self.applicable(candidate, config):
                return candidate
        return None

    # ------------------------------------------------------------------
    def derive_config(
        self, config: RunConfig, mode: DegradeMode
    ) -> RunConfig:
        """The rung's executable config (``estimate`` needs no surgery:
        the service answers it from the admission estimate and never
        dispatches it to a worker)."""
        mode = DegradeMode(mode)
        if mode is DegradeMode.STALE:
            return replace(
                config,
                design=Design.STALE_SYNC,
                stale_k=self.stale_k,
                stale_ceiling=self.stale_ceiling,
            )
        return config

    def certified_ceiling(self, mode: DegradeMode) -> float:
        """Residual ceiling a degraded result must certify against."""
        return self.stale_ceiling if DegradeMode(mode) is DegradeMode.STALE else 0.0
