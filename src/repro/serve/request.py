"""Request/response vocabulary of the solve service.

A :class:`SolveRequest` is one tenant's solve: a workload (a named
generator spec, or an in-process matrix), a right-hand side, a
:class:`~repro.runtime.config.RunConfig`, a wall-clock deadline, and a
degradation consent flag.  :meth:`SolveRequest.from_mapping` is the wire
surface (the TCP front-end and the CLIs parse JSON into it), with every
unknown key raising a typed
:class:`~repro.errors.ConfigurationError` — same contract as the
``RunConfig`` JSON surface it embeds.

:func:`repro.workloads.cache.fingerprint` is the content hash behind
cross-tenant artefact sharing, worker-side caches, and circuit-breaker
keys: two requests naming the same structure and values share one
spilled analysis bundle no matter which tenant sent them first.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import ConfigurationError
from repro.runtime.config import RunConfig
from repro.sparse.csc import CscMatrix

__all__ = [
    "GENERATORS",
    "SolveRequest",
    "ServiceResult",
    "build_workload",
]


def _generators() -> dict:
    from repro.workloads.generators import (
        banded_lower,
        forest_lower,
        grid_graph_lower,
        random_lower,
        tridiagonal_lower,
    )

    return {
        "forest": forest_lower,
        "tridiagonal": tridiagonal_lower,
        "banded": banded_lower,
        "random": random_lower,
        "grid": grid_graph_lower,
    }


#: Workload generator names accepted on the wire.
GENERATORS = ("forest", "tridiagonal", "banded", "random", "grid")


def build_workload(spec: dict) -> CscMatrix:
    """Materialise a workload spec: ``{"generator": name, **kwargs}``.

    The kwargs pass straight to the named generator (``n``, ``seed``,
    ``bandwidth``, ``rows``/``cols``, ...); an unknown generator raises
    a typed error listing the choices.
    """
    if "generator" not in spec:
        raise ConfigurationError(
            "workload spec needs a 'generator' key",
            parameter="workload",
            value=spec,
        )
    name = spec["generator"]
    table = _generators()
    if name not in table:
        raise ConfigurationError(
            f"unknown workload generator {name!r}; valid choices: "
            + ", ".join(GENERATORS),
            parameter="workload",
            value=name,
            choices=GENERATORS,
        )
    kwargs = {k: v for k, v in spec.items() if k != "generator"}
    try:
        return table[name](**kwargs)
    except TypeError as err:
        raise ConfigurationError(
            f"bad arguments for workload generator {name!r}: {err}",
            parameter="workload",
            value=spec,
        ) from None


def workload_key(spec: dict) -> str:
    """Deterministic cache key of a workload spec."""
    return "|".join(f"{k}={spec[k]}" for k in sorted(spec))


@dataclass(frozen=True)
class SolveRequest:
    """One tenant solve request.

    Exactly one of ``workload`` (generator spec) / ``matrix``
    (in-process operand) must be set.  ``rhs`` is either
    ``{"seed": int}`` (uniform [-1, 1), the chaos harness's convention)
    or ``{"values": [...]}``.  ``deadline`` is a wall-clock budget in
    seconds (``None`` uses the service default); ``allow_degraded``
    consents to the degradation ladder — without it the service fails
    requests instead of shedding precision.
    """

    config: RunConfig = field(default_factory=RunConfig)
    workload: dict | None = None
    matrix: CscMatrix | None = None
    rhs: dict = field(default_factory=lambda: {"seed": 0})
    deadline: float | None = None
    allow_degraded: bool = True
    request_id: str = ""

    def __post_init__(self):
        if (self.workload is None) == (self.matrix is None):
            raise ConfigurationError(
                "exactly one of 'workload' / 'matrix' must be given",
                parameter="workload",
                value=self.workload,
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigurationError(
                f"deadline must be > 0, got {self.deadline}",
                parameter="deadline",
                value=self.deadline,
            )
        if not ("seed" in self.rhs or "values" in self.rhs):
            raise ConfigurationError(
                "rhs must carry 'seed' or 'values'",
                parameter="rhs",
                value=self.rhs,
            )

    @classmethod
    def from_mapping(cls, mapping: dict) -> "SolveRequest":
        """Parse one wire request (unknown keys are typed errors)."""
        known = {
            "config",
            "workload",
            "rhs",
            "deadline",
            "allow_degraded",
            "id",
        }
        extra = set(mapping) - known
        if extra:
            raise ConfigurationError(
                f"unknown request key(s): {sorted(extra)}; valid keys: "
                + ", ".join(sorted(known)),
                parameter="request",
                value=sorted(extra),
                choices=tuple(sorted(known)),
            )
        config = mapping.get("config", {})
        if not isinstance(config, RunConfig):
            config = RunConfig.from_mapping(dict(config))
        return cls(
            config=config,
            workload=mapping.get("workload"),
            rhs=dict(mapping.get("rhs", {"seed": 0})),
            deadline=mapping.get("deadline"),
            allow_degraded=bool(mapping.get("allow_degraded", True)),
            request_id=str(mapping.get("id", "")),
        )

    def with_config(self, **overrides) -> "SolveRequest":
        return replace(self, config=replace(self.config, **overrides))

    def resolve_rhs(self, n: int) -> np.ndarray:
        """The right-hand side vector for an ``n``-row system."""
        if "values" in self.rhs:
            b = np.asarray(self.rhs["values"], dtype=np.float64)
            if b.shape != (n,):
                raise ConfigurationError(
                    f"rhs has {b.shape[0] if b.ndim == 1 else b.shape} "
                    f"values for an n={n} system",
                    parameter="rhs",
                    value=b.shape,
                )
            return b
        rng = np.random.default_rng(int(self.rhs["seed"]))
        return rng.uniform(-1.0, 1.0, size=n)


@dataclass
class ServiceResult:
    """One served response.

    ``status`` is ``"ok"`` (exact solve, bitwise-reproducible) or
    ``"degraded"`` (the ladder shed precision: ``mode`` names the rung,
    ``certified`` reports whether the result carries a residual
    certificate below ``ceiling``).  ``repaired`` counts the components
    the residual check replayed (0 for a clean solve and for an
    ESTIMATE answer).  Errors are never encoded here —
    they surface as typed :class:`~repro.errors.ServiceError` /
    :class:`~repro.errors.ReproError` raises (or their wire mapping in
    the TCP front-end).
    """

    request_id: str
    status: str
    mode: str
    x: np.ndarray | None = None
    residual: float = 0.0
    certified: bool = False
    ceiling: float = 0.0
    events: int = 0
    total_time: float = 0.0
    repaired: int = 0
    estimate: dict | None = None
    attempts: int = 1
    latency: float = 0.0
    degraded_from: str = ""

    def to_mapping(self) -> dict:
        """JSON-able response payload (the TCP wire format)."""
        out = {
            "id": self.request_id,
            "status": self.status,
            "mode": self.mode,
            "residual": self.residual,
            "certified": self.certified,
            "ceiling": self.ceiling,
            "events": self.events,
            "total_time": self.total_time,
            "repaired": self.repaired,
            "attempts": self.attempts,
            "latency": self.latency,
        }
        if self.x is not None:
            out["x"] = [float(v) for v in self.x]
        if self.estimate is not None:
            out["estimate"] = self.estimate
        if self.degraded_from:
            out["degraded_from"] = self.degraded_from
        return out
