"""Declarative run configuration for the execution facade.

A :class:`RunConfig` captures every knob of one SpTRSV execution
pipeline — design, machine shape, task distribution, fault plan,
recovery policy, watchdog, and trace sink — as one frozen,
validated value.  It is the single argument of
:class:`repro.runtime.session.SolverSession` and the JSON surface of the
``tools/sweep.py --config`` / ``tools/chaos.py --config`` CLIs
(:meth:`RunConfig.from_mapping` / :meth:`RunConfig.from_json`).

Every unknown key or out-of-domain value raises a typed
:class:`~repro.errors.ConfigurationError` naming the parameter and the
valid choices — no bare ``ValueError`` / ``KeyError`` paths.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields

from repro.engine.protocol import StalePolicy, coerce_design
from repro.errors import ConfigurationError
from repro.exec_model.costmodel import Design
from repro.tasks.schedule import VALID_DISTRIBUTIONS

__all__ = [
    "RunConfig",
    "VALID_DISTRIBUTIONS",
    "VALID_TOPOLOGIES",
    "load_run_config",
]

#: Machine families ``RunConfig(topology=...)`` can build without a live
#: machine object: the two paper platforms plus the multi-node cluster
#: (NVSwitch islands joined by the InfiniBand tier).
VALID_TOPOLOGIES = ("dgx1", "dgx2", "cluster")

#: Design aliases accepted on the JSON surface, matching the chaos
#: harness's vocabulary (``zerocopy`` is the read-only NVSHMEM design).
_DESIGN_ALIASES = {"zerocopy": Design.SHMEM_READONLY}


def _choice(parameter: str, value, choices: tuple) -> None:
    if value not in choices:
        raise ConfigurationError(
            f"unknown {parameter} {value!r}; valid choices: "
            + ", ".join(str(c) for c in choices),
            parameter=parameter,
            value=value,
            choices=choices,
        )


@dataclass(frozen=True)
class RunConfig:
    """One validated execution configuration.

    Attributes
    ----------
    design:
        Communication design (:class:`~repro.exec_model.costmodel.Design`
        or its string value; the alias ``"zerocopy"`` maps to
        ``shmem_readonly``).
    machine:
        Explicit :class:`~repro.machine.node.MachineConfig`; ``None``
        builds the machine named by ``topology`` lazily (a
        ``dgx1(n_gpus)`` node by default).
    n_gpus:
        GPU count for the default machine (ignored when ``machine`` is
        given; derived as ``n_nodes * gpus_per_node`` when the node
        axis is set).
    topology:
        Machine family to build when no live ``machine`` is given:
        ``"dgx1"`` (the default), ``"dgx2"``, or ``"cluster"`` —
        NVSwitch islands joined by the InfiniBand tier, which requires
        the node axis below.
    n_nodes / gpus_per_node:
        The node axis of a ``"cluster"`` topology (both or neither).
        Setting it makes scale a config knob: ``n_gpus`` is forced to
        ``n_nodes * gpus_per_node`` (an explicit conflicting ``n_gpus``
        is a typed error).
    distribution:
        Task distribution: ``"block"`` (contiguous), ``"taskpool"``
        (round-robin, ``tasks_per_gpu`` pools per rank),
        ``"costaware"`` (greedy LPT over per-task solve+gather+edge
        cost; needs the matrix, so :meth:`build_distribution` must be
        given ``lower``), or ``"hierarchical"`` (node-aware two-level
        round-robin; needs the node axis).
    node_run:
        Locality knob of the ``"hierarchical"`` distribution: how many
        consecutive tasks stay on one node before the deal moves to the
        next (see
        :func:`~repro.tasks.hierarchical.hierarchical_distribution`).
        ``None`` uses the policy default (``2 * gpus_per_node``);
        setting it with any other distribution raises
        :class:`~repro.errors.ConfigurationError`.
    tasks_per_gpu:
        Pool count per rank for the ``taskpool`` / ``costaware``
        distributions.  ``None`` (the default) uses each policy's
        canonical granularity: 2 for ``taskpool``, 1 for ``costaware``
        (its cost-balanced boundaries already encode the imbalance).
    stale_k / stale_ceiling:
        Staleness-bound and backward-error ceiling for the
        ``stale_sync`` design (see
        :class:`~repro.engine.protocol.StalePolicy`).  Leaving both
        ``None`` uses the design's default policy; setting either with
        a non-stale design raises
        :class:`~repro.errors.ConfigurationError`.
    plan:
        Optional :class:`~repro.resilience.faults.FaultPlan` materialised
        per solve.
    recovery:
        Optional :class:`~repro.resilience.recovery.RecoveryPolicy`;
        ``None`` means the default policy for faulted runs.
    watchdog_stall_horizon / watchdog_wall_limit:
        When either is set, each solve carries a fresh
        :class:`~repro.resilience.watchdog.Watchdog` with these bounds
        (a watchdog is single-run state, so the config stores the knobs,
        not the instance).  The watchdog guards event drains only.  From
        its second :meth:`~repro.runtime.session.SolverSession.solve` of
        a matrix on, a session replays its first solve's drain record
        instead of draining, and a replay polls no watchdog: it advances
        no clock and always finishes in one pass over the record.  So a
        wall limit can end a session's first solve of a matrix (and any
        ``execute``), never a later one, and the stall horizon, which
        the recorded drain already passed, would pass again.
    trace_enabled:
        Record the full DES trace stream (disable for throughput runs).
        No solve observable depends on it.  The solve service drops
        it: :meth:`~repro.serve.service.SolveService.submit` sets it to
        ``False`` at intake, so served requests run untraced and two
        requests differing only here share one cache and breaker key.
    """

    design: Design | str = Design.SHMEM_READONLY
    machine: object | None = None
    n_gpus: int = 4
    topology: str | None = None
    n_nodes: int | None = None
    gpus_per_node: int | None = None
    distribution: str = "block"
    tasks_per_gpu: int | None = None
    node_run: int | None = None
    stale_k: int | None = None
    stale_ceiling: float | None = None
    plan: object | None = None
    recovery: object | None = None
    watchdog_stall_horizon: float | None = None
    watchdog_wall_limit: float | None = None
    trace_enabled: bool = True

    def __post_init__(self):
        design = self.design
        if isinstance(design, str) and design in _DESIGN_ALIASES:
            design = _DESIGN_ALIASES[design]
        object.__setattr__(self, "design", coerce_design(design))
        _choice("distribution", self.distribution, VALID_DISTRIBUTIONS)
        if self.n_gpus < 1:
            raise ConfigurationError(
                f"n_gpus must be >= 1, got {self.n_gpus}",
                parameter="n_gpus",
                value=self.n_gpus,
            )
        self._validate_node_axis()
        if self.tasks_per_gpu is not None and self.tasks_per_gpu < 1:
            raise ConfigurationError(
                f"tasks_per_gpu must be >= 1, got {self.tasks_per_gpu}",
                parameter="tasks_per_gpu",
                value=self.tasks_per_gpu,
            )
        # Validate the stale knobs eagerly so a bad config fails at
        # construction, not mid-solve.
        self.build_stale_policy()

    def _validate_node_axis(self) -> None:
        """Coherence of the scale-out knobs (topology / node axis)."""
        if self.topology is not None:
            _choice("topology", self.topology, VALID_TOPOLOGIES)
        if (self.n_nodes is None) != (self.gpus_per_node is None):
            raise ConfigurationError(
                "the node axis needs both n_nodes and gpus_per_node "
                f"(got n_nodes={self.n_nodes}, "
                f"gpus_per_node={self.gpus_per_node})",
                parameter="n_nodes",
                value=(self.n_nodes, self.gpus_per_node),
            )
        if self.n_nodes is not None:
            if self.n_nodes < 1 or self.gpus_per_node < 1:
                raise ConfigurationError(
                    f"node axis must be >= 1x1, got "
                    f"{self.n_nodes}x{self.gpus_per_node}",
                    parameter="n_nodes",
                    value=(self.n_nodes, self.gpus_per_node),
                )
            if self.topology in ("dgx1", "dgx2"):
                raise ConfigurationError(
                    f"topology {self.topology!r} is a single node; the "
                    "node axis requires topology='cluster'",
                    parameter="topology",
                    value=self.topology,
                )
            derived = self.n_nodes * self.gpus_per_node
            if self.n_gpus not in (4, derived):
                # 4 is the field default, silently superseded by the
                # node axis; any other explicit value must agree.
                raise ConfigurationError(
                    f"n_gpus={self.n_gpus} conflicts with the node axis "
                    f"{self.n_nodes}x{self.gpus_per_node} "
                    f"(= {derived} GPUs)",
                    parameter="n_gpus",
                    value=self.n_gpus,
                )
            object.__setattr__(self, "n_gpus", derived)
            if self.machine is not None and self.machine.n_gpus != derived:
                raise ConfigurationError(
                    f"machine has {self.machine.n_gpus} GPUs but the "
                    f"node axis is {self.n_nodes}x{self.gpus_per_node}",
                    parameter="machine",
                    value=self.machine,
                )
        elif self.topology == "cluster":
            raise ConfigurationError(
                "topology 'cluster' needs the node axis; pass n_nodes= "
                "and gpus_per_node=",
                parameter="topology",
                value=self.topology,
            )
        if self.node_run is not None:
            if self.distribution != "hierarchical":
                raise ConfigurationError(
                    "node_run is the hierarchical locality knob; "
                    f"distribution {self.distribution!r} does not "
                    "accept it",
                    parameter="node_run",
                    value=self.node_run,
                )
            if self.node_run < 1:
                raise ConfigurationError(
                    f"node_run must be >= 1, got {self.node_run}",
                    parameter="node_run",
                    value=self.node_run,
                )
        if self.distribution == "hierarchical" and self.n_nodes is None:
            shape = (
                getattr(self.machine.topology, "node_shape", None)
                if self.machine is not None
                else None
            )
            if shape is None:
                raise ConfigurationError(
                    "distribution 'hierarchical' places along the node "
                    "axis; pass n_nodes= and gpus_per_node= (or a "
                    "mesh-built machine)",
                    parameter="distribution",
                    value=self.distribution,
                )

    # ------------------------------------------------------------ builders
    def resolve_machine(self):
        """The configured machine, building the named topology on demand."""
        if self.machine is not None:
            return self.machine
        if self.n_nodes is not None:
            from repro.machine.multinode import cluster

            return cluster(self.n_nodes, self.gpus_per_node)
        if self.topology == "dgx2":
            from repro.machine.node import dgx2

            return dgx2(self.n_gpus)
        from repro.machine.node import dgx1

        return dgx1(self.n_gpus)

    def machine_shape(self) -> tuple[str, int, int]:
        """``(topology_name, n_nodes, gpus_per_node)`` of the machine.

        The serialisable shape of the fabric — what
        :meth:`canonical_mapping` hashes so service-layer artefact
        fingerprints distinguish topologies (a 2x4 cluster is not a
        1x8 island, even though both run 8 ranks).  Live machines
        report their topology's ``node_shape`` when mesh-built and
        ``(1, n_gpus)`` otherwise.
        """
        if self.machine is not None:
            topo = self.machine.topology
            shape = getattr(topo, "node_shape", None)
            if shape is None:
                shape = (1, self.machine.n_gpus)
            return (topo.name, int(shape[0]), int(shape[1]))
        if self.n_nodes is not None:
            return (
                f"cluster-{self.n_nodes}x{self.gpus_per_node}",
                self.n_nodes,
                self.gpus_per_node,
            )
        if self.topology == "dgx2":
            return ("DGX-2", 1, self.n_gpus)
        return ("DGX-1", 1, self.n_gpus)

    @property
    def effective_n_gpus(self) -> int:
        """Rank count of the resolved machine (without building it)."""
        if self.machine is not None:
            return self.machine.n_gpus
        return self.n_gpus

    def build_stale_policy(self) -> StalePolicy | None:
        """The :class:`~repro.engine.protocol.StalePolicy` implied by the
        ``stale_k`` / ``stale_ceiling`` knobs, or ``None`` when the
        design is not ``stale_sync``.

        Setting either knob with a non-stale design raises
        :class:`~repro.errors.ConfigurationError`, mirroring
        :func:`~repro.engine.protocol.resolve_stale_policy`.
        """
        from repro.engine.protocol import resolve_stale_policy

        stale = None
        if self.stale_k is not None or self.stale_ceiling is not None:
            defaults = StalePolicy()
            stale = StalePolicy(
                k=self.stale_k if self.stale_k is not None else defaults.k,
                ceiling=(
                    self.stale_ceiling
                    if self.stale_ceiling is not None
                    else defaults.ceiling
                ),
            )
        return resolve_stale_policy(self.design, stale)

    def build_distribution(self, n: int, n_gpus: int, *, lower=None):
        """Materialise the configured distribution for an ``n``-component
        system on ``n_gpus`` ranks.

        The ``costaware`` policy prices tasks from the matrix, so the
        caller must pass the ``lower`` triangular operand; the machine
        and design come from the config itself.
        """
        from repro.tasks.schedule import build_distribution

        machine = None
        if self.distribution in ("costaware", "hierarchical"):
            machine = self.resolve_machine()
        return build_distribution(
            self.distribution,
            n,
            n_gpus,
            tasks_per_gpu=self.tasks_per_gpu,
            lower=lower,
            machine=machine,
            design=self.design,
            n_nodes=self.n_nodes,
            gpus_per_node=self.gpus_per_node,
            node_run=self.node_run,
        )

    def build_watchdog(self):
        """A fresh per-run watchdog, or ``None`` when neither bound is set."""
        if (
            self.watchdog_stall_horizon is None
            and self.watchdog_wall_limit is None
        ):
            return None
        from repro.resilience.watchdog import Watchdog

        horizon = self.watchdog_stall_horizon
        return Watchdog(
            stall_horizon=horizon if horizon is not None else 1.0,
            wall_limit=self.watchdog_wall_limit,
        )

    # -------------------------------------------------------- serialisation
    @classmethod
    def from_mapping(cls, mapping: dict) -> "RunConfig":
        """Build a config from a plain mapping (the ``--config`` surface).

        Scalar keys mirror the dataclass fields.  ``recovery`` accepts a
        mapping of :class:`RecoveryPolicy` fields, ``plan`` a mapping
        ``{"seed": ..., "specs": [{"kind": ..., ...}, ...]}``, and
        ``watchdog`` a mapping with ``stall_horizon`` / ``wall_limit``.
        Unknown keys at any level raise
        :class:`~repro.errors.ConfigurationError`.
        """
        known = {f.name for f in fields(cls)}
        kwargs: dict = {}
        shape = None
        for key, value in mapping.items():
            if key == "machine_shape":
                shape = _validate_machine_shape(value)
            elif key == "recovery" and isinstance(value, dict):
                kwargs["recovery"] = _recovery_from_mapping(value)
            elif key == "plan" and isinstance(value, dict):
                kwargs["plan"] = _plan_from_mapping(value)
            elif key == "watchdog" and isinstance(value, dict):
                extra = set(value) - {"stall_horizon", "wall_limit"}
                if extra:
                    raise ConfigurationError(
                        f"unknown watchdog key(s): {sorted(extra)}",
                        parameter="watchdog",
                        value=sorted(extra),
                    )
                kwargs["watchdog_stall_horizon"] = value.get("stall_horizon")
                kwargs["watchdog_wall_limit"] = value.get("wall_limit")
            elif key in known:
                kwargs[key] = value
            else:
                valid = known | {"watchdog", "machine_shape"}
                raise ConfigurationError(
                    f"unknown RunConfig key {key!r}; valid keys: "
                    + ", ".join(sorted(valid)),
                    parameter=key,
                    value=value,
                    choices=tuple(sorted(valid)),
                )
        if shape is not None:
            _apply_machine_shape(shape, kwargs)
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        """Parse a JSON object into a config (see :meth:`from_mapping`)."""
        try:
            mapping = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigurationError(
                f"--config is not valid JSON: {err}", parameter="config"
            ) from None
        if not isinstance(mapping, dict):
            raise ConfigurationError(
                "--config must be a JSON object of RunConfig keys",
                parameter="config",
                value=mapping,
            )
        return cls.from_mapping(mapping)

    def to_mapping(self) -> dict:
        """Round-trippable plain mapping (the ``--config`` JSON surface).

        ``plan`` and ``recovery`` are emitted in the exact nested shapes
        :meth:`from_mapping` accepts, so
        ``RunConfig.from_mapping(cfg.to_mapping())`` reproduces every
        semantic knob — and therefore the same :meth:`fingerprint`.
        A live ``machine`` object is not emitted directly; its shape is
        (the ``machine_shape`` key, see :meth:`machine_shape`), so the
        round trip rebuilds an equivalent fabric for the cluster and
        DGX families and keeps the fingerprint stable.
        """
        out: dict = {
            "design": self.design.value,
            "n_gpus": self.effective_n_gpus,
            "distribution": self.distribution,
            "trace_enabled": self.trace_enabled,
        }
        if self.topology is not None:
            out["topology"] = self.topology
        if self.n_nodes is not None:
            out["n_nodes"] = self.n_nodes
            out["gpus_per_node"] = self.gpus_per_node
        if self.node_run is not None:
            out["node_run"] = self.node_run
        if self.machine is not None:
            out["machine_shape"] = list(self.machine_shape())
        if self.tasks_per_gpu is not None:
            out["tasks_per_gpu"] = self.tasks_per_gpu
        if self.stale_k is not None:
            out["stale_k"] = self.stale_k
        if self.stale_ceiling is not None:
            out["stale_ceiling"] = self.stale_ceiling
        if self.watchdog_stall_horizon is not None:
            out.setdefault("watchdog", {})[
                "stall_horizon"
            ] = self.watchdog_stall_horizon
        if self.watchdog_wall_limit is not None:
            out.setdefault("watchdog", {})[
                "wall_limit"
            ] = self.watchdog_wall_limit
        if self.plan is not None:
            specs = []
            for spec in self.plan.specs:
                row = {"kind": spec.kind.value}
                # Elide per-field defaults (keeps t_end's infinity out
                # of the JSON surface unless explicitly set).
                for f in fields(spec):
                    value = getattr(spec, f.name)
                    if f.name != "kind" and value != f.default:
                        row[f.name] = value
                specs.append(row)
            out["plan"] = {"seed": self.plan.seed, "specs": specs}
        if self.recovery is not None:
            out["recovery"] = {
                f.name: getattr(self.recovery, f.name)
                for f in fields(self.recovery)
            }
        return out

    # --------------------------------------------------------------- hashing
    def canonical_mapping(self) -> dict:
        """Exhaustive, deterministic mapping of every knob that changes
        execution semantics — the input of :meth:`fingerprint`.

        Unlike :meth:`to_mapping` (the human-facing JSON surface, which
        elides defaults and non-JSON objects), this mapping includes the
        fault plan, the recovery policy, and the machine shape, all
        reduced to plain sortable values, so two configs hash equal
        exactly when every semantic knob is equal.
        """
        plan = None
        if self.plan is not None:
            specs = []
            for spec in getattr(self.plan, "specs", ()):
                row = {}
                for f in fields(spec):
                    v = getattr(spec, f.name)
                    row[f.name] = getattr(v, "value", v)
                specs.append(row)
            plan = {"seed": getattr(self.plan, "seed", 0), "specs": specs}
        recovery = None
        if self.recovery is not None:
            recovery = {
                f.name: getattr(self.recovery, f.name)
                for f in fields(self.recovery)
            }
        return {
            "design": self.design.value,
            "machine": list(self.machine_shape()),
            "n_gpus": self.effective_n_gpus,
            "distribution": self.distribution,
            "tasks_per_gpu": self.tasks_per_gpu,
            "node_run": self.node_run,
            "stale_k": self.stale_k,
            "stale_ceiling": self.stale_ceiling,
            "plan": plan,
            "recovery": recovery,
            "watchdog_stall_horizon": self.watchdog_stall_horizon,
            "watchdog_wall_limit": self.watchdog_wall_limit,
            "trace_enabled": self.trace_enabled,
        }

    def fingerprint(self) -> str:
        """Stable hex digest of :meth:`canonical_mapping`.

        The hash path behind service-layer artefact sharing and
        circuit-breaker keys: equal configs (however constructed —
        directly, via :meth:`from_mapping`, or round-tripped through
        JSON) produce equal fingerprints, and any semantic difference —
        including fault-plan and ``stale_k`` fields — changes it.
        """
        blob = json.dumps(
            self.canonical_mapping(), sort_keys=True, default=str
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def load_run_config(source: str | None) -> RunConfig:
    """Resolve a CLI ``--config`` argument to a :class:`RunConfig`.

    ``None`` yields the default config; ``@path`` reads a JSON file;
    anything else is parsed as an inline JSON object.  All failure modes
    raise :class:`~repro.errors.ConfigurationError`.
    """
    if source is None:
        return RunConfig()
    if source.startswith("@"):
        try:
            with open(source[1:], "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as err:
            raise ConfigurationError(
                f"cannot read --config file {source[1:]!r}: {err}",
                parameter="config",
                value=source,
            ) from None
    return RunConfig.from_json(source)


def _validate_machine_shape(value) -> tuple[str, int, int]:
    """Validate a ``machine_shape`` entry: ``[name, n_nodes, gpus_per_node]``."""
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 3
        or not isinstance(value[0], str)
    ):
        raise ConfigurationError(
            "machine_shape must be [topology_name, n_nodes, gpus_per_node], "
            f"got {value!r}",
            parameter="machine_shape",
            value=value,
        )
    name, n_nodes, gpus_per_node = value[0], int(value[1]), int(value[2])
    if n_nodes < 1 or gpus_per_node < 1:
        raise ConfigurationError(
            f"machine_shape axis must be >= 1x1, got {value!r}",
            parameter="machine_shape",
            value=value,
        )
    return name, n_nodes, gpus_per_node


def _apply_machine_shape(shape: tuple[str, int, int], kwargs: dict) -> None:
    """Fold a ``machine_shape`` entry into the config kwargs.

    Cluster shapes reconstruct the node axis (and therefore an
    equivalent fabric via :meth:`RunConfig.resolve_machine`); DGX shapes
    select the topology family.  Explicit keys win, but a conflicting
    explicit node axis is a typed error rather than a silent override.
    """
    name, n_nodes, gpus_per_node = shape
    if name.startswith("cluster-"):
        for key, value in (("n_nodes", n_nodes), ("gpus_per_node", gpus_per_node)):
            if key in kwargs and kwargs[key] != value:
                raise ConfigurationError(
                    f"machine_shape {list(shape)!r} conflicts with "
                    f"{key}={kwargs[key]}",
                    parameter="machine_shape",
                    value=list(shape),
                )
            kwargs[key] = value
        kwargs.setdefault("topology", "cluster")
    elif name == "DGX-2":
        kwargs.setdefault("topology", "dgx2")
        kwargs.setdefault("n_gpus", n_nodes * gpus_per_node)
    else:
        # DGX-1 / unknown single-node fabrics: the default family.
        kwargs.setdefault("n_gpus", n_nodes * gpus_per_node)


def _recovery_from_mapping(mapping: dict):
    from repro.resilience.recovery import RecoveryPolicy

    valid = {f.name for f in fields(RecoveryPolicy)}
    extra = set(mapping) - valid
    if extra:
        raise ConfigurationError(
            f"unknown RecoveryPolicy key(s): {sorted(extra)}; valid keys: "
            + ", ".join(sorted(valid)),
            parameter="recovery",
            value=sorted(extra),
            choices=tuple(sorted(valid)),
        )
    return RecoveryPolicy(**mapping)


def _plan_from_mapping(mapping: dict):
    from repro.resilience.faults import FaultKind, FaultPlan, FaultSpec

    extra = set(mapping) - {"seed", "specs"}
    if extra:
        raise ConfigurationError(
            f"unknown FaultPlan key(s): {sorted(extra)}; valid keys: "
            "seed, specs",
            parameter="plan",
            value=sorted(extra),
        )
    spec_fields = {f.name for f in fields(FaultSpec)}
    specs = []
    for raw in mapping.get("specs", ()):
        if "kind" not in raw:
            raise ConfigurationError(
                "every fault spec needs a 'kind'",
                parameter="plan",
                value=raw,
            )
        bad = set(raw) - spec_fields
        if bad:
            raise ConfigurationError(
                f"unknown FaultSpec key(s): {sorted(bad)}; valid keys: "
                + ", ".join(sorted(spec_fields)),
                parameter="plan",
                value=sorted(bad),
                choices=tuple(sorted(spec_fields)),
            )
        try:
            kind = FaultKind(raw["kind"])
        except ValueError:
            raise ConfigurationError(
                f"unknown fault kind {raw['kind']!r}; valid choices: "
                + ", ".join(k.value for k in FaultKind),
                parameter="plan",
                value=raw["kind"],
                choices=tuple(k.value for k in FaultKind),
            ) from None
        specs.append(FaultSpec(**{**raw, "kind": kind}))
    return FaultPlan(seed=int(mapping.get("seed", 0)), specs=tuple(specs))
