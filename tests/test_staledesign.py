"""Conformance-first battery for the stale-synchronous + cost-aware designs.

The ``stale_sync`` design lets a component launch once a configurable
staleness bound is met (all contributions but ``k`` delivered); a
post-hoc validation pass detects stale reads whose backward error
exceeds the policy ceiling and replays their forward closure.  The
``costaware`` distribution assigns contiguous tasks to GPUs by estimated
solve + gather + edge cost (greedy LPT).  Both are protocol-core
features interpreted by both DES engines, so this battery holds
them to the same contracts as the strict designs:

* two-engine bit-equality of the solution, trace stream, clock, and
  event count;
* property tests (hypothesis): the staleness bound is never exceeded,
  and every above-ceiling stale solve is followed by a replay chain that
  lands bitwise on the serial oracle (forest systems);
* causality: corrupted golden traces (``tests/golden/``) must each trip
  their expected replayer rule;
* registry teeth: dropping either design's conformance case reopens a
  coverage gap.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.protocol import (
    DEFAULT_STALE_POLICY,
    TRACE_REPLAY,
    TRACE_STALE_LAUNCH,
    TRACE_VALIDATE,
    StalePolicy,
    resolve_stale_policy,
    stale_validation_times,
    wake_threshold,
)
from repro.engine.trace import Trace
from repro.errors import ConfigurationError, TaskModelError
from repro.exec_model.artefacts import get_artefacts
from repro.exec_model.costmodel import Design
from repro.exec_model.timeline import simulate_execution
from repro.machine.node import dgx1
from repro.resilience.recovery import stale_validate
from repro.runtime.config import RunConfig
from repro.runtime.session import SolverSession
from repro.solvers.des_solver import DesSolver, des_execute
from repro.solvers.serial import serial_forward
from repro.sparse.validate import residual_norm
from repro.tasks.schedule import (
    block_distribution,
    build_distribution,
    costaware_distribution,
    round_robin_distribution,
)
from repro.verify.causality import check_des_trace
from repro.verify.registry import default_registry
from repro.workloads.generators import dag_profile_matrix, forest_lower

pytestmark = pytest.mark.staledesign

GOLDEN = Path(__file__).parent / "golden" / "stale_causality_cases.json"

ENGINES = ("reference", "array")


def _stale_run(lower, b, n_gpus=2, engine="reference", stale=None, dist=None):
    if dist is None:
        dist = block_distribution(lower.shape[0], n_gpus)
    return des_execute(
        lower,
        b,
        dist,
        dgx1(n_gpus),
        Design.STALE_SYNC,
        engine=engine,
        stale=stale,
    )


# ======================================================================
# protocol-level policy rules
# ======================================================================
class TestStalePolicy:
    def test_defaults(self):
        assert DEFAULT_STALE_POLICY == StalePolicy()
        assert DEFAULT_STALE_POLICY.k == 1
        assert DEFAULT_STALE_POLICY.ceiling == 1e-12

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_floor(self, k):
        with pytest.raises(ConfigurationError, match="k must be >= 1"):
            StalePolicy(k=k)

    @pytest.mark.parametrize("ceiling", [0.0, -1e-9])
    def test_ceiling_must_be_positive(self, ceiling):
        with pytest.raises(ConfigurationError, match="ceiling"):
            StalePolicy(ceiling=ceiling)

    def test_resolve_defaults_under_stale_design(self):
        assert resolve_stale_policy(Design.STALE_SYNC, None) is (
            DEFAULT_STALE_POLICY
        )
        custom = StalePolicy(k=3)
        assert resolve_stale_policy(Design.STALE_SYNC, custom) is custom

    @pytest.mark.parametrize(
        "design",
        [Design.UNIFIED, Design.SHMEM_NAIVE, Design.SHMEM_READONLY],
    )
    def test_strict_designs_reject_policy(self, design):
        assert resolve_stale_policy(design, None) is None
        with pytest.raises(ConfigurationError, match="stale policy"):
            resolve_stale_policy(design, StalePolicy())

    def test_wake_threshold(self):
        assert wake_threshold(None) == 0
        assert wake_threshold(StalePolicy(k=4)) == 4

    def test_validation_times_are_ordered(self):
        t_val, replays = stale_validation_times(10.0, 3, 0.5)
        assert t_val == 10.0
        assert list(replays) == [10.5, 11.0, 11.5]
        assert np.all(replays > t_val)


# ======================================================================
# three-engine bit-equality
# ======================================================================
class TestEngineParity:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: dag_profile_matrix(
                220, n_levels=10, dependency=2.5, profile="front", seed=7
            ),
            lambda: forest_lower(150, seed=5),
        ],
        ids=["dagprof-front", "forest"],
    )
    def test_all_engines_agree_bitwise(self, make):
        lower = make()
        n = lower.shape[0]
        b = np.linspace(1.0, 2.0, n)
        runs = {e: _stale_run(lower, b, engine=e) for e in ENGINES}
        ref = runs["reference"]
        assert any(r.kind == TRACE_STALE_LAUNCH for r in ref.trace.records)
        for engine in ENGINES[1:]:
            other = runs[engine]
            assert other.x.tobytes() == ref.x.tobytes(), engine
            assert other.total_time == ref.total_time, engine
            assert other.events == ref.events, engine
            assert [
                (r.time, r.kind, r.gpu, r.detail)
                for r in other.trace.records
            ] == [
                (r.time, r.kind, r.gpu, r.detail) for r in ref.trace.records
            ], engine

    def test_disabled_trace_counters_agree(self):
        lower = dag_profile_matrix(
            180, n_levels=8, dependency=2.0, profile="geometric", seed=3
        )
        b = np.ones(180)
        dist = block_distribution(180, 2)
        counts = {}
        for engine in ("reference", "array"):
            ex = des_execute(
                lower,
                b,
                dist,
                dgx1(2),
                Design.STALE_SYNC,
                engine=engine,
                trace_enabled=False,
            )
            counts[engine] = {
                kind: ex.trace.count(kind)
                for kind in (TRACE_STALE_LAUNCH, TRACE_VALIDATE, TRACE_REPLAY)
            }
        assert counts["reference"] == counts["array"]
        assert counts["reference"][TRACE_STALE_LAUNCH] > 0


# ======================================================================
# property tests
# ======================================================================
class TestStaleProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        k=st.integers(1, 3),
        n=st.integers(40, 140),
    )
    def test_staleness_bound_never_exceeded(self, seed, k, n):
        """No component launches with more than ``k`` missing inputs."""
        lower = dag_profile_matrix(
            n, n_levels=5, dependency=2.0, profile="front", seed=seed
        )
        stale = StalePolicy(k=k)
        ex = _stale_run(lower, np.ones(n), stale=stale)
        for r in ex.trace.records:
            if r.kind == TRACE_STALE_LAUNCH:
                missing = int(r.detail[1])
                assert 0 < missing <= k
        dag = get_artefacts(lower).dag
        rep = check_des_trace(
            ex.trace,
            dag,
            block_distribution(n, 2),
            dgx1(2),
            Design.STALE_SYNC,
            stale=stale,
        )
        assert rep.ok, rep.summary()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), n=st.integers(40, 160))
    def test_replay_chain_lands_on_serial_oracle(self, seed, n):
        """Forest systems: replayed stale reads end bitwise-serial.

        On a forest every row has at most one off-diagonal entry, so the
        replayed partial forward substitution has no accumulation-order
        freedom; an above-ceiling stale solve followed by its
        TRACE_REPLAY chain must reproduce serial substitution exactly.
        """
        lower = forest_lower(n, seed=seed)
        rng = np.random.default_rng(seed + 1)
        b = rng.uniform(-1.0, 1.0, size=n)
        ex = _stale_run(lower, b)
        replays = [r for r in ex.trace.records if r.kind == TRACE_REPLAY]
        validates = [r for r in ex.trace.records if r.kind == TRACE_VALIDATE]
        if replays:
            assert len(validates) == 1
            t_val = validates[0].time
            assert all(r.time >= t_val for r in replays)
            assert int(validates[0].detail[1]) == len(replays)
        # Above-ceiling stale reads were repaired; what remains is
        # sub-ceiling by construction, and on a forest the repaired
        # rows are bitwise-serial.
        x_serial = serial_forward(lower, b)
        err = residual_norm(lower, ex.x, b)
        assert err <= DEFAULT_STALE_POLICY.ceiling
        replayed = {int(r.detail) for r in replays}
        for i in sorted(replayed):
            assert ex.x[i] == x_serial[i]

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_corrupted_missing_count_is_rejected(self, seed):
        """Inflating a stale record's missing count past ``k`` must be
        caught by the causality replayer."""
        n = 80
        lower = dag_profile_matrix(
            n, n_levels=6, dependency=2.5, profile="front", seed=seed
        )
        ex = _stale_run(lower, np.ones(n))
        stale_records = [
            r for r in ex.trace.records if r.kind == TRACE_STALE_LAUNCH
        ]
        if not stale_records:
            return
        victim = stale_records[len(stale_records) // 2]
        t = Trace(enabled=True)
        for r in ex.trace.records:
            detail = r.detail
            if r is victim:
                detail = (r.detail[0], int(r.detail[1]) + 7)
            t.emit(r.time, r.kind, gpu=r.gpu, detail=detail)
        rep = check_des_trace(
            t,
            get_artefacts(lower).dag,
            block_distribution(n, 2),
            dgx1(2),
            Design.STALE_SYNC,
        )
        assert not rep.ok
        assert any(v.rule == "stale-bound" for v in rep.violations)

    def test_stale_validate_repairs_and_raises(self):
        n = 30
        lower = forest_lower(n, seed=2)
        b = np.ones(n)
        x = serial_forward(lower, b)
        x_bad = x.copy()
        x_bad[n // 2] += 1.0
        fixed, suspects, replayed, residual = stale_validate(
            lower, b, x_bad, 1e-12
        )
        assert suspects and replayed
        assert fixed.tobytes() == x.tobytes()
        assert residual == residual_norm(lower, fixed, b)
        # An unreachable ceiling: even a perfect full replay leaves
        # rounding-level backward error, which must surface as the
        # typed exhaustion error rather than silent acceptance.
        from repro.errors import RecoveryExhaustedError

        with pytest.raises(RecoveryExhaustedError):
            stale_validate(lower, b * (1.0 + 1e-6), x_bad, 1e-300)


# ======================================================================
# golden corrupted-trace fixtures
# ======================================================================
class TestGoldenCorruptedTraces:
    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        lower = dag_profile_matrix(**payload["workload"])
        n = lower.shape[0]
        dag = get_artefacts(lower).dag
        dist = block_distribution(n, payload["n_gpus"])
        machine = dgx1(payload["n_gpus"])
        return payload, lower, dag, dist, machine

    @staticmethod
    def _trace(records) -> Trace:
        t = Trace(enabled=True)
        for time, kind, gpu, detail in records:
            if isinstance(detail, list):
                detail = tuple(detail)
            t.emit(time, kind, gpu=gpu, detail=detail)
        return t

    def test_clean_trace_passes(self, golden):
        payload, _lower, dag, dist, machine = golden
        rep = check_des_trace(
            self._trace(payload["clean"]),
            dag,
            dist,
            machine,
            Design.STALE_SYNC,
        )
        assert rep.ok, rep.summary()

    def test_every_corruption_trips_its_rule(self, golden):
        payload, _lower, dag, dist, machine = golden
        assert len(payload["cases"]) >= 6
        for case in payload["cases"]:
            rep = check_des_trace(
                self._trace(case["records"]),
                dag,
                dist,
                machine,
                Design(case["design"]),
            )
            rules = {v.rule for v in rep.violations}
            assert not rep.ok, case["name"]
            assert case["expected_rule"] in rules, (case["name"], rules)


# ======================================================================
# cost-aware distribution
# ======================================================================
class TestCostAware:
    def test_build_distribution_names(self):
        n = 64
        assert build_distribution("block", n, 4).n_tasks == 4
        assert build_distribution("taskpool", n, 4, tasks_per_gpu=2)
        lower = forest_lower(n, seed=1)
        dist = build_distribution(
            "costaware", n, 4, lower=lower, machine=dgx1(4)
        )
        assert dist.n_gpus == 4
        with pytest.raises(ConfigurationError, match="costaware"):
            build_distribution("costaware", n, 4)
        with pytest.raises(ConfigurationError, match="valid choices"):
            build_distribution("zigzag", n, 4)

    def test_costaware_validation(self):
        lower = forest_lower(32, seed=0)
        with pytest.raises(TaskModelError):
            costaware_distribution(lower, 0, dgx1(2))
        with pytest.raises(TaskModelError):
            costaware_distribution(lower, 2, dgx1(2), tasks_per_gpu=0)

    def test_placement_is_solution_invariant(self):
        """Any task-to-GPU map must yield the bitwise-same solution."""
        n = 160
        lower = dag_profile_matrix(
            n, n_levels=8, dependency=2.0, profile="front", seed=3
        )
        b = np.arange(1.0, n + 1.0)
        machine = dgx1(2)
        dist = costaware_distribution(lower, 2, machine)
        runs = [
            des_execute(
                lower, b, dist, machine, Design.SHMEM_READONLY, engine=e
            )
            for e in ENGINES
        ]
        base = des_execute(
            lower,
            b,
            block_distribution(n, 2),
            machine,
            Design.SHMEM_READONLY,
        )
        x_serial = serial_forward(lower, b)
        for run in runs:
            assert run.x.tobytes() == runs[0].x.tobytes()
        err = float(np.max(np.abs(runs[0].x - x_serial)))
        scale = float(np.max(np.abs(x_serial)))
        assert err <= 1e-12 * scale
        assert base.x.shape == runs[0].x.shape

    def test_costaware_beats_static_on_imbalanced_profile(self):
        """On front-loaded DAGs the cost-balanced boundaries must beat
        both static policies on simulated makespan (the acceptance
        experiment).  Each policy runs at its canonical granularity
        (``tasks_per_gpu=None``): block at one block per GPU, taskpool
        at the paper's 2 pools per rank, costaware at one cost-balanced
        task per GPU."""
        machine = dgx1(4)
        wins = 0
        trials = 0
        for seed in range(3):
            n = 480
            lower = dag_profile_matrix(
                n,
                n_levels=12,
                dependency=2.0,
                profile="front",
                seed=seed,
            )
            times = {}
            for name in ("block", "taskpool", "costaware"):
                dist = build_distribution(
                    name,
                    n,
                    4,
                    lower=lower,
                    machine=machine,
                )
                rep = simulate_execution(
                    lower, dist, machine, Design.SHMEM_READONLY
                )
                times[name] = rep.solve_time
            trials += 1
            if times["costaware"] < min(times["block"], times["taskpool"]):
                wins += 1
        assert wins >= 2, f"costaware won only {wins}/{trials} trials"


# ======================================================================
# runtime facade + registry + chaos axes
# ======================================================================
class TestFacadeIntegration:
    def test_runconfig_stale_knobs(self):
        cfg = RunConfig(design="stale_sync", stale_k=2, stale_ceiling=1e-11)
        policy = cfg.build_stale_policy()
        assert policy == StalePolicy(k=2, ceiling=1e-11)
        round_trip = RunConfig.from_mapping(cfg.to_mapping())
        assert round_trip.build_stale_policy() == policy

    def test_runconfig_rejects_stale_knobs_on_strict_design(self):
        with pytest.raises(ConfigurationError, match="stale policy"):
            RunConfig(stale_k=2)

    def test_runconfig_lists_new_distribution_choices(self):
        with pytest.raises(ConfigurationError, match="costaware"):
            RunConfig(distribution="no-such-policy")

    def test_session_solves_stale_costaware(self):
        n = 120
        lower = dag_profile_matrix(
            n, n_levels=6, dependency=2.0, profile="front", seed=11
        )
        b = np.ones(n)
        session = SolverSession(
            RunConfig(
                design="stale_sync", distribution="costaware", n_gpus=2
            )
        )
        res = session.solve(lower, b)
        x_serial = serial_forward(lower, b)
        assert residual_norm(lower, res.x, b) <= 1e-10
        assert np.allclose(res.x, x_serial, rtol=1e-9)

    def test_des_solver_registered_for_both_designs(self):
        reg = default_registry()
        names = {c.name for c in reg}
        assert {"des-2gpu-stale", "des-2gpu-costaware"} <= names
        assert reg.get("des-2gpu-stale").design == "stale_sync"
        assert reg.get("des-2gpu-costaware").distribution == "costaware"

    def test_registry_gap_check_has_teeth(self):
        from repro.verify.registry import ConformanceRegistry

        reg = default_registry()
        assert reg.design_coverage_gaps() == []
        assert reg.distribution_coverage_gaps() == []
        pruned = ConformanceRegistry()
        for case in reg:
            if case.name not in ("des-2gpu-stale", "des-2gpu-costaware"):
                pruned.register(case)
        assert "stale_sync" in pruned.design_coverage_gaps()
        assert "costaware" in pruned.distribution_coverage_gaps()

    def test_new_cases_pass_quick_oracles(self):
        from repro.verify.oracles import quick_generators, run_conformance

        rep = run_conformance(
            default_registry(),
            quick_generators(),
            seed=0,
            cases=["des-2gpu-stale", "des-2gpu-costaware"],
        )
        assert rep.findings, "filter matched no cases"
        assert rep.ok, rep.summary()

    def test_chaos_axes_accept_new_designs(self):
        from repro.resilience.chaos import axes_from_config, run_chaos_matrix

        axes = axes_from_config(
            RunConfig(design="stale_sync", distribution="costaware")
        )
        assert axes["designs"] == ("stale",)
        assert axes["dists"] == ("costaware",)
        report = run_chaos_matrix(quick=True, **axes)
        assert report.green, "\n".join(report.summary_lines())
