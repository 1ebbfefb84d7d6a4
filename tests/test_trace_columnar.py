"""Columnar ``Trace``: tuple rows on record, ``TraceRecord`` on read.

The DES engines append plain ``(time, kind, gpu, detail)`` tuples; the
public record objects and the per-kind counts are derived when read.
These tests pin the read side against hand-built records, and pin the
counters of traced and untraced runs to each other on both engines.
"""

import pickle

import numpy as np
import pytest

from repro.engine.protocol import (
    ALL_TRACE_KINDS,
    TRACE_GPU_FAIL,
    TRACE_INJECT,
    TRACE_REMAP,
    TRACE_RETRY,
    TRACE_STALE_LAUNCH,
    TRACE_VALIDATE,
)
from repro.engine.trace import Trace, TraceRecord
from repro.exec_model.costmodel import Design
from repro.machine.node import dgx1
from repro.resilience.faults import FaultKind, FaultPlan, FaultSpec
from repro.resilience.recovery import RecoveryPolicy
from repro.resilience.watchdog import Watchdog
from repro.solvers.des_solver import des_execute
from repro.tasks.schedule import block_distribution
from repro.workloads.generators import dag_profile_matrix, forest_lower

ENGINES = ("reference", "array")

HAND_BUILT = [
    TraceRecord(0.0, "dispatch", 0, 0),
    TraceRecord(0.5, "dispatch", 1, 1),
    TraceRecord(1.0, "solve", 0, 0),
    TraceRecord(1.25, "xfer_begin", 0, (0, 1, 1)),
    TraceRecord(1.5, "release", 0, 0),
    TraceRecord(2.0, "xfer_end", 0, (0, 1, 1)),
    TraceRecord(3.0, "solve", 1, 1),
    TraceRecord(2.5, "fault", -1, None),
    TraceRecord(3.5, "release", 1, 1),
]


def _faulted_runs(trace_enabled):
    lower = forest_lower(48, seed=3)
    n = lower.shape[0]
    machine = dgx1(4)
    dist = block_distribution(n, 4)
    b = np.random.default_rng(3).standard_normal(n)
    probe = des_execute(lower, b, dist, machine, engine="reference")
    plan = FaultPlan(seed=2, specs=(
        FaultSpec(FaultKind.MSG_DROP, rate=0.3),
        FaultSpec(FaultKind.GPU_FAIL, gpu=1, t_start=0.3 * probe.total_time),
    ))
    return {
        engine: des_execute(
            lower, b, dist, machine,
            engine=engine,
            trace_enabled=trace_enabled,
            injector=plan.build(lower, dist),
            recovery=RecoveryPolicy(),
            watchdog=Watchdog(stall_horizon=10.0),
        )
        for engine in ENGINES
    }


def _stale_runs(trace_enabled):
    lower = dag_profile_matrix(
        220, n_levels=10, dependency=2.5, profile="front", seed=7
    )
    n = lower.shape[0]
    b = np.linspace(1.0, 2.0, n)
    return {
        engine: des_execute(
            lower, b, block_distribution(n, 2), dgx1(2), Design.STALE_SYNC,
            engine=engine, trace_enabled=trace_enabled,
        )
        for engine in ENGINES
    }


class TestTracedVersusUntracedCounts:
    @pytest.mark.parametrize(
        "runs, must_see",
        [
            (_faulted_runs, (TRACE_INJECT, TRACE_RETRY, TRACE_GPU_FAIL,
                             TRACE_REMAP)),
            (_stale_runs, (TRACE_STALE_LAUNCH, TRACE_VALIDATE)),
        ],
        ids=["msg_drop+gpu_fail", "stale_sync"],
    )
    def test_every_kind_counts_the_same(self, runs, must_see):
        traced = runs(True)
        untraced = runs(False)
        for engine in ENGINES:
            on = traced[engine].trace
            off = untraced[engine].trace
            assert len(off) == 0
            assert len(on) > 0
            for kind in ALL_TRACE_KINDS:
                assert on.count(kind) == off.count(kind), (engine, kind)
                assert on.count(kind) == sum(
                    1 for r in on.records if r.kind == kind
                ), (engine, kind)
            for kind in must_see:
                assert on.count(kind) > 0, (engine, kind)
        # Both engines build the same rows, hence the same records.
        assert traced["reference"].trace.rows == traced["array"].trace.rows


class TestReadSide:
    def test_records_round_trip(self):
        trace = Trace(records=HAND_BUILT)
        assert trace.records == HAND_BUILT
        assert all(isinstance(r, TraceRecord) for r in trace.records)
        assert trace.rows[3] == (1.25, "xfer_begin", 0, (0, 1, 1))
        assert Trace(records=trace.records).rows == trace.rows

    def test_queries_match_hand_built_records(self):
        trace = Trace()
        for r in HAND_BUILT:
            trace.append((r.time, r.kind, r.gpu, r.detail))
        assert len(trace) == len(HAND_BUILT)
        for kind in {r.kind for r in HAND_BUILT}:
            want = [r for r in HAND_BUILT if r.kind == kind]
            assert list(trace.of_kind(kind)) == want
            assert trace.count(kind) == len(want)
        assert trace.solve_order() == [0, 1]
        assert trace.last_time() == max(r.time for r in HAND_BUILT)
        assert Trace().last_time() == 0.0
        assert trace.count("nonexistent") == 0

    def test_records_read_before_and_after_a_later_emit(self):
        trace = Trace(records=HAND_BUILT[:3])
        first = trace.records
        assert len(first) == 3
        assert trace.count("solve") == 1
        trace.emit(9.0, "validate", gpu=0, detail=(0, 0))
        trace.append((9.5, "replay", 0, 4))
        again = trace.records
        assert again[:3] == HAND_BUILT[:3]
        assert again[3:] == [
            TraceRecord(9.0, "validate", 0, (0, 0)),
            TraceRecord(9.5, "replay", 0, 4),
        ]
        assert trace.count("validate") == trace.count("replay") == 1
        assert trace.last_time() == 9.5

    def test_disabled_trace_only_counts(self):
        trace = Trace(enabled=False)
        trace.append((1.0, "solve", 0, 3))
        trace.emit(2.0, "solve", gpu=0, detail=4)
        trace.bulk_count("solve", 5)
        assert len(trace) == 0 and trace.records == []
        assert trace.count("solve") == 7

    def test_traced_execution_pickles(self):
        ex = _stale_runs(True)["array"]
        back = pickle.loads(pickle.dumps(ex))
        assert back.trace.records == ex.trace.records
        assert back.trace.count(TRACE_VALIDATE) == 1
        assert back.x.tobytes() == ex.x.tobytes()
        back.trace.emit(back.total_time, "solve", gpu=0, detail=-1)
        assert len(back.trace) == len(ex.trace) + 1
