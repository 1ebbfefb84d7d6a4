"""Discrete-event simulation core tests."""

import pytest

from repro.engine.des import Simulator
from repro.engine.events import Acquire, Release, Signal, Timeout, Wait
from repro.engine.resources import Resource
from repro.engine.trace import Trace
from repro.errors import SimulationError


class TestTimeouts:
    def test_ordering(self):
        sim = Simulator()
        log = []

        def proc(name, delay):
            yield Timeout(delay)
            log.append((sim.now, name))

        sim.spawn(proc("late", 5.0))
        sim.spawn(proc("early", 1.0))
        sim.spawn(proc("mid", 3.0))
        sim.run()
        assert log == [(1.0, "early"), (3.0, "mid"), (5.0, "late")]

    def test_fifo_tie_break(self):
        sim = Simulator()
        log = []

        def proc(name):
            yield Timeout(1.0)
            log.append(name)

        for name in "abc":
            sim.spawn(proc(name))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_sequential_timeouts_accumulate(self):
        sim = Simulator()
        seen = []

        def proc():
            yield Timeout(1.0)
            seen.append(sim.now)
            yield Timeout(2.5)
            seen.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert seen == [1.0, 3.5]

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            Timeout(-1.0)

    def test_spawn_delay(self):
        sim = Simulator()
        seen = []

        def proc():
            seen.append(sim.now)
            yield Timeout(0.0)

        sim.spawn(proc(), delay=4.0)
        sim.run()
        assert seen == [4.0]

    def test_run_until(self):
        sim = Simulator()
        log = []

        def proc(d):
            yield Timeout(d)
            log.append(d)

        sim.spawn(proc(1.0))
        sim.spawn(proc(10.0))
        sim.run(until=5.0)
        assert log == [1.0]
        sim.run()  # finish the rest
        assert log == [1.0, 10.0]


class TestResources:
    def test_mutual_exclusion_serialises(self):
        sim = Simulator()
        res = Resource("lock", capacity=1)
        log = []

        def proc(name):
            yield Acquire(res)
            log.append((sim.now, name, "in"))
            yield Timeout(2.0)
            log.append((sim.now, name, "out"))
            yield Release(res)

        sim.spawn(proc("a"))
        sim.spawn(proc("b"))
        sim.run()
        assert log == [
            (0.0, "a", "in"),
            (2.0, "a", "out"),
            (2.0, "b", "in"),
            (4.0, "b", "out"),
        ]

    def test_capacity_two_overlaps(self):
        sim = Simulator()
        res = Resource("pool", capacity=2)
        done = []

        def proc():
            yield Acquire(res)
            yield Timeout(1.0)
            yield Release(res)
            done.append(sim.now)

        for _ in range(4):
            sim.spawn(proc())
        sim.run()
        assert done == [1.0, 1.0, 2.0, 2.0]

    def test_fifo_queue_order(self):
        sim = Simulator()
        res = Resource("lock", capacity=1)
        order = []

        def proc(name, arrive):
            yield Timeout(arrive)
            yield Acquire(res)
            order.append(name)
            yield Timeout(10.0)
            yield Release(res)

        sim.spawn(proc("first", 0.0))
        sim.spawn(proc("second", 1.0))
        sim.spawn(proc("third", 2.0))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_capacity_bounds_concurrency(self):
        sim = Simulator()
        res = Resource("pool", capacity=3)
        done = []

        def proc():
            yield Acquire(res)
            yield Timeout(1.0)
            done.append(sim.now)
            yield Release(res)

        for _ in range(5):
            sim.spawn(proc())
        sim.run()
        # Three holders at once; the other two wait one hold time.
        assert done == [1.0, 1.0, 1.0, 2.0, 2.0]
        assert res.in_use == 0

    def test_release_without_acquire_raises(self):
        res = Resource("x", capacity=1)
        with pytest.raises(SimulationError):
            res.release()

    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            Resource("x", capacity=0)


class TestWaitSignal:
    def test_signal_wakes_waiters(self):
        sim = Simulator()
        log = []

        def waiter(name):
            yield Wait("go")
            log.append((sim.now, name))

        def signaller():
            yield Timeout(3.0)
            yield Signal("go")

        sim.spawn(waiter("w1"))
        sim.spawn(waiter("w2"))
        sim.spawn(signaller())
        sim.run()
        assert log == [(3.0, "w1"), (3.0, "w2")]

    def test_signal_with_no_waiters_is_noop(self):
        sim = Simulator()

        def proc():
            yield Signal("nothing")
            yield Timeout(1.0)

        sim.spawn(proc())
        sim.run()

    def test_deadlock_detected(self):
        sim = Simulator()

        def stuck():
            yield Wait("never")

        sim.spawn(stuck())
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run()

    def test_event_budget_guard(self):
        sim = Simulator(max_events=10)

        def spinner():
            while True:
                yield Timeout(1.0)

        sim.spawn(spinner())
        with pytest.raises(SimulationError, match="budget"):
            sim.run()


class TestRunBounds:
    """``run(until=...)`` / ``max_events`` are timestamp-atomic."""

    def test_until_drains_exact_time_ties(self):
        sim = Simulator()
        log = []

        def proc(name, delay):
            yield Timeout(delay)
            log.append(name)

        for name in "abc":
            sim.spawn(proc(name, 5.0))
        sim.spawn(proc("late", 5.0 + 1e-9))
        sim.run(until=5.0)
        assert log == ["a", "b", "c"]  # whole tie batch, nothing past it
        sim.run()
        assert log == ["a", "b", "c", "late"]

    def test_budget_drains_current_timestamp_before_raising(self):
        sim = Simulator(max_events=2)
        log = []

        def proc(name):
            log.append((sim.now, name))
            yield Timeout(1.0)  # pending work at t=2.0 trips the guard

        for name in "abc":
            sim.spawn(proc(name), delay=1.0)
        with pytest.raises(SimulationError, match="budget"):
            sim.run()
        # All three t=1.0 ties ran despite the budget of 2; the guard
        # only fired on work that would have advanced the clock.
        assert log == [(1.0, "a"), (1.0, "b"), (1.0, "c")]
        assert sim.now == 1.0

    def test_budget_reached_but_heap_drained_completes(self):
        sim = Simulator(max_events=3)
        log = []

        def proc(name):
            log.append(name)
            yield Timeout(0.0)  # one more event, still at t=1.0

        for name in "abcde":
            sim.spawn(proc(name), delay=1.0)
        # Ten events, all at t=1.0: the tie batch empties the heap, so
        # the run completes normally even though 10 > 3.
        assert sim.run() == 10
        assert log == list("abcde")

    def test_until_wins_over_budget(self):
        sim = Simulator(max_events=2)
        log = []

        def proc(name):
            log.append(name)
            yield Timeout(0.0)

        sim.spawn(proc("a"), delay=1.0)
        sim.spawn(proc("b"), delay=3.0)
        # The budget is fully consumed by the t=1.0 batch, but the time
        # horizon is hit first: normal return, no budget error.
        assert sim.run(until=2.0) == 2
        assert log == ["a"]
        # Without the horizon, the same pending work trips the guard.
        with pytest.raises(SimulationError, match="budget"):
            sim.run()


class TestDeterminism:
    def test_identical_runs(self):
        def build():
            sim = Simulator()
            res = Resource("r", capacity=2)
            log = []

            def proc(i):
                yield Timeout(i % 3)
                yield Acquire(res)
                log.append((sim.now, i))
                yield Timeout(1.0)
                yield Release(res)

            for i in range(10):
                sim.spawn(proc(i))
            sim.run()
            return log

        assert build() == build()


class TestTrace:
    def test_counts_and_records(self):
        t = Trace()
        t.emit(1.0, "solve", gpu=0, detail=5)
        t.emit(2.0, "solve", gpu=1, detail=7)
        t.emit(2.5, "fault", gpu=0)
        assert t.count("solve") == 2
        assert t.count("fault") == 1
        assert t.solve_order() == [5, 7]
        assert t.last_time() == 2.5
        assert len(t) == 3

    def test_disabled_keeps_counters(self):
        t = Trace(enabled=False)
        t.emit(1.0, "solve", detail=1)
        assert len(t) == 0
        assert t.count("solve") == 1

    def test_of_kind_ordering(self):
        t = Trace()
        for i in range(5):
            t.emit(float(i), "x", detail=i)
        assert [r.detail for r in t.of_kind("x")] == list(range(5))
