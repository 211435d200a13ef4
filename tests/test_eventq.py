"""Unit tests for the event heap and simulator driver."""

from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.eventq import (
    _QUIESCE_BACKOFF_AFTER,
    _QUIESCE_MAX_INTERVAL,
    PRIORITY_DEFAULT,
    PRIORITY_LATE,
    Simulator,
)


class TestEventQueue:
    """Dispatch order and cancellation of the heap behind ``Simulator``."""

    def test_pop_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule_at(30, lambda: order.append(30))
        sim.schedule_at(10, lambda: order.append(10))
        sim.schedule_at(20, lambda: order.append(20))
        sim.run()
        assert order == [10, 20, 30]

    def test_ties_broken_by_insertion_order(self):
        sim = Simulator()
        order = []
        for label in "abc":
            sim.schedule_at(5, lambda l=label: order.append(l))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_priority_beats_insertion_order(self):
        sim = Simulator()
        order = []
        sim.schedule_at(5, lambda: order.append("late"), priority=PRIORITY_LATE)
        sim.schedule_at(5, lambda: order.append("default"),
                        priority=PRIORITY_DEFAULT)
        sim.schedule_at(5, lambda: order.append("early"), priority=10)
        sim.run()
        assert order == ["early", "default", "late"]

    def test_cancelled_events_skipped(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_at(1, lambda: fired.append("cancelled"))
        sim.schedule_at(2, lambda: fired.append("kept"))
        sim.cancel(handle)
        sim.run()
        assert fired == ["kept"]
        assert sim.events_skipped == 1

    def test_len(self):
        sim = Simulator()
        sim.schedule(1, lambda: None)
        sim.cancel(sim.schedule(2, lambda: None))
        # Cancelled events stay queued until the run loop reaches them.
        assert sim.pending_events == 2
        sim.run()
        assert sim.pending_events == 0

    def test_cancel_after_completion_is_harmless(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1, lambda: fired.append(1))
        sim.run()
        sim.cancel(handle)
        sim.cancel(handle)
        sim.schedule(1, lambda: fired.append(2))
        sim.run()
        assert fired == [1, 2]
        assert sim.events_skipped == 0

    def test_cancelled_events_past_the_limit_are_reaped(self):
        sim = Simulator()
        sim.cancel(sim.schedule(10, lambda: None))
        sim.schedule(20, lambda: None)
        sim.run(until=5)
        # The cancelled head is skipped although it lies past ``until``;
        # the live event past it stays queued.
        assert sim.events_skipped == 1
        assert sim.pending_events == 1
        assert sim.now == 0


class TestSimulator:
    def test_time_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(100, lambda: seen.append(sim.now))
        sim.schedule(50, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [50, 100]
        assert sim.now == 100

    def test_schedule_during_run(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append(("first", sim.now))
            sim.schedule(25, lambda: seen.append(("second", sim.now)))

        sim.schedule(10, first)
        sim.run()
        assert seen == [("first", 10), ("second", 35)]

    def test_run_until(self):
        sim = Simulator()
        seen = []
        for t in (10, 20, 30):
            sim.schedule(t, lambda t=t: seen.append(t))
        sim.run(until=20)
        assert seen == [10, 20]
        sim.run()
        assert seen == [10, 20, 30]

    def test_max_events(self):
        # A non-positive budget runs nothing (the budget is checked
        # before dispatch, not after).
        for budget, expected in ((2, [1, 2]), (0, []), (-1, [])):
            sim = Simulator()
            seen = []
            for t in (1, 2, 3):
                sim.schedule(t, lambda t=t: seen.append(t))
            sim.run(max_events=budget)
            assert seen == expected
            assert sim.events_executed == len(expected)
            assert sim.pending_events == 3 - len(expected)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(5, lambda: None)

    def test_zero_delay_runs_at_now(self):
        sim = Simulator()
        sim.schedule(10, lambda: sim.schedule(0, lambda: seen.append(sim.now)))
        seen = []
        sim.run()
        assert seen == [10]

    def test_events_executed_counter(self):
        sim = Simulator()
        for t in (1, 2, 3):
            sim.schedule(t, lambda: None)
        sim.run()
        assert sim.events_executed == 3

    def test_run_until_idle(self):
        sim = Simulator()
        state = {"done": False}

        def finish():
            state["done"] = True

        sim.schedule(5, lambda: None)
        sim.schedule(10, finish)
        sim.schedule(20, lambda: None)
        sim.run_until_idle(lambda: state["done"])
        assert sim.now == 10

    def test_reset_refused_during_run_until_idle(self):
        # run_until_idle drives run() in chunks; the simulator must stay
        # "running" between chunks, where the predicate executes.
        sim = Simulator()
        for t in (1, 2, 3):
            sim.schedule(t, lambda: None)
        attempts = []

        def quiesce():
            try:
                sim.reset()
            except RuntimeError:
                attempts.append("refused")
            return sim.pending_events == 0

        sim.run_until_idle(quiesce)
        assert attempts and set(attempts) == {"refused"}
        assert sim.events_executed == 3
        sim.reset()  # allowed again once the call returns


class TestDiagnosticsReset:
    def test_freelist_high_water_tracked_and_cleared(self):
        # Diagnostics describe one run: a reset simulator reports a
        # rerun's numbers, not cumulative ones.
        sim = Simulator()
        for i in range(32):
            sim.schedule(i + 1, lambda: None)
        sim.cancel(sim.schedule(40, lambda: None))
        sim.run()
        first = sim.diagnostics()
        assert first == {"events_executed": 32, "events_skipped": 1}
        sim.reset()
        assert sim.diagnostics() == {"events_executed": 0,
                                     "events_skipped": 0}
        for i in range(32):
            sim.schedule(i + 1, lambda: None)
        sim.cancel(sim.schedule(40, lambda: None))
        sim.run()
        assert sim.diagnostics() == first

    def test_events_skipped_cleared_by_reset(self):
        sim = Simulator()
        sim.cancel(sim.schedule(1, lambda: None))
        sim.schedule(2, lambda: None)
        sim.run()
        assert sim.events_skipped == 1
        sim.reset()
        assert sim.events_skipped == 0


class TestFreelist:
    """Cancelled events, and the heap state ``reset()`` replaces."""

    def test_reset_discards_freelist_and_counters(self):
        sim = Simulator()
        handle = sim.schedule(1, lambda: None)
        sim.cancel(handle)
        sim.schedule(2, lambda: None)
        sim.schedule(3, lambda: None)
        sim.run(until=2)
        assert sim.events_skipped == 1
        assert sim.pending_events == 1
        sim.reset()
        assert sim.events_skipped == 0
        assert sim.events_executed == 0
        assert sim.pending_events == 0
        assert sim.now == 0
        # The sequence counter restarts: the first event after a reset
        # carries the same key a fresh simulator would give it.
        assert sim.schedule(5, lambda: None)[:3] == [5, PRIORITY_DEFAULT, 0]

    def test_run_counts_skipped_cancelled(self):
        sim = Simulator()
        for tick in (1, 2, 3, 4):
            handle = sim.schedule(tick, lambda: None)
            if tick % 2:
                sim.cancel(handle)
        sim.run()
        assert sim.events_executed == 2
        assert sim.events_skipped == 2


class TestQuiesceThrottle:
    """run_until_idle backs off the predicate without changing results."""

    def test_long_run_checks_quiesce_sparsely(self):
        sim = Simulator()
        checks = {"n": 0}
        count = {"n": 0}
        total = 5000

        def fire():
            count["n"] += 1
            if count["n"] < total:
                sim.schedule(1, fire)

        def quiesce():
            checks["n"] += 1
            return count["n"] >= total

        sim.schedule(1, fire)
        sim.run_until_idle(quiesce)
        assert count["n"] == total
        # Backed off: far fewer predicate calls than events executed.
        assert checks["n"] < total / 4

    def test_quiesce_holds_when_returning(self):
        sim = Simulator()
        state = {"fired": 0}

        def fire():
            state["fired"] += 1
            if state["fired"] < 300:
                sim.schedule(1, fire)

        sim.schedule(1, fire)
        # The predicate turns true mid-run; the throttle may overrun by
        # up to the current interval, but it must never return while the
        # predicate is false.
        target = 100
        final = sim.run_until_idle(lambda: state["fired"] >= target)
        assert state["fired"] >= target

    def test_short_runs_keep_exact_stop_tick(self):
        # Below the backoff threshold the historical check-per-event
        # behaviour is exact: the run stops at the quiescing event.
        sim = Simulator()
        seen = []
        for tick in (1, 2, 3, 4, 5):
            sim.schedule(tick, lambda t=tick: seen.append(t))
        sim.run_until_idle(lambda: len(seen) == 3)
        assert sim.now == 3
        assert seen == [1, 2, 3]


# ----------------------------------------------------------------------
# Differential test against a minimal reference kernel
# ----------------------------------------------------------------------
class _RefEvent:
    def __init__(self, key, callback):
        self.key = key
        self.callback = callback
        self.cancelled = False


class RefSimulator:
    """The kernel's contract in its plainest form: a heap of
    ``(when, priority, seq)`` keys over event objects with a cancelled
    flag.  The run loop skips and counts a cancelled event wherever it
    surfaces (past ``until`` too), pushes back the first live event past
    ``until``, and checks a non-positive ``max_events`` before popping;
    ``run_until_idle`` runs the same throttled chunks as the kernel."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.heap = []
        self.seq = 0
        self.now = 0
        self.events_executed = 0
        self.events_skipped = 0

    def schedule(self, delay, callback, priority=PRIORITY_DEFAULT):
        if delay < 0:
            raise ValueError(delay)
        return self.schedule_at(self.now + delay, callback, priority)

    def schedule_at(self, when, callback, priority=PRIORITY_DEFAULT):
        if when < self.now:
            raise ValueError(when)
        event = _RefEvent((when, priority, self.seq), callback)
        self.seq += 1
        heappush(self.heap, (event.key, event))
        return event

    def cancel(self, event):
        event.cancelled = True

    def run(self, until=None, max_events=None):
        if max_events is not None and max_events <= 0:
            return self.now
        executed = 0
        while self.heap:
            key, event = heappop(self.heap)
            if event.cancelled:
                self.events_skipped += 1
                continue
            if until is not None and key[0] > until:
                heappush(self.heap, (key, event))
                break
            self.now = key[0]
            event.callback()
            executed += 1
            self.events_executed += 1
            if max_events is not None and executed >= max_events:
                break
        return self.now

    def run_until_idle(self, quiesce, max_events=10**9):
        executed, interval, misses = 0, 1, 0
        while not quiesce():
            if executed >= max_events:
                raise RuntimeError("max_events")
            misses += 1
            if misses >= _QUIESCE_BACKOFF_AFTER and interval < _QUIESCE_MAX_INTERVAL:
                interval, misses = interval * 2, 0
            chunk = min(interval, max_events - executed)
            before = self.events_executed
            self.run(max_events=chunk)
            ran = self.events_executed - before
            executed += ran
            if ran < chunk:
                break
        return self.now

    @property
    def pending_events(self):
        return len(self.heap)


_priorities = st.sampled_from([10, PRIORITY_DEFAULT, PRIORITY_LATE])
#: Delays of the follow-up events a callback schedules, one per level.
_chains = st.lists(st.integers(0, 6), max_size=3)
_ops = st.one_of(
    st.tuples(st.just("schedule"), st.integers(0, 20), _priorities, _chains),
    st.tuples(st.just("schedule_at"), st.integers(0, 20), _priorities,
              _chains),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("run"), st.none() | st.integers(0, 30),
              st.none() | st.integers(-1, 6)),
    st.tuples(st.just("idle"), st.integers(0, 12),
              st.none() | st.integers(1, 40)),
    st.tuples(st.just("reset")),
)


class _Driver:
    """Runs one program against one kernel, logging what it sees."""

    def __init__(self, sim):
        self.sim = sim
        self.log = []
        self.handles = []
        self.labels = 0

    def _callback(self, label, chain):
        def fire():
            self.log.append(label)
            if chain:
                self.handles.append(self.sim.schedule(
                    chain[0], self._callback((label, len(chain)), chain[1:])))
        return fire

    def step(self, op):
        sim = self.sim
        kind = op[0]
        try:
            if kind in ("schedule", "schedule_at"):
                self.labels += 1
                callback = self._callback(self.labels, op[3])
                if kind == "schedule":
                    handle = sim.schedule(op[1], callback, op[2])
                else:
                    handle = sim.schedule_at(sim.now + op[1], callback, op[2])
                self.handles.append(handle)
            elif kind == "cancel":  # counting back from the newest
                if self.handles:
                    sim.cancel(self.handles[-1 - op[1] % len(self.handles)])
            elif kind == "run":
                until = None if op[1] is None else sim.now + op[1]
                sim.run(until=until, max_events=op[2])
            elif kind == "idle":
                target = len(self.log) + op[1]
                quiesce = lambda: len(self.log) >= target  # noqa: E731
                if op[2] is None:
                    sim.run_until_idle(quiesce)
                else:
                    sim.run_until_idle(quiesce, max_events=op[2])
            else:
                sim.reset()
            outcome = "ok"
        except RuntimeError:
            outcome = "raised"
        return (outcome, list(self.log), sim.now, sim.events_executed,
                sim.events_skipped, sim.pending_events)


class TestAgainstReference:
    """Random programs of schedule, schedule_at, cancel (of pending,
    fired, cancelled and pre-reset events), bounded and budgeted runs,
    run_until_idle and reset: the kernel matches the reference in
    dispatch order, ``now`` and every counter after every step."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_ops, max_size=40))
    def test_kernel_matches_reference(self, program):
        kernel, reference = _Driver(Simulator()), _Driver(RefSimulator())
        for op in program + [("run", None, None)]:
            assert kernel.step(op) == reference.step(op), op
