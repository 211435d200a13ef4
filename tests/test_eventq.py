"""Unit tests for the event queue and simulator driver."""

import pytest

from repro.sim.eventq import (
    PRIORITY_EARLY,
    PRIORITY_LATE,
    EventQueue,
    Simulator,
)


class TestEventQueue:
    def test_pop_in_time_order(self):
        q = EventQueue()
        order = []
        q.push(30, lambda: order.append(30))
        q.push(10, lambda: order.append(10))
        q.push(20, lambda: order.append(20))
        while (event := q.pop()) is not None:
            event.callback()
        assert order == [10, 20, 30]

    def test_ties_broken_by_insertion_order(self):
        q = EventQueue()
        order = []
        for label in "abc":
            q.push(5, lambda l=label: order.append(l))
        while (event := q.pop()) is not None:
            event.callback()
        assert order == ["a", "b", "c"]

    def test_priority_beats_insertion_order(self):
        q = EventQueue()
        order = []
        q.push(5, lambda: order.append("late"), priority=PRIORITY_LATE)
        q.push(5, lambda: order.append("early"), priority=PRIORITY_EARLY)
        while (event := q.pop()) is not None:
            event.callback()
        assert order == ["early", "late"]

    def test_cancelled_events_skipped(self):
        q = EventQueue()
        fired = []
        handle = q.push(1, lambda: fired.append("cancelled"))
        q.push(2, lambda: fired.append("kept"))
        handle.cancel()
        while (event := q.pop()) is not None:
            event.callback()
        assert fired == ["kept"]

    def test_peek_tick_skips_cancelled(self):
        q = EventQueue()
        handle = q.push(1, lambda: None)
        q.push(7, lambda: None)
        handle.cancel()
        assert q.peek_tick() == 7

    def test_peek_empty(self):
        assert EventQueue().peek_tick() is None

    def test_len(self):
        q = EventQueue()
        q.push(1, lambda: None)
        q.push(2, lambda: None)
        assert len(q) == 2


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
        sim = Simulator()
        for i in range(32):
            sim.schedule(i + 1, lambda: None)
        sim.run()
        assert sim.freelist_high_water > 0
        first = sim.diagnostics()
        sim.reset()
        assert sim.freelist_high_water == 0
        assert sim.events_skipped == 0
        assert sim.diagnostics()["freelist_high_water"] == 0
        # A rerun reports per-run numbers, not cumulative ones.
        for i in range(32):
            sim.schedule(i + 1, lambda: None)
        sim.run()
        assert sim.diagnostics() == first

    def test_events_skipped_cleared_by_reset(self):
        sim = Simulator()
        sim.schedule(1, lambda: None).cancel()
        sim.schedule(2, lambda: None)
        sim.run()
        assert sim.events_skipped == 1
        sim.reset()
        assert sim.events_skipped == 0


class TestFreelist:
    """Executed and reaped events recycle through the queue's slab."""

    def test_executed_events_are_recycled(self):
        sim = Simulator()
        seen = []

        def chain():
            if len(seen) < 5:
                handle = sim.schedule(1, chain)
                seen.append(handle)

        sim.schedule(1, chain)
        sim.run()
        # Steady-state rescheduling recycles handles: the executing event
        # returns to the freelist only after its callback finishes, so a
        # single train ping-pongs between (at most) two objects instead
        # of allocating five.
        assert len(set(map(id, seen))) <= 2

    def test_no_allocation_in_steady_state(self):
        sim = Simulator()
        count = {"n": 0}

        def fire():
            count["n"] += 1
            if count["n"] < 1000:
                sim.schedule(3, fire)

        sim.schedule(1, fire)
        before = len(sim.queue._free)
        sim.run()
        # One live train running 1000 events allocates at most two Event
        # objects total (the ping-pong pair); the freelist holds them at
        # the end instead of having churned a thousand allocations.
        assert len(sim.queue._free) <= before + 2

    def test_reset_discards_freelist_and_counters(self):
        sim = Simulator()
        handle = sim.schedule(1, lambda: None)
        handle.cancel()
        sim.schedule(2, lambda: None)
        sim.run()
        assert sim.events_skipped == 1
        sim.reset()
        assert sim.events_skipped == 0
        assert len(sim.queue._free) == 0
        assert sim.queue._seq == 0

    def test_cancelled_events_counted_by_pop_and_peek(self):
        q = EventQueue()
        a = q.push(1, lambda: None)
        q.push(2, lambda: None)
        b = q.push(3, lambda: None)
        a.cancel()
        b.cancel()
        assert q.peek_tick() == 2  # reaps the cancelled head
        assert q.skipped_cancelled == 1
        assert q.pop().when == 2
        assert q.pop() is None  # reaps the trailing cancelled event
        assert q.skipped_cancelled == 2

    def test_cancel_after_completion_is_rejected(self):
        # A released handle (fired, sitting on the freelist) must refuse
        # cancel() rather than silently killing a future recycled event.
        sim = Simulator()
        handle = sim.schedule(1, lambda: None)
        sim.run()
        with pytest.raises(RuntimeError, match="completed event handle"):
            handle.cancel()

    def test_run_counts_skipped_cancelled(self):
        sim = Simulator()
        for tick in (1, 2, 3, 4):
            handle = sim.schedule(tick, lambda: None)
            if tick % 2:
                handle.cancel()
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
