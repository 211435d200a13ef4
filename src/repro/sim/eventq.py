"""Event heap and simulation driver.

The :class:`Simulator` owns a single global event heap ordered by
``(tick, priority, sequence)``.  Ties at the same tick are broken first by an
explicit priority (lower runs earlier) and then by insertion order, which
makes runs fully deterministic -- a property the regression tests rely on.

Hot-path design
---------------
This module is the innermost loop of every experiment, so an event is
nothing but its heap entry, the list ``[when, priority, seq, callback]``:

* List comparison runs entirely in C and, because ``seq`` is unique,
  never falls through to comparing the callbacks.
* :meth:`Simulator.schedule` and :meth:`Simulator.schedule_at` return the
  entry itself as the event's handle.  :meth:`Simulator.cancel` clears
  its callback slot; the run loop skips such an entry when it surfaces
  and counts it in :attr:`Simulator.events_skipped`.  Cancelling an event
  that already ran changes nothing.
* ``Simulator.run`` is the one dispatch loop, with locals-bound heap
  operations.  ``run_until_idle`` drives it in chunks, throttling the
  ``quiesce()`` predicate adaptively instead of calling it per event.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Callable, Optional

#: Default event priority.  Lower values run first within a tick.
PRIORITY_DEFAULT = 100
#: Priority for bookkeeping events that must observe a settled state.
PRIORITY_LATE = 1000

#: run_until_idle throttle: after this many consecutive "not quiesced"
#: answers the chunk between checks doubles, up to the cap.  Short runs
#: (fewer than BACKOFF_AFTER events) therefore see exactly the historical
#: check-after-every-event behaviour.
_QUIESCE_BACKOFF_AFTER = 8
_QUIESCE_MAX_INTERVAL = 64


class Simulator:
    """Drives the event heap and tracks the current tick.

    A single Simulator instance is shared by every :class:`SimObject` in a
    system.  Typical use::

        sim = Simulator()
        sim.schedule(ns(10), lambda: print("hello at 10ns"))
        sim.run()

    The simulator also keeps a registry of every :class:`SimObject` bound
    to it (in construction order), which is what lets a fully wired system
    be reset to its pristine state and reused for another run instead of
    being rebuilt from scratch.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = count()
        self.now: int = 0
        self._running = False
        self.events_executed: int = 0
        #: Cancelled events the run loop skipped since the last reset.
        self.events_skipped: int = 0
        #: Every SimObject constructed against this simulator, in order.
        self.objects: list = []

    def register(self, obj) -> None:
        """Record a SimObject for system-wide reset walks."""
        self.objects.append(obj)

    def reset(self) -> None:
        """Rewind to tick 0 with an empty heap.

        Replacing the heap and the sequence counter means a reset
        simulator schedules events in exactly the order a freshly built
        one would -- a precondition for reused systems producing
        bit-identical results.  The counters describe one run, so they
        restart too.
        """
        if self._running:
            raise RuntimeError("cannot reset a running simulator")
        self._heap = []
        self._seq = count()
        self.now = 0
        self.events_executed = 0
        self.events_skipped = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: int,
        callback: Callable[[], None],
        priority: int = PRIORITY_DEFAULT,
    ) -> list:
        """Schedule ``callback`` to run ``delay`` ticks from now; return
        its event (the heap entry), which :meth:`cancel` accepts."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        event = [self.now + delay, priority, next(self._seq), callback]
        heappush(self._heap, event)
        return event

    def schedule_at(
        self,
        when: int,
        callback: Callable[[], None],
        priority: int = PRIORITY_DEFAULT,
    ) -> list:
        """Schedule ``callback`` to run at absolute tick ``when``."""
        if when < self.now:
            raise ValueError(
                f"cannot schedule at tick {when}, current tick is {self.now}"
            )
        event = [when, priority, next(self._seq), callback]
        heappush(self._heap, event)
        return event

    def cancel(self, event: list) -> None:
        """Cancel ``event``: it stays queued and is skipped when reached.

        Cancelling an event that has already run (or was cancelled
        before) does nothing.
        """
        event[3] = None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the heap drains (or limits hit).

        Parameters
        ----------
        until:
            Stop before executing events scheduled after this tick; they
            stay queued for the next call.
        max_events:
            Stop after this many events (a non-positive budget runs
            nothing).

        Returns the tick of the last executed event (i.e. ``self.now``).
        This is the one event-dispatch loop.  It pops before testing
        ``until``: the one event popped past the limit is pushed back,
        which leaves the pop order unchanged (``seq`` makes every key
        unique).  A cancelled event is skipped wherever it surfaces,
        past the limit too.  ``now`` mirrors ``self.now`` in a local so
        the monotonicity check costs a local load (the attribute store
        remains, because callbacks read ``self.now``).
        """
        if max_events is not None and max_events <= 0:
            return self.now
        running = self._running
        self._running = True
        executed = 0
        skipped = 0
        heap = self._heap
        pop = heappop
        budget = max_events if max_events is not None else (1 << 62)
        limit = until if until is not None else (1 << 62)
        now = self.now
        try:
            while heap:
                event = pop(heap)
                when, _prio, _seq, callback = event
                if callback is None:
                    skipped += 1
                    continue
                if when > limit:
                    heappush(heap, event)
                    break
                if when < now:
                    raise RuntimeError(
                        f"event {callback!r} scheduled at {when} "
                        f"but time already at {now}"
                    )
                self.now = now = when
                callback()
                executed += 1
                if executed >= budget:
                    break
        finally:
            self.events_executed += executed
            self.events_skipped += skipped
            self._running = running
        return self.now

    def run_until_idle(self, quiesce: Callable[[], bool], max_events: int = 10**9) -> int:
        """Run until ``quiesce()`` returns True.

        Drives :meth:`run` in chunks with the predicate evaluated between
        chunks.  The chunk starts at one event; after ``quiesce`` has
        answered "not yet" a handful of times in a row it doubles (up to
        a small cap), so long drains stop paying a Python call per event.
        Short runs see check-after-every-event behaviour exactly; a
        throttled run may execute up to one chunk of extra events after
        the predicate first turns true.  A chunk that runs short means
        the heap drained: the method gives up without quiescing, like
        :meth:`run`.  The predicate is always re-checked before an
        event-budget failure, so this method never reports quiescence
        that does not hold.

        Raises ``RuntimeError`` if the ``max_events`` budget is exhausted
        before the system quiesces, or if time would move backwards --
        the monotonicity contract :meth:`run` enforces.
        """
        running = self._running
        self._running = True  # reset() stays refused between chunks
        executed = 0
        interval = 1
        misses = 0  # consecutive "not quiesced" answers at this interval
        try:
            while not quiesce():
                if executed >= max_events:
                    raise RuntimeError(
                        f"run_until_idle exhausted max_events="
                        f"{max_events} before quiescing"
                    )
                misses += 1
                if (misses >= _QUIESCE_BACKOFF_AFTER
                        and interval < _QUIESCE_MAX_INTERVAL):
                    interval <<= 1
                    misses = 0
                chunk = min(interval, max_events - executed)
                before = self.events_executed
                self.run(max_events=chunk)
                ran = self.events_executed - before
                executed += ran
                if ran < chunk:
                    break  # heap empty and quiesce still false: give up
        finally:
            self._running = running
        return self.now

    @property
    def pending_events(self) -> int:
        """Number of events still in the heap (including cancelled)."""
        return len(self._heap)

    def diagnostics(self) -> dict:
        """Run-health counters (all reset by :meth:`reset`)."""
        return {
            "events_executed": self.events_executed,
            "events_skipped": self.events_skipped,
        }
