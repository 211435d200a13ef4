"""SimObject and ClockedObject base classes.

Every simulated component derives from :class:`SimObject`, which binds it to
a :class:`~repro.sim.eventq.Simulator` (components schedule through
``self.sim``) and gives it a hierarchical name and a stats group.
:class:`ClockedObject` adds a clock domain (period in ticks) with cycle
arithmetic, mirroring gem5's class of the same name.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.eventq import Simulator
from repro.sim.statistics import StatGroup
from repro.sim.ticks import freq_to_period


class SimObject:
    """Base class for all simulated components."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.stats = StatGroup(name)
        sim.register(self)

    def reset_state(self) -> None:
        """Restore construction-time state so the object can be reused.

        The base implementation clears statistics; components with
        additional mutable state (tag stores, queues, busy-until
        timestamps, ...) override this and call ``super().reset_state()``.
        Topology -- wiring established at construction or by one-time
        setup such as driver probe -- is deliberately preserved.
        """
        self.stats.reset()

    def schedule(self, delay: int, callback: Callable[[], None]) -> list:
        """``self.sim.schedule(delay, callback)``.

        No component calls it: each calls ``self.sim.schedule`` and
        saves this frame per event.  It stays only because
        ``perfbench/tests/test_perfbench.py`` uses it as its example of
        an inherited ``repro.sim`` method; delete it when that test
        takes another.
        """
        return self.sim.schedule(delay, callback)

    @property
    def now(self) -> int:
        """Current simulation tick."""
        return self.sim.now

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class ClockedObject(SimObject):
    """A SimObject in a clock domain.

    Parameters
    ----------
    freq_hz:
        Clock frequency in Hz; the period is stored in ticks.
    """

    def __init__(self, sim: Simulator, name: str, freq_hz: float) -> None:
        super().__init__(sim, name)
        self.freq_hz = freq_hz
        self.clock_period = freq_to_period(freq_hz)

    def cycles(self, n: float) -> int:
        """Duration of ``n`` clock cycles in ticks (rounded up)."""
        return -(-int(n * self.clock_period) // 1)
