"""Unit tests for the SimObject base classes and the fixed-latency target."""

from repro.sim.eventq import Simulator
from repro.sim.ports import FixedLatencyTarget
from repro.sim.simobject import ClockedObject, SimObject
from repro.sim.ticks import GHZ, ns
from repro.sim.transaction import Transaction


class TestSimObject:
    def test_names_and_repr(self):
        sim = Simulator()
        obj = SimObject(sim, "system.thing")
        assert obj.name == "system.thing"
        assert "system.thing" in repr(obj)

    def test_now_property(self):
        sim = Simulator()
        obj = SimObject(sim, "o")
        sim.schedule(42, lambda: None)
        sim.run()
        assert obj.now == 42

    def test_clocked_object_cycles(self):
        sim = Simulator()
        obj = ClockedObject(sim, "c", 1 * GHZ)
        assert obj.clock_period == 1000
        assert obj.cycles(3) == 3000
        assert obj.ticks_to_cycles(2500) == 2.5

    def test_next_edge(self):
        sim = Simulator()
        obj = ClockedObject(sim, "c", 1 * GHZ)
        assert obj.next_edge(0) == 0
        assert obj.next_edge(1) == 1000
        assert obj.next_edge(1000) == 1000
        assert obj.next_edge(1001) == 2000


class TestFixedLatencyTarget:
    def test_completes_after_latency(self):
        sim = Simulator()
        target = FixedLatencyTarget(sim, "t", latency=ns(5))
        done = []
        target.send(Transaction.read(0, 64), lambda txn: done.append(sim.now))
        sim.run()
        assert done == [ns(5)]

    def test_counts_transactions(self):
        sim = Simulator()
        target = FixedLatencyTarget(sim, "t", latency=1)
        for _ in range(3):
            target.send(Transaction.read(0, 64), lambda txn: None)
        sim.run()
        assert target.stats["transactions"].value == 3

