"""Coherent memory bus (MemBus).

The MemBus connects the CPU cluster, the memory controller and the PCIe
root complex (Fig. 1 of the paper).  It provides:

* address-ranged routing to downstream targets,
* bounded bandwidth (``width`` bytes per cycle at the bus clock) plus a
  fixed forward latency, modelled as a pipelined shared medium,
* a snoop path: registered snoopers (caches) are invalidated when a write
  from a *different* source crosses the bus, the lightweight coherency
  model the paper adds between the accelerator cache and the CPU cache.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.memory.addr_range import AddrRange
from repro.sim.eventq import Simulator
from repro.sim.ports import CompletionFn, TargetPort
from repro.sim.simobject import ClockedObject
from repro.sim.transaction import Transaction
from repro.sim.ticks import ns


class MemBus(ClockedObject, TargetPort):
    """Address-routed, bandwidth-limited coherent crossbar.

    Parameters
    ----------
    freq_hz:
        Bus clock.
    width:
        Bytes moved per bus cycle (the crossbar width).
    latency:
        Fixed forward latency in ticks (arbitration + crossbar traversal).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        freq_hz: float = 1e9,
        width: int = 64,
        latency: int = ns(10),
    ) -> None:
        ClockedObject.__init__(self, sim, name, freq_hz)
        if width <= 0:
            raise ValueError(f"bus width must be positive, got {width}")
        self.width = width
        self.latency = latency
        self._targets: List[Tuple[AddrRange, TargetPort]] = []
        self._snoopers: List[Tuple[str, object]] = []
        self._wire_free_at = 0

        self._txns = self.stats.scalar("transactions", "transactions routed")
        self._bytes = self.stats.scalar("bytes", "bytes moved")
        self._snoop_invalidations = self.stats.scalar(
            "snoop_invalidations", "snoop-triggered line invalidations"
        )
        self._unrouted = self.stats.scalar("unrouted", "transactions with no target")

    def reset_state(self) -> None:
        super().reset_state()
        self._wire_free_at = 0

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def attach(self, range_: AddrRange, target: TargetPort) -> None:
        """Route ``range_`` to ``target``.  Ranges must not overlap."""
        for existing, _ in self._targets:
            if existing.overlaps(range_):
                raise ValueError(
                    f"range {range_} overlaps existing route {existing}"
                )
        self._targets.append((range_, target))

    def add_snooper(self, source_name: str, cache) -> None:
        """Register a cache to be invalidated by other masters' writes.

        ``source_name`` is matched (by prefix) against ``txn.source`` so a
        cache never snoops its own traffic.
        """
        self._snoopers.append((source_name, cache))

    def route(self, addr: int) -> Optional[TargetPort]:
        """Target serving ``addr``, or None."""
        for range_, target in self._targets:
            if range_.contains(addr):
                return target
        return None

    # ------------------------------------------------------------------
    # TargetPort interface
    # ------------------------------------------------------------------
    def send(self, txn: Transaction, on_complete: CompletionFn) -> None:
        target = self.route(txn.addr)
        if target is None:
            self._unrouted.inc()
            raise ValueError(
                f"{self.name}: no route for address {txn.addr:#x} "
                f"({len(self._targets)} ranges attached)"
            )
        self._txns.inc()
        self._bytes.inc(txn.size)

        # Writes and read-for-ownership fetches invalidate sharers.
        if txn.is_write or txn.for_ownership:
            self._snoop_write(txn)

        cycles_needed = -(-txn.size // self.width)
        occupancy = cycles_needed * self.clock_period
        start = max(self.now, self._wire_free_at)
        self._wire_free_at = start + occupancy
        arrival = start + occupancy + self.latency
        self.sim.schedule_at(arrival, lambda: target.send(txn, on_complete))

    def _snoop_write(self, txn: Transaction) -> None:
        """Invalidate other masters' cached copies of a written range."""
        for source_name, cache in self._snoopers:
            if txn.source.startswith(source_name):
                continue
            dropped = cache.invalidate_range(txn.addr, txn.size)
            if dropped:
                self._snoop_invalidations.inc(dropped)
