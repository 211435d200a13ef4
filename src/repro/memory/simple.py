"""Fixed latency/bandwidth memory (gem5 ``SimpleMemory`` equivalent).

Used where the experiments sweep latency and bandwidth as free parameters
(Fig. 6) and as the default device-side memory model when a bank-level DRAM
model is not required.  Timing: each transaction serializes on the device's
data port at the configured bandwidth and completes one access latency after
its serialization finishes; back-to-back transactions pipeline.
"""

from __future__ import annotations

from typing import Optional

from repro.memory.addr_range import AddrRange
from repro.memory.physmem import PhysicalMemory
from repro.sim.eventq import Simulator
from repro.sim.ports import CompletionFn, TargetPort
from repro.sim.transaction import Transaction
from repro.sim.ticks import serialization_ticks


class SimpleMemory(TargetPort):
    """Memory with a fixed access latency and a bandwidth-limited port.

    Parameters
    ----------
    latency:
        Ticks from end of serialization to data availability.
    bandwidth:
        Port bandwidth in bytes per second.
    range_:
        Physical address range served.
    backing:
        Optional functional store; when present, reads fill ``txn.data`` and
        writes commit it.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        range_: AddrRange,
        latency: int,
        bandwidth: int,
        backing: Optional[PhysicalMemory] = None,
    ) -> None:
        super().__init__(sim, name)
        self.range = range_
        self.latency = latency
        self.bandwidth = bandwidth
        self.backing = backing
        self._port_free_at = 0
        self._reads = self.stats.scalar("reads", "read transactions")
        self._writes = self.stats.scalar("writes", "write transactions")
        self._bytes_read = self.stats.scalar("bytes_read", "bytes read")
        self._bytes_written = self.stats.scalar("bytes_written", "bytes written")
        self._busy_ticks = self.stats.scalar("busy_ticks", "port occupancy")

    def reset_state(self) -> None:
        super().reset_state()
        self._port_free_at = 0

    def send(self, txn: Transaction, on_complete: CompletionFn) -> None:
        if not self.range.contains(txn.addr):
            raise ValueError(
                f"{self.name}: address {txn.addr:#x} outside {self.range}"
            )
        if txn.is_read:
            self._reads.inc()
            self._bytes_read.inc(txn.size)
        else:
            self._writes.inc()
            self._bytes_written.inc(txn.size)

        serialize = serialization_ticks(txn.size, self.bandwidth)
        start = max(self.now, self._port_free_at)
        self._port_free_at = start + serialize
        self._busy_ticks.inc(serialize)
        done = start + serialize + self.latency

        if self.backing is not None:
            self._functional_access(txn)
        self.sim.schedule_at(done, lambda: on_complete(txn))

    def _functional_access(self, txn: Transaction) -> None:
        """Move payload bytes to/from the backing store."""
        if txn.is_read:
            txn.data = self.backing.read(txn.addr, txn.size)
        elif txn.data is not None:
            self.backing.write(txn.addr, txn.data)
