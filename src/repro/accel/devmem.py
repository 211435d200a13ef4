"""Device-side memory (DevMem) behind its controller.

The DevMem controller of Fig. 1 sits between the accelerator and device
memory; access bypasses the whole PCIe hierarchy (arrow 6 in the paper),
which is why DevMem GEMM outperforms every host-side configuration -- and
why CPU-side (non-GEMM) access to the same memory pays the PCIe round trip
instead (the NUMA penalty of Fig. 8).

The memory itself is pluggable: a bank-state :class:`DRAMController` for
technology studies (Fig. 5) or a :class:`SimpleMemory` for bandwidth /
latency sweeps (Fig. 6).
"""

from __future__ import annotations

from typing import Optional

from repro.memory.addr_range import AddrRange
from repro.memory.dram import DRAMController
from repro.memory.dram.timings import DRAMTimings
from repro.memory.physmem import PhysicalMemory
from repro.memory.simple import SimpleMemory
from repro.sim.eventq import Simulator
from repro.sim.ports import CompletionFn, TargetPort

from repro.sim.transaction import Transaction
from repro.sim.ticks import ns


class DeviceMemory(TargetPort):
    """Device memory with its controller front-end.

    Parameters
    ----------
    range_:
        Physical window of the device memory in the system map.
    timings:
        DRAM preset for a bank-state model; mutually exclusive with
        ``simple_latency``/``simple_bandwidth``.
    ctrl_latency:
        Fixed controller traversal cost added to every access.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        range_: AddrRange,
        timings: Optional[DRAMTimings] = None,
        simple_latency: int = ns(40),
        simple_bandwidth: int = 64 * 10**9,
        ctrl_latency: int = ns(15),
        backing: Optional[PhysicalMemory] = None,
    ) -> None:
        super().__init__(sim, name)
        self.range = range_
        self.ctrl_latency = ctrl_latency
        if timings is not None:
            self.memory: TargetPort = DRAMController(
                sim, f"{name}.dram", timings, range_, backing
            )
        else:
            self.memory = SimpleMemory(
                sim,
                f"{name}.mem",
                range_,
                simple_latency,
                simple_bandwidth,
                backing,
            )
        self._accesses = self.stats.scalar("accesses", "controller accesses")

    def send(self, txn: Transaction, on_complete: CompletionFn) -> None:
        self._accesses.inc()
        memory_send = self.memory.send
        self.sim.schedule(
            self.ctrl_latency, lambda: memory_send(txn, on_complete)
        )
