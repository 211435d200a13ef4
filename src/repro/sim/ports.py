"""TLM-style connection points.

Components talk through a single protocol: a *target* exposes
``send(txn, on_complete)`` and invokes ``on_complete(txn)`` when the
transaction finishes (for reads: data returned; for writes: accepted at the
destination).  Initiators bound their own concurrency (DMA tags, CPU MSHRs),
so targets may queue without explicit retry handshakes; where hardware
credit-based backpressure matters (the PCIe link) it is modelled explicitly.
Each component carries its own timing model; :class:`FixedLatencyTarget`
is the one generic target, a stub and terminator.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.eventq import Simulator
from repro.sim.simobject import SimObject
from repro.sim.transaction import Transaction

#: Completion callback signature.
CompletionFn = Callable[[Transaction], None]


class TargetPort(SimObject):
    """Abstract base for anything that accepts transactions."""

    def send(self, txn: Transaction, on_complete: CompletionFn) -> None:
        """Accept ``txn``; call ``on_complete(txn)`` when it finishes."""
        raise NotImplementedError


class FixedLatencyTarget(TargetPort):
    """A target that completes every transaction after a fixed latency.

    Useful as a test stub and as a terminator for ranges that need no
    detailed model (e.g. MMIO doorbell registers).
    """

    def __init__(self, sim: Simulator, name: str, latency: int) -> None:
        super().__init__(sim, name)
        self.latency = latency
        self._count = self.stats.scalar("transactions", "transactions completed")

    def send(self, txn: Transaction, on_complete: CompletionFn) -> None:
        self._count.inc()
        self.sim.schedule(self.latency, lambda: on_complete(txn))

