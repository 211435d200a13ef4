"""TLM-style connection points and generic timing building blocks.

Components talk through a single protocol: a *target* exposes
``send(txn, on_complete)`` and invokes ``on_complete(txn)`` when the
transaction finishes (for reads: data returned; for writes: accepted at the
destination).  Initiators bound their own concurrency (DMA tags, CPU MSHRs),
so targets may queue without explicit retry handshakes; where hardware
credit-based backpressure matters (the PCIe link) it is modelled explicitly.

Two reusable timing elements cover most components:

* :class:`QueueStation` -- a single-server FIFO with a per-transaction
  service time (memory controller front-ends, switch forwarding logic).
* :class:`PipelinedLink` -- a serialized channel where a transaction
  occupies the wire for its serialization time but propagation overlaps
  with the next transaction (buses, PCIe lanes).
"""

from __future__ import annotations

from typing import Callable, Optional

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
        self.schedule(self.latency, lambda: on_complete(txn))


class QueueStation(TargetPort):
    """Single-server FIFO station.

    Subclasses (or callers via ``service_fn``) define the per-transaction
    service time.  The station serves transactions in arrival order; a
    transaction's completion fires ``service_time`` ticks after the server
    becomes free for it.  An optional ``forward_to`` target chains stations:
    completion then means "accepted downstream" and the downstream target's
    completion is propagated.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        service_fn: Optional[Callable[[Transaction], int]] = None,
        forward_to: Optional[TargetPort] = None,
    ) -> None:
        super().__init__(sim, name)
        self._service_fn = service_fn
        self.forward_to = forward_to
        self._server_free_at = 0
        self._queued = self.stats.scalar("transactions", "transactions served")
        self._busy_ticks = self.stats.scalar("busy_ticks", "server busy time")

    def service_time(self, txn: Transaction) -> int:
        """Service time for one transaction; override or pass service_fn."""
        if self._service_fn is None:
            raise NotImplementedError("provide service_fn or override service_time")
        return self._service_fn(txn)

    def reset_state(self) -> None:
        super().reset_state()
        self._server_free_at = 0

    def send(self, txn: Transaction, on_complete: CompletionFn) -> None:
        sim = self.sim
        now = sim.now
        start = now if now > self._server_free_at else self._server_free_at
        service = self.service_time(txn)
        done = start + service
        self._server_free_at = done
        # Batched stat update (equivalent to inc() per counter).
        self._queued.value += 1
        self._busy_ticks.value += service
        self.stats.dirty = True
        if self.forward_to is None:
            sim.schedule_at(done, lambda: on_complete(txn), name=self.name)
        else:
            target = self.forward_to
            sim.schedule_at(done, lambda: target.send(txn, on_complete),
                            name=self.name)

    @property
    def backlog_ticks(self) -> int:
        """How far in the future the server is already committed."""
        return max(0, self._server_free_at - self.now)


class PipelinedLink(TargetPort):
    """A serialized, pipelined channel.

    Each transaction holds the wire for ``serialize(txn)`` ticks starting
    when the wire frees up; it then *propagates* for ``prop_delay`` ticks
    while the next transaction may already be on the wire.  This is the
    standard bus/link model: throughput set by serialization, latency by
    serialization + propagation.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        serialize_fn: Callable[[Transaction], int],
        prop_delay: int = 0,
        forward_to: Optional[TargetPort] = None,
    ) -> None:
        super().__init__(sim, name)
        self._serialize_fn = serialize_fn
        self.prop_delay = prop_delay
        self.forward_to = forward_to
        self._wire_free_at = 0
        self._count = self.stats.scalar("transactions", "transactions carried")
        self._bytes = self.stats.scalar("bytes", "payload bytes carried")
        self._busy_ticks = self.stats.scalar("busy_ticks", "wire occupancy")

    def reset_state(self) -> None:
        super().reset_state()
        self._wire_free_at = 0

    def send(self, txn: Transaction, on_complete: CompletionFn) -> None:
        sim = self.sim
        now = sim.now
        start = now if now > self._wire_free_at else self._wire_free_at
        serialize = self._serialize_fn(txn)
        self._wire_free_at = start + serialize
        # Batched stat update (equivalent to inc() per counter).
        self._count.value += 1
        self._bytes.value += txn.size
        self._busy_ticks.value += serialize
        self.stats.dirty = True
        arrival = start + serialize + self.prop_delay
        if self.forward_to is None:
            sim.schedule_at(arrival, lambda: on_complete(txn),
                            name=self.name)
        else:
            target = self.forward_to
            sim.schedule_at(arrival, lambda: target.send(txn, on_complete),
                            name=self.name)

    @property
    def backlog_ticks(self) -> int:
        """How far in the future the wire is already committed."""
        return max(0, self._wire_free_at - self.now)
