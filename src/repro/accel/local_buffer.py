"""Local memory buffer (scratchpad) inside the accelerator wrapper.

Holds the operand panels currently being streamed into the systolic array
plus the prefetched next set (double buffering).  The model tracks
capacity -- the controller sizes its prefetch window against it -- and
provides scratchpad-speed access timing for components that read through
it (the wrapper's MMIO window exposes the buffer for debugging, and DevMem
mode stages through it).
"""

from __future__ import annotations

from typing import Dict

from repro.sim.eventq import Simulator
from repro.sim.ports import CompletionFn, TargetPort
from repro.sim.transaction import Transaction
from repro.sim.ticks import ns, serialization_ticks


class BufferFullError(Exception):
    """Raised when an allocation exceeds the scratchpad capacity."""


class LocalBuffer(TargetPort):
    """Capacity-tracked scratchpad with SRAM-class access timing.

    Allocation is tracked by byte count per tag (placement within the SRAM
    has no timing consequence); the controller uses the capacity check to
    size its prefetch window.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        capacity: int = 512 * 1024,
        latency: int = ns(2),
        bandwidth: int = 64 * 10**9,
    ) -> None:
        super().__init__(sim, name)
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.latency = latency
        self.bandwidth = bandwidth
        self._allocations: Dict[str, int] = {}
        self._in_use = 0
        self._port_free_at = 0

        self._reads = self.stats.scalar("reads", "read accesses")
        self._writes = self.stats.scalar("writes", "write accesses")
        self._bytes = self.stats.scalar("bytes", "bytes transferred")
        self._high_water = self.stats.scalar("high_water", "peak allocation")

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def alloc(self, tag: str, size: int) -> None:
        """Reserve ``size`` bytes under ``tag``.

        Raises :class:`BufferFullError` when the scratchpad cannot hold the
        request; callers treat that as backpressure and retry after a free.
        """
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        if tag in self._allocations:
            raise ValueError(f"tag {tag!r} already allocated")
        if self._in_use + size > self.capacity:
            raise BufferFullError(
                f"{self.name}: {size} bytes requested, "
                f"{self.capacity - self._in_use} free of {self.capacity}"
            )
        self._allocations[tag] = size
        self._in_use += size
        self._high_water.set(max(self._high_water.value, self._in_use))

    def free(self, tag: str) -> None:
        """Release the bytes held under ``tag`` (no-op if absent)."""
        size = self._allocations.pop(tag, None)
        if size is not None:
            self._in_use -= size

    def reset(self) -> None:
        """Drop every allocation (job boundary)."""
        self._allocations.clear()
        self._in_use = 0

    def reset_state(self) -> None:
        super().reset_state()
        self.reset()
        self._port_free_at = 0

    def holds(self, tag: str) -> bool:
        return tag in self._allocations

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def free_bytes(self) -> int:
        return self.capacity - self._in_use

    # ------------------------------------------------------------------
    # TargetPort interface (SRAM timing)
    # ------------------------------------------------------------------
    def send(self, txn: Transaction, on_complete: CompletionFn) -> None:
        if txn.is_read:
            self._reads.inc()
        else:
            self._writes.inc()
        self._bytes.inc(txn.size)
        serialize = serialization_ticks(txn.size, self.bandwidth)
        start = max(self.now, self._port_free_at)
        self._port_free_at = start + serialize
        self.sim.schedule_at(start + serialize + self.latency,
                             lambda: on_complete(txn))
