"""In-order timing CPU with a bounded memory-level-parallelism window.

The CPU executes *kernels*: streaming loops that read input tensors,
spend compute cycles per element, and write outputs.  Memory traffic is
issued as segment transactions through the CPU's cache port with at most
``mlp_window`` in flight, and compute is modelled as a cycle budget that
overlaps memory time (the slower of the two dominates, as in a balanced
in-order core with a stream prefetcher).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.sim.eventq import Simulator
from repro.sim.ports import TargetPort
from repro.sim.simobject import ClockedObject
from repro.sim.transaction import MemCmd, Transaction


@dataclass(frozen=True)
class StreamRef:
    """One tensor the kernel touches: (address, bytes, read-or-write)."""

    addr: int
    size: int
    is_read: bool = True

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"stream size must be positive, got {self.size}")


class TimingCPU(ClockedObject):
    """Single in-order core issuing kernel memory streams."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        mem_port: TargetPort,
        freq_hz: float = 1e9,
        mlp_window: int = 8,
        segment_bytes: int = 1024,
    ) -> None:
        super().__init__(sim, name, freq_hz)
        if mlp_window <= 0:
            raise ValueError(f"MLP window must be positive, got {mlp_window}")
        if segment_bytes < 64:
            raise ValueError(f"segment size too small: {segment_bytes}")
        self.mem_port = mem_port
        self.mlp_window = mlp_window
        self.segment_bytes = segment_bytes
        self._busy = False

        self._kernels = self.stats.scalar("kernels", "kernels executed")
        self._mem_bytes = self.stats.scalar("mem_bytes", "bytes streamed")
        self._compute_ticks = self.stats.scalar("compute_ticks", "compute time")
        self._mem_stall_ticks = self.stats.scalar(
            "mem_stall_ticks", "time memory exceeded compute"
        )

    def reset_state(self) -> None:
        super().reset_state()
        self._busy = False

    # ------------------------------------------------------------------
    # Kernel execution
    # ------------------------------------------------------------------
    def run_kernel(
        self,
        streams: List[StreamRef],
        compute_cycles: int,
        on_done: Callable[[int], None],
    ) -> None:
        """Stream ``streams`` while spending ``compute_cycles``.

        ``on_done(elapsed_ticks)`` fires when both the compute budget and
        all memory traffic have retired.  Kernels are serialized (a single
        core).
        """
        if self._busy:
            raise RuntimeError(f"{self.name}: kernel already running")
        self._busy = True
        self._kernels.inc()
        start = self.now

        segments = self._segment(streams)
        compute_ticks = compute_cycles * self.clock_period
        self._compute_ticks.inc(compute_ticks)

        if not segments:
            # Pure-compute kernel.
            def retire_compute() -> None:
                self._busy = False
                on_done(compute_ticks)

            self.sim.schedule(compute_ticks, retire_compute)
            return
        _Kernel(self, segments, start, compute_ticks, on_done).issue()

    def _segment(self, streams: List[StreamRef]) -> List[Tuple[int, int, bool]]:
        """Cut tensors into interleaved issue-order segments."""
        per_stream: List[List[Tuple[int, int, bool]]] = []
        for stream in streams:
            pieces = []
            offset = 0
            while offset < stream.size:
                size = min(self.segment_bytes, stream.size - offset)
                pieces.append((stream.addr + offset, size, stream.is_read))
                offset += size
            per_stream.append(pieces)
        # Interleave round-robin: kernels walk their tensors in lockstep.
        interleaved: List[Tuple[int, int, bool]] = []
        cursors = [0] * len(per_stream)
        remaining = sum(len(p) for p in per_stream)
        while remaining:
            for index, pieces in enumerate(per_stream):
                if cursors[index] < len(pieces):
                    interleaved.append(pieces[cursors[index]])
                    cursors[index] += 1
                    remaining -= 1
        return interleaved

    @property
    def busy(self) -> bool:
        return self._busy


class _Kernel:
    """One running :meth:`TimingCPU.run_kernel` with memory traffic.

    The memory port and the event queue call this object's methods back
    and it holds no reference to either, so it is freed by reference
    counting once the kernel retires (docs/PERFORMANCE.md, "Garbage
    collection").
    """

    __slots__ = ("cpu", "segments", "next", "outstanding", "mem_done_at",
                 "start", "compute_ticks", "on_done", "done_at")

    def __init__(self, cpu: TimingCPU, segments: List[Tuple[int, int, bool]],
                 start: int, compute_ticks: int,
                 on_done: Callable[[int], None]) -> None:
        self.cpu = cpu
        self.segments = segments
        self.next = 0
        self.outstanding = 0
        self.mem_done_at = start
        self.start = start
        self.compute_ticks = compute_ticks
        self.on_done = on_done
        self.done_at = start

    def issue(self) -> None:
        cpu = self.cpu
        segments = self.segments
        while self.next < len(segments) and self.outstanding < cpu.mlp_window:
            addr, size, is_read = segments[self.next]
            self.next += 1
            self.outstanding += 1
            cmd = MemCmd.READ if is_read else MemCmd.WRITE
            txn = Transaction(cmd, addr, size, source=cpu.name)
            cpu._mem_bytes.inc(size)
            cpu.mem_port.send(txn, self.segment_done)

    def segment_done(self, _txn: Transaction) -> None:
        self.outstanding -= 1
        self.mem_done_at = max(self.mem_done_at, self.cpu.now)
        if self.next < len(self.segments):
            self.issue()
        elif self.outstanding == 0:
            self.finish()

    def finish(self) -> None:
        cpu = self.cpu
        mem_ticks = self.mem_done_at - self.start
        total = max(mem_ticks, self.compute_ticks)
        if mem_ticks > self.compute_ticks:
            cpu._mem_stall_ticks.inc(mem_ticks - self.compute_ticks)
        self.done_at = self.start + total
        cpu.sim.schedule_at(max(self.done_at, cpu.now), self.retire)

    def retire(self) -> None:
        self.cpu._busy = False
        self.on_done(self.done_at - self.start)
