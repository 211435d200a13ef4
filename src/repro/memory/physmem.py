"""Functional backing store.

:class:`PhysicalMemory` holds the actual bytes behind a physical address
range.  It is *sparse*: storage is allocated in fixed-size frames on first
touch, so a simulated 4 GB DRAM costs only as much host memory as the
workload actually writes.  All timing models share one backing store per
memory device; timing-only runs never touch it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.memory.addr_range import AddrRange

if TYPE_CHECKING:
    import numpy as np

    from repro.sim.transaction import Payload

#: Default sparse-allocation frame (2 MiB, like a huge page).
DEFAULT_FRAME_SIZE = 2 * 1024 * 1024


class PhysicalMemory:
    """Sparse byte-addressable backing store for an address range."""

    def __init__(self, range_: AddrRange, frame_size: int = DEFAULT_FRAME_SIZE) -> None:
        if frame_size <= 0 or frame_size & (frame_size - 1):
            raise ValueError(f"frame size must be a power of two, got {frame_size}")
        self.range = range_
        self.frame_size = frame_size
        self._frames: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _frame_for(self, addr: int, allocate: bool) -> np.ndarray | None:
        index = addr // self.frame_size
        frame = self._frames.get(index)
        if frame is None and allocate:
            import numpy as np

            frame = np.zeros(self.frame_size, dtype=np.uint8)
            self._frames[index] = frame
        return frame

    def _check(self, addr: int, size: int) -> None:
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        span = AddrRange.from_size(addr, size)
        if not self.range.contains_range(span):
            raise ValueError(f"access {span} outside backing range {self.range}")

    # ------------------------------------------------------------------
    # Byte-level access
    # ------------------------------------------------------------------
    def read(self, addr: int, size: int) -> np.ndarray:
        """Read ``size`` bytes starting at ``addr`` (unwritten bytes are 0)."""
        import numpy as np

        self._check(addr, size)
        out = np.empty(size, dtype=np.uint8)
        done = 0
        while done < size:
            cur = addr + done
            frame = self._frame_for(cur, allocate=False)
            offset = cur % self.frame_size
            chunk = min(size - done, self.frame_size - offset)
            if frame is None:
                out[done : done + chunk] = 0
            else:
                out[done : done + chunk] = frame[offset : offset + chunk]
            done += chunk
        return out

    def write(self, addr: int, data: Payload) -> None:
        """Write ``data`` (an array or any bytes-like) starting at ``addr``."""
        import numpy as np

        if isinstance(data, np.ndarray):
            flat = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        else:
            flat = np.frombuffer(data, dtype=np.uint8)
        self._check(addr, flat.nbytes)
        done = 0
        size = flat.nbytes
        while done < size:
            cur = addr + done
            frame = self._frame_for(cur, allocate=True)
            offset = cur % self.frame_size
            chunk = min(size - done, self.frame_size - offset)
            frame[offset : offset + chunk] = flat[done : done + chunk]
            done += chunk

    def clear(self) -> None:
        """Drop every frame; all bytes read as zero again (fresh store)."""
        self._frames.clear()

    @property
    def allocated_bytes(self) -> int:
        """Host bytes actually allocated so far."""
        return len(self._frames) * self.frame_size
