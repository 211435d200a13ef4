"""Address range algebra.

:class:`AddrRange` is a half-open interval ``[start, end)`` used for routing
decisions on the memory bus and for carving the physical address map
(host DRAM, device memory, MMIO windows).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AddrRange:
    """Half-open address interval ``[start, end)``."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"range start must be non-negative, got {self.start}")
        if self.end < self.start:
            raise ValueError(
                f"range end {self.end:#x} precedes start {self.start:#x}"
            )

    @classmethod
    def from_size(cls, start: int, size: int) -> "AddrRange":
        """Build a range from a start address and a byte size."""
        return cls(start, start + size)

    @property
    def size(self) -> int:
        return self.end - self.start

    def contains(self, addr: int) -> bool:
        """True if ``addr`` falls inside the range."""
        return self.start <= addr < self.end

    def contains_range(self, other: "AddrRange") -> bool:
        """True if ``other`` lies fully inside this range."""
        if other.size == 0:
            return self.contains(other.start) or other.start == self.end
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: "AddrRange") -> bool:
        """True if the two ranges share at least one byte."""
        return self.start < other.end and other.start < self.end

    def offset(self, addr: int) -> int:
        """Byte offset of ``addr`` from the start of the range."""
        if not self.contains(addr):
            raise ValueError(f"address {addr:#x} outside range {self}")
        return addr - self.start

    def __str__(self) -> str:
        return f"[{self.start:#x}, {self.end:#x})"

