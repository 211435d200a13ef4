"""PCIe configuration space, enumeration and BAR assignment.

A minimal but functional model of the machinery a kernel driver uses to
find and map a device: each :class:`PCIeFunction` exposes a 4 KiB config
space with vendor/device IDs and Base Address Registers (BARs); the
:class:`ConfigSpace` enumerates functions and assigns BAR windows from an
MMIO aperture, exactly what the accelerator driver model
(:mod:`repro.accel.driver`) consumes.  This backs the "kernel driver
support" row of the paper's Table I.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.memory.addr_range import AddrRange

#: Standard config-space register offsets (type-0 header).
REG_COMMAND = 0x04
REG_BAR0 = 0x10

#: COMMAND register bits.
CMD_MEMORY_ENABLE = 0x2
CMD_BUS_MASTER_ENABLE = 0x4


@dataclass
class BAR:
    """One Base Address Register: a power-of-two MMIO window."""

    size: int
    prefetchable: bool = False
    assigned_base: Optional[int] = None

    def __post_init__(self) -> None:
        if self.size <= 0 or self.size & (self.size - 1):
            raise ValueError(f"BAR size must be a power of two, got {self.size}")
        if self.size < 128:
            raise ValueError(f"BAR size must be at least 128 bytes, got {self.size}")

    @property
    def range(self) -> AddrRange:
        if self.assigned_base is None:
            raise RuntimeError("BAR not assigned yet; run enumeration first")
        return AddrRange.from_size(self.assigned_base, self.size)


@dataclass
class PCIeFunction:
    """One PCIe endpoint function with its config header."""

    vendor_id: int
    device_id: int
    bars: List[BAR] = field(default_factory=list)
    command: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.vendor_id <= 0xFFFF:
            raise ValueError(f"vendor id out of range: {self.vendor_id:#x}")
        if not 0 <= self.device_id <= 0xFFFF:
            raise ValueError(f"device id out of range: {self.device_id:#x}")
        if len(self.bars) > 6:
            raise ValueError("a type-0 function has at most 6 BARs")

    @property
    def memory_enabled(self) -> bool:
        return bool(self.command & CMD_MEMORY_ENABLE)

    def config_write(self, offset: int, value: int) -> None:
        """Write a config register (COMMAND and BAR assignment)."""
        if offset == REG_COMMAND:
            self.command = value & 0xFFFF
        elif REG_BAR0 <= offset < REG_BAR0 + 4 * len(self.bars) and offset % 4 == 0:
            self.bars[(offset - REG_BAR0) // 4].assigned_base = value


class ConfigSpace:
    """Enumerates functions and carves BAR windows from an MMIO aperture."""

    def __init__(self, mmio_window: AddrRange) -> None:
        self.mmio_window = mmio_window
        self._functions: Dict[int, PCIeFunction] = {}
        self._next_slot = 0
        self._alloc_cursor = mmio_window.start

    def register(self, function: PCIeFunction) -> int:
        """Add a function; returns its device number (slot)."""
        slot = self._next_slot
        self._functions[slot] = function
        self._next_slot += 1
        return slot

    def function(self, slot: int) -> PCIeFunction:
        return self._functions[slot]

    def enumerate(self) -> List[int]:
        """Assign BAR addresses for every function (BIOS/kernel probe).

        Each BAR is naturally aligned to its size, as the spec requires.
        Returns the list of slots that were configured.
        """
        for slot in sorted(self._functions):
            function = self._functions[slot]
            for bar in function.bars:
                base = self._align_up(self._alloc_cursor, bar.size)
                if base + bar.size > self.mmio_window.end:
                    raise RuntimeError(
                        f"MMIO window {self.mmio_window} exhausted "
                        f"assigning {bar.size:#x}-byte BAR"
                    )
                bar.assigned_base = base
                self._alloc_cursor = base + bar.size
            function.config_write(
                REG_COMMAND, CMD_MEMORY_ENABLE | CMD_BUS_MASTER_ENABLE
            )
        return sorted(self._functions)

    def find_all(self, vendor_id: int, device_id: int) -> List[int]:
        """Every slot matching the IDs, in slot order (cluster probing)."""
        return [
            slot
            for slot in sorted(self._functions)
            if self._functions[slot].vendor_id == vendor_id
            and self._functions[slot].device_id == device_id
        ]

    @staticmethod
    def _align_up(value: int, alignment: int) -> int:
        return -(-value // alignment) * alignment
