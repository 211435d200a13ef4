"""Kernel-driver model for the AcceSys accelerator.

Follows the life cycle of a real PCIe accelerator driver:

1. **probe** -- find the device in config space by vendor/device ID and
   record its BAR windows (the system has already enumerated),
2. **pin** -- allocate physically contiguous host buffers and install
   their virtual-to-physical mappings in the SMMU page table, so the
   device can use virtual addresses,
3. **launch** -- program the job registers and ring the doorbell through
   real MMIO transactions over the PCIe down channel (launch latency is
   simulated, not assumed),
4. **complete** -- receive the MSI-style completion interrupt.

This is the "Kernel Driver Support" row of the paper's Table I.
"""

from __future__ import annotations

import struct
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.accel.controller import GemmJob
from repro.faults.spec import DeviceLostError
from repro.accel.wrapper import (
    ACCESYS_DEVICE_ID,
    ACCESYS_VENDOR_ID,
    REG_A_ADDR,
    REG_B_ADDR,
    REG_C_ADDR,
    REG_DOORBELL,
    REG_ELEMENT_BYTES,
    REG_K,
    REG_M,
    REG_N,
    REG_PACKET_SIZE,
    AcceleratorWrapper,
)
from repro.interconnect.pcie.config_space import ConfigSpace
from repro.interconnect.pcie.fabric import PCIeFabric
from repro.memory.addr_range import AddrRange
from repro.sim.eventq import Simulator
from repro.sim.simobject import SimObject
from repro.sim.transaction import Transaction
from repro.smmu.page_table import PAGE_SIZE, PageTable

if TYPE_CHECKING:
    import numpy as np


class BumpAllocator:
    """Page-granular bump allocator over a physical range."""

    def __init__(self, range_: AddrRange) -> None:
        self.range = range_
        self._cursor = range_.start

    def reset(self) -> None:
        """Release everything (the arena survives; addresses are reused)."""
        self._cursor = self.range.start

    def alloc(self, size: int, align: int = PAGE_SIZE) -> int:
        """Allocate ``size`` bytes aligned to ``align``."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        base = -(-self._cursor // align) * align
        if base + size > self.range.end:
            raise MemoryError(
                f"allocator exhausted: {size} bytes requested in {self.range}"
            )
        self._cursor = base + size
        return base


class AccelDriver(SimObject):
    """Host-side driver for one accelerator function."""

    #: Device virtual address where pinned buffers start (when SMMU used).
    IOVA_BASE = 0x1000_0000
    #: Per-device IOVA window (cluster members get disjoint spaces).
    IOVA_WINDOW = 0x4000_0000

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config_space: ConfigSpace,
        fabric: PCIeFabric,
        wrapper: AcceleratorWrapper,
        host_allocator: BumpAllocator,
        page_table: Optional[PageTable] = None,
        device_index: int = 0,
    ) -> None:
        super().__init__(sim, name)
        self.config_space = config_space
        self.fabric = fabric
        self.wrapper = wrapper
        self.host_allocator = host_allocator
        self.page_table = page_table
        self.device_index = device_index
        self.slot: Optional[int] = None
        #: Endpoint stall/crash schedule
        #: (:class:`repro.faults.injector.EndpointFaultState`); attached
        #: by the system's fault model, ``None`` on fault-free runs.
        #: Like the probe binding it is topology, so it survives reset.
        self.fault_state = None
        self._iova_cursor = self.IOVA_BASE + device_index * self.IOVA_WINDOW
        #: Pinned buffer tag -> its physical address.
        self._buffers: Dict[str, int] = {}
        self._completion_cb = None
        self._mmio_writes = self.stats.scalar("mmio_writes", "register writes issued")
        self._launches = self.stats.scalar("launches", "jobs launched")

    def reset_state(self) -> None:
        # The probe binding (slot, MSI wiring) is topology and survives;
        # buffer pins and IOVA assignments are per-run state.
        super().reset_state()
        self._iova_cursor = self.IOVA_BASE + self.device_index * self.IOVA_WINDOW
        self._buffers.clear()
        self._completion_cb = None

    # ------------------------------------------------------------------
    # Probe
    # ------------------------------------------------------------------
    def probe(self) -> bool:
        """Bind to the ``device_index``-th matching function."""
        slots = self.config_space.find_all(ACCESYS_VENDOR_ID, ACCESYS_DEVICE_ID)
        if self.device_index >= len(slots):
            return False
        slot = slots[self.device_index]
        function = self.config_space.function(slot)
        if not function.memory_enabled:
            return False
        self.slot = slot
        self.wrapper.set_msi_handler(self._on_msi)
        return True

    @property
    def device_lost(self) -> bool:
        """Whether this driver's device has crashed off the bus."""
        return self.fault_state is not None and self.fault_state.crashed(
            self.now
        )

    @property
    def bar0(self) -> AddrRange:
        if self.slot is None:
            raise RuntimeError("driver not probed")
        return self.config_space.function(self.slot).bars[0].range

    # ------------------------------------------------------------------
    # Buffer pinning
    # ------------------------------------------------------------------
    def pin_buffer(self, tag: str, size: int) -> int:
        """Allocate a pinned, contiguous host buffer.

        Returns the device-visible address: an IOVA when an SMMU is
        present (mapping installed in the page table), the physical
        address otherwise.
        """
        paddr = self.host_allocator.alloc(size)
        if self.page_table is None:
            device_addr = paddr
        else:
            pages = -(-size // PAGE_SIZE)
            device_addr = self._iova_cursor
            self._iova_cursor += pages * PAGE_SIZE
            self.page_table.map_range(device_addr, paddr, size)
        self._buffers[tag] = paddr
        return device_addr

    def buffer_paddr(self, tag: str) -> int:
        return self._buffers[tag]

    # ------------------------------------------------------------------
    # Launch
    # ------------------------------------------------------------------
    def launch_gemm(
        self,
        m: int,
        k: int,
        n: int,
        a_addr: int,
        b_addr: int,
        c_addr: int,
        on_complete: Callable[[GemmJob, Dict], None],
        packet_size: Optional[int] = None,
        element_bytes: int = 4,
        a_data: Optional[np.ndarray] = None,
        b_data: Optional[np.ndarray] = None,
    ) -> None:
        """Program the job registers over MMIO and ring the doorbell.

        Raises :class:`~repro.faults.spec.DeviceLostError` when the
        device has crashed off the bus -- the MMIO writes would vanish
        into the void and the completion interrupt would never arrive,
        so refusing loudly is the graceful-degradation path.
        """
        if self.slot is None:
            raise RuntimeError("driver not probed; call probe() first")
        if self.device_lost:
            raise DeviceLostError(
                f"{self.name}: accelerator {self.device_index} is lost "
                f"(crashed at tick {self.fault_state.fault.crash_at}); "
                f"refusing to launch"
            )
        self._launches.inc()
        self._completion_cb = on_complete
        if a_data is not None and b_data is not None:
            self.wrapper.set_functional_operands(a_data, b_data)

        bar0_base = self.bar0.start
        writes = [
            (REG_M, self._u32(m)),
            (REG_K, self._u32(k)),
            (REG_N, self._u32(n)),
            (REG_A_ADDR, self._u64(a_addr)),
            (REG_B_ADDR, self._u64(b_addr)),
            (REG_C_ADDR, self._u64(c_addr)),
            (REG_PACKET_SIZE, self._u32(packet_size or 0)),
            (REG_ELEMENT_BYTES, self._u32(element_bytes)),
            (REG_DOORBELL, self._u32(1)),  # must be last
        ]

        self._issue_writes(writes, bar0_base, 0)

    def _issue_writes(self, writes, bar0_base: int, index: int,
                      _txn: Optional[Transaction] = None) -> None:
        """Post ``writes[index]``; its completion posts the next one."""
        if index >= len(writes):
            return
        offset, payload = writes[index]
        txn = Transaction.write(
            bar0_base + offset, len(payload), payload, source="cpu.driver"
        )
        self._mmio_writes.inc()
        self.fabric.host_access(
            txn, self.wrapper.regs,
            partial(self._issue_writes, writes, bar0_base, index + 1),
        )

    def _on_msi(self, job: GemmJob, stats: Dict) -> None:
        callback = self._completion_cb
        self._completion_cb = None
        if callback is not None:
            callback(job, stats)

    @staticmethod
    def _u32(value: int) -> bytes:
        return struct.pack("<I", value)

    @staticmethod
    def _u64(value: int) -> bytes:
        return struct.pack("<Q", value)
