"""Accelerator Wrapper: PCIe function, register file, DMA and controller.

The wrapper is the unit that plugs into the PCIe hierarchy (Fig. 1,
Section III-B): it exposes a register file through BAR0 (doorbell, status,
job descriptor registers), owns the multi-channel DMA engine and the
DevMem/local-buffer plumbing, and signals completion through an MSI-style
callback.  The paper's RTL-or-C++ accelerator core corresponds to the
:class:`~repro.accel.systolic.SystolicArray` instance inside.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.accel.controller import AcceleratorController, GemmJob
from repro.accel.local_buffer import LocalBuffer
from repro.accel.systolic import SystolicArray, SystolicParams
from repro.dma import DMAEngine
from repro.interconnect.pcie.config_space import BAR, PCIeFunction
from repro.sim.eventq import Simulator
from repro.sim.ports import CompletionFn, TargetPort
from repro.sim.simobject import SimObject
from repro.sim.transaction import Transaction
from repro.sim.ticks import ns

if TYPE_CHECKING:
    import numpy as np


#: Identity of the simulated device (matches the driver's probe list).
ACCESYS_VENDOR_ID = 0x1AB4
ACCESYS_DEVICE_ID = 0x5A10

#: BAR0 register map (byte offsets).
REG_DOORBELL = 0x00
REG_STATUS = 0x04
REG_M = 0x10
REG_K = 0x14
REG_N = 0x18
REG_A_ADDR = 0x20
REG_B_ADDR = 0x28
REG_C_ADDR = 0x30
REG_PACKET_SIZE = 0x38
REG_ELEMENT_BYTES = 0x3C

#: STATUS values.
STATUS_IDLE = 0
STATUS_RUNNING = 1
STATUS_DONE = 2


class RegisterFile(TargetPort):
    """BAR0-backed register file with MMIO-class access latency."""

    def __init__(self, sim: Simulator, name: str, size: int = 4096,
                 latency: int = ns(10)) -> None:
        super().__init__(sim, name)
        self.backing = bytearray(size)
        self.latency = latency
        self._on_doorbell: Optional[Callable[[], None]] = None
        self._accesses = self.stats.scalar("accesses", "MMIO register accesses")

    def set_doorbell_handler(self, handler: Callable[[], None]) -> None:
        self._on_doorbell = handler

    def reset_state(self) -> None:
        super().reset_state()
        self.backing[:] = bytes(len(self.backing))

    # Functional helpers (zero-time; used by the wrapper itself) ---------
    def read_u32(self, offset: int) -> int:
        return struct.unpack_from("<I", self.backing, offset)[0]

    def read_u64(self, offset: int) -> int:
        return struct.unpack_from("<Q", self.backing, offset)[0]

    def write_u32(self, offset: int, value: int) -> None:
        struct.pack_into("<I", self.backing, offset, value & 0xFFFFFFFF)

    def write_u64(self, offset: int, value: int) -> None:
        struct.pack_into("<Q", self.backing, offset, value & (2**64 - 1))

    # Timing path --------------------------------------------------------
    def send(self, txn: Transaction, on_complete: CompletionFn) -> None:
        self._accesses.inc()
        offset = txn.addr % len(self.backing)
        if txn.is_write and txn.data is not None:
            # Through a memoryview, which cannot be resized: a payload
            # running off the end raises instead of growing the file.
            memoryview(self.backing)[offset : offset + txn.size] = (
                memoryview(txn.data).cast("B"))
        elif txn.is_read:
            txn.data = memoryview(self.backing[offset : offset + txn.size])

        def finish() -> None:
            if txn.is_write and offset == REG_DOORBELL and self._on_doorbell:
                self._on_doorbell()
            on_complete(txn)

        self.sim.schedule(self.latency, finish)


class AcceleratorWrapper(SimObject):
    """The complete accelerator endpoint.

    Parameters
    ----------
    dma_target:
        Where device-initiated transactions go: the PCIe fabric adapter in
        host-memory modes, or the device memory controller in DevMem mode.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        dma_target: TargetPort,
        systolic_params: Optional[SystolicParams] = None,
        local_buffer_bytes: int = 512 * 1024,
        dma_channels: int = 4,
        dma_tags: int = 32,
        dma_segment_bytes: int = 4096,
        prefetch_depth: int = 2,
        reuse_a_panels: bool = False,
        compute_ticks_override: Optional[int] = None,
    ) -> None:
        super().__init__(sim, name)
        params = systolic_params or SystolicParams()
        self.systolic = SystolicArray(
            sim, f"{name}.sa", params, compute_ticks_override
        )
        self.local_buffer = LocalBuffer(
            sim, f"{name}.lbuf", capacity=local_buffer_bytes
        )
        self.dma = DMAEngine(
            sim,
            f"{name}.dma",
            dma_target,
            num_channels=dma_channels,
            max_outstanding=dma_tags,
            segment_bytes=dma_segment_bytes,
        )
        self.controller = AcceleratorController(
            sim,
            f"{name}.ctrl",
            self.systolic,
            self.local_buffer,
            self.dma,
            prefetch_depth=prefetch_depth,
            reuse_a_panels=reuse_a_panels,
        )
        self.regs = RegisterFile(sim, f"{name}.regs")
        self.regs.set_doorbell_handler(self._on_doorbell)
        self.pcie_function = PCIeFunction(
            vendor_id=ACCESYS_VENDOR_ID,
            device_id=ACCESYS_DEVICE_ID,
            bars=[BAR(size=4096), BAR(size=local_buffer_bytes or 4096,
                                      prefetchable=True)],
        )
        self._msi_handler: Optional[Callable[[GemmJob, Dict], None]] = None
        self._functional_operands: Optional[tuple] = None
        self.last_job_stats: Optional[Dict[str, float]] = None

    def reset_state(self) -> None:
        # The MSI handler is wired once by driver probe and kept.
        super().reset_state()
        self._functional_operands = None
        self.last_job_stats = None

    # ------------------------------------------------------------------
    # Driver-facing hooks
    # ------------------------------------------------------------------
    def set_msi_handler(self, handler: Callable[[GemmJob, Dict], None]) -> None:
        """Register the interrupt the driver receives on job completion."""
        self._msi_handler = handler

    def set_functional_operands(self, a: np.ndarray, b: np.ndarray) -> None:
        """Provide functional input matrices for the next job.

        This is the functional side channel (gem5-style functional access):
        timing flows through the full transaction path, data through here.
        """
        self._functional_operands = (a, b)

    @property
    def status(self) -> int:
        return self.regs.read_u32(REG_STATUS)

    # ------------------------------------------------------------------
    # Doorbell -> job launch
    # ------------------------------------------------------------------
    def _on_doorbell(self) -> None:
        if self.regs.read_u32(REG_STATUS) == STATUS_RUNNING:
            raise RuntimeError(f"{self.name}: doorbell while running")
        job = self._decode_job()
        self.regs.write_u32(REG_STATUS, STATUS_RUNNING)
        self.controller.launch(job, self._job_finished)

    def _decode_job(self) -> GemmJob:
        regs = self.regs
        packet = regs.read_u32(REG_PACKET_SIZE)
        a_data = b_data = None
        if self._functional_operands is not None:
            a_data, b_data = self._functional_operands
            self._functional_operands = None
        return GemmJob(
            m=regs.read_u32(REG_M),
            k=regs.read_u32(REG_K),
            n=regs.read_u32(REG_N),
            a_addr=regs.read_u64(REG_A_ADDR),
            b_addr=regs.read_u64(REG_B_ADDR),
            c_addr=regs.read_u64(REG_C_ADDR),
            element_bytes=regs.read_u32(REG_ELEMENT_BYTES) or 4,
            packet_size=packet or None,
            a_data=a_data,
            b_data=b_data,
        )

    def _job_finished(self, job: GemmJob, stats: Dict[str, float]) -> None:
        self.regs.write_u32(REG_STATUS, STATUS_DONE)
        self.last_job_stats = stats
        if self._msi_handler is not None:
            self._msi_handler(job, stats)
