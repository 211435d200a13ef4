"""Full-system assembly (the block diagram of Fig. 1).

:class:`AcceSysSystem` instantiates and wires every component:

* CPU cluster: timing CPU with L1 data cache, coherent MemBus, LLC, host
  DRAM controller,
* PCIe hierarchy: fabric (switch + root complex channels), config space
  with enumeration, IOCache in front of the MemBus for device traffic,
* SMMU with page table and walker (walks go through the MemBus so they
  share the LLC),
* the accelerator wrapper (systolic array, local buffer, multi-channel
  DMA, register file) behind the PCIe endpoint,
* optional device-side memory,
* the kernel driver bound to it all.

The physical address map::

    0x0000_0000_0000 .. host_mem_bytes   host DRAM
      (top 64 MiB reserved for SMMU page tables)
    0x40_0000_0000 .. +256 MiB           PCIe MMIO window (BARs)
    0x80_0000_0000 .. +devmem_bytes      device-side memory
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.accel.devmem import DeviceMemory
from repro.accel.driver import AccelDriver, BumpAllocator
from repro.accel.wrapper import AcceleratorWrapper
from repro.cache.cache import Cache
from repro.core.access_modes import AccessMode, HostBridge
from repro.core.config import SystemConfig
from repro.cpu.cpu import TimingCPU
from repro.interconnect.bus import MemBus
from repro.interconnect.pcie.config_space import ConfigSpace
from repro.interconnect.pcie.fabric import PCIeFabric
from repro.memory.addr_range import AddrRange
from repro.memory.dram.controller import DRAMController
from repro.memory.physmem import PhysicalMemory
from repro.memory.simple import SimpleMemory
from repro.sim.eventq import Simulator
from repro.sim.ports import CompletionFn, TargetPort
from repro.sim.transaction import Transaction
from repro.smmu.page_table import PageTable
from repro.smmu.smmu import SMMU
from repro.topology.fabric import SwitchedPCIeFabric

#: Page-table arena at the top of host DRAM.
PAGE_TABLE_RESERVE = 64 * 1024 * 1024
MMIO_BASE = 0x40_0000_0000
MMIO_SIZE = 256 * 1024 * 1024
DEVMEM_BASE = 0x80_0000_0000


class _DevicePCIePort(TargetPort):
    """Adapter: device-initiated DMA transactions onto the PCIe fabric."""

    def __init__(self, sim: Simulator, name: str, fabric: PCIeFabric) -> None:
        super().__init__(sim, name)
        self.fabric = fabric

    def send(self, txn: Transaction, on_complete: CompletionFn) -> None:
        self.fabric.device_access(txn, on_complete)


class _CpuDataPort(TargetPort):
    """CPU load/store routing: local hierarchy vs remote device memory.

    Accesses to the device-memory window cross the PCIe hierarchy -- and
    they do so as *uncached*, serialized cache-line transactions, the way
    a CPU actually touches a device BAR (dependent loads, no prefetch
    across the interconnect).  This is the NUMA penalty of the paper's
    Fig. 8.  Everything else goes through the L1.
    """

    #: Remote accesses are line-granular.
    REMOTE_LINE = 64
    #: Outstanding uncached lines (a CPU has a couple of line-fill /
    #: write-combining buffers even for device space).
    REMOTE_MLP = 2

    def __init__(
        self,
        sim: Simulator,
        name: str,
        l1: Cache,
        devmem_range: Optional[AddrRange],
        fabric: Optional[PCIeFabric],
        devmem: Optional[DeviceMemory],
    ) -> None:
        super().__init__(sim, name)
        self.l1 = l1
        self.devmem_range = devmem_range
        self.fabric = fabric
        self.devmem = devmem
        self._remote = self.stats.scalar("remote_accesses", "line accesses over PCIe")
        self._local = self.stats.scalar("local_accesses", "accesses via L1")
        # Uncached accesses are nearly serialized: a tiny number of lines
        # in flight across all pending transactions.
        self._remote_lines: deque = deque()
        self._remote_inflight = 0

    def reset_state(self) -> None:
        super().reset_state()
        self._remote_lines.clear()
        self._remote_inflight = 0

    def send(self, txn: Transaction, on_complete: CompletionFn) -> None:
        if (
            self.devmem_range is not None
            and self.devmem_range.contains(txn.addr)
        ):
            self._send_remote(txn, on_complete)
        else:
            self._local.inc()
            self.l1.send(txn, on_complete)

    def _send_remote(self, txn: Transaction, on_complete: CompletionFn) -> None:
        """Line-by-line walk across the PCIe hierarchy (near-serialized)."""
        line = self.REMOTE_LINE
        addrs = range(txn.addr - txn.addr % line, txn.end_addr, line)
        state = {"left": len(addrs)}

        def line_done() -> None:
            state["left"] -= 1
            if state["left"] == 0:
                on_complete(txn)

        for addr in addrs:
            piece = Transaction(txn.cmd, addr, line, source=txn.source)
            self._remote_lines.append((piece, line_done))
        self._pump_remote()

    def _pump_remote(self) -> None:
        while self._remote_inflight < self.REMOTE_MLP and self._remote_lines:
            piece, line_done = self._remote_lines.popleft()
            self._remote_inflight += 1
            self._remote.inc()

            def finished(_t, cb=line_done) -> None:
                self._remote_inflight -= 1
                cb()
                self._pump_remote()

            self.fabric.host_access(piece, self.devmem, finished)


class AcceSysSystem:
    """A fully wired simulated machine."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.sim = sim = Simulator()

        # ------------------------------------------------------------
        # Address map
        # ------------------------------------------------------------
        self.host_range = AddrRange(0, config.host_mem_bytes)
        table_base = config.host_mem_bytes - PAGE_TABLE_RESERVE
        self.alloc_range = AddrRange(0, table_base)
        self.mmio_range = AddrRange(MMIO_BASE, MMIO_BASE + MMIO_SIZE)
        self.devmem_range = AddrRange(
            DEVMEM_BASE, DEVMEM_BASE + config.devmem_bytes
        )

        # ------------------------------------------------------------
        # Host memory and cache hierarchy
        # ------------------------------------------------------------
        self.host_backing = (
            PhysicalMemory(self.host_range) if config.functional else None
        )
        self.mem_ctrl = DRAMController(
            sim, "system.mem_ctrl", config.host_mem, self.host_range,
            self.host_backing,
        )
        self.llc = Cache(
            sim, "system.llc", config.llc, self.mem_ctrl, self.host_backing
        )
        self.membus = MemBus(sim, "system.membus", freq_hz=config.cpu_freq_hz)
        self.membus.attach(self.host_range, self.llc)

        self.l1d = Cache(
            sim, "system.cpu.l1d", config.l1d, self.membus, self.host_backing
        )
        self.iocache = Cache(
            sim, "system.iocache", config.iocache, self.membus,
            self.host_backing,
        )
        # Coherency: accelerator writes invalidate CPU-side copies and
        # vice versa (the paper's accelerator/CPU coherency model).
        self.membus.add_snooper("system.cpu", self.l1d)
        self.membus.add_snooper("system.iocache", self.iocache)

        # ------------------------------------------------------------
        # SMMU
        # ------------------------------------------------------------
        if config.smmu is not None:
            self.page_table: Optional[PageTable] = PageTable(table_base)
            self.smmu: Optional[SMMU] = SMMU(
                sim, "system.smmu", config.smmu, self.page_table, self.membus
            )
        else:
            self.page_table = None
            self.smmu = None

        # ------------------------------------------------------------
        # Interconnect fabric and host bridge
        # ------------------------------------------------------------
        topology = config.effective_topology()
        if config.interconnect == "cxl":
            from repro.interconnect.cxl import CXLFabric

            if config.topology is not None:
                raise ValueError(
                    "switched topologies are a PCIe feature; the CXL "
                    "extension models a directly-attached port"
                )
            self.fabric = CXLFabric(sim, "system.cxl", config.pcie)
        elif config.interconnect == "pcie":
            if topology is None:
                # Single endpoint, no explicit tree: the classic
                # point-to-point fabric (bit-identical to the flat model).
                self.fabric = PCIeFabric(sim, "system.pcie", config.pcie)
            else:
                if topology.num_endpoints != config.num_accelerators:
                    raise ValueError(
                        f"topology has {topology.num_endpoints} endpoint(s) "
                        f"but num_accelerators={config.num_accelerators}; "
                        f"use with_topology() to keep them in sync"
                    )
                self.fabric = SwitchedPCIeFabric(
                    sim, "system.pcie", config.pcie, topology
                )
        else:
            raise ValueError(
                f"unknown interconnect {config.interconnect!r}; "
                "choose 'pcie' or 'cxl'"
            )
        self.topology = topology
        if config.access_mode is AccessMode.DEVICE_MEMORY:
            # GEMM traffic never crosses PCIe; host accesses to device
            # memory still do.  The host bridge handles stray host-memory
            # DMA (e.g. descriptor fetches) through the cached path.
            bridge_mode = AccessMode.DIRECT_CACHE
        else:
            bridge_mode = config.access_mode
        self.host_bridge = HostBridge(
            sim,
            "system.host_bridge",
            bridge_mode,
            cached_path=self.iocache,
            direct_path=self.mem_ctrl,
            smmu=self.smmu,
        )
        self.fabric.set_host_target(self.host_bridge)

        # ------------------------------------------------------------
        # Device memory
        # ------------------------------------------------------------
        needs_devmem = (
            config.uses_device_memory or config.devmem is not None
        )
        if needs_devmem:
            self.devmem_backing = (
                PhysicalMemory(self.devmem_range) if config.functional else None
            )
            simple_latency, simple_bw = config.devmem_simple
            self.devmem: Optional[DeviceMemory] = DeviceMemory(
                sim,
                "system.devmem",
                self.devmem_range,
                timings=config.devmem,
                simple_latency=simple_latency,
                simple_bandwidth=simple_bw,
                backing=self.devmem_backing,
            )
        else:
            self.devmem_backing = None
            self.devmem = None

        # ------------------------------------------------------------
        # Accelerators (one or a cluster sharing the PCIe hierarchy)
        # ------------------------------------------------------------
        if config.num_accelerators < 1:
            raise ValueError("need at least one accelerator")
        switched = isinstance(self.fabric, SwitchedPCIeFabric)
        if config.uses_device_memory:
            dma_target: TargetPort = self.devmem
        elif not switched:
            dma_target = _DevicePCIePort(sim, "system.accel.pcie_port", self.fabric)
        self.wrappers = []
        for index in range(config.num_accelerators):
            suffix = "" if config.num_accelerators == 1 else str(index)
            if switched and not config.uses_device_memory:
                # Each endpoint owns its entry port, so the fabric can
                # route (and arbitrate) per device.
                dma_target = self.fabric.endpoint_port(index)
            self.wrappers.append(
                AcceleratorWrapper(
                    sim,
                    f"system.accel{suffix}",
                    dma_target,
                    systolic_params=config.systolic,
                    local_buffer_bytes=config.local_buffer_bytes,
                    dma_channels=config.dma_channels,
                    dma_tags=config.dma_tags,
                    dma_segment_bytes=config.dma_segment_bytes,
                    prefetch_depth=config.prefetch_depth,
                    reuse_a_panels=config.reuse_a_panels,
                    compute_ticks_override=config.compute_ticks_override,
                )
            )
        self.wrapper = self.wrappers[0]

        # ------------------------------------------------------------
        # Enumeration and drivers
        # ------------------------------------------------------------
        self.config_space = ConfigSpace(self.mmio_range)
        for wrapper in self.wrappers:
            self.config_space.register(wrapper.pcie_function)
        self.config_space.enumerate()

        # Endpoint address windows (switched fabric only): BAR0 routes to
        # the register file, BAR1 to a device-local scratch aperture --
        # the landing zone for peer-to-peer DMA.  The routing table is
        # what lets the fabric steer host MMIO per endpoint and peer
        # traffic below the root complex.
        self.endpoint_scratch: list = []
        self._scratch_backings: list = []
        if switched:
            simple_latency, simple_bw = config.devmem_simple
            for index, wrapper in enumerate(self.wrappers):
                suffix = "" if config.num_accelerators == 1 else str(index)
                bar0 = wrapper.pcie_function.bars[0].range
                bar1 = wrapper.pcie_function.bars[1].range
                backing = PhysicalMemory(bar1) if config.functional else None
                scratch = SimpleMemory(
                    sim, f"system.accel{suffix}.scratch", bar1,
                    simple_latency, simple_bw, backing,
                )
                self.endpoint_scratch.append(scratch)
                self._scratch_backings.append(backing)
                self.fabric.register_endpoint_window(index, bar0, wrapper.regs)
                self.fabric.register_endpoint_window(index, bar1, scratch)
            if needs_devmem:
                # Device memory hangs off endpoint 0: host accesses to the
                # devmem aperture route down that endpoint's wires.
                self.fabric.register_endpoint_window(
                    0, self.devmem_range, self.devmem
                )
        self.host_alloc = BumpAllocator(self.alloc_range)
        self.devmem_alloc = BumpAllocator(self.devmem_range)
        self.drivers = []
        for index, wrapper in enumerate(self.wrappers):
            suffix = "" if config.num_accelerators == 1 else str(index)
            driver = AccelDriver(
                sim,
                f"system.driver{suffix}",
                self.config_space,
                self.fabric,
                wrapper,
                self.host_alloc,
                self.page_table if not config.uses_device_memory else None,
                device_index=index,
            )
            if not driver.probe():
                raise RuntimeError(
                    f"driver {index} failed to probe its accelerator"
                )
            self.drivers.append(driver)
        self.driver = self.drivers[0]

        # ------------------------------------------------------------
        # CPU
        # ------------------------------------------------------------
        self.cpu_port = _CpuDataPort(
            sim,
            "system.cpu.port",
            self.l1d,
            self.devmem_range if needs_devmem else None,
            self.fabric,
            self.devmem,
        )
        self.cpu = TimingCPU(
            sim, "system.cpu", self.cpu_port, freq_hz=config.cpu_freq_hz
        )

        # ------------------------------------------------------------
        # Fault injection (repro.faults): attach the compiled fault
        # model to links, DMA engines and drivers.  Fault-free configs
        # never touch this path -- every hook stays a None check.
        # ------------------------------------------------------------
        self.fault_model = None
        if config.faults is not None:
            from repro.faults.injector import FaultModel

            self.fault_model = FaultModel(config.faults)
            self.fault_model.attach(self)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def alloc_buffer(self, tag: str, size: int, driver=None) -> int:
        """Allocate a data buffer in the mode's natural memory.

        Host modes pin through the driver (SMMU mapping included); DevMem
        mode allocates device memory directly.  ``driver`` selects which
        cluster member pins (IOVA space, buffer table); default is the
        first device.
        """
        if self.config.uses_device_memory:
            return self.devmem_alloc.alloc(size)
        return (driver or self.driver).pin_buffer(tag, size)

    def reset(self) -> None:
        """Restore the fully wired system to its just-constructed state.

        Rewinds simulated time to tick 0, empties the event queue, and
        walks every registered component's ``reset_state`` so tag stores,
        TLBs, bank state, busy-until timestamps and statistics all return
        to their construction values.  System-level allocators, the SMMU
        page table, and any functional backing stores are reset here
        because they are not SimObjects.  A reset system produces
        bit-identical results to a freshly constructed one -- this is what
        lets the sweep engine memoize system construction across points
        (see :func:`repro.core.runner.system_for`).
        """
        self.sim.reset()
        for obj in self.sim.objects:
            obj.reset_state()
        self.host_alloc.reset()
        self.devmem_alloc.reset()
        if self.page_table is not None:
            self.page_table.reset()
        if self.host_backing is not None:
            self.host_backing.clear()
        if self.devmem_backing is not None:
            self.devmem_backing.clear()
        for backing in self._scratch_backings:
            if backing is not None:
                backing.clear()

    def run(self, **kw) -> int:
        """Drain the event queue; returns the final tick."""
        return self.sim.run(**kw)

    @property
    def now(self) -> int:
        return self.sim.now
