"""Unit tests for the accelerator wrapper, register file, and driver."""

import numpy as np
import pytest

from repro.accel.wrapper import (
    ACCESYS_DEVICE_ID,
    ACCESYS_VENDOR_ID,
    REG_DOORBELL,
    REG_K,
    REG_M,
    REG_N,
    REG_STATUS,
    STATUS_DONE,
    STATUS_RUNNING,
    AcceleratorWrapper,
    RegisterFile,
)
from repro.core.config import SystemConfig
from repro.core.system import AcceSysSystem
from repro.sim.eventq import Simulator
from repro.sim.ports import FixedLatencyTarget
from repro.sim.ticks import ns
from repro.sim.transaction import Transaction


class TestRegisterFile:
    def test_u32_round_trip(self):
        sim = Simulator()
        regs = RegisterFile(sim, "regs")
        regs.write_u32(REG_M, 1234)
        assert regs.read_u32(REG_M) == 1234

    def test_u64_round_trip(self):
        sim = Simulator()
        regs = RegisterFile(sim, "regs")
        payload = (0x1_2345_6789).to_bytes(8, "little")
        regs.send(Transaction.write(0x20, 8, payload), lambda t: None)
        sim.run()
        assert regs.read_u64(0x20) == 0x1_2345_6789

    def test_mmio_write_lands(self):
        sim = Simulator()
        regs = RegisterFile(sim, "regs")
        payload = np.frombuffer((42).to_bytes(4, "little"), dtype=np.uint8).copy()
        regs.send(Transaction.write(REG_M, 4, payload), lambda t: None)
        sim.run()
        assert regs.read_u32(REG_M) == 42

    def test_mmio_read_returns_data(self):
        sim = Simulator()
        regs = RegisterFile(sim, "regs")
        regs.write_u32(REG_K, 77)
        got = []
        regs.send(Transaction.read(REG_K, 4), lambda t: got.append(t.data))
        sim.run()
        assert int.from_bytes(got[0].tobytes(), "little") == 77

    def test_doorbell_triggers_handler(self):
        sim = Simulator()
        regs = RegisterFile(sim, "regs")
        rang = []
        regs.set_doorbell_handler(lambda: rang.append(sim.now))
        payload = np.frombuffer((1).to_bytes(4, "little"), dtype=np.uint8).copy()
        regs.send(Transaction.write(REG_DOORBELL, 4, payload), lambda t: None)
        sim.run()
        assert len(rang) == 1

    def test_mmio_write_accepts_bytes(self):
        sim = Simulator()
        regs = RegisterFile(sim, "regs")
        regs.send(Transaction.write(REG_N, 4, (99).to_bytes(4, "little")),
                  lambda t: None)
        sim.run()
        assert regs.read_u32(REG_N) == 99

    def test_mmio_write_past_the_end_rejected(self):
        sim = Simulator()
        regs = RegisterFile(sim, "regs", size=64)
        with pytest.raises(ValueError):
            regs.send(Transaction.write(60, 8, bytes(8)), lambda t: None)
        assert len(regs.backing) == 64

    def test_reset_zeroes_registers(self):
        sim = Simulator()
        regs = RegisterFile(sim, "regs")
        regs.send(Transaction.write(0x20, 8, b"\xff" * 8), lambda t: None)
        sim.run()
        regs.reset_state()
        assert regs.read_u64(0x20) == 0 and not any(regs.backing)


class TestWrapper:
    def make_wrapper(self):
        sim = Simulator()
        target = FixedLatencyTarget(sim, "path", latency=ns(100))
        wrapper = AcceleratorWrapper(sim, "acc", target)
        return sim, wrapper

    def test_pcie_identity(self):
        _, wrapper = self.make_wrapper()
        assert wrapper.pcie_function.vendor_id == ACCESYS_VENDOR_ID
        assert wrapper.pcie_function.device_id == ACCESYS_DEVICE_ID
        assert len(wrapper.pcie_function.bars) == 2

    def test_doorbell_runs_job(self):
        sim, wrapper = self.make_wrapper()
        regs = wrapper.regs
        regs.write_u32(REG_M, 128)
        regs.write_u32(REG_K, 128)
        regs.write_u32(REG_N, 128)
        # A, B and C addresses: 64-bit registers whose high words stay 0.
        regs.write_u32(0x20, 0)
        regs.write_u32(0x28, 0x40000)
        regs.write_u32(0x30, 0x80000)
        completions = []
        wrapper.set_msi_handler(lambda job, stats: completions.append(stats))
        assert wrapper.status == 0  # idle
        payload = np.frombuffer((1).to_bytes(4, "little"), dtype=np.uint8).copy()
        regs.send(Transaction.write(REG_DOORBELL, 4, payload), lambda t: None)
        sim.run(max_events=3)
        assert wrapper.status == STATUS_RUNNING
        sim.run()
        assert wrapper.status == STATUS_DONE
        assert completions and completions[0]["tiles"] == 64

    def test_double_doorbell_rejected(self):
        sim, wrapper = self.make_wrapper()
        regs = wrapper.regs
        for reg, val in ((REG_M, 32), (REG_K, 32), (REG_N, 32)):
            regs.write_u32(reg, val)
        regs.write_u32(REG_STATUS, STATUS_RUNNING)
        with pytest.raises(RuntimeError):
            wrapper._on_doorbell()


class TestDriver:
    def test_probe_finds_device(self):
        system = AcceSysSystem(SystemConfig.table2_baseline())
        assert system.driver.slot is not None

    def test_pin_buffer_maps_pages(self):
        system = AcceSysSystem(SystemConfig.table2_baseline())
        iova = system.driver.pin_buffer("buf", 3 * 4096)
        paddr = system.driver.buffer_paddr("buf")
        assert iova != paddr  # virtual addressing in use
        assert system.page_table.translate(iova) == paddr
        assert system.page_table.translate(iova + 8192) == paddr + 8192

    def test_pin_without_smmu_returns_paddr(self):
        system = AcceSysSystem(SystemConfig.table2_baseline(smmu=None))
        addr = system.driver.pin_buffer("buf", 4096)
        assert addr == system.driver.buffer_paddr("buf")

    def test_launch_requires_probe(self):
        system = AcceSysSystem(SystemConfig.table2_baseline())
        system.driver.slot = None
        with pytest.raises(RuntimeError):
            system.driver.launch_gemm(16, 16, 16, 0, 0, 0, lambda j, s: None)

    def test_launch_has_mmio_cost(self):
        """Launch latency comes from real MMIO writes over PCIe."""
        system = AcceSysSystem(SystemConfig.table2_baseline())
        a = system.driver.pin_buffer("A", 4096)
        b = system.driver.pin_buffer("B", 4096)
        c = system.driver.pin_buffer("C", 4096)
        started = []
        system.driver.launch_gemm(
            16, 16, 16, a, b, c, lambda j, s: started.append(system.now)
        )
        system.run()
        # 9 posted MMIO writes through switch+RC before compute begins.
        assert started[0] > 9 * (ns(150) + ns(50))
        assert system.driver.stats["mmio_writes"].value == 9

    def test_allocator_exhaustion(self):
        from repro.accel.driver import BumpAllocator
        from repro.memory.addr_range import AddrRange

        alloc = BumpAllocator(AddrRange(0, 8192))
        alloc.alloc(4096)
        with pytest.raises(MemoryError):
            alloc.alloc(8192)

    def test_allocator_alignment(self):
        from repro.accel.driver import BumpAllocator
        from repro.memory.addr_range import AddrRange

        alloc = BumpAllocator(AddrRange(0, 1 << 20))
        alloc.alloc(100)
        second = alloc.alloc(100)
        assert second % 4096 == 0


