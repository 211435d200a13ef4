"""Unit tests for PCIe configuration space and enumeration."""

import pytest

from repro.interconnect.pcie.config_space import (
    BAR,
    CMD_BUS_MASTER_ENABLE,
    CMD_MEMORY_ENABLE,
    REG_COMMAND,
    ConfigSpace,
    PCIeFunction,
)
from repro.memory.addr_range import AddrRange


def make_space(window_size=1 << 28):
    return ConfigSpace(AddrRange(0x4000_0000, 0x4000_0000 + window_size))


class TestBAR:
    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            BAR(size=3000)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            BAR(size=64)

    def test_range_requires_assignment(self):
        bar = BAR(size=4096)
        with pytest.raises(RuntimeError):
            _ = bar.range
        bar.assigned_base = 0x1000
        assert bar.range == AddrRange(0x1000, 0x2000)


class TestPCIeFunction:
    def test_id_validation(self):
        with pytest.raises(ValueError):
            PCIeFunction(vendor_id=0x1_0000, device_id=0)
        with pytest.raises(ValueError):
            PCIeFunction(vendor_id=0, device_id=-1)

    def test_too_many_bars(self):
        with pytest.raises(ValueError):
            PCIeFunction(0x1234, 0x1, bars=[BAR(4096)] * 7)

    def test_command_write(self):
        fn = PCIeFunction(0x1, 0x2)
        fn.config_write(REG_COMMAND, CMD_MEMORY_ENABLE)
        assert fn.memory_enabled
        assert not fn.command & CMD_BUS_MASTER_ENABLE


class TestEnumeration:
    def test_assigns_aligned_bars(self):
        space = make_space()
        fn = PCIeFunction(0x1AB4, 0x0001, bars=[BAR(4096), BAR(1 << 20)])
        space.register(fn)
        space.enumerate()
        bar0, bar1 = fn.bars
        assert bar0.assigned_base % 4096 == 0
        assert bar1.assigned_base % (1 << 20) == 0
        assert not bar0.range.overlaps(bar1.range)

    def test_enables_device(self):
        space = make_space()
        fn = PCIeFunction(0x1AB4, 0x0001, bars=[BAR(4096)])
        space.register(fn)
        space.enumerate()
        assert fn.memory_enabled and fn.command & CMD_BUS_MASTER_ENABLE

    def test_find_by_ids(self):
        space = make_space()
        slot_a = space.register(PCIeFunction(0x1AB4, 0x0001))
        slot_b = space.register(PCIeFunction(0x1AB4, 0x0002))
        assert space.find_all(0x1AB4, 0x0002) == [slot_b]
        assert space.find_all(0x1AB4, 0x0001) == [slot_a]
        assert space.find_all(0xDEAD, 0xBEEF) == []

    def test_window_exhaustion(self):
        space = make_space(window_size=8192)
        space.register(PCIeFunction(0x1, 0x2, bars=[BAR(1 << 20)]))
        with pytest.raises(RuntimeError):
            space.enumerate()

    def test_multiple_functions_disjoint(self):
        space = make_space()
        fns = [PCIeFunction(0x1, i, bars=[BAR(65536)]) for i in range(4)]
        for fn in fns:
            space.register(fn)
        space.enumerate()
        ranges = [fn.bars[0].range for fn in fns]
        for i, a in enumerate(ranges):
            for b in ranges[i + 1:]:
                assert not a.overlaps(b)
