"""Unit tests for SystemConfig and the paper's named presets."""

import pytest

from repro import AccessMode, SystemConfig
from repro.interconnect.pcie.link import PCIeConfig
from repro.memory.dram.devices import DDR3_1600, DDR4_2400, HBM2

GB = 10**9


class TestTable2Baseline:
    def test_defaults(self):
        config = SystemConfig.table2_baseline()
        assert config.cpu_freq_hz == 1e9
        assert config.l1d.size == 64 * 1024
        assert config.l1i_size == 32 * 1024
        assert config.llc.size == 2 * 1024 * 1024
        assert config.iocache.size == 32 * 1024
        assert config.host_mem is DDR3_1600
        assert config.host_mem_bytes == 4 << 30
        assert config.pcie.lanes == 4
        assert config.access_mode is AccessMode.DIRECT_CACHE

    def test_pcie_matches_table2(self):
        pcie = SystemConfig.table2_baseline().pcie
        # "Version 2.0, 4 Gb/s, 4 lanes": 4 Gb/s effective per lane.
        assert pcie.effective_bytes_per_sec == 2 * GB
        from repro.sim.ticks import ns

        assert pcie.rc_latency == ns(150)
        assert pcie.switch_latency == ns(50)


class TestPaperSystems:
    def test_pcie_2gb(self):
        config = SystemConfig.pcie_2gb()
        assert config.pcie.effective_bytes_per_sec == 2 * GB
        assert config.host_mem is DDR4_2400
        assert config.packet_size == 256

    def test_pcie_8gb(self):
        config = SystemConfig.pcie_8gb()
        assert config.pcie.raw_bytes_per_sec == 8 * GB
        assert config.host_mem is DDR4_2400

    def test_pcie_64gb(self):
        config = SystemConfig.pcie_64gb()
        assert config.pcie.raw_bytes_per_sec == 64 * GB
        assert config.host_mem is HBM2

    def test_devmem_system(self):
        config = SystemConfig.devmem_system()
        assert config.access_mode is AccessMode.DEVICE_MEMORY
        assert config.devmem is HBM2
        assert config.packet_size == 64
        assert config.uses_device_memory

    def test_paper_systems_registry(self):
        systems = SystemConfig.paper_systems()
        assert set(systems) == {"PCIe-2GB", "PCIe-8GB", "PCIe-64GB", "DevMem"}
        for name, config in systems.items():
            assert config.name == name


class TestConfigDerivation:
    def test_with_override(self):
        base = SystemConfig.table2_baseline()
        derived = base.with_(packet_size=512)
        assert derived.packet_size == 512
        assert base.packet_size is None  # original untouched

    def test_with_pcie_bandwidth(self):
        base = SystemConfig.table2_baseline()
        derived = base.with_pcie_bandwidth(16, 32.0)
        assert derived.pcie.lanes == 16
        assert derived.pcie.lane_gbps == 32.0
        # Latencies preserved.
        assert derived.pcie.rc_latency == base.pcie.rc_latency

    def test_with_packet_size(self):
        base = SystemConfig.pcie_8gb()
        derived = base.with_packet_size(1024)
        assert derived.pcie.tlp.max_payload == 1024
        assert derived.packet_size == 1024
        assert derived.pcie.lanes == base.pcie.lanes

    def test_frozen(self):
        config = SystemConfig.table2_baseline()
        with pytest.raises(Exception):
            config.packet_size = 128


class TestHostBridge:
    def test_rejects_devmem_mode(self):
        from repro.core.access_modes import HostBridge
        from repro.sim.eventq import Simulator
        from repro.sim.ports import FixedLatencyTarget

        sim = Simulator()
        target = FixedLatencyTarget(sim, "t", 1)
        with pytest.raises(ValueError):
            HostBridge(sim, "hb", AccessMode.DEVICE_MEMORY, target, target)

    def test_dm_bypasses_cached_path(self):
        from repro.core.access_modes import HostBridge
        from repro.sim.eventq import Simulator
        from repro.sim.ports import FixedLatencyTarget
        from repro.sim.transaction import Transaction

        sim = Simulator()
        cached = FixedLatencyTarget(sim, "cached", 1)
        direct = FixedLatencyTarget(sim, "direct", 1)
        bridge = HostBridge(
            sim, "hb", AccessMode.DIRECT_MEMORY, cached, direct
        )
        bridge.send(Transaction.read(0, 64), lambda t: None)
        sim.run()
        assert direct.stats["transactions"].value == 1
        assert cached.stats["transactions"].value == 0

    def test_dc_uses_cached_path(self):
        from repro.core.access_modes import HostBridge
        from repro.sim.eventq import Simulator
        from repro.sim.ports import FixedLatencyTarget
        from repro.sim.transaction import Transaction

        sim = Simulator()
        cached = FixedLatencyTarget(sim, "cached", 1)
        direct = FixedLatencyTarget(sim, "direct", 1)
        bridge = HostBridge(sim, "hb", AccessMode.DIRECT_CACHE, cached, direct)
        bridge.send(Transaction.read(0, 64), lambda t: None)
        sim.run()
        assert cached.stats["transactions"].value == 1
