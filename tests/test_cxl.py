"""Unit and integration tests for the CXL-style interconnect extension."""

import pytest

from repro import SystemConfig, run_gemm
from repro.core.system import AcceSysSystem
from repro.interconnect.cxl import (
    CXL_FLIT_OVERHEAD,
    CXL_FLIT_PAYLOAD,
    CXLFabric,
    cxl_hops,
    cxl_link_config,
)
from repro.sim.eventq import Simulator
from repro.sim.ports import FixedLatencyTarget
from repro.sim.ticks import ns
from repro.sim.transaction import Transaction

GB = 10**9


class TestLinkConfig:
    def test_flit_geometry(self):
        config = cxl_link_config()
        assert config.tlp.max_payload == CXL_FLIT_PAYLOAD == 64
        assert config.tlp.header_bytes == CXL_FLIT_OVERHEAD == 4

    def test_single_hop(self):
        config = cxl_link_config()
        hops = cxl_hops(config)
        assert len(hops) == 1
        assert hops[0][0] == ns(25)

    def test_bandwidth_rides_gen5_phy(self):
        config = cxl_link_config(lanes=8, lane_gbps=32.0)
        assert config.raw_bytes_per_sec == 32 * GB

    def test_flit_efficiency(self):
        # 64/68 ~ 94% payload efficiency at line granularity.
        config = cxl_link_config()
        assert config.tlp.wire_bytes(64) == 68


class TestFabricLatency:
    def test_round_trip_much_shorter_than_pcie(self):
        def round_trip(fabric_cls, cfg=None):
            sim = Simulator()
            host = FixedLatencyTarget(sim, "host", latency=ns(50))
            if cfg is None:
                fabric = fabric_cls(sim, "f", host_target=host)
            else:
                fabric = fabric_cls(sim, "f", cfg, host)
            done = []
            fabric.device_read(
                Transaction.read(0, 64), lambda t: done.append(sim.now)
            )
            sim.run()
            return done[0]

        from repro.interconnect.pcie import PCIeConfig, PCIeFabric

        t_pcie = round_trip(PCIeFabric, PCIeConfig())
        t_cxl = round_trip(CXLFabric)
        assert t_cxl < t_pcie / 3

    def test_describe(self):
        sim = Simulator()
        fabric = CXLFabric(sim, "cxl")
        assert "CXL" in fabric.describe()


class TestSystemIntegration:
    def test_cxl_host_system_builds(self):
        system = AcceSysSystem(SystemConfig.cxl_host())
        assert isinstance(system.fabric, CXLFabric)

    def test_devmem_cxl_system_builds(self):
        system = AcceSysSystem(SystemConfig.devmem_cxl())
        assert system.devmem is not None

    def test_unknown_interconnect_rejected(self):
        config = SystemConfig.table2_baseline(interconnect="infiniband")
        with pytest.raises(ValueError):
            AcceSysSystem(config)

    def test_gemm_runs_over_cxl(self):
        result = run_gemm(SystemConfig.cxl_host(), 64, 64, 64)
        assert result.ticks > 0

    def test_functional_correct_over_cxl(self):
        import numpy as np

        from repro.workloads import GemmWorkload

        result = run_gemm(SystemConfig.cxl_host(), 32, 48, 32,
                          functional=True, seed=9)
        workload = GemmWorkload(32, 48, 32, seed=9)
        a, b = workload.generate()
        np.testing.assert_array_equal(result.c_matrix,
                                      workload.reference(a, b))

    def test_cxl_beats_table2_pcie_on_small_gemm(self):
        """Latency-sensitive small jobs benefit from the short pipeline."""
        t_pcie = run_gemm(SystemConfig.table2_baseline(), 32, 32, 32).ticks
        t_cxl = run_gemm(
            SystemConfig.cxl_host(lanes=4, lane_gbps=5.0), 32, 32, 32
        ).ticks
        assert t_cxl < t_pcie
