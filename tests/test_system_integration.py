"""Integration tests: the full system across access modes."""

import numpy as np
import pytest

from repro import AccessMode, SystemConfig, run_gemm
from repro.core.system import AcceSysSystem
from repro.workloads import GemmWorkload


class TestSystemConstruction:
    def test_baseline_builds(self):
        system = AcceSysSystem(SystemConfig.table2_baseline())
        assert system.driver.slot is not None
        assert system.smmu is not None
        assert system.devmem is None

    def test_devmem_builds(self):
        system = AcceSysSystem(SystemConfig.devmem_system())
        assert system.devmem is not None

    def test_bar_assignment_in_mmio_window(self):
        system = AcceSysSystem(SystemConfig.table2_baseline())
        bar0 = system.driver.bar0
        assert system.mmio_range.contains_range(bar0)

    def test_paper_systems_all_build(self):
        for name, config in SystemConfig.paper_systems().items():
            system = AcceSysSystem(config)
            assert system.config.name == name

    def test_no_smmu_config(self):
        config = SystemConfig.table2_baseline(smmu=None)
        system = AcceSysSystem(config)
        assert system.smmu is None
        assert system.page_table is None


class TestGemmAcrossModes:
    def test_dc_runs(self):
        result = run_gemm(SystemConfig.table2_baseline(), 64, 64, 64)
        assert result.ticks > 0
        assert result.table4 is not None

    def test_dm_runs(self):
        config = SystemConfig.table2_baseline(
            access_mode=AccessMode.DIRECT_MEMORY
        )
        result = run_gemm(config, 64, 64, 64)
        assert result.ticks > 0

    def test_devmem_runs(self):
        result = run_gemm(SystemConfig.devmem_system(), 64, 64, 64)
        assert result.ticks > 0
        assert result.table4 is None  # no SMMU in the GEMM path

    def test_devmem_faster_than_slow_pcie(self):
        host = run_gemm(SystemConfig.pcie_2gb(), 128, 128, 128)
        dev = run_gemm(SystemConfig.devmem_system(), 128, 128, 128)
        assert dev.ticks < host.ticks

    def test_pcie_bandwidth_ordering(self):
        t2 = run_gemm(SystemConfig.pcie_2gb(), 128, 128, 128).ticks
        t8 = run_gemm(SystemConfig.pcie_8gb(), 128, 128, 128).ticks
        t64 = run_gemm(SystemConfig.pcie_64gb(), 128, 128, 128).ticks
        assert t2 > t8 >= t64

    def test_delivered_bandwidth_below_link(self):
        config = SystemConfig.pcie_2gb()
        result = run_gemm(config, 128, 128, 128)
        assert result.delivered_bytes_per_sec < config.pcie.effective_bytes_per_sec

    def test_table4_footprint_matches_formula(self):
        """Memory footprint pages = 3 matrices x N^2 x 4B / 4KB."""
        for size, expected_pages in ((64, 12), (128, 48), (256, 192)):
            result = run_gemm(SystemConfig.table2_baseline(), size, size, size)
            assert result.table4["memory_footprint_pages"] == expected_pages

    def test_translations_match_streamed_lines(self):
        """uTLB lookups equal the streamed line count (the paper's
        Table IV identity: translations ~ N^3/128 plus writebacks)."""
        size = 128
        result = run_gemm(SystemConfig.table2_baseline(), size, size, size)
        expected_read_lines = size**3 // 128
        expected_write_lines = size * size * 4 // 64
        assert result.table4["utlb_lookup_times"] == (
            expected_read_lines + expected_write_lines
        )


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("mode", ["dc", "dm", "devmem"])
    def test_gemm_result_exact(self, mode):
        if mode == "devmem":
            config = SystemConfig.devmem_system()
        else:
            config = SystemConfig.table2_baseline(
                access_mode=AccessMode(mode)
            )
        m, k, n = 48, 64, 32
        result = run_gemm(config, m, k, n, functional=True, seed=11)
        workload = GemmWorkload(m, k, n, seed=11)
        a, b = workload.generate()
        np.testing.assert_array_equal(result.c_matrix, workload.reference(a, b))

    def test_functional_operands_land_in_memory(self):
        config = SystemConfig.table2_baseline(functional=True)
        system = AcceSysSystem(config)
        workload = GemmWorkload(32, 32, 32, seed=2)
        a_addr = system.alloc_buffer("A", workload.a_bytes)
        system.alloc_buffer("B", workload.b_bytes)
        system.alloc_buffer("C", workload.c_bytes)
        a, b = workload.generate()
        from repro.core.runner import _write_operands

        _write_operands(system, a_addr, 0, a, b)
        paddr = system.driver.buffer_paddr("A")
        stored = system.host_backing.read(paddr, workload.a_bytes)
        from repro.workloads import pack_a_panels

        np.testing.assert_array_equal(stored, pack_a_panels(a))


class TestCoherence:
    def test_accel_writes_invalidate_cpu_cache(self):
        """DC-mode C writebacks must snoop-invalidate the CPU's L1."""
        config = SystemConfig.table2_baseline()
        system = AcceSysSystem(config)
        workload = GemmWorkload(32, 32, 32)
        a_addr = system.alloc_buffer("A", workload.a_bytes)
        b_addr = system.alloc_buffer("B", workload.b_bytes)
        c_addr = system.alloc_buffer("C", workload.c_bytes)
        c_paddr = system.driver.buffer_paddr("C")
        from repro.sim.transaction import Transaction

        # Warm the CPU L1 with the C buffer region.
        system.l1d.send(
            Transaction.read(c_paddr, 256, source="system.cpu"), lambda t: None
        )
        system.run()
        assert system.l1d.tags.resident_lines > 0

        done = []
        system.driver.launch_gemm(
            32, 32, 32, a_addr, b_addr, c_addr, lambda j, s: done.append(True)
        )
        system.run()
        assert done
        assert system.membus.stats["snoop_invalidations"].value > 0
