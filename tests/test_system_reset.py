"""System reset and the memoized construction factory.

The sweep engine's per-worker system memoization is only sound if a
reset system is *bit-identical* to a freshly constructed one.  These
tests drive real workloads (GEMM and ViT) through fresh and reset-reused
systems and compare ticks, job stats and the full per-component
statistics snapshot -- any state a reset misses (a resident cache line,
an open DRAM row, a TLB entry, a bumped allocator) shifts at least one
of those numbers.
"""

import numpy as np
import pytest

from repro import SystemConfig
from repro.core.runner import (
    clear_system_memo,
    run_gemm,
    run_vit,
    system_for,
)
from repro.core.system import AcceSysSystem
from repro.workloads.vit import ViTConfig

TINY_VIT = ViTConfig("reset-tiny", hidden=64, layers=1, heads=4,
                     image_size=64, patch_size=16)

CONFIGS = [
    SystemConfig.table2_baseline(),
    SystemConfig.pcie_8gb(),
    SystemConfig.devmem_system(),
    SystemConfig.cxl_host(),
]


def drive_gemm(system: AcceSysSystem, size: int = 48) -> tuple:
    """One GEMM launch; returns (end tick, job stats, full stat snapshot)."""
    from repro.core.runner import _snapshot

    done = {}

    def complete(job, stats):
        done["stats"] = dict(stats)
        done["at"] = system.now

    a = system.alloc_buffer("A", size * size * 4)
    b = system.alloc_buffer("B", size * size * 4)
    c = system.alloc_buffer("C", size * size * 4)
    system.driver.launch_gemm(size, size, size, a, b, c, complete)
    system.run()
    return done["at"], done["stats"], _snapshot(system)


class TestResetBitIdentity:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
    def test_reused_system_matches_fresh(self, config):
        fresh = drive_gemm(AcceSysSystem(config))
        system = AcceSysSystem(config)
        first = drive_gemm(system)
        system.reset()
        second = drive_gemm(system)
        assert fresh == first == second

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
    def test_reset_after_different_size(self, config):
        # Residual state from a *different* working set is the harder
        # case: allocator cursors, cache contents and TLB entries all
        # differ from the fresh run's.
        system = AcceSysSystem(config)
        drive_gemm(system, size=64)
        system.reset()
        reused = drive_gemm(system, size=32)
        fresh = drive_gemm(AcceSysSystem(config), size=32)
        assert reused == fresh

    def test_functional_backing_cleared(self):
        # Two functional runs through the memoized path: the second
        # reuses the first's system, whose backing stores must read as
        # pristine (all zeros) again for the data check to pass.
        clear_system_memo()
        config = SystemConfig.table2_baseline(functional=True)
        first = run_gemm(config, 32, 32, 32, functional=True, seed=7)
        second = run_gemm(config, 32, 32, 32, functional=True, seed=7)
        np.testing.assert_array_equal(first.c_matrix, second.c_matrix)
        assert first.ticks == second.ticks


class TestMemoFactory:
    def test_hit_returns_same_object(self):
        clear_system_memo()
        config = SystemConfig.pcie_8gb()
        first = system_for(config)
        second = system_for(config)
        assert first is second

    def test_distinct_configs_distinct_systems(self):
        clear_system_memo()
        a = system_for(SystemConfig.pcie_8gb())
        b = system_for(SystemConfig.pcie_8gb(dma_tags=8))
        assert a is not b

    def test_capacity_is_bounded(self):
        from repro.core.runner import SYSTEM_MEMO_CAPACITY, _system_memo

        clear_system_memo()
        for tags in range(1, SYSTEM_MEMO_CAPACITY + 4):
            system_for(SystemConfig.table2_baseline(dma_tags=tags))
        assert len(_system_memo) == SYSTEM_MEMO_CAPACITY

    def test_run_gemm_deterministic_across_memo_reuse(self):
        clear_system_memo()
        config = SystemConfig.table2_baseline()
        first = run_gemm(config, 32, 32, 32)
        second = run_gemm(config, 32, 32, 32)
        assert first.ticks == second.ticks
        assert first.component_stats == second.component_stats

    def test_run_vit_deterministic_across_memo_reuse(self):
        clear_system_memo()
        config = SystemConfig.pcie_8gb()
        first = run_vit(config, TINY_VIT)
        second = run_vit(config, TINY_VIT)
        assert first.total_ticks == second.total_ticks
        assert first.op_ticks == second.op_ticks
        assert first.memo_hits == second.memo_hits

    def test_vit_after_gemm_on_same_system(self):
        # Workload interleaving on one memoized system must not leak
        # state between workload types either.
        clear_system_memo()
        config = SystemConfig.pcie_8gb()
        baseline = run_vit(config, TINY_VIT)
        run_gemm(config, 48, 48, 48)
        again = run_vit(config, TINY_VIT)
        assert baseline.total_ticks == again.total_ticks
        assert baseline.op_ticks == again.op_ticks
