"""Determinism and reproducibility guarantees.

The simulator is meant to be bit-reproducible: same configuration and
workload, same final tick, same statistics.  These tests catch accidental
nondeterminism (iteration-order dependence, unseeded randomness).

``TestGoldenValues`` pins results to constants captured from the
pre-hot-path-overhaul simulator (PR 2 tree), proving the event-queue
slab, the throttled run loops, the dirty-flag stat snapshots and the
batched component stat updates changed *nothing* observable: same event
count, same final tick, same full per-component stat snapshot.
"""

import pytest

from repro import SystemConfig, run_gemm, run_vit
from repro.core.runner import GemmRunner
from repro.workloads import ViTConfig

#: Captured from the seed tree (commit d27229d) with
#: ``run_gemm(SystemConfig.pcie_8gb(), 64, 64, 64)`` on a fresh system.
GOLDEN_GEMM_PCIE8_64 = {
    "ticks": 27094401,
    "job_ticks": 25101174,
    "traffic_bytes": 147456,
    "events_executed": 543,
    "final_tick": 27138401,
}

#: Full component_stats snapshot for the same run (seed tree).
GOLDEN_GEMM_PCIE8_64_STATS = {
    "system.accel.sa.busy_ticks": 16384000,
    "system.accel.sa.idle_ticks": 5915632,
    "system.accel.sa.macs": 262144,
    "system.accel.sa.tiles": 16,
    "system.accel.dma.bytes_read": 131072,
    "system.accel.dma.bytes_written": 16384,
    "system.accel.dma.descriptors": 48,
    "system.accel.dma.segment_ticks.count": 48,
    "system.accel.dma.segment_ticks.mean": 1309057.2708333333,
    "system.accel.dma.segments": 48,
    "system.pcie.up.busy_ticks": 4323008,
    "system.pcie.up.payload_bytes": 16384,
    "system.pcie.up.tlps": 576,
    "system.pcie.up.wire_bytes": 30208,
    "system.pcie.down.busy_ticks": 18236189,
    "system.pcie.down.payload_bytes": 131120,
    "system.pcie.down.tlps": 521,
    "system.pcie.down.wire_bytes": 143624,
    "system.llc.accesses": 169,
    "system.llc.evictions": 0,
    "system.llc.hits": 139,
    "system.llc.invalidations": 0,
    "system.llc.misses": 837,
    "system.llc.writebacks": 0,
    "system.iocache.accesses": 48,
    "system.iocache.evictions": 256,
    "system.iocache.hits": 1472,
    "system.iocache.invalidations": 0,
    "system.iocache.misses": 832,
    "system.iocache.writebacks": 128,
    "system.mem_ctrl.bursts": 837,
    "system.mem_ctrl.bytes": 53568,
    "system.mem_ctrl.bytes_read": 53568,
    "system.mem_ctrl.bytes_written": 0,
    "system.mem_ctrl.reads": 30,
    "system.mem_ctrl.refresh_stalls": 0,
    "system.mem_ctrl.row_hits": 829,
    "system.mem_ctrl.row_misses": 8,
    "system.mem_ctrl.writes": 0,
    "system.membus.bytes": 61568,
    "system.membus.snoop_invalidations": 0,
    "system.membus.transactions": 169,
    "system.membus.unrouted": 0,
    "system.smmu.page_faults": 0,
    "system.smmu.ptw_cycles.count": 13,
    "system.smmu.ptw_cycles.mean": 58.07692307692308,
    "system.smmu.stall_ticks": 1301154,
    "system.smmu.trans_cycles.count": 2304,
    "system.smmu.trans_cycles.mean": 1.3728298611111112,
    "system.smmu.translations": 2304,
}

#: Seed-tree values for one DevMem GEMM and one tiny-ViT inference.
GOLDEN_GEMM_DEVMEM_64_TICKS = 18926000
GOLDEN_VIT_TINY_PCIE2 = {
    "total_ticks": 869144473,
    "gemm_ticks": 805464473,
    "nongemm_ticks": 63680000,
}


class TestDeterminism:
    def test_gemm_bit_reproducible(self):
        config = SystemConfig.pcie_8gb()
        a = run_gemm(config, 64, 64, 64)
        b = run_gemm(config, 64, 64, 64)
        assert a.ticks == b.ticks
        assert a.component_stats == b.component_stats

    def test_gemm_devmem_reproducible(self):
        config = SystemConfig.devmem_system()
        a = run_gemm(config, 64, 64, 64)
        b = run_gemm(config, 64, 64, 64)
        assert a.ticks == b.ticks

    def test_vit_reproducible(self):
        tiny = ViTConfig("tiny", hidden=64, layers=1, heads=4,
                         image_size=48, patch_size=16)
        config = SystemConfig.pcie_2gb()
        a = run_vit(config, tiny)
        b = run_vit(config, tiny)
        assert a.total_ticks == b.total_ticks
        assert a.op_ticks == b.op_ticks

    def test_functional_independent_of_timing_config(self):
        """Data results must not depend on the timing configuration."""
        import numpy as np

        results = []
        for config in (
            SystemConfig.pcie_2gb(),
            SystemConfig.pcie_64gb(),
            SystemConfig.devmem_system(),
        ):
            r = run_gemm(config, 32, 32, 32, functional=True, seed=77)
            results.append(r.c_matrix)
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[0], results[2])


class TestGoldenValues:
    """Bit-identical to the pre-optimization simulator (seed capture)."""

    def test_gemm_pcie8_matches_seed_capture(self):
        runner = GemmRunner()
        # A fresh (non-memoized) system so events_executed covers the
        # whole run including driver probe, exactly as captured.
        from repro.core.system import AcceSysSystem

        system = AcceSysSystem(SystemConfig.pcie_8gb())
        result = runner.drive(system, m=64, k=64, n=64)
        golden = GOLDEN_GEMM_PCIE8_64
        assert result.ticks == golden["ticks"]
        assert result.job_ticks == golden["job_ticks"]
        assert result.traffic_bytes == golden["traffic_bytes"]
        assert system.sim.events_executed == golden["events_executed"]
        assert system.sim.now == golden["final_tick"]
        assert result.component_stats == GOLDEN_GEMM_PCIE8_64_STATS

    def test_gemm_devmem_matches_seed_capture(self):
        result = run_gemm(SystemConfig.devmem_system(), 64, 64, 64)
        assert result.ticks == GOLDEN_GEMM_DEVMEM_64_TICKS

    def test_vit_tiny_matches_seed_capture(self):
        tiny = ViTConfig("tiny", hidden=64, layers=1, heads=4,
                         image_size=48, patch_size=16)
        result = run_vit(SystemConfig.pcie_2gb(), tiny)
        assert result.total_ticks == GOLDEN_VIT_TINY_PCIE2["total_ticks"]
        assert result.gemm_ticks == GOLDEN_VIT_TINY_PCIE2["gemm_ticks"]
        assert result.nongemm_ticks == GOLDEN_VIT_TINY_PCIE2["nongemm_ticks"]

    def test_reset_then_rerun_identity_on_freelist_path(self):
        """A reset system re-runs bit-identically.

        The second run schedules through a reset simulator; reset
        replaces the event heap, the sequence counter and the skipped
        count, so both runs must agree event-for-event and stat-for-stat.
        """
        from repro.core.system import AcceSysSystem

        runner = GemmRunner()
        system = AcceSysSystem(SystemConfig.pcie_8gb())
        first = runner.drive(system, m=64, k=64, n=64)
        first_events = system.sim.events_executed
        first_tick = system.sim.now

        system.reset()
        second = runner.drive(system, m=64, k=64, n=64)
        assert system.sim.events_executed == first_events
        assert system.sim.now == first_tick
        assert second.ticks == first.ticks
        assert second.component_stats == first.component_stats
        # And both match the seed capture, not merely each other.
        assert second.component_stats == GOLDEN_GEMM_PCIE8_64_STATS


