"""Multi-accelerator systems on the switched fabric.

``TestGoldenTwoDevice`` pins a 2-device contention run (ticks, event
count, full stat snapshot) to constants captured when the topology
subsystem landed, so later refactors of the switch fabric, arbitration
or routing cannot silently change observable behaviour.
``TestGoldenTopologySweeps`` extends that anchor to the two ``topo-*``
sweeps that previously had no pinned oracle -- ``topo-p2p`` and
``topo-switch-depth`` at their registered default scales -- giving
sharded, multi-machine runs of every topology sweep a bit-identity
reference.  The rest covers endpoint scaling,
peer-to-peer vs host-bounce transfers, switch-tier depth, reset
identity across every topology component, and the sweep codecs for the
new result types.
"""

import pytest

from repro import SystemConfig, run_multi_gemm, run_peer_transfer
from repro.core.runner import (
    MultiGemmRunner,
    PeerTransferRunner,
    _snapshot,
)
from repro.core.system import AcceSysSystem
from repro.topology import tiered_topology
from repro.topology.fabric import SwitchedPCIeFabric

#: Captured from the tree that introduced repro.topology:
#: ``MultiGemmRunner().drive(AcceSysSystem(pcie_2gb x2), 64^3 GEMM)``.
GOLDEN_2DEV_PCIE2_64 = {
    "ticks": 152439572,
    "device_ticks": [147959572, 152439572],
    "events_executed": 1912,
    "traffic_bytes": 294912,
}

#: Full MultiGemmRunner snapshot for the same run.
GOLDEN_2DEV_PCIE2_64_STATS = {
    "system.accel0.dma.bytes_read": 131072,
    "system.accel0.dma.bytes_written": 16384,
    "system.accel0.dma.descriptors": 48,
    "system.accel0.dma.segment_ticks.count": 48,
    "system.accel0.dma.segment_ticks.mean": 10435705.6875,
    "system.accel0.dma.segments": 48,
    "system.accel0.sa.busy_ticks": 16384000,
    "system.accel0.sa.idle_ticks": 112320000,
    "system.accel0.sa.macs": 262144,
    "system.accel0.sa.tiles": 16,
    "system.accel1.dma.bytes_read": 131072,
    "system.accel1.dma.bytes_written": 16384,
    "system.accel1.dma.descriptors": 48,
    "system.accel1.dma.segment_ticks.count": 48,
    "system.accel1.dma.segment_ticks.mean": 10899530.5,
    "system.accel1.dma.segments": 48,
    "system.accel1.sa.busy_ticks": 16384000,
    "system.accel1.sa.idle_ticks": 114560000,
    "system.accel1.sa.macs": 262144,
    "system.accel1.sa.tiles": 16,
    "system.iocache.accesses": 96,
    "system.iocache.evictions": 2592,
    "system.iocache.hits": 1504,
    "system.iocache.invalidations": 0,
    "system.iocache.misses": 3104,
    "system.iocache.writebacks": 384,
    "system.llc.accesses": 487,
    "system.llc.evictions": 0,
    "system.llc.hits": 1972,
    "system.llc.invalidations": 0,
    "system.llc.misses": 1544,
    "system.llc.writebacks": 0,
    "system.mem_ctrl.bursts": 1544,
    "system.mem_ctrl.bytes": 98816,
    "system.mem_ctrl.bytes_read": 98816,
    "system.mem_ctrl.bytes_written": 0,
    "system.mem_ctrl.reads": 56,
    "system.mem_ctrl.refresh_stalls": 1,
    "system.mem_ctrl.row_hits": 1528,
    "system.mem_ctrl.row_misses": 16,
    "system.mem_ctrl.writes": 0,
    "system.membus.bytes": 223456,
    "system.membus.snoop_invalidations": 0,
    "system.membus.transactions": 487,
    "system.membus.unrouted": 0,
    "system.pcie.down.arb_wait_ticks": 532294459,
    "system.pcie.down.busy_ticks": 143624000,
    "system.pcie.down.grants": 82,
    "system.pcie.down.payload_bytes": 262240,
    "system.pcie.down.tlps": 1042,
    "system.pcie.down.wire_bytes": 287248,
    "system.pcie.up.arb_wait_ticks": 30784000,
    "system.pcie.up.busy_ticks": 30208000,
    "system.pcie.up.grants": 96,
    "system.pcie.up.payload_bytes": 32768,
    "system.pcie.up.tlps": 1152,
    "system.pcie.up.wire_bytes": 60416,
    "system.smmu.page_faults": 0,
    "system.smmu.ptw_cycles.count": 24,
    "system.smmu.ptw_cycles.mean": 57.583333333333336,
    "system.smmu.stall_ticks": 1871849,
    "system.smmu.trans_cycles.count": 4608,
    "system.smmu.trans_cycles.mean": 1.3415798611111112,
    "system.smmu.translations": 4608,
}


class TestGoldenTwoDevice:
    """Determinism anchor for the whole topology subsystem."""

    def test_contention_run_matches_capture(self):
        runner = MultiGemmRunner()
        system = AcceSysSystem(SystemConfig.pcie_2gb(num_accelerators=2))
        result = runner.drive(system, m=64, k=64, n=64)
        golden = GOLDEN_2DEV_PCIE2_64
        assert result.ticks == golden["ticks"]
        assert result.device_ticks == golden["device_ticks"]
        assert result.total_traffic_bytes == golden["traffic_bytes"]
        assert system.sim.events_executed == golden["events_executed"]
        assert result.component_stats == GOLDEN_2DEV_PCIE2_64_STATS

    def test_reset_then_rerun_identity(self):
        """Every topology component (links, endpoint ports, scratch)
        resets to construction state: a reset system re-runs the
        contention workload bit-identically, event for event."""
        runner = MultiGemmRunner()
        system = AcceSysSystem(SystemConfig.pcie_2gb(num_accelerators=2))
        first = runner.drive(system, m=64, k=64, n=64)
        first_events = system.sim.events_executed

        system.reset()
        second = runner.drive(system, m=64, k=64, n=64)
        assert system.sim.events_executed == first_events
        assert second.ticks == first.ticks
        assert second.device_ticks == first.device_ticks
        assert second.component_stats == first.component_stats
        # Both runs match the capture, not merely each other.
        assert second.component_stats == GOLDEN_2DEV_PCIE2_64_STATS

    def test_tiered_reset_identity(self):
        config = SystemConfig.pcie_2gb().with_topology(tiered_topology(2, 2))
        runner = MultiGemmRunner()
        system = AcceSysSystem(config)
        first = runner.drive(system, m=48, k=48, n=48)
        system.reset()
        second = runner.drive(system, m=48, k=48, n=48)
        assert second.ticks == first.ticks
        assert second.component_stats == first.component_stats

    def test_peer_transfer_reset_identity(self):
        config = SystemConfig.pcie_2gb(num_accelerators=2)
        runner = PeerTransferRunner()
        system = AcceSysSystem(config)
        first = runner.drive(system, size_bytes=128 * 1024, mode="p2p")
        system.reset()
        second = runner.drive(system, size_bytes=128 * 1024, mode="p2p")
        assert second.ticks == first.ticks


#: Captured when multi-machine sharding was first pinned: the full
#: ``topo-p2p`` sweep grid (pcie_2gb x2; sizes 64/256/512 KiB).
GOLDEN_TOPO_P2P = {
    ("p2p", 65536): (38514000, 0),
    ("p2p", 262144): (146034000, 0),
    ("p2p", 524288): (289394000, 0),
    ("bounce", 65536): (78188472, 131072),
    ("bounce", 262144): (293236472, 524288),
    ("bounce", 524288): (579956472, 1048576),
}

#: Same capture: the ``topo-switch-depth`` grid (2 devices, 96^3 GEMM,
#: 1..3 chained switch tiers) -> (ticks, device_ticks, uplink busy).
GOLDEN_TOPO_SWITCH_DEPTH = {
    1: (493431572, [486711572, 493431572], 0.9810965237546656),
    2: (497794065, [491074065, 497794065], 0.9724985371209679),
    3: (505122065, [498402065, 505122065], 0.9583901269488198),
}


class TestGoldenTopologySweeps:
    """Pinned oracles for the topo sweeps that lacked them, at the
    registered default scales -- the grids a sharded run
    executes.  Shard workers on other machines must reproduce these
    values bit-for-bit or their cache entries are wrong."""

    def test_topo_p2p_sweep_matches_capture(self, tmp_path):
        from repro.sweep import build_sweep, run_sweep

        report = run_sweep(build_sweep("topo-p2p"), workers=1,
                           cache_dir=tmp_path)
        got = {
            key: (r.ticks, r.root_complex_bytes)
            for key, r in report.results().items()
        }
        assert got == GOLDEN_TOPO_P2P

    def test_topo_switch_depth_sweep_matches_capture(self, tmp_path):
        from repro.sweep import build_sweep, run_sweep

        report = run_sweep(build_sweep("topo-switch-depth"), workers=1,
                           cache_dir=tmp_path)
        got = {
            key: (r.ticks, list(r.device_ticks), r.uplink_busy_frac)
            for key, r in report.results().items()
        }
        assert got == GOLDEN_TOPO_SWITCH_DEPTH

    def test_p2p_direct_run_matches_sweep_path(self):
        """The runner reached directly (no sweep engine, no cache)
        reproduces the same pinned numbers -- the oracle is a property
        of the simulator, not of the caching layer."""
        result = run_peer_transfer(
            SystemConfig.pcie_2gb(num_accelerators=2), 262144, mode="p2p"
        )
        assert (result.ticks, result.root_complex_bytes) == \
            GOLDEN_TOPO_P2P[("p2p", 262144)]


class TestEndpointScaling:
    def test_shared_uplink_saturates(self):
        """More endpoints -> higher shared-link utilization and longer
        per-device time (bandwidth splits), while aggregate bandwidth
        stays pinned near the link limit."""
        results = {
            n: run_multi_gemm(
                SystemConfig.pcie_2gb(num_accelerators=n), 64, 64, 64
            )
            for n in (1, 2, 4)
        }
        assert results[2].ticks > 1.5 * results[1].ticks
        assert results[4].ticks > 1.5 * results[2].ticks
        assert (results[4].uplink_busy_frac
                > results[2].uplink_busy_frac
                > results[1].uplink_busy_frac)
        assert results[4].uplink_busy_frac > 0.9
        # The shared link bounds aggregate bandwidth: scaling endpoints
        # does not scale delivered bytes/s.
        assert (results[4].aggregate_bytes_per_sec
                < 1.3 * results[1].aggregate_bytes_per_sec)

    def test_contention_knob_limits_active_devices(self):
        config = SystemConfig.pcie_2gb(num_accelerators=4)
        solo = run_multi_gemm(config, 64, 64, 64, devices=1)
        full = run_multi_gemm(config, 64, 64, 64, devices=4)
        assert solo.active_devices == 1 and solo.num_devices == 4
        assert full.ticks > 2 * solo.ticks
        with pytest.raises(ValueError):
            run_multi_gemm(config, 64, 64, 64, devices=5)

    def test_devmem_cluster_runs(self):
        """DevMem-mode clusters share the device memory, not the fabric."""
        result = run_multi_gemm(
            SystemConfig.devmem_system(num_accelerators=2), 48, 48, 48
        )
        assert result.active_devices == 2
        assert result.ticks >= max(result.device_ticks)


class TestPeerTransfer:
    def test_p2p_beats_host_bounce(self):
        config = SystemConfig.pcie_2gb(num_accelerators=2)
        p2p = run_peer_transfer(config, 256 * 1024, mode="p2p")
        bounce = run_peer_transfer(config, 256 * 1024, mode="bounce")
        assert p2p.ticks < bounce.ticks
        # P2P payload never crosses the root complex; the bounce pays
        # the full round trip twice.
        assert p2p.root_complex_bytes == 0
        assert bounce.root_complex_bytes >= 2 * 256 * 1024

    def test_p2p_needs_switched_fabric(self):
        single = SystemConfig.pcie_2gb()
        with pytest.raises(ValueError, match="two accelerators"):
            run_peer_transfer(single, 4096, mode="p2p")

    def test_p2p_transfer_capped_by_scratch_window(self):
        config = SystemConfig.pcie_2gb(num_accelerators=2)
        with pytest.raises(ValueError, match="scratch window"):
            run_peer_transfer(config, 64 * 1024 * 1024, mode="p2p")

    def test_unknown_mode_rejected(self):
        config = SystemConfig.pcie_2gb(num_accelerators=2)
        with pytest.raises(ValueError, match="mode"):
            run_peer_transfer(config, 4096, mode="teleport")


class TestSwitchDepth:
    def test_each_tier_adds_latency(self):
        ticks = [
            run_multi_gemm(
                SystemConfig.pcie_2gb().with_topology(tiered_topology(2, d)),
                48, 48, 48,
            ).ticks
            for d in (1, 2, 3)
        ]
        assert ticks[0] < ticks[1] < ticks[2]


class TestSystemIntegration:
    def test_switched_system_snapshot_covers_fabric(self):
        system = AcceSysSystem(SystemConfig.pcie_2gb(num_accelerators=2))
        assert isinstance(system.fabric, SwitchedPCIeFabric)
        run_multi_gemm_on = MultiGemmRunner()
        run_multi_gemm_on.drive(system, m=48, k=48, n=48)
        snap = _snapshot(system)
        assert any(key.startswith("system.pcie.up.") for key in snap)
        assert any(key.startswith("system.pcie.down.") for key in snap)

    def test_single_device_keeps_classic_fabric(self):
        from repro.interconnect.pcie.fabric import PCIeFabric

        system = AcceSysSystem(SystemConfig.pcie_2gb())
        assert type(system.fabric) is PCIeFabric
        assert system.endpoint_scratch == []

    def test_explicit_single_endpoint_topology_compiles_switched(self):
        config = SystemConfig.pcie_2gb().with_topology(tiered_topology(1, 1))
        system = AcceSysSystem(config)
        assert isinstance(system.fabric, SwitchedPCIeFabric)
        result = MultiGemmRunner().drive(system, m=48, k=48, n=48)
        assert result.ticks > 0


class TestSweepCodecs:
    def test_multigemm_record_round_trips(self):
        from repro.sweep.spec import RUNNERS

        runner = RUNNERS["multigemm"]
        result = run_multi_gemm(
            SystemConfig.pcie_2gb(num_accelerators=2), 48, 48, 48
        )
        record = runner.encode(result)
        import json
        decoded = runner.decode(json.loads(json.dumps(record)))
        assert decoded == result

    def test_peer_record_round_trips(self):
        from repro.sweep.spec import RUNNERS

        runner = RUNNERS["peer"]
        result = run_peer_transfer(
            SystemConfig.pcie_2gb(num_accelerators=2), 65536, mode="p2p"
        )
        record = runner.encode(result)
        import json
        decoded = runner.decode(json.loads(json.dumps(record)))
        assert decoded == result

    def test_topology_sweeps_registered(self):
        from repro.sweep import SWEEPS, build_sweep

        for name in ("topo-endpoint-scaling", "topo-contention",
                     "topo-p2p", "topo-switch-depth"):
            assert name in SWEEPS
            spec = build_sweep(name)
            assert len(spec.points) > 0

    def test_p2p_sweep_cached_round_trip(self, tmp_path):
        from repro.sweep import build_sweep, run_sweep

        spec = build_sweep("topo-p2p", sizes=(65536,))
        first = run_sweep(spec, cache_dir=tmp_path)
        assert first.misses == 2
        second = run_sweep(spec, cache_dir=tmp_path)
        assert second.hits == 2 and second.misses == 0
        assert {key: r.ticks for key, r in first.results().items()} == \
               {key: r.ticks for key, r in second.results().items()}
