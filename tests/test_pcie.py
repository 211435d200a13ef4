"""Unit and property tests for the PCIe model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FAULT_PRESETS, LinkFaults, LinkFaultState, fault_preset
from repro.interconnect.pcie import (
    PCIeChannel,
    PCIeConfig,
    PCIeFabric,
    TLPParams,
)
from repro.interconnect.pcie.link import tlp_params_for, train_timing
from repro.sim.eventq import Simulator
from repro.sim.ports import FixedLatencyTarget
from repro.sim.statistics import StatGroup
from repro.sim.ticks import ns, serialization_ticks, ticks_to_seconds, us
from repro.sim.transaction import Transaction

GB = 10**9


class TestTLPParams:
    def test_num_tlps(self):
        tlp = TLPParams(max_payload=256)
        assert tlp.num_tlps(0) == 1      # header-only request
        assert tlp.num_tlps(256) == 1
        assert tlp.num_tlps(257) == 2
        assert tlp.num_tlps(4096) == 16

    def test_wire_bytes(self):
        tlp = TLPParams(max_payload=256, header_bytes=24)
        assert tlp.wire_bytes(0) == 24
        assert tlp.wire_bytes(512) == 512 + 2 * 24

    def test_tlp_wire_bytes_caps_at_mps(self):
        tlp = TLPParams(max_payload=256, header_bytes=24)
        assert tlp.tlp_wire_bytes(4096) == 256 + 24
        assert tlp.tlp_wire_bytes(100) == 100 + 24

    def test_validation(self):
        with pytest.raises(ValueError):
            TLPParams(max_payload=0)
        with pytest.raises(ValueError):
            TLPParams(header_bytes=0)

    @given(payload=st.integers(min_value=1, max_value=1 << 20))
    def test_fragmentation_conserves_payload(self, payload):
        tlp = TLPParams(max_payload=256, header_bytes=24)
        n = tlp.num_tlps(payload)
        assert (n - 1) * 256 < payload <= n * 256
        assert tlp.wire_bytes(payload) == payload + n * 24


class TestPCIeConfig:
    def test_table2_default(self):
        cfg = PCIeConfig()
        assert cfg.lanes == 4
        assert cfg.rc_latency == ns(150)
        assert cfg.switch_latency == ns(50)
        # 4 lanes x 5 Gb/s x 8/10 = 2 GB/s effective.
        assert cfg.effective_bytes_per_sec == 2 * GB

    def test_invalid_lanes(self):
        with pytest.raises(ValueError):
            PCIeConfig(lanes=3)

    def test_describe(self):
        assert "x4" in PCIeConfig().describe()


class TestPCIeChannel:
    def make_channel(self, **kw):
        sim = Simulator()
        cfg = PCIeConfig(**kw)
        channel = PCIeChannel(sim, "ch", cfg)
        return sim, channel

    def test_single_tlp_latency(self):
        sim, channel = self.make_channel()
        done = []
        txn = Transaction.read(0, 64)
        channel.deliver(txn, 64, lambda t: done.append(sim.now))
        sim.run()
        bw = channel.config.effective_bytes_per_sec
        wire = serialization_ticks(64 + 24, bw)
        # occupancy + (switch latency + rc latency) + 2 store-and-forward
        expected = wire + ns(200) + 2 * wire
        assert done[0] == expected

    def test_bandwidth_scales_with_lanes(self):
        results = {}
        for lanes in (2, 4, 8, 16):
            sim, channel = self.make_channel(lanes=lanes)
            done = []
            for i in range(32):
                channel.deliver(
                    Transaction.read(i * 4096, 4096), 4096,
                    lambda t: done.append(sim.now),
                )
            sim.run()
            results[lanes] = max(done)
        assert results[2] > results[4] > results[8] > results[16]

    def test_header_only_request_is_fast(self):
        sim, channel = self.make_channel()
        done = []
        channel.deliver(Transaction.read(0, 4096), 0, lambda t: done.append(sim.now))
        sim.run()
        # A header-only TLP should cost far less than the payload would.
        bw = channel.config.effective_bytes_per_sec
        assert done[0] < serialization_ticks(4096, bw) + ns(250)

    def test_packet_size_override(self):
        sim, channel = self.make_channel()
        txn = Transaction.read(0, 4096)
        txn.packet_size = 64
        channel.deliver(txn, 4096, lambda t: None)
        sim.run()
        assert channel.stats["tlps"].value == 64

    def test_stats_accumulate(self):
        sim, channel = self.make_channel()
        channel.deliver(Transaction.read(0, 512), 512, lambda t: None)
        sim.run()
        assert channel.stats["payload_bytes"].value == 512
        assert channel.stats["tlps"].value == 2
        assert channel.stats["wire_bytes"].value == 512 + 2 * 24


class TestPCIeFabric:
    def make_fabric(self, host_latency=ns(100), **kw):
        sim = Simulator()
        cfg = PCIeConfig(**kw)
        host = FixedLatencyTarget(sim, "host", latency=host_latency)
        fabric = PCIeFabric(sim, "pcie", cfg, host)
        return sim, fabric, host

    def test_read_round_trip_slower_than_write(self):
        sim, fabric, _ = self.make_fabric()
        done = {}
        fabric.device_read(Transaction.read(0, 256), lambda t: done.setdefault("r", sim.now))
        sim.run()
        read_time = done["r"]

        sim2, fabric2, _ = self.make_fabric()
        done2 = {}
        fabric2.device_write(
            Transaction.write(0, 256), lambda t: done2.setdefault("w", sim2.now)
        )
        sim2.run()
        write_time = done2["w"]
        # Reads pay both directions plus host service; posted writes only up.
        assert read_time > write_time

    def test_read_delivers_through_host(self):
        sim, fabric, host = self.make_fabric()
        fabric.device_read(Transaction.read(0, 256), lambda t: None)
        sim.run()
        assert host.stats["transactions"].value == 1
        assert fabric.up.stats["tlps"].value == 1   # header-only request
        assert fabric.down.stats["tlps"].value == 1  # one 256B completion

    def test_device_access_dispatch(self):
        sim, fabric, host = self.make_fabric()
        fabric.device_access(Transaction.read(0, 64), lambda t: None)
        fabric.device_access(Transaction.write(0, 64), lambda t: None)
        sim.run()
        assert fabric.stats["device_reads"].value == 1
        assert fabric.stats["device_writes"].value == 1

    def test_host_mmio_write(self):
        sim, fabric, _ = self.make_fabric()
        device = FixedLatencyTarget(sim, "dev", latency=ns(5))
        done = []
        fabric.host_access(
            Transaction.write(0x1000, 4), device, lambda t: done.append(sim.now)
        )
        sim.run()
        assert device.stats["transactions"].value == 1
        assert done and done[0] > ns(200)  # at least RC+switch latency

    def test_host_mmio_read_round_trip(self):
        sim, fabric, _ = self.make_fabric()
        device = FixedLatencyTarget(sim, "dev", latency=ns(5))
        done = []
        fabric.host_access(
            Transaction.read(0x1000, 4), device, lambda t: done.append(sim.now)
        )
        sim.run()
        # Down request + device + up completion: at least 2x (RC+switch).
        assert done[0] > 2 * ns(200)

    def test_unconnected_host_raises(self):
        sim = Simulator()
        fabric = PCIeFabric(sim, "pcie", PCIeConfig())
        with pytest.raises(RuntimeError):
            fabric.device_read(Transaction.read(0, 64), lambda t: None)


class TestThroughputProperties:
    @settings(max_examples=10, deadline=None)
    @given(mps=st.sampled_from([128, 256, 512, 1024]))
    def test_sustained_bandwidth_below_effective(self, mps):
        sim = Simulator()
        cfg = PCIeConfig(lanes=16, lane_gbps=16.0, encoding=(128, 130),
                         tlp=TLPParams(max_payload=mps))
        channel = PCIeChannel(sim, "ch", cfg)
        total = 0
        for i in range(64):
            channel.deliver(Transaction.read(i * 4096, 4096), 4096, lambda t: None)
            total += 4096
        sim.run()
        achieved = total / ticks_to_seconds(sim.now)
        assert achieved < cfg.effective_bytes_per_sec

    @settings(max_examples=10, deadline=None)
    @given(
        lanes=st.sampled_from([2, 4, 8, 16]),
        gbps=st.sampled_from([2.0, 8.0, 32.0]),
    )
    def test_more_bandwidth_never_slower(self, lanes, gbps):
        def run(lane_count, rate):
            sim = Simulator()
            cfg = PCIeConfig(lanes=lane_count, lane_gbps=rate)
            channel = PCIeChannel(sim, "ch", cfg)
            for i in range(16):
                channel.deliver(Transaction.read(i * 4096, 4096), 4096, lambda t: None)
            sim.run()
            return sim.now

        base = run(lanes, gbps)
        faster = run(lanes, gbps * 2)
        assert faster <= base


# ----------------------------------------------------------------------
# The per-shape train memo against the unmemoized arithmetic
# ----------------------------------------------------------------------
LINK_STATS = ("tlps", "payload_bytes", "wire_bytes", "busy_ticks")

#: ``(seed, LinkFaults)`` cases: fault-free, every registered preset's
#: link faults, and a dense mix that fires all three classes often.
LINK_FAULT_CASES = [None] + [
    (fault_preset(name).seed, entry)
    for name in sorted(FAULT_PRESETS)
    for entry in fault_preset(name).links
] + [
    (3, LinkFaults(corrupt_rate=0.4, retrain_period=us(7),
                   retrain_duration=us(2), downtrain_at=us(20),
                   downtrain_factor=3)),
]

#: One train: (gap before it in ticks, packet_size, payload, force_tlps).
#: Small pools make shapes repeat (memo hits); the integer ranges add
#: shapes the memo has never seen.
TRAINS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=us(2)),
        st.one_of(st.sampled_from([None, 64, 256, 4096]),
                  st.integers(min_value=1, max_value=8192)),
        st.one_of(st.sampled_from([0, 64, 512, 4096]),
                  st.integers(min_value=0, max_value=20000)),
        st.one_of(st.just(0), st.integers(min_value=0, max_value=64)),
    ),
    min_size=1,
    max_size=40,
)


def _fault_state(case, name):
    if case is None:
        return None
    seed, entry = case
    return LinkFaultState(entry, seed, name, StatGroup(name))


class _ChannelOracle:
    """``PCIeChannel.deliver`` recomputed from ``train_timing`` per call."""

    def __init__(self, config, hops, faults):
        self.config = config
        self.hops = hops
        self.faults = faults
        self.reset()

    def reset(self):
        self.wire_free_at = 0
        self.last_arrival = 0
        self.stats = dict.fromkeys(LINK_STATS, 0)
        if self.faults is not None:
            self.faults.reset()

    def deliver(self, now, packet_size, payload, force_tlps):
        tlp = tlp_params_for(self.config, packet_size)
        n_tlps, wire_bytes, serialize, tlp_fill = train_timing(
            self.config, tlp, payload, force_tlps
        )
        occupancy = max(serialize, n_tlps * max(occ for _, occ in self.hops))
        start = max(now, self.wire_free_at)
        if self.faults is not None:
            stall, occupancy = self.faults.adjust(
                start, occupancy, n_tlps, tlp_fill
            )
            start += stall
        self.wire_free_at = start + occupancy
        fill = sum(lat for lat, _ in self.hops) + len(self.hops) * tlp_fill
        arrival = max(start + occupancy + fill, self.last_arrival)
        self.last_arrival = arrival
        for name, amount in zip(LINK_STATS, (n_tlps, max(0, payload),
                                             wire_bytes, occupancy)):
            self.stats[name] += amount
        return arrival


def _drive_channel(sim, channel, trains):
    """Deliver ``trains`` at their gap-spaced ticks; return arrival ticks."""
    arrivals = {}
    at = 0
    for index, (gap, packet_size, payload, force_tlps) in enumerate(trains):
        at += gap
        txn = Transaction.read(0, max(payload, 1))
        txn.packet_size = packet_size

        def send(txn=txn, index=index, payload=payload, force=force_tlps):
            channel.deliver(txn, payload,
                            lambda _t, i=index: arrivals.__setitem__(i, sim.now),
                            force_tlps=force)

        sim.schedule_at(at, send)
    sim.run()
    return [arrivals[index] for index in range(len(trains))]


class TestTrainMemoDifferential:
    """Every delivery equals the arithmetic the memo replaced."""

    @pytest.mark.parametrize("case", LINK_FAULT_CASES)
    @settings(max_examples=30, deadline=None)
    @given(first=TRAINS, second=TRAINS)
    def test_channel_matches_unmemoized_arithmetic(self, case, first, second):
        sim = Simulator()
        cfg = PCIeConfig(lanes=2, tlp=TLPParams(max_payload=256))
        channel = PCIeChannel(sim, "ch", cfg)
        channel.faults = _fault_state(case, "ch")
        oracle = _ChannelOracle(cfg, channel.hops, _fault_state(case, "ch"))
        for trains in (first, second):
            got = _drive_channel(sim, channel, trains)
            want = []
            at = 0
            for gap, packet_size, payload, force_tlps in trains:
                at += gap
                want.append(oracle.deliver(at, packet_size, payload,
                                           force_tlps))
            assert got == want
            assert {name: channel.stats[name].value
                    for name in LINK_STATS} == oracle.stats
            # The memo survives the reset; the oracle starts over.
            sim.reset()
            for obj in sim.objects:
                obj.reset_state()
            oracle.reset()

    @pytest.mark.parametrize("packet_size", [0, -64])
    def test_invalid_shape_raises_on_every_call(self, packet_size):
        sim = Simulator()
        channel = PCIeChannel(sim, "ch", PCIeConfig())
        for _ in range(3):
            txn = Transaction.read(0, 256)
            txn.packet_size = packet_size
            with pytest.raises(ValueError, match="max payload"):
                channel.deliver(txn, 256, lambda t: None)
        assert all(channel.stats[name].value == 0 for name in LINK_STATS)
