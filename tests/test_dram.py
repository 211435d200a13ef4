"""Unit and property tests for the DRAM bank-state timing model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.addr_range import AddrRange
from repro.memory.dram import DRAMController, DRAMTimings
from repro.memory.dram.devices import (
    DDR3_1600,
    DDR4_2400,
    DDR5_3200,
    GDDR6,
    HBM2,
    MEMORY_PRESETS,
)
from repro.memory.physmem import PhysicalMemory
from repro.sim.eventq import Simulator
from repro.sim.ticks import ns, ticks_to_seconds
from repro.sim.transaction import Transaction


def run_stream(timings, total_bytes, txn_size=4096, read=True):
    """Stream ``total_bytes`` sequentially; return (ticks, controller)."""
    sim = Simulator()
    ctrl = DRAMController(
        sim, "dram", timings, AddrRange(0, max(total_bytes * 2, 1 << 20))
    )
    outstanding = {"n": 0}

    def on_done(txn):
        outstanding["n"] -= 1

    addr = 0
    while addr < total_bytes:
        size = min(txn_size, total_bytes - addr)
        cmd = Transaction.read(addr, size) if read else Transaction.write(addr, size)
        ctrl.send(cmd, on_done)
        outstanding["n"] += 1
        addr += size
    sim.run()
    assert outstanding["n"] == 0
    return sim.now, ctrl


class TestPresets:
    def test_table3_bandwidths(self):
        # Bandwidths from Table III of the paper, in GB/s.
        expected = {
            "DDR3-1600": 12.8,
            "DDR4-2400": 19.2,
            "DDR5-3200": 25.6,
            "HBM2": 64.0,
            "GDDR6": 32.0,
        }
        for name, gbs in expected.items():
            preset = MEMORY_PRESETS[name]
            assert preset.total_bandwidth == pytest.approx(gbs * 1e9)

    def test_table3_data_rates(self):
        assert DDR3_1600.data_rate_mts == 1600
        assert DDR4_2400.data_rate_mts == 2400
        assert DDR5_3200.data_rate_mts == 3200
        assert HBM2.data_rate_mts == 2000
        assert GDDR6.data_rate_mts == 2000

    def test_burst_bytes_are_cacheline_compatible(self):
        for preset in MEMORY_PRESETS.values():
            assert preset.burst_bytes in (32, 64, 128)

    def test_describe(self):
        text = HBM2.describe()
        assert "HBM2" in text and "64.0 GB/s" in text

    def test_invalid_timings_rejected(self):
        with pytest.raises(ValueError):
            DRAMTimings("bad", data_rate_mts=0, channels=1,
                        data_width_bits=64, burst_length=8, banks=8)
        with pytest.raises(ValueError):
            DRAMTimings("bad", data_rate_mts=1600, channels=1,
                        data_width_bits=63, burst_length=8, banks=8)
        with pytest.raises(ValueError):
            DRAMTimings("bad", data_rate_mts=1600, channels=1,
                        data_width_bits=64, burst_length=8, banks=8,
                        row_buffer_bytes=3000)


class TestStreamingBandwidth:
    def test_sequential_stream_approaches_peak(self):
        """A long sequential stream should reach >60% of peak bandwidth."""
        total = 8 << 20
        ticks, _ = run_stream(DDR4_2400, total)
        achieved = total / ticks_to_seconds(ticks)
        assert achieved > 0.6 * DDR4_2400.total_bandwidth
        assert achieved <= DDR4_2400.total_bandwidth * 1.01

    def test_technology_ordering(self):
        """Faster technologies finish the same stream sooner."""
        total = 2 << 20
        t_ddr3, _ = run_stream(DDR3_1600, total)
        t_ddr4, _ = run_stream(DDR4_2400, total)
        t_hbm, _ = run_stream(HBM2, total)
        assert t_ddr3 > t_ddr4 > t_hbm

    def test_row_hits_dominate_sequential(self):
        _, ctrl = run_stream(DDR4_2400, 1 << 20)
        assert ctrl.row_hit_rate > 0.9

    def test_multi_channel_speedup(self):
        """Two channels should beat one channel of the same device."""
        one_ch = DDR5_3200
        half = DRAMTimings(
            name="DDR5-1ch",
            data_rate_mts=one_ch.data_rate_mts,
            channels=1,
            data_width_bits=one_ch.data_width_bits,
            burst_length=one_ch.burst_length,
            banks=one_ch.banks,
            row_buffer_bytes=one_ch.row_buffer_bytes,
        )
        t_two, _ = run_stream(one_ch, 1 << 20)
        t_one, _ = run_stream(half, 1 << 20)
        assert t_one > 1.5 * t_two


class TestBankBehaviour:
    def test_random_access_slower_than_sequential(self):
        timings = DDR4_2400
        sim = Simulator()
        ctrl = DRAMController(sim, "dram", timings, AddrRange(0, 1 << 28))
        rng = np.random.default_rng(42)
        # Random 64B reads spread over many rows in the SAME bank region.
        row_span = timings.row_buffer_bytes * timings.banks
        addrs = (rng.integers(0, (1 << 28) // row_span, size=200) * row_span).tolist()
        for addr in addrs:
            ctrl.send(Transaction.read(int(addr), 64), lambda t: None)
        sim.run()
        t_random = sim.now

        t_seq, _ = run_stream(timings, 200 * 64, txn_size=64)
        assert t_random > t_seq

    def test_row_miss_penalty_recorded(self):
        sim = Simulator()
        ctrl = DRAMController(sim, "dram", DDR4_2400, AddrRange(0, 1 << 26))
        stride = DDR4_2400.row_buffer_bytes * DDR4_2400.banks
        for i in range(10):
            ctrl.send(Transaction.read(i * stride, 64), lambda t: None)
        sim.run()
        assert ctrl.stats["row_misses"].value == 10
        assert ctrl.stats["row_hits"].value == 0

    def test_same_row_hits_after_first(self):
        sim = Simulator()
        ctrl = DRAMController(sim, "dram", DDR4_2400, AddrRange(0, 1 << 20))
        for i in range(10):
            ctrl.send(Transaction.read(i * 64, 64), lambda t: None)
        sim.run()
        assert ctrl.stats["row_misses"].value == 1
        assert ctrl.stats["row_hits"].value == 9

    def test_out_of_range_rejected(self):
        sim = Simulator()
        ctrl = DRAMController(sim, "dram", DDR4_2400, AddrRange(0, 4096))
        with pytest.raises(ValueError):
            ctrl.send(Transaction.read(1 << 20, 64), lambda t: None)

    def test_functional_backing(self):
        sim = Simulator()
        store = PhysicalMemory(AddrRange(0, 1 << 20))
        ctrl = DRAMController(
            sim, "dram", DDR4_2400, AddrRange(0, 1 << 20), backing=store
        )
        payload = np.arange(128, dtype=np.uint8)
        ctrl.send(Transaction.write(4096, 128, payload), lambda t: None)
        got = []
        ctrl.send(Transaction.read(4096, 128), lambda t: got.append(t.data))
        sim.run()
        np.testing.assert_array_equal(got[0], payload)


class TestTimingProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        txn_size=st.sampled_from([64, 256, 1024, 4096]),
        total_kb=st.integers(min_value=4, max_value=64),
    )
    def test_time_monotonic_in_volume(self, txn_size, total_kb):
        """Streaming more data never takes less time."""
        small, _ = run_stream(DDR4_2400, total_kb * 1024 // 2, txn_size=txn_size)
        large, _ = run_stream(DDR4_2400, total_kb * 1024, txn_size=txn_size)
        assert large >= small

    @settings(max_examples=10, deadline=None)
    @given(total_kb=st.integers(min_value=8, max_value=64))
    def test_reads_and_writes_symmetric(self, total_kb):
        t_read, _ = run_stream(DDR4_2400, total_kb * 1024, read=True)
        t_write, _ = run_stream(DDR4_2400, total_kb * 1024, read=False)
        assert t_read == t_write

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_bandwidth_never_exceeds_peak(self, seed):
        rng = np.random.default_rng(seed)
        sim = Simulator()
        ctrl = DRAMController(sim, "dram", HBM2, AddrRange(0, 1 << 24))
        total = 0
        addr = 0
        for _ in range(50):
            size = int(rng.integers(1, 64)) * 64
            ctrl.send(Transaction.read(addr, size), lambda t: None)
            addr += size
            total += size
        sim.run()
        achieved = total / ticks_to_seconds(sim.now)
        assert achieved <= HBM2.total_bandwidth * 1.01
