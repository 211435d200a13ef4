"""Unit tests for the integer time base."""

import pytest

from repro.sim.ticks import (
    TICKS_PER_SEC,
    freq_to_period,
    ns,
    serialization_ticks,
    ticks_to_ns,
    ticks_to_seconds,
    us,
)


class TestConversions:
    def test_one_tick_is_one_picosecond(self):
        assert TICKS_PER_SEC == 10**12
        assert ns(1) == 1000
        assert us(1) == 1_000_000

    def test_fractional_ns(self):
        assert ns(1.5) == 1500
        assert ns(0.001) == 1

    def test_round_trip_seconds(self):
        assert ticks_to_seconds(us(250_000)) == pytest.approx(0.25)

    def test_round_trip_ns(self):
        assert ticks_to_ns(ns(123.0)) == pytest.approx(123.0)


class TestFrequency:
    def test_one_ghz_period(self):
        assert freq_to_period(10**9) == 1000

    def test_two_ghz_period(self):
        assert freq_to_period(2 * 10**9) == 500

    def test_period_never_zero(self):
        assert freq_to_period(10**13) == 1

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            freq_to_period(0)
        with pytest.raises(ValueError):
            freq_to_period(-1)


class TestBandwidth:
    def test_serialization_exact(self):
        # 1000 bytes at 1 GB/s -> 1 us
        assert serialization_ticks(1000, 10**9) == us(1)

    def test_serialization_rounds_up(self):
        # 1 byte at 3 bytes/s: 1/3 s -> must round up
        got = serialization_ticks(1, 3)
        assert got == (TICKS_PER_SEC + 2) // 3

    def test_serialization_zero_bytes(self):
        assert serialization_ticks(0, 10**9) == 0

    def test_serialization_negative_bytes(self):
        assert serialization_ticks(-5, 10**9) == 0

    def test_serialization_bad_bandwidth(self):
        with pytest.raises(ValueError):
            serialization_ticks(100, 0)

