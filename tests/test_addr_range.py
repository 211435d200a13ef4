"""Unit and property tests for address-range algebra."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memory.addr_range import AddrRange


class TestAddrRange:
    def test_from_size(self):
        r = AddrRange.from_size(0x1000, 0x100)
        assert r.start == 0x1000
        assert r.end == 0x1100
        assert r.size == 0x100

    def test_contains(self):
        r = AddrRange(10, 20)
        assert r.contains(10)
        assert r.contains(19)
        assert not r.contains(20)
        assert not r.contains(9)

    def test_contains_range(self):
        outer = AddrRange(0, 100)
        assert outer.contains_range(AddrRange(0, 100))
        assert outer.contains_range(AddrRange(10, 20))
        assert not outer.contains_range(AddrRange(90, 101))

    def test_overlaps(self):
        assert AddrRange(0, 10).overlaps(AddrRange(9, 20))
        assert not AddrRange(0, 10).overlaps(AddrRange(10, 20))

    def test_offset(self):
        assert AddrRange(0x100, 0x200).offset(0x180) == 0x80
        with pytest.raises(ValueError):
            AddrRange(0x100, 0x200).offset(0x200)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            AddrRange(10, 5)
        with pytest.raises(ValueError):
            AddrRange(-1, 5)

    def test_str(self):
        assert str(AddrRange(0, 16)) == "[0x0, 0x10)"


class TestAddrRangeProperties:
    @given(
        start=st.integers(min_value=0, max_value=2**40),
        size=st.integers(min_value=0, max_value=2**20),
        probe=st.integers(min_value=0, max_value=2**41),
    )
    def test_contains_matches_interval_definition(self, start, size, probe):
        r = AddrRange.from_size(start, size)
        assert r.contains(probe) == (start <= probe < start + size)

    @given(
        a_start=st.integers(min_value=0, max_value=1000),
        a_size=st.integers(min_value=1, max_value=1000),
        b_start=st.integers(min_value=0, max_value=1000),
        b_size=st.integers(min_value=1, max_value=1000),
    )
    def test_overlap_symmetric_and_matches_intersection(
        self, a_start, a_size, b_start, b_size
    ):
        a = AddrRange.from_size(a_start, a_size)
        b = AddrRange.from_size(b_start, b_size)
        assert a.overlaps(b) == b.overlaps(a)
        assert a.overlaps(b) == (max(a.start, b.start)
                                 < min(a.end, b.end))

