"""Unit and property tests for the sparse backing store."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.addr_range import AddrRange
from repro.memory.physmem import PhysicalMemory


def make_mem(size=1 << 20, frame=4096):
    return PhysicalMemory(AddrRange(0, size), frame_size=frame)


class TestBasics:
    def test_unwritten_reads_zero(self):
        mem = make_mem()
        assert not mem.read(0, 64).any()

    def test_write_then_read(self):
        mem = make_mem()
        data = np.arange(64, dtype=np.uint8)
        mem.write(128, data)
        np.testing.assert_array_equal(mem.read(128, 64), data)

    def test_write_crossing_frame_boundary(self):
        mem = make_mem(frame=4096)
        data = np.arange(256, dtype=np.uint8)
        mem.write(4096 - 100, data)
        np.testing.assert_array_equal(mem.read(4096 - 100, 256), data)

    def test_read_crossing_unallocated_frame(self):
        mem = make_mem(frame=4096)
        mem.write(0, np.full(16, 7, dtype=np.uint8))
        got = mem.read(0, 8192)
        assert got[:16].sum() == 7 * 16
        assert not got[16:].any()

    def test_out_of_range_rejected(self):
        mem = make_mem(size=4096)
        with pytest.raises(ValueError):
            mem.read(4090, 16)
        with pytest.raises(ValueError):
            mem.write(4095, np.zeros(2, dtype=np.uint8))

    def test_bytes_like_write(self):
        mem = make_mem()
        mem.write(100, b"\x01\x02")
        mem.write(102, bytearray(b"\x03"))
        mem.write(103, memoryview(b"\x04"))
        assert mem.read(100, 4).tobytes() == b"\x01\x02\x03\x04"

    def test_sparse_allocation(self):
        mem = make_mem(size=1 << 30, frame=1 << 16)
        assert mem.allocated_bytes == 0
        mem.write(0, np.zeros(16, dtype=np.uint8))
        assert mem.allocated_bytes == 1 << 16

    def test_bad_frame_size_rejected(self):
        with pytest.raises(ValueError):
            PhysicalMemory(AddrRange(0, 64), frame_size=100)


class TestTypedAccess:
    def test_array_round_trip(self):
        mem = make_mem()
        arr = np.arange(24, dtype=np.int32).reshape(4, 6)
        mem.write(512, arr)
        np.testing.assert_array_equal(
            mem.read(512, arr.nbytes).view(np.int32).reshape(4, 6), arr)

    def test_non_contiguous_input(self):
        mem = make_mem()
        arr = np.arange(16, dtype=np.int32).reshape(4, 4).T
        mem.write(0, arr)
        np.testing.assert_array_equal(
            mem.read(0, arr.nbytes).view(np.int32).reshape(4, 4), arr)


class TestProperties:
    @settings(max_examples=50)
    @given(
        addr=st.integers(min_value=0, max_value=60000),
        data=st.binary(min_size=1, max_size=512),
    )
    def test_read_your_writes(self, addr, data):
        mem = PhysicalMemory(AddrRange(0, 1 << 16), frame_size=1024)
        payload = np.frombuffer(data, dtype=np.uint8)
        if addr + len(payload) > 1 << 16:
            return
        mem.write(addr, payload)
        np.testing.assert_array_equal(mem.read(addr, len(payload)), payload)

    @settings(max_examples=25)
    @given(
        writes=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4000),
                st.binary(min_size=1, max_size=64),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_matches_flat_reference(self, writes):
        mem = PhysicalMemory(AddrRange(0, 8192), frame_size=512)
        reference = np.zeros(8192, dtype=np.uint8)
        for addr, data in writes:
            payload = np.frombuffer(data, dtype=np.uint8)
            mem.write(addr, payload)
            reference[addr : addr + len(payload)] = payload
        np.testing.assert_array_equal(mem.read(0, 8192), reference)
