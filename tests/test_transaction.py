"""Unit tests for the Transaction type."""

import numpy as np
import pytest

from repro.sim.transaction import MemCmd, Transaction


class TestConstruction:
    def test_read_constructor(self):
        txn = Transaction.read(0x1000, 64, source="cpu")
        assert txn.is_read and not txn.is_write
        assert txn.addr == 0x1000
        assert txn.size == 64
        assert txn.source == "cpu"

    def test_write_constructor(self):
        data = np.arange(16, dtype=np.uint8)
        txn = Transaction.write(0x2000, 16, data)
        assert txn.is_write and not txn.is_read
        assert txn.data is data

    def test_ids_unique(self):
        a = Transaction.read(0, 1)
        b = Transaction.read(0, 1)
        assert a.id != b.id

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Transaction.read(0, 0)

    def test_negative_addr_rejected(self):
        with pytest.raises(ValueError):
            Transaction.read(-4, 4)

    def test_payload_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Transaction.write(0, 8, np.zeros(4, dtype=np.uint8))

    def test_cmd_predicates(self):
        read = Transaction(MemCmd.READ, 0, 64)
        write = Transaction(MemCmd.WRITE, 0, 64)
        assert read.is_read and not read.is_write
        assert write.is_write and not write.is_read
        # Segments stamped out of a template carry its command flags.
        for template in (read, write):
            segment = template.clone_for_segment(64, 32, issue_tick=5)
            assert (segment.is_read, segment.is_write) == (
                template.is_read, template.is_write)


class TestGranularity:
    def test_num_lines_aligned(self):
        assert Transaction.read(0, 128).num_lines(64) == 2

    def test_num_lines_straddles(self):
        # [60, 68) touches lines 0 and 1
        assert Transaction.read(60, 8).num_lines(64) == 2

    def test_num_lines_single_byte(self):
        assert Transaction.read(63, 1).num_lines(64) == 1

    def test_num_packets(self):
        assert Transaction.read(0, 1024).num_packets(256) == 4
        assert Transaction.read(0, 1025).num_packets(256) == 5

    def test_num_packets_bad_size(self):
        with pytest.raises(ValueError):
            Transaction.read(0, 64).num_packets(0)

    def test_pages_touched(self):
        txn = Transaction.read(4096 - 8, 16)
        assert list(txn.pages_touched(4096)) == [0, 1]

    def test_pages_touched_single(self):
        txn = Transaction.read(8192, 4096)
        assert list(txn.pages_touched(4096)) == [2]

    def test_end_addr(self):
        assert Transaction.read(0x100, 0x40).end_addr == 0x140


class TestLatency:
    def test_latency_none_until_complete(self):
        txn = Transaction.read(0, 64)
        assert txn.latency is None
        txn.issue_tick = 100
        assert txn.latency is None
        txn.complete_tick = 350
        assert txn.latency == 250

    def test_repr_mentions_command(self):
        assert "read" in repr(Transaction.read(0, 64))
        assert "write" in repr(Transaction.write(0, 64))
