"""Unit tests for the multi-channel DMA engine."""

import pytest

from repro.dma import DMADescriptor, DMADirection, DMAEngine
from repro.sim.eventq import Simulator
from repro.sim.ports import FixedLatencyTarget
from repro.sim.ticks import ns
from repro.sim.transaction import Transaction


def make_engine(target_latency=ns(100), **kw):
    sim = Simulator()
    target = FixedLatencyTarget(sim, "path", latency=target_latency)
    engine = DMAEngine(sim, "dma", target, **kw)
    return sim, engine, target


def read_desc(addr=0, size=4096, **kw):
    return DMADescriptor(addr, size, DMADirection.HOST_TO_DEVICE, **kw)


def write_desc(addr=0, size=4096, **kw):
    return DMADescriptor(addr, size, DMADirection.DEVICE_TO_HOST, **kw)


class TestDescriptor:
    def test_validation(self):
        with pytest.raises(ValueError):
            DMADescriptor(0, 0, DMADirection.HOST_TO_DEVICE)
        with pytest.raises(ValueError):
            DMADescriptor(-1, 64, DMADirection.HOST_TO_DEVICE)
        with pytest.raises(ValueError):
            DMADescriptor(0, 64, DMADirection.HOST_TO_DEVICE, packet_size=0)

    def test_direction_predicates(self):
        assert read_desc().is_read
        assert not write_desc().is_read


class TestEngine:
    def test_single_descriptor_completes(self):
        sim, engine, _ = make_engine()
        done = []
        engine.submit(read_desc(size=4096), lambda d: done.append(d))
        sim.run()
        assert len(done) == 1
        assert done[0].completed_at == sim.now
        assert engine.idle

    def test_descriptor_split_into_segments(self):
        sim, engine, target = make_engine(segment_bytes=1024)
        engine.submit(read_desc(size=4096))
        sim.run()
        assert engine.stats["segments"].value == 4
        assert target.stats["transactions"].value == 4

    def test_packet_size_rides_on_transactions(self):
        sim = Simulator()
        seen = []

        class Recorder(FixedLatencyTarget):
            def send(self, txn, on_complete):
                seen.append(txn.packet_size)
                super().send(txn, on_complete)

        target = Recorder(sim, "path", latency=ns(10))
        engine = DMAEngine(sim, "dma", target, segment_bytes=4096)
        engine.submit(read_desc(size=8192, packet_size=256))
        sim.run()
        # Segment granularity unchanged; the TLP knob rides on each txn.
        assert seen == [256, 256]

    def test_tag_limit_respected(self):
        sim, engine, _ = make_engine(max_outstanding=2, segment_bytes=64)
        peak = {"tags": 0}
        original_issue = engine._issue_segment

        def watched(work):
            original_issue(work)
            peak["tags"] = max(peak["tags"], engine.tags_in_use)

        engine._issue_segment = watched
        engine.submit(read_desc(size=1024))
        sim.run()
        assert peak["tags"] <= 2

    def test_round_robin_interleaves_channels(self):
        sim = Simulator()
        order = []

        class Recorder(FixedLatencyTarget):
            def send(self, txn, on_complete):
                order.append(txn.stream)
                super().send(txn, on_complete)

        target = Recorder(sim, "path", latency=ns(10))
        engine = DMAEngine(sim, "dma", target, num_channels=2,
                           segment_bytes=64, max_outstanding=2)
        engine.submit(read_desc(size=256, stream="a"), channel=0)
        engine.submit(read_desc(size=256, stream="b"), channel=1)
        sim.run()
        # Both streams appear, interleaved rather than strictly sequential:
        # the first "b" segment is issued before the last "a" completes.
        assert set(order) == {"a", "b"}
        assert order.index("b") < len(order) - 1 - order[::-1].index("a")

    def test_submit_list_completion(self):
        sim, engine, _ = make_engine()
        done = []
        descs = [read_desc(addr=i * 8192, size=4096) for i in range(3)]
        engine.submit_list(descs, lambda: done.append(sim.now))
        sim.run()
        assert len(done) == 1
        assert all(d.completed_at is not None for d in descs)

    def test_submit_empty_list(self):
        sim, engine, _ = make_engine()
        done = []
        engine.submit_list([], lambda: done.append(True))
        assert done == [True]

    def test_read_write_byte_stats(self):
        sim, engine, _ = make_engine()
        engine.submit(read_desc(size=4096))
        engine.submit(write_desc(size=2048))
        sim.run()
        assert engine.stats["bytes_read"].value == 4096
        assert engine.stats["bytes_written"].value == 2048

    def test_invalid_channel(self):
        sim, engine, _ = make_engine(num_channels=2)
        with pytest.raises(ValueError):
            engine.submit(read_desc(), channel=5)

    def test_validation(self):
        sim = Simulator()
        target = FixedLatencyTarget(sim, "t", 1)
        with pytest.raises(ValueError):
            DMAEngine(sim, "dma", target, num_channels=0)
        with pytest.raises(ValueError):
            DMAEngine(sim, "dma", target, max_outstanding=0)
        with pytest.raises(ValueError):
            DMAEngine(sim, "dma", target, segment_bytes=0)

    def test_more_tags_more_throughput(self):
        """With a serialized target, tags pipeline but never reorder;
        with a fixed-latency target, more tags hide more latency."""

        def run(tags):
            sim, engine, _ = make_engine(
                target_latency=ns(500), max_outstanding=tags, segment_bytes=64
            )
            engine.submit(read_desc(size=64 * 64))
            sim.run()
            return sim.now

        assert run(16) < run(1)

    def test_segment_latency_histogram(self):
        sim, engine, _ = make_engine(target_latency=ns(100), segment_bytes=4096)
        engine.submit(read_desc(size=4096))
        sim.run()
        hist = engine.stats["segment_ticks"]
        assert hist.count == 1
        assert hist.mean == ns(100)

    def test_fully_issued_work_retires_from_its_own_channel(self):
        """Regression for the retire path: work carries its channel index.

        Identical descriptors queued on every channel used to make the
        old retire scan ambiguous-looking (it walked all channels for
        the head matching by identity); the threaded index must retire
        each work from exactly its owning queue, so every channel drains
        and every completion fires once.
        """
        sim, engine, _ = make_engine(num_channels=4, segment_bytes=64,
                                     max_outstanding=2)
        done = []
        for channel in range(4):
            # Same address/size on purpose: only identity/channel differ.
            engine.submit(read_desc(addr=0, size=256),
                          lambda d, c=channel: done.append(c),
                          channel=channel)
        sim.run()
        assert sorted(done) == [0, 1, 2, 3]
        assert engine.idle
        assert all(not ch.queue for ch in engine._channels)

    def test_work_records_channel_and_descriptor_fields(self):
        sim, engine, _ = make_engine(num_channels=2, segment_bytes=64,
                                     max_outstanding=1)
        engine.submit(read_desc(size=128), channel=1)
        work = engine._channels[1].queue[0]
        assert work.channel == 1
        assert work.size == 128
        assert work.is_read
        sim.run()
        assert engine.idle
