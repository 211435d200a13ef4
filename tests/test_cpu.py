"""Unit tests for the timing CPU and non-GEMM kernels."""

import pytest

from repro.cpu import NONGEMM_COSTS, kernel_for_op
from repro.cpu.cpu import StreamRef, TimingCPU
from repro.sim.eventq import Simulator
from repro.sim.ports import FixedLatencyTarget
from repro.sim.ticks import ns


def make_cpu(mem_latency=ns(50), **kw):
    sim = Simulator()
    mem = FixedLatencyTarget(sim, "mem", latency=mem_latency)
    cpu = TimingCPU(sim, "cpu", mem, **kw)
    return sim, cpu, mem


def run_kernel(sim, cpu, streams, cycles):
    done = []
    cpu.run_kernel(streams, cycles, lambda t: done.append(t))
    sim.run()
    assert done, "kernel never completed"
    return done[0]


class TestStreamRef:
    def test_validation(self):
        with pytest.raises(ValueError):
            StreamRef(0, 0)


class TestTimingCPU:
    def test_pure_compute_kernel(self):
        sim, cpu, _ = make_cpu()
        elapsed = run_kernel(sim, cpu, [], cycles := 1000)
        assert elapsed == cycles * cpu.clock_period

    def test_memory_bound_kernel(self):
        sim, cpu, mem = make_cpu(mem_latency=ns(100))
        elapsed = run_kernel(sim, cpu, [StreamRef(0, 8192)], 10)
        assert elapsed >= ns(100)
        assert mem.stats["transactions"].value == 8

    def test_compute_hides_memory(self):
        sim, cpu, _ = make_cpu(mem_latency=ns(10))
        # Compute budget far exceeds memory time.
        elapsed = run_kernel(sim, cpu, [StreamRef(0, 1024)], 100_000)
        assert elapsed == 100_000 * cpu.clock_period

    def test_mlp_window_bounds_overlap(self):
        def run(window):
            sim, cpu, _ = make_cpu(mem_latency=ns(200), mlp_window=window)
            return run_kernel(sim, cpu, [StreamRef(0, 16 * 1024)], 0)

        assert run(8) < run(1)

    def test_streams_interleaved(self):
        sim, cpu, mem = make_cpu()
        streams = [StreamRef(0, 2048), StreamRef(1 << 20, 2048, is_read=False)]
        run_kernel(sim, cpu, streams, 0)
        assert cpu.stats["mem_bytes"].value == 4096

    def test_serialized_kernels(self):
        sim, cpu, _ = make_cpu()
        cpu.run_kernel([StreamRef(0, 1024)], 100, lambda t: None)
        with pytest.raises(RuntimeError):
            cpu.run_kernel([StreamRef(0, 1024)], 100, lambda t: None)
        sim.run()
        # After completion a new kernel is accepted.
        cpu.run_kernel([StreamRef(0, 1024)], 100, lambda t: None)
        sim.run()
        assert cpu.stats["kernels"].value == 2

    def test_validation(self):
        sim = Simulator()
        mem = FixedLatencyTarget(sim, "m", 1)
        with pytest.raises(ValueError):
            TimingCPU(sim, "c", mem, mlp_window=0)
        with pytest.raises(ValueError):
            TimingCPU(sim, "c", mem, segment_bytes=32)

    def test_mem_stall_stat(self):
        sim, cpu, _ = make_cpu(mem_latency=ns(500))
        run_kernel(sim, cpu, [StreamRef(0, 4096)], 1)
        assert cpu.stats["mem_stall_ticks"].value > 0


class TestNonGemmKernels:
    def test_kernel_construction(self):
        kernel = kernel_for_op(
            "softmax", 1000, [(0, 4000)], [(8192, 4000)]
        )
        assert kernel.compute_cycles == int(1000 * NONGEMM_COSTS["softmax"])
        assert sum(stream.size for stream in kernel.streams) == 8000
        assert len(kernel.streams) == 2
        assert kernel.streams[0].is_read
        assert not kernel.streams[1].is_read

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            kernel_for_op("fft", 100, [], [])

    def test_bad_elements_rejected(self):
        with pytest.raises(ValueError):
            kernel_for_op("add", 0, [], [])

    def test_cost_table_sanity(self):
        # Softmax is the most expensive per element; add the cheapest.
        assert NONGEMM_COSTS["softmax"] > NONGEMM_COSTS["layernorm"]
        assert NONGEMM_COSTS["add"] < NONGEMM_COSTS["layernorm"]
