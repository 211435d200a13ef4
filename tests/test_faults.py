"""Deterministic fault injection and the resilience machinery.

Covers the guarantees docs/FAULTS.md makes:

* the counter-based PRNG is a pure function of (seed, label, counter),
* a :class:`FaultSpec` rides the config hash (no cache aliasing),
* the fault-free path is bit-identical to a tree without the subsystem
  (zero-overhead off switch: no ``fault_*`` stats, same results),
* injection is bit-identical across reruns, memoized-system resets
  and ``--shard`` slices,
* the DMA completion-timeout/retry/abort machinery and the driver's
  device-lost refusal behave as specified.
"""

import pytest

from repro.core.config import SystemConfig
from repro.core.runner import clear_system_memo, run_gemm, system_for
from repro.faults.prng import draw64, mix64, stream_for, uniform
from repro.faults.spec import (
    EndpointFault,
    FaultSpec,
    LinkFaults,
    RetryPolicy,
    fault_preset,
)
from repro.faults.runner import apply_faults, run_resilience
from repro.sim.ticks import us
from repro.sweep.spec import build_sweep, resolve_runner
from repro.topology import flat_topology


def _noisy_config(rate=1e-2, seed=7, **config_kw):
    return SystemConfig.pcie_2gb(**config_kw).with_faults(FaultSpec(
        seed=seed,
        links=(LinkFaults(link="*", corrupt_rate=rate),),
        retry=RetryPolicy(),
    ))


def _encode(result):
    return resolve_runner("resilience").encode(result)


# ----------------------------------------------------------------------
# PRNG: pure, stable, label-separated
# ----------------------------------------------------------------------
class TestPrng:
    def test_draws_are_pure_functions(self):
        stream = stream_for(7, "system.pcie.up")
        first = [draw64(stream, i) for i in range(64)]
        again = [draw64(stream, i) for i in range(64)]
        assert first == again

    def test_streams_separate_by_seed_and_label(self):
        a = stream_for(7, "system.pcie.up")
        assert stream_for(8, "system.pcie.up") != a
        assert stream_for(7, "system.pcie.down") != a

    def test_uniform_range_and_spread(self):
        stream = stream_for(1, "link")
        values = [uniform(stream, i) for i in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        # splitmix64 output should not cluster: crude spread check.
        assert 0.4 < sum(values) / len(values) < 0.6

    def test_mix64_stays_in_64_bits(self):
        assert mix64(2**64 - 1) < 2**64
        assert mix64(0) == 0  # splitmix64 finalizer fixed point


# ----------------------------------------------------------------------
# Spec: validation and cache identity
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_rides_config_hash(self):
        base = SystemConfig.pcie_2gb()
        faulty = base.with_faults(FaultSpec(seed=7))
        assert base.stable_hash() != faulty.stable_hash()
        assert faulty.stable_hash() != base.with_faults(
            FaultSpec(seed=8)
        ).stable_hash()
        canonical = faulty.to_canonical()
        assert canonical["faults"]["seed"] == 7

    def test_endpoint_faults_require_retry_policy(self):
        with pytest.raises(ValueError, match="RetryPolicy"):
            FaultSpec(endpoints=(EndpointFault(endpoint=0, crash_at=1),))

    def test_duplicate_endpoint_indices_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultSpec(
                endpoints=(
                    EndpointFault(endpoint=0, crash_at=1),
                    EndpointFault(endpoint=0, crash_at=2),
                ),
                retry=RetryPolicy(),
            )

    def test_retrain_window_must_fit_period(self):
        with pytest.raises(ValueError, match="shorter"):
            LinkFaults(retrain_period=100, retrain_duration=100)

    def test_link_pattern_first_match_wins(self):
        spec = FaultSpec(links=(
            LinkFaults(link="*.up", corrupt_rate=0.5),
            LinkFaults(link="*", corrupt_rate=0.1),
        ))
        assert spec.link_spec_for("system.pcie.up").corrupt_rate == 0.5
        assert spec.link_spec_for("system.pcie.down").corrupt_rate == 0.1

    def test_presets_build_and_describe(self):
        spec = fault_preset("noisy-wire", seed=11)
        assert spec.seed == 11
        assert "corrupt_rate" in spec.describe()
        with pytest.raises(ValueError, match="unknown fault preset"):
            fault_preset("no-such-preset")


# ----------------------------------------------------------------------
# Zero-overhead off switch
# ----------------------------------------------------------------------
class TestFaultFreePath:
    def test_no_fault_stats_without_a_spec(self):
        result = run_gemm(SystemConfig.pcie_8gb(), 32, 32, 32)
        assert not any("fault_" in key for key in result.component_stats)

    def test_inactive_entries_change_nothing(self):
        """A spec whose link entries inject nothing attaches nothing:
        results are bit-identical to ``faults=None`` (same ticks, same
        stat snapshot -- the golden values hold with the field set)."""
        clean = run_gemm(SystemConfig.pcie_8gb(), 32, 32, 32)
        noop = run_gemm(
            SystemConfig.pcie_8gb().with_faults(FaultSpec(
                seed=7, links=(LinkFaults(link="*", corrupt_rate=0.0),),
            )),
            32, 32, 32,
        )
        assert noop.ticks == clean.ticks
        assert noop.component_stats == clean.component_stats

    def test_cxl_port_refuses_fault_spec(self):
        with pytest.raises(ValueError, match="CXL|PCIe"):
            system_for(SystemConfig.cxl_host().with_faults(
                FaultSpec(seed=7,
                          links=(LinkFaults(link="*", corrupt_rate=0.1),))
            ))


# ----------------------------------------------------------------------
# Injection determinism
# ----------------------------------------------------------------------
class TestInjectionDeterminism:
    def test_rerun_and_reset_are_bit_identical(self):
        """Two runs through the memoized-system path (the second rides
        ``reset()``) and a fresh-build run all agree record-for-record."""
        config = _noisy_config()
        first = _encode(run_resilience(config, size_bytes=16384,
                                       transfers=4))
        second = _encode(run_resilience(config, size_bytes=16384,
                                        transfers=4))
        assert first == second
        clear_system_memo()
        fresh = _encode(run_resilience(config, size_bytes=16384,
                                       transfers=4))
        assert fresh == first
        assert first["replays"] > 0  # the schedule actually injected

    def test_shard_slices_compose_bit_identical(self, tmp_path):
        """Shard 1/2 + 2/2 into one cache equals the unsharded run."""
        from repro.sweep import parse_shard, run_sweep

        spec = build_sweep("resilience-error-rate", transfers=2,
                           size_bytes=8192, rates=(0.0, 1e-2))
        full = run_sweep(spec, cache=False)
        cache_dir = tmp_path / "cache"
        for shard in ("1/2", "2/2"):
            run_sweep(spec, cache_dir=cache_dir,
                      shard=parse_shard(shard))
        merged = run_sweep(spec, cache_dir=cache_dir)
        assert merged.fully_cached
        assert {repr(o.key): o.record for o in merged.outcomes} == \
               {repr(o.key): o.record for o in full.outcomes}

    def test_seed_changes_the_schedule(self):
        a = run_resilience(_noisy_config(seed=7), size_bytes=65536,
                           transfers=4)
        b = run_resilience(_noisy_config(seed=8), size_bytes=65536,
                           transfers=4)
        assert a.replays != b.replays or a.ticks != b.ticks


# ----------------------------------------------------------------------
# Retry/timeout/abort machinery
# ----------------------------------------------------------------------
class TestRetryMachinery:
    def test_stall_window_retries_then_completes(self):
        """Completions dropped in a transient stall window come back
        through timeout-driven retries; nothing aborts."""
        config = SystemConfig.pcie_2gb().with_faults(FaultSpec(
            seed=7,
            endpoints=(EndpointFault(endpoint=0, stall_from=us(10),
                                     stall_until=us(250)),),
            retry=RetryPolicy(),
        ))
        result = run_resilience(config, size_bytes=16384, transfers=4)
        assert result.completed == result.transfers
        assert result.aborted == 0
        assert result.timeouts > 0
        assert result.retries > 0

    def test_crash_aborts_with_device_lost_error(self):
        config = SystemConfig.pcie_2gb().with_topology(
            flat_topology(4)
        ).with_faults(FaultSpec(
            seed=7,
            endpoints=(EndpointFault(endpoint=0, crash_at=us(5)),),
            retry=RetryPolicy(completion_timeout=us(50)),
        ))
        result = run_resilience(config, size_bytes=16384, transfers=8)
        # Endpoint 0's two transfers die; the other three devices finish.
        assert result.device_lost == [0]
        assert result.aborted == 2
        assert result.completed == 6
        assert result.timeouts > 0

    def test_abort_sets_descriptor_error(self):
        from repro.dma import DMADescriptor, DMADirection

        config = SystemConfig.pcie_2gb().with_faults(FaultSpec(
            seed=7,
            endpoints=(EndpointFault(endpoint=0, crash_at=0),),
            retry=RetryPolicy(completion_timeout=us(20), max_retries=1),
        ))
        system = system_for(config)
        addr = system.alloc_buffer("abort-probe", 4096)
        descriptor = DMADescriptor(addr=addr, size=4096,
                                   direction=DMADirection.DEVICE_TO_HOST)
        done = []
        system.wrapper.dma.submit(descriptor, done.append)
        system.run()
        assert done and done[0] is descriptor
        assert descriptor.completed_at is not None
        assert "device lost" in descriptor.error

    def test_retry_budget_bounds_outstanding_retries(self):
        with pytest.raises(ValueError, match="retry budget"):
            RetryPolicy(retry_budget=0)

    def test_driver_refuses_launch_on_lost_device(self):
        from repro.faults.spec import DeviceLostError

        config = SystemConfig.pcie_2gb().with_faults(FaultSpec(
            seed=7,
            endpoints=(EndpointFault(endpoint=0, crash_at=0),),
            retry=RetryPolicy(),
        ))
        system = system_for(config)
        workload_addr = system.alloc_buffer("refuse-probe", 4096)
        with pytest.raises(DeviceLostError, match="refusing to launch"):
            system.driver.launch_gemm(
                16, 16, 16, workload_addr, workload_addr, workload_addr,
                lambda job, stats: None,
            )


# ----------------------------------------------------------------------
# Sweep integration
# ----------------------------------------------------------------------
class TestSweepIntegration:
    def test_apply_faults_overlays_every_point(self):
        spec = build_sweep("packet-size", size=32)
        overlay = apply_faults(spec, fault_preset("noisy-wire"))
        assert all(p.config.faults is not None for p in overlay.points)
        assert apply_faults(spec, None) is spec
        # Overlaid points can never alias the fault-free grid.
        keys = {p.config.stable_hash() for p in spec.points}
        overlay_keys = {p.config.stable_hash() for p in overlay.points}
        assert keys.isdisjoint(overlay_keys)

    def test_resilience_sweeps_registered_and_cached(self, tmp_path):
        from repro.sweep import run_sweep

        spec = build_sweep("resilience-error-rate", transfers=2,
                           size_bytes=8192, rates=(1e-2,))
        first = run_sweep(spec, cache_dir=tmp_path)
        second = run_sweep(spec, cache_dir=tmp_path)
        assert second.fully_cached
        assert [o.record for o in first.outcomes] == \
               [o.record for o in second.outcomes]

    def test_all_resilience_sweeps_build(self):
        for name in ("resilience-error-rate", "resilience-retrain-storm",
                     "resilience-slow-link", "resilience-crash"):
            spec = build_sweep(name)
            assert spec.runner == "resilience"
            assert len(spec.points) >= 3
