"""Tests for the sweep engine (repro.sweep) and the PR's bugfixes.

Covers:

* parallel execution produces tick-identical results to serial,
* on-disk cache hit/miss accounting and replay fidelity,
* cache invalidation when any configuration field changes,
* SystemConfig.stable_hash / canonical serialization,
* the source digest's stat fingerprint (re-hash exactly on change),
* regressions for run_until_idle, ViT op-tick accounting, and the
  dataclasses.replace-based config copies.
"""

import dataclasses
import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro import SystemConfig
from repro.core import runner as runner_mod
from repro.core.config import canonical_value
from repro.core.runner import run_gemm, run_vit
from repro.sim.eventq import Simulator
from repro.sweep import (
    NullCache,
    ResultCache,
    SweepPoint,
    SweepSpec,
    build_sweep,
    derive_seed,
    gemm_points,
    point_key,
    resolve_runner,
    run_sweep,
)
from repro.sweep.spec import (
    LAZY_RUNNER_MODULES,
    RUNNERS,
    record_fields,
)
from repro.workloads.vit import build_vit_graph

SIZE = 32


def small_spec(packets=(64, 128, 256, 512), name="test-sweep") -> SweepSpec:
    base = SystemConfig.table2_baseline()
    configs = {packet: base.with_packet_size(packet) for packet in packets}
    return SweepSpec(name=name, points=gemm_points(configs, SIZE))


def ticks_of(report) -> dict:
    return {key: result.ticks for key, result in report.results().items()}


class TestParallelEqualsSerial:
    def test_tick_identical_four_way(self, tmp_path):
        spec = small_spec()
        serial = run_sweep(spec, workers=1,
                           cache_dir=tmp_path / "serial")
        parallel = run_sweep(spec, workers=4,
                             cache_dir=tmp_path / "parallel")
        assert ticks_of(serial) == ticks_of(parallel)
        # Full records match too, not just the headline tick count.
        serial_records = {o.key: o.record for o in serial.outcomes}
        parallel_records = {o.key: o.record for o in parallel.outcomes}
        assert serial_records == parallel_records

    def test_point_order_preserved(self, tmp_path):
        spec = small_spec()
        report = run_sweep(spec, workers=4, cache=False)
        assert [o.key for o in report.outcomes] == [
            p.key for p in spec.points
        ]

    def test_pool_failure_falls_back_to_serial(self, tmp_path, monkeypatch):
        import repro.sweep.engine as engine

        def broken_pool(jobs, workers):
            return None  # what _run_parallel reports after an exception

        monkeypatch.setattr(engine, "_run_parallel", broken_pool)
        report = run_sweep(small_spec(), workers=4, cache=False)
        assert not report.parallel
        assert len(report.outcomes) == 4


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        spec = small_spec()
        first = run_sweep(spec, workers=1, cache_dir=tmp_path)
        assert (first.hits, first.misses) == (0, 4)
        second = run_sweep(spec, workers=1, cache_dir=tmp_path)
        assert (second.hits, second.misses) == (4, 0)
        assert second.fully_cached
        assert ticks_of(first) == ticks_of(second)

    def test_cached_results_match_live_records(self, tmp_path):
        spec = small_spec()
        live = run_sweep(spec, workers=1, cache_dir=tmp_path)
        replay = run_sweep(spec, workers=1, cache_dir=tmp_path)
        for fresh, cached in zip(live.outcomes, replay.outcomes):
            assert fresh.record == cached.record
            assert fresh.result.seconds == cached.result.seconds
            assert fresh.result.traffic_bytes == cached.result.traffic_bytes

    def test_config_change_invalidates(self, tmp_path):
        spec = small_spec(packets=(64, 128))
        run_sweep(spec, workers=1, cache_dir=tmp_path)
        # Same packets, but a different PCIe link: every point must miss.
        base = SystemConfig.table2_baseline().with_pcie_bandwidth(8, 8.0)
        changed = SweepSpec(
            name="test-sweep",
            points=gemm_points(
                {p: base.with_packet_size(p) for p in (64, 128)}, SIZE
            ),
        )
        report = run_sweep(changed, workers=1, cache_dir=tmp_path)
        assert report.misses == 2 and report.hits == 0

    def test_param_change_invalidates(self):
        base = SystemConfig.table2_baseline()
        point_a = SweepPoint(key=1, config=base,
                             params={"m": 32, "k": 32, "n": 32})
        point_b = SweepPoint(key=1, config=base,
                             params={"m": 64, "k": 32, "n": 32})
        assert point_key(point_a, "gemm") != point_key(point_b, "gemm")

    def test_key_excludes_label(self):
        base = SystemConfig.table2_baseline()
        params = {"m": 32, "k": 32, "n": 32}
        point_a = SweepPoint(key="left", config=base, params=params)
        point_b = SweepPoint(key="right", config=base, params=params)
        assert point_key(point_a, "gemm") == point_key(point_b, "gemm")

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        spec = small_spec(packets=(64,))
        report = run_sweep(spec, workers=1, cache_dir=tmp_path)
        path = tmp_path / f"{report.outcomes[0].key_hash}.json"
        path.write_text("{not json")
        again = run_sweep(spec, workers=1, cache_dir=tmp_path)
        assert again.misses == 1
        assert ticks_of(report) == ticks_of(again)

    def test_non_utf8_entry_is_a_miss(self, tmp_path):
        # A torn or bit-rotted entry whose bytes are not UTF-8 used to
        # raise UnicodeDecodeError out of get() and entries().
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"ticks": 1})
        (tmp_path / f"{'cd' * 32}.json").write_bytes(
            b'{"record": "\xff\xfe"}')
        assert cache.get("cd" * 32) is None
        assert (cache.hits, cache.misses) == (0, 1)
        assert [path.stem for path, _ in cache.entries()] == ["ab" * 32]
        assert cache.summarize()["entries"] == 1

    def test_non_utf8_entry_is_resimulated_and_overwritten(self, tmp_path):
        spec = small_spec(packets=(64,))
        report = run_sweep(spec, workers=1, cache_dir=tmp_path)
        path = tmp_path / f"{report.outcomes[0].key_hash}.json"
        path.write_bytes(b'{"record": "\xff\xfe"}')
        again = run_sweep(spec, workers=1, cache_dir=tmp_path)
        assert (again.hits, again.misses) == (0, 1)
        assert again.outcomes[0].record == report.outcomes[0].record
        assert json.loads(path.read_bytes())["record"] == (
            report.outcomes[0].record)
        assert run_sweep(spec, workers=1, cache_dir=tmp_path).fully_cached

    def test_no_cache_flag(self, tmp_path):
        spec = small_spec(packets=(64,))
        run_sweep(spec, workers=1, cache=False, cache_dir=tmp_path)
        assert len(ResultCache(tmp_path)) == 0

    def test_null_cache_interface(self):
        cache = NullCache()
        assert cache.get("deadbeef") is None
        cache.put("deadbeef", {"ticks": 1})
        assert len(cache) == 0

    def test_clear(self, tmp_path):
        spec = small_spec(packets=(64, 128))
        run_sweep(spec, workers=1, cache_dir=tmp_path)
        cache = ResultCache(tmp_path)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_summarize_groups_by_sweep(self, tmp_path):
        run_sweep(small_spec(packets=(64, 128), name="sweep-a"),
                  workers=1, cache_dir=tmp_path)
        run_sweep(small_spec(packets=(256,), name="sweep-b"),
                  workers=1, cache_dir=tmp_path)
        summary = ResultCache(tmp_path).summarize()
        assert summary["entries"] == 3
        assert summary["bytes"] > 0
        assert summary["sweeps"] == {"sweep-a": 2, "sweep-b": 1}

    def test_summarize_empty_cache(self, tmp_path):
        summary = ResultCache(tmp_path / "nowhere").summarize()
        assert summary["entries"] == 0
        assert summary["sweeps"] == {}

    def test_prune_removes_only_named_sweep(self, tmp_path):
        spec_a = small_spec(packets=(64, 128), name="sweep-a")
        spec_b = small_spec(packets=(256,), name="sweep-b")
        run_sweep(spec_a, workers=1, cache_dir=tmp_path)
        run_sweep(spec_b, workers=1, cache_dir=tmp_path)
        cache = ResultCache(tmp_path)
        assert cache.prune("sweep-a") == 2
        assert len(cache) == 1
        # sweep-b untouched: replays from cache.
        assert run_sweep(spec_b, workers=1,
                         cache_dir=tmp_path).fully_cached
        # sweep-a re-simulates.
        assert run_sweep(spec_a, workers=1,
                         cache_dir=tmp_path).misses == 2

    def test_summarize_skips_corrupt_entries(self, tmp_path):
        run_sweep(small_spec(packets=(64,)), workers=1, cache_dir=tmp_path)
        (tmp_path / "deadbeef.json").write_text("{not json")
        summary = ResultCache(tmp_path).summarize()
        assert summary["entries"] == 1

    def test_counters_exact_under_concurrent_gets(self, tmp_path):
        """Hit/miss counters must not lose increments across threads.

        Regression: ``hits += 1`` / ``misses += 1`` are read-modify-
        write and used to race when one ResultCache instance served
        concurrent readers (exactly what the result server does), so
        totals drifted low under load.  The counters are now
        lock-protected; this hammers ``get`` from many threads and
        demands *exact* totals.
        """
        import threading

        cache = ResultCache(tmp_path)
        cache.put("feed" * 16, {"ticks": 1})
        threads, rounds = 16, 200
        barrier = threading.Barrier(threads)

        def hammer():
            barrier.wait()
            for i in range(rounds):
                assert cache.get("feed" * 16) is not None
                assert cache.get(f"miss{i:060d}") is None

        pool = [threading.Thread(target=hammer) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert cache.hits == threads * rounds
        assert cache.misses == threads * rounds


class TestSpec:
    def test_duplicate_keys_rejected(self):
        base = SystemConfig.table2_baseline()
        points = [
            SweepPoint(key=1, config=base, params={}),
            SweepPoint(key=1, config=base, params={}),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            SweepSpec(name="dup", points=points)

    def test_unknown_runner_rejected(self):
        # Spec construction and name lookup raise the same error, which
        # names every runner, the lazily registered one included.
        for lookup in (
            lambda: SweepSpec(name="bad", points=[], runner="no-such-runner"),
            lambda: resolve_runner("no-such-runner"),
        ):
            with pytest.raises(ValueError, match="unknown runner") as info:
                lookup()
            for name in ("gemm", "vit", "multigemm", "peer", "resilience"):
                assert repr(name) in str(info.value)

    def test_registry_builds_cli_sweeps(self):
        spec = build_sweep("packet-size", size=16, packets=(64, 128))
        assert len(spec) == 2
        with pytest.raises(ValueError, match="unknown sweep"):
            build_sweep("no-such-sweep")

    def test_derive_seed_deterministic_and_distinct(self):
        base = SystemConfig.table2_baseline()
        point_a = SweepPoint(key="a", config=base, params={})
        point_b = SweepPoint(key="b", config=base, params={})
        assert derive_seed(1, point_a) == derive_seed(1, point_a)
        assert derive_seed(1, point_a) != derive_seed(1, point_b)
        assert derive_seed(1, point_a) != derive_seed(2, point_a)


class TestStableHash:
    def test_equal_configs_equal_hash(self):
        assert (SystemConfig.pcie_8gb().stable_hash()
                == SystemConfig.pcie_8gb().stable_hash())

    def test_any_field_changes_hash(self):
        base = SystemConfig.table2_baseline()
        variants = [
            base.with_packet_size(512),
            base.with_pcie_bandwidth(8, 8.0),
            base.with_(dma_channels=8),
            base.with_(smmu=None),
            SystemConfig.devmem_system(),
        ]
        hashes = {base.stable_hash()} | {v.stable_hash() for v in variants}
        assert len(hashes) == len(variants) + 1

    def test_canonical_is_json_safe(self):
        import json

        for config in SystemConfig.paper_systems().values():
            json.dumps(config.to_canonical())

    def test_canonical_rejects_opaque_objects(self):
        with pytest.raises(TypeError):
            canonical_value(object())


class TestRunUntilIdleRegression:
    def test_raises_on_time_travel(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        # Bypass the schedule() guard, as a buggy component could.
        sim.queue.push(5, lambda: None)
        with pytest.raises(RuntimeError, match="time already at"):
            sim.run_until_idle(lambda: False)

    def test_raises_on_exhausted_budget(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(1, reschedule)

        sim.schedule(1, reschedule)
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run_until_idle(lambda: False, max_events=10)

    def test_budget_ok_when_quiesced_at_limit(self):
        sim = Simulator()
        seen = []
        for t in (1, 2):
            sim.schedule(t, lambda t=t: seen.append(t))
        sim.run_until_idle(lambda: len(seen) == 2, max_events=2)
        assert seen == [1, 2]


class TestAccountRegression:
    def test_duplicate_op_names_accumulate(self, monkeypatch):
        real_build = build_vit_graph

        def collapse_names(config):
            graph = real_build(config)
            graph.ops = [
                dataclasses.replace(op, name="op") for op in graph.ops
            ]
            return graph

        monkeypatch.setattr(runner_mod, "build_vit_graph", collapse_names)
        result = run_vit(SystemConfig.pcie_8gb(), "base", dim_scale=0.0625)
        # Every op shares one name; the single bucket must hold the total.
        assert set(result.op_ticks) == {"op"}
        assert result.op_ticks["op"] == (
            result.gemm_ticks + result.nongemm_ticks
        )

    def test_op_ticks_sum_to_totals(self):
        result = run_vit(SystemConfig.pcie_8gb(), "base", dim_scale=0.0625)
        assert sum(result.op_ticks.values()) == (
            result.gemm_ticks + result.nongemm_ticks
        )


class TestConfigCopyRegression:
    def test_with_pcie_bandwidth_preserves_other_fields(self):
        base = SystemConfig.table2_baseline().with_(
            pcie=dataclasses.replace(
                SystemConfig.table2_baseline().pcie,
                rc_latency=12345,
                hop_buffer_bytes=2048,
                max_tags=7,
            )
        )
        swept = base.with_pcie_bandwidth(16, 32.0, encoding=(242, 256))
        # Undoing exactly the fields the sweep sets must give back the
        # original, so no PCIeConfig field can silently drift.
        assert dataclasses.replace(
            swept.pcie,
            lanes=base.pcie.lanes,
            lane_gbps=base.pcie.lane_gbps,
            encoding=base.pcie.encoding,
        ) == base.pcie

    def test_with_packet_size_preserves_other_fields(self):
        base = SystemConfig.pcie_8gb().with_(
            pcie=dataclasses.replace(
                SystemConfig.pcie_8gb().pcie,
                switch_latency=999,
                rc_tlp_occupancy=17,
            )
        )
        swept = base.with_packet_size(1024)
        assert swept.packet_size == 1024
        assert swept.pcie.tlp.max_payload == 1024
        assert swept.pcie.tlp.header_bytes == base.pcie.tlp.header_bytes
        assert dataclasses.replace(
            swept.pcie, tlp=base.pcie.tlp
        ) == base.pcie


class TestBrokenCacheLocation:
    def test_unwritable_cache_dir_degrades_gracefully(self, tmp_path, capsys):
        not_a_dir = tmp_path / "cachefile"
        not_a_dir.write_text("occupied")
        spec = small_spec(packets=(64,))
        report = run_sweep(spec, workers=1, cache_dir=not_a_dir)
        assert report.misses == 1
        assert report.outcomes[0].result.ticks > 0
        assert "cannot write result cache" in capsys.readouterr().err


def _dict_runner(config, **params):
    """A bare module-level runner returning a JSON-safe record."""
    return {"name": config.name, "m": params.get("m", 0)}


def _rich_runner(config, **params):
    """A bare runner returning a non-dict (violates the codec contract)."""
    return object()


def _failing_runner(config, **params):
    raise ValueError("boom at this point")


class TestBareCallableRunners:
    def test_dict_returning_callable_works(self, tmp_path):
        base = SystemConfig.table2_baseline()
        points = [SweepPoint(key=i, config=base, params={"m": i})
                  for i in (1, 2)]
        spec = SweepSpec("bare", points, runner=_dict_runner)
        report = run_sweep(spec, workers=1, cache_dir=tmp_path)
        assert report.results()[2] == {"name": base.name, "m": 2}
        replay = run_sweep(spec, workers=1, cache_dir=tmp_path)
        assert replay.fully_cached
        assert replay.results() == report.results()

    def test_non_dict_result_raises_clear_error(self):
        base = SystemConfig.table2_baseline()
        spec = SweepSpec(
            "rich", [SweepPoint(key=1, config=base)], runner=_rich_runner
        )
        with pytest.raises(RuntimeError, match="JSON-safe dict"):
            run_sweep(spec, workers=1, cache=False)

    def test_worker_failure_propagates_without_serial_rerun(self, capsys):
        base = SystemConfig.table2_baseline()
        points = [SweepPoint(key=i, config=base) for i in range(3)]
        spec = SweepSpec("fail", points, runner=_failing_runner)
        with pytest.raises(RuntimeError, match="boom at this point"):
            run_sweep(spec, workers=2, cache=False)
        # A runner bug must not masquerade as a pool failure.
        assert "falling back to serial" not in capsys.readouterr().err


def _versioned_runner_v1(config, **params):
    return {"version": 1}


def _versioned_runner_v2(config, **params):
    return {"version": 2}


class TestExternalRunnerCacheKeys:
    def test_distinct_external_callables_never_alias(self):
        base = SystemConfig.table2_baseline()
        point = SweepPoint(key=1, config=base, params={"m": 8})
        # Same __name__, different logic: keys must differ.
        v2 = _versioned_runner_v2
        v2.__name__ = _versioned_runner_v1.__name__
        assert (point_key(point, _versioned_runner_v1)
                != point_key(point, v2))

    def test_builtin_runner_key_stable(self):
        base = SystemConfig.table2_baseline()
        point = SweepPoint(key=1, config=base, params={"m": 8})
        assert point_key(point, "gemm") == point_key(point, "gemm")


class TestWrongShapeCacheEntry:
    def test_valid_json_wrong_shape_is_a_miss(self, tmp_path):
        spec = small_spec(packets=(64,))
        report = run_sweep(spec, workers=1, cache_dir=tmp_path)
        path = tmp_path / f"{report.outcomes[0].key_hash}.json"
        # The last payloads have the entry shape but a record the runner
        # cannot decode: they too are re-simulated, and then overwritten.
        for payload in ("null", "[]", "{}",
                        '{"record": {"ticks": 1}, "meta": {}}',
                        '{"record": "ab", "meta": {}}'):
            path.write_text(payload)
            again = run_sweep(spec, workers=1, cache_dir=tmp_path)
            assert again.misses == 1, payload
            assert again.outcomes[0].record == report.outcomes[0].record
        replay = run_sweep(spec, workers=1, cache_dir=tmp_path)
        assert replay.fully_cached
        assert replay.outcomes[0].record == report.outcomes[0].record


def _runner_fails_on_two(config, **params):
    if params["m"] == 2:
        raise ValueError("point two is broken")
    return {"m": params["m"]}


class TestSiblingResultsSurviveFailure:
    def test_parallel_failure_caches_successful_siblings(self, tmp_path):
        base = SystemConfig.table2_baseline()
        points = [SweepPoint(key=i, config=base, params={"m": i})
                  for i in (1, 2, 3)]
        spec = SweepSpec("partial", points, runner=_runner_fails_on_two)
        with pytest.raises(RuntimeError, match="point two is broken"):
            run_sweep(spec, workers=2, cache_dir=tmp_path)
        # The good siblings were cached: re-running only them is free.
        good = SweepSpec(
            "partial", [points[0], points[2]], runner=_runner_fails_on_two
        )
        replay = run_sweep(good, workers=1, cache_dir=tmp_path)
        assert replay.fully_cached

    def test_serial_failure_caches_earlier_points(self, tmp_path):
        base = SystemConfig.table2_baseline()
        points = [SweepPoint(key=i, config=base, params={"m": i})
                  for i in (1, 2)]
        spec = SweepSpec("partial-serial", points,
                         runner=_runner_fails_on_two)
        with pytest.raises(RuntimeError, match="point two is broken"):
            run_sweep(spec, workers=1, cache_dir=tmp_path)
        first_only = SweepSpec(
            "partial-serial", [points[0]], runner=_runner_fails_on_two
        )
        assert run_sweep(first_only, workers=1,
                         cache_dir=tmp_path).fully_cached


def _lambda_runner(config, **params):
    pick = lambda values: sorted(values)[0]  # noqa: E731 - nested code const
    return {"first": pick([params["m"], 99])}


class TestFingerprintStability:
    def test_lambda_runner_fingerprint_stable_across_processes(self, tmp_path):
        import subprocess
        import sys

        prog = (
            "from repro import SystemConfig\n"
            "from repro.sweep import SweepPoint, point_key\n"
            "import test_sweep\n"
            "p = SweepPoint(key=1, config=SystemConfig.table2_baseline(),\n"
            "               params={'m': 8})\n"
            "print(point_key(p, test_sweep._lambda_runner))\n"
        )
        keys = set()
        for _ in range(2):
            out = subprocess.run(
                [sys.executable, "-c", prog],
                capture_output=True, text=True, check=True,
                cwd=str(Path(__file__).parent),
                env={**os.environ,
                     "PYTHONPATH": str(Path(__file__).parents[1] / "src"),
                     "PYTHONHASHSEED": "random"},
            )
            keys.add(out.stdout.strip())
        assert len(keys) == 1, keys


def _numpy_record_runner(config, **params):
    import numpy as np

    return {"ticks": np.int64(5)}


class TestJsonUnsafeRecord:
    def test_unserializable_record_keeps_results(self, tmp_path, capsys):
        base = SystemConfig.table2_baseline()
        spec = SweepSpec(
            "np", [SweepPoint(key=1, config=base)],
            runner=_numpy_record_runner,
        )
        report = run_sweep(spec, workers=1, cache_dir=tmp_path)
        assert report.outcomes[0].record["ticks"] == 5
        assert "cannot write result cache" in capsys.readouterr().err


class TestWorkersEnv:
    def test_invalid_env_warns_and_runs_serial(self, monkeypatch, capsys):
        from repro.sweep import WORKERS_ENV, resolve_workers

        monkeypatch.setenv(WORKERS_ENV, "8x")
        assert resolve_workers(None) == 1
        assert "invalid" in capsys.readouterr().err

    def test_valid_env_and_unset(self, monkeypatch, capsys):
        from repro.sweep import WORKERS_ENV, resolve_workers

        monkeypatch.setenv(WORKERS_ENV, "6")
        assert resolve_workers(None) == 6
        monkeypatch.delenv(WORKERS_ENV)
        assert resolve_workers(None) == 1
        assert capsys.readouterr().err == ""


#: Each built-in runner's smallest point: (registered sweep, its
#: arguments, the point key).
CODEC_CASES = {
    "gemm": ("access-modes", {"size": 16}, "DC"),
    "vit": ("ext-cxl-vit", {}, "vit_devmem_pcie"),
    "multigemm": ("topo-contention", {"size": 32}, 1),
    "peer": ("topo-p2p", {"sizes": (4096,)}, ("p2p", 4096)),
    "resilience": ("resilience-error-rate",
                   {"size_bytes": 4096, "transfers": 2}, 0.0),
}


class TestRecordCodec:
    """Every runner's cache record is its result dataclass's fields."""

    def test_every_builtin_runner_is_covered(self):
        for name in LAZY_RUNNER_MODULES:
            resolve_runner(name)
        builtins = {name for name, runner in RUNNERS.items()
                    if runner.run.__module__.startswith("repro.")}
        assert builtins == set(CODEC_CASES)

    @pytest.mark.parametrize("runner_name", sorted(CODEC_CASES))
    def test_record_is_the_result_fields(self, runner_name):
        sweep, kwargs, key = CODEC_CASES[runner_name]
        spec = build_sweep(sweep, **kwargs)
        assert spec.runner == runner_name
        point = next(p for p in spec.points if p.key == key)
        runner = resolve_runner(runner_name)
        result = runner.run(point.config, **point.params)
        assert isinstance(result, runner.result)
        record = runner.encode(result)
        assert set(record) == set(record_fields(runner.result))
        json.dumps(record, sort_keys=True)
        if hasattr(result, "c_matrix"):
            result = dataclasses.replace(result, c_matrix=None)
        assert runner.decode(record) == result
        assert runner.decode(json.loads(json.dumps(record))) == result

    def test_functional_gemm_record_has_no_c_matrix(self):
        result = run_gemm(SystemConfig.table2_baseline(), 16, 16, 16,
                          functional=True)
        assert result.c_matrix is not None
        record = resolve_runner("gemm").encode(result)
        assert "c_matrix" not in record
        assert resolve_runner("gemm").decode(record).c_matrix is None


def _full_hash(root: Path) -> str:
    """The digest loop ``code_version`` ran before the stat fingerprint."""
    import hashlib

    import repro

    digest = hashlib.sha256()
    digest.update(getattr(repro, "__version__", "0").encode("utf-8"))
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


class TestSourceDigest:
    """The stat fingerprint re-hashes exactly when the tree moved."""

    @pytest.fixture
    def tree(self, tmp_path):
        root = tmp_path / "pkg"
        (root / "sub").mkdir(parents=True)
        for name, text in {"__init__.py": "VERSION = 1\n",
                           "a.py": "A = 'alpha'\n",
                           "notes.txt": "not source\n",
                           "sub/__init__.py": "",
                           "sub/b.py": "B = 'beta'\n"}.items():
            (root / name).write_text(text)
        # Backdate the tree an hour: a later edit then gets an mtime no
        # coarse timestamp tick can merge with the fingerprinted one.
        past = os.stat(root).st_mtime_ns - 3600 * 10**9
        for path in (root / "a.py", root / "__init__.py", root / "sub/b.py",
                     root / "sub/__init__.py", root / "sub", root):
            os.utime(path, ns=(past, past))
        return root

    @pytest.fixture
    def reads(self, monkeypatch):
        counted = []
        read_bytes = Path.read_bytes

        def counting(path):
            counted.append(path)
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", counting)
        return counted

    def test_unchanged_tree_reads_no_file(self, tree, reads):
        from repro.sweep.cache import SourceDigest

        source = SourceDigest(tree)
        first = source.digest()
        assert len(reads) == 4
        reads.clear()
        assert source.digest() == first
        assert source.digest() == first
        assert reads == []

    def test_digest_equals_the_full_hash_loop(self, tree):
        from repro.sweep.cache import SourceDigest, code_version

        assert SourceDigest(tree).digest() == _full_hash(tree)
        # Read-only check of the real package: the pin did not move.
        assert code_version() == _full_hash(SourceDigest().root)

    def test_same_size_edit_with_new_mtime_rehashes(self, tree, reads):
        from repro.sweep.cache import SourceDigest

        source = SourceDigest(tree)
        before = source.digest()
        path = tree / "a.py"
        mtime = os.stat(path).st_mtime_ns
        path.write_text("A = 'gamma'\n")
        os.utime(path, ns=(mtime + 10**9, mtime + 10**9))
        reads.clear()
        after = source.digest()
        assert reads, "an edit with a new mtime must re-read the tree"
        assert after != before
        assert after == _full_hash(tree)

    def test_adding_a_file_changes_the_digest(self, tree):
        from repro.sweep.cache import SourceDigest

        source = SourceDigest(tree)
        before = source.digest()
        (tree / "sub" / "c.py").write_text("C = 'new'\n")
        after = source.digest()
        assert after != before
        assert after == _full_hash(tree)

    @pytest.mark.parametrize("change", ["delete", "rename"])
    def test_deleting_or_renaming_a_file_changes_the_digest(
        self, tree, change
    ):
        from repro.sweep.cache import SourceDigest

        source = SourceDigest(tree)
        before = source.digest()
        path = tree / "sub" / "b.py"
        if change == "delete":
            path.unlink()
        else:
            path.rename(tree / "sub" / "b2.py")
        after = source.digest()
        assert after != before
        assert after == _full_hash(tree)


# ----------------------------------------------------------------------
# ResultCache under concurrent writers + maintenance
# ----------------------------------------------------------------------
def _put_worker(cache_dir, start, count):
    cache = ResultCache(cache_dir)
    for i in range(start, start + count):
        cache.put(f"{i:064x}", {"value": i}, meta={"sweep": "writer"})


class TestResultCacheConcurrency:
    def test_concurrent_writers_survive_prune_and_summarize(self, tmp_path):
        """Two writer processes vs. a maintenance loop: nothing dropped,
        stats never corrupted.  Before the ``.part`` fix, prune/clear
        could delete a writer's in-flight temp file between write and
        rename, making ``os.replace`` fail and silently dropping the
        finished record."""
        cache_dir = tmp_path / "cache"
        cache = ResultCache(cache_dir)
        cache.put("seed" * 16, {"value": -1}, meta={"sweep": "other"})
        per_writer = 120
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        writers = [
            ctx.Process(target=_put_worker,
                        args=(str(cache_dir), w * per_writer, per_writer))
            for w in range(2)
        ]
        for writer in writers:
            writer.start()
        # Maintenance hammering the same directory the whole time.
        while any(writer.is_alive() for writer in writers):
            cache.prune("no-such-sweep")
            summary = cache.summarize()
            assert summary["entries"] >= 0
            len(cache)
        for writer in writers:
            writer.join(timeout=60)
            assert writer.exitcode == 0
        assert len(cache) == 2 * per_writer + 1
        for i in range(2 * per_writer):
            assert cache.get(f"{i:064x}") == {"value": i}
        summary = cache.summarize()
        assert summary["sweeps"]["writer"] == 2 * per_writer

    def test_inflight_temp_files_invisible_to_maintenance(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("a" * 64, {"value": 1}, meta={"sweep": "s"})
        # A writer parked between write and rename: complete JSON, temp
        # name.  Maintenance must neither count nor delete it.
        parked = cache.root / ".tmp-parked.part"
        parked.write_text(json.dumps(
            {"record": {"value": 2}, "meta": {"sweep": "s"}}
        ))
        assert len(cache) == 1
        assert [p.name for p, _ in cache.entries()] == [f"{'a' * 64}.json"]
        assert cache.summarize()["entries"] == 1
        assert cache.prune("s") == 1          # the real entry only
        assert parked.exists()                # in-flight file untouched
        # clear() leaves a *young* temp alone (its writer may be alive)
        # but sweeps one old enough to be abandoned.
        assert cache.clear() == 0
        assert parked.exists()
        ancient = time.time() - 7200.0
        os.utime(parked, (ancient, ancient))
        assert cache.clear() == 0
        assert not parked.exists()

    def test_atomic_write_json_fsyncs_data_before_rename(self, tmp_path,
                                                         monkeypatch):
        """The durability contract: flush + fsync the temp file *before*
        ``os.replace`` (else a crash can leave the final name pointing
        at zero-length data), plus a best-effort directory fsync after."""
        from repro.sweep.cache import atomic_write_json

        synced = []
        real_fsync = os.fsync

        def spy_fsync(fd):
            synced.append(fd)
            return real_fsync(fd)

        real_replace = os.replace

        def spy_replace(src, dst):
            assert synced, "temp file must be fsynced before the rename"
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        target = tmp_path / "entry.json"
        atomic_write_json(target, {"value": 1})
        assert json.loads(target.read_text()) == {"value": 1}
        # One data-file fsync pre-rename, one directory fsync post-rename.
        assert len(synced) == 2

    def test_prune_tolerates_vanishing_files(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        for i in range(5):
            cache.put(f"{i:064x}", {"value": i}, meta={"sweep": "s"})
        # Simulate a racing pruner deleting files mid-walk.
        victims = list(cache._entry_paths())
        for victim in victims[::2]:
            victim.unlink()
        removed = cache.prune("s")
        assert removed == len(victims) - len(victims[::2])
        assert len(cache) == 0
