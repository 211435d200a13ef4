"""Tests for the telemetry subsystem (repro.telemetry).

Covers the acceptance bars of docs/OBSERVABILITY.md:

* disabled defaults: every component hook is None, and nothing
  collects outside one point's :func:`collect_point`;
* Chrome trace export: schema-valid, metadata-first, deterministic
  (byte-identical across reruns and --shard slices);
* record bit-identity: a traced sweep produces the very records an
  untraced sweep does, with telemetry/diagnostics only as siblings;
* pool workers write the artifacts a serial run writes, and a traced
  point hands its memoized system back without hooks;
* the metrics ring buffer, the Prometheus exposition and the
  per-package cProfile fold.
"""

import cProfile
import heapq
import json
import os
import pstats

import pytest

import repro
from repro import SystemConfig
from repro.core.runner import clear_system_memo, run_gemm, system_for
from repro.faults.runner import apply_faults
from repro.faults.spec import fault_preset
from repro.sim.eventq import Simulator
from repro.sim.statistics import StatGroup
from repro.sweep import SweepSpec, gemm_points, run_sweep
from repro.sweep.engine import _point_record, point_params
from repro.sweep.spec import resolve_runner
from repro.telemetry import (
    MetricsSampler,
    SpanTracer,
    TelemetrySettings,
    collect_point,
    validate_chrome_trace,
)
from repro.telemetry.state import COLLECTOR
from repro.telemetry.profiler import fold_stats, layer_of, merge_layers

SIZE = 32


@pytest.fixture(autouse=True)
def clean_session():
    """Every test starts and ends with no point collecting telemetry."""
    assert COLLECTOR.get() is None
    yield
    assert COLLECTOR.get() is None


def small_spec(name="telemetry-sweep", packets=(64, 256)):
    base = SystemConfig.table2_baseline()
    configs = {packet: base.with_packet_size(packet) for packet in packets}
    return SweepSpec(name=name, points=gemm_points(configs, SIZE))


def run_traced(tmp_path, subdir, spec=None, **settings_kw):
    settings = TelemetrySettings(
        trace=True, trace_dir=str(tmp_path / subdir), **settings_kw
    )
    return run_sweep(spec or small_spec(), workers=1, cache=False,
                     telemetry=settings)


def artifact_bytes(directory):
    """File name -> bytes of every artifact in ``directory``."""
    return {path.name: path.read_bytes() for path in directory.iterdir()}


# ----------------------------------------------------------------------
# Disabled defaults
# ----------------------------------------------------------------------
class TestDisabledDefaults:
    def test_component_hooks_default_none(self):
        system = system_for(SystemConfig.table2_baseline())
        assert system.wrapper.dma.trace is None
        assert system.fabric.up.trace is None
        assert system.fabric.down.trace is None

    def test_inactive_session(self):
        # The collector is set for one point's body and for nothing else,
        # also when that body raises.
        assert COLLECTOR.get() is None
        runtime, summary = collect_point(
            TelemetrySettings(diagnostics=True), "k", COLLECTOR.get)
        assert runtime is not None
        assert summary is None  # no system acquired, nothing to report
        assert COLLECTOR.get() is None

        def broken():
            raise ValueError("point failed")

        with pytest.raises(ValueError):
            collect_point(TelemetrySettings(trace=True), "k", broken)
        assert COLLECTOR.get() is None

    def test_settings_disabled_by_default(self):
        settings = TelemetrySettings()
        assert not settings.enabled
        assert TelemetrySettings(trace=True).enabled
        assert TelemetrySettings(metrics_every=100).enabled
        assert TelemetrySettings(diagnostics=True).enabled


# ----------------------------------------------------------------------
# The span tracer and Chrome export
# ----------------------------------------------------------------------
class TestSpanTracer:
    def fill(self, tracer):
        tracer.complete(0, "link.up", "tlp-train", "pcie", 100, 50,
                        args={"tlps": 3})
        tracer.complete(1, "dma0", "dma-segment:A", "dma", 200, 75)
        tracer.instant(1, "dma0", "dma-submit:A", "dma", 150)

    def test_records_and_tids(self):
        tracer = SpanTracer()
        self.fill(tracer)
        assert len(tracer) == 3
        events = tracer.chrome_events()
        # Metadata first: 2 process names + 2 thread names, then spans.
        meta = [e for e in events if e["ph"] == "M"]
        assert len(meta) == 4
        assert events[: len(meta)] == meta
        spans = [e for e in events if e["ph"] != "M"]
        assert [e["ph"] for e in spans] == ["X", "X", "i"]
        # Ticks are ps; Chrome ts is microseconds.
        assert spans[0]["ts"] == 100 / 10**6
        assert spans[0]["dur"] == 50 / 10**6

    def test_schema_valid_and_deterministic(self):
        one, two = SpanTracer(), SpanTracer()
        self.fill(one)
        self.fill(two)
        assert one.to_chrome_json() == two.to_chrome_json()
        document = json.loads(one.to_chrome_json())
        assert validate_chrome_trace(document) == []

    def test_validator_catches_problems(self):
        assert validate_chrome_trace({}) == [
            "traceEvents missing or not a list"
        ]
        bad = {"traceEvents": [
            {"ph": "Z", "pid": 0, "tid": 0, "name": "x"},
            {"ph": "X", "pid": "no", "tid": 0, "name": "x", "ts": -1},
        ]}
        problems = validate_chrome_trace(bad)
        assert any("unknown phase" in p for p in problems)
        assert any("pid" in p for p in problems)
        assert any("bad ts" in p for p in problems)
        assert any("bad dur" in p for p in problems)

    def test_clear(self):
        tracer = SpanTracer()
        self.fill(tracer)
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.chrome_events() == []


# ----------------------------------------------------------------------
# Traced sweeps: bit-identity and deterministic artifacts
# ----------------------------------------------------------------------
class TestTracedSweep:
    def test_records_bit_identical_and_siblings(self, tmp_path):
        untraced = run_sweep(small_spec(), workers=1, cache=False)
        traced = run_traced(tmp_path, "t", diagnostics=True)
        plain = {o.key: o.record for o in untraced.outcomes}
        with_telemetry = {o.key: o.record for o in traced.outcomes}
        assert plain == with_telemetry
        for outcome in traced.outcomes:
            record = outcome.to_record()
            assert "telemetry" in record and "diagnostics" in record
            assert "telemetry" not in record["record"]
            assert "diagnostics" not in record["record"]
            assert record["diagnostics"]["events_executed"] > 0
        for outcome in untraced.outcomes:
            record = outcome.to_record()
            assert "telemetry" not in record
            assert "diagnostics" not in record

    def test_trace_files_validate_and_rerun_byte_identical(self, tmp_path):
        first = run_traced(tmp_path, "one")
        second = run_traced(tmp_path, "two")
        one_dir, two_dir = tmp_path / "one", tmp_path / "two"
        names = sorted(p.name for p in one_dir.glob("*.trace.json"))
        assert names == sorted(p.name for p in two_dir.glob("*.trace.json"))
        assert len(names) == len(first.outcomes) == len(second.outcomes)
        for name in names:
            blob = (one_dir / name).read_bytes()
            assert blob == (two_dir / name).read_bytes()
            problems = validate_chrome_trace(json.loads(blob))
            assert problems == [], (name, problems)

    def test_trace_has_expected_span_families(self, tmp_path):
        run_traced(tmp_path, "fam")
        names = set()
        for path in (tmp_path / "fam").glob("*.trace.json"):
            for event in json.loads(path.read_text())["traceEvents"]:
                if event["ph"] in ("X", "i"):
                    names.add(event["name"].split(":")[0])
        assert "tlp-train" in names
        assert "dma-submit" in names
        assert "dma-segment" in names
        assert "dma-descriptor" in names

    def test_metrics_and_profile_artifacts(self, tmp_path):
        settings = TelemetrySettings(
            trace_dir=str(tmp_path / "m"), metrics_every=1_000_000,
            profile=True,
        )
        report = run_sweep(small_spec(), workers=1, cache=False,
                           telemetry=settings)
        for outcome in report.outcomes:
            summary = outcome.telemetry
            assert summary["metrics"]["summary"]["samples"] > 0
            metrics_doc = json.loads(
                open(summary["metrics"]["path"]).read()
            )
            assert metrics_doc["timeline"]
            prom = open(summary["metrics"]["prometheus_path"]).read()
            assert "repro_stat{" in prom
            assert "repro_samples_total" in prom
            profile_doc = json.loads(open(summary["profile"]["path"]).read())
            assert profile_doc["layers"]
            # Host wall-clock stays out of the cross-process summary.
            assert list(summary["profile"]) == ["path"]

    def test_diagnostics_only_session(self, tmp_path):
        settings = TelemetrySettings(diagnostics=True)
        report = run_sweep(small_spec(), workers=1, cache=False,
                           telemetry=settings)
        for outcome in report.outcomes:
            record = outcome.to_record()
            assert "diagnostics" in record
            assert "telemetry" not in record  # nothing else captured

    def test_cached_points_capture_nothing(self, tmp_path):
        spec = small_spec()
        run_sweep(spec, workers=1, cache_dir=tmp_path / "cache")
        settings = TelemetrySettings(
            trace=True, trace_dir=str(tmp_path / "cached-t")
        )
        replay = run_sweep(spec, workers=1, cache_dir=tmp_path / "cache",
                           telemetry=settings)
        assert replay.fully_cached
        assert all(o.telemetry is None for o in replay.outcomes)
        assert not (tmp_path / "cached-t").exists()

    def test_pool_workers_write_the_serial_artifacts(self, tmp_path):
        settings = TelemetrySettings(
            trace=True, trace_dir=str(tmp_path), metrics_every=1_000_000,
            diagnostics=True,
        )
        serial = run_sweep(small_spec(), workers=1, cache=False,
                           telemetry=settings)
        serial_bytes = artifact_bytes(tmp_path)
        for path in tmp_path.iterdir():
            path.unlink()
        pooled = run_sweep(small_spec(), workers=2, cache=False,
                           telemetry=settings)
        assert pooled.parallel
        assert sorted(name.split(".", 1)[1] for name in serial_bytes) == [
            "metrics.json", "metrics.json", "prom", "prom",
            "trace.json", "trace.json"]
        assert artifact_bytes(tmp_path) == serial_bytes
        assert ([o.telemetry for o in pooled.outcomes]
                == [o.telemetry for o in serial.outcomes])


# ----------------------------------------------------------------------
# Memoized systems: hooks come off when a point ends
# ----------------------------------------------------------------------
class TestMemoizedSystems:
    def test_traced_point_leaves_its_system_clean(self, tmp_path):
        spec = apply_faults(small_spec(packets=(64,)),
                            fault_preset("retrain-storm"))
        config = spec.points[0].config
        system = system_for(config)
        report = run_traced(tmp_path, "t", spec=spec)
        assert report.outcomes[0].telemetry["trace"]["events"] > 0
        assert system_for(config) is system
        assert system.wrapper.dma.trace is None
        assert system.fabric.up.trace is None
        assert system.fabric.down.trace is None
        states = system.fault_model.link_states
        assert states and all(state.trace is None
                              for state in states.values())

    def test_memoized_system_traces_like_a_fresh_build(self, tmp_path):
        kw = dict(metrics_every=1_000_000)
        run_traced(tmp_path, "first", **kw)
        run_traced(tmp_path, "memoized", **kw)
        clear_system_memo()
        run_traced(tmp_path, "fresh", **kw)
        memoized = artifact_bytes(tmp_path / "memoized")
        assert len(memoized) == 6
        assert memoized == artifact_bytes(tmp_path / "fresh")


# ----------------------------------------------------------------------
# Metrics sampler
# ----------------------------------------------------------------------
class _FakeObj:
    def __init__(self, name):
        self.stats = StatGroup(name)


class _FakeSystem:
    def __init__(self, objs):
        import types

        self.sim = types.SimpleNamespace(objects=objs)


class TestMetricsSampler:
    def test_validation(self):
        with pytest.raises(ValueError):
            MetricsSampler(every=0)
        with pytest.raises(ValueError):
            MetricsSampler(every=10, capacity=0)

    def test_deltas_and_clean_skip(self):
        hot, cold = _FakeObj("hot"), _FakeObj("cold")
        counter = hot.stats.scalar("count")
        cold.stats.scalar("idle")
        sampler = MetricsSampler(every=10)
        sampler.begin_run(_FakeSystem([hot, cold]))
        # Prime both groups' caches so the clean skip is observable.
        hot.stats.flatten()
        cold.stats.flatten()
        sampler.sample_now(0)

        counter.inc(5)
        deltas = sampler.sample_now(10)
        assert deltas == {"hot.count": 5}
        counter.inc(2)
        assert sampler.sample_now(20) == {"hot.count": 2}
        # A sample with nothing moved records an empty delta set.
        assert sampler.sample_now(30) == {}
        assert sampler.timeline("hot.count") == [(10, 5), (20, 2)]

    def test_ring_buffer_bounds(self):
        obj = _FakeObj("dev")
        counter = obj.stats.scalar("n")
        sampler = MetricsSampler(every=1, capacity=4)
        sampler.begin_run(_FakeSystem([obj]))
        for tick in range(10):
            counter.inc()
            sampler.sample_now(tick)
        assert len(sampler.samples) == 4
        assert sampler.dropped == 6
        assert sampler.total_samples == 10
        assert sampler.summary()["retained"] == 4

    def test_arm_self_reschedules_and_stands_down(self):
        sim = Simulator()
        obj = _FakeObj("dev")
        counter = obj.stats.scalar("n")
        sampler = MetricsSampler(every=100)
        sampler.begin_run(_FakeSystem([obj]))
        state = {"left": 5}

        def tick():
            counter.inc()
            state["left"] -= 1
            if state["left"]:
                sim.schedule(150, tick)

        sim.schedule(1, tick)
        sampler.arm(sim)
        sim.run()  # must terminate: the sampler stands down when alone
        assert sampler.total_samples >= 5
        assert sum(d.get("dev.n", 0)
                   for _t, d in sampler.samples) == 5

    def test_prometheus_text(self):
        obj = _FakeObj("dev")
        obj.stats.scalar("n").inc(3)
        sampler = MetricsSampler(every=1)
        sampler.begin_run(_FakeSystem([obj]))
        sampler.sample_now(0)
        text = sampler.prometheus_text()
        assert 'repro_stat{series="dev.n"} 3' in text
        assert "repro_samples_total 1" in text
        assert text.endswith("\n")


# ----------------------------------------------------------------------
# Host-time profile: cProfile folded by repro package
# ----------------------------------------------------------------------
REPRO_DIR = os.path.dirname(repro.__file__)


def repro_file(*parts):
    return os.path.join(REPRO_DIR, *parts)


class TestLayerFold:
    def test_layer_of_paths(self):
        assert layer_of(repro_file("interconnect", "pcie", "link.py")) == (
            "interconnect.pcie")
        assert layer_of(repro_file("memory", "dram", "controller.py")) == (
            "memory.dram")
        assert layer_of(repro_file("cache", "tags.py")) == "cache"
        assert layer_of(repro_file("__main__.py")) == "repro"
        assert layer_of("~") == "builtins"
        assert layer_of(heapq.__file__) == "other"
        assert layer_of("<frozen importlib._bootstrap>") == "other"
        # A sibling directory whose name merely starts with "repro".
        assert layer_of(REPRO_DIR + "_extra" + os.sep + "x.py") == "other"

    def test_fold_sums_self_time_and_calls(self):
        stats = {
            (repro_file("cache", "tags.py"), 10, "access"):
                (40, 50, 0.030, 0.040, {}),
            (repro_file("cache", "cache.py"), 20, "send"):
                (10, 10, 0.010, 0.090, {}),
            (repro_file("interconnect", "pcie", "link.py"), 5, "deliver"):
                (4, 4, 0.020, 0.025, {}),
            ("~", 0, "<built-in method builtins.len>"):
                (7, 7, 0.005, 0.005, {}),
            (heapq.__file__, 1, "heappush"): (3, 3, 0.0, 0.0, {}),
        }
        rows = fold_stats(stats)
        assert [row["layer"] for row in rows] == [
            "cache", "interconnect.pcie", "builtins", "other"]
        cache = rows[0]
        assert cache["self_seconds"] == pytest.approx(0.040)
        assert cache["calls"] == 60  # total calls, recursive ones included
        assert cache["share"] == pytest.approx(0.040 / 0.065)
        assert sum(row["share"] for row in rows) == pytest.approx(1.0)
        assert fold_stats({}) == []

    def test_merge_layers(self):
        doc = {"layers": [
            {"layer": "sim", "self_seconds": 0.3, "share": 0.75,
             "calls": 9},
            {"layer": "cache", "self_seconds": 0.1, "share": 0.25,
             "calls": 4},
        ]}
        rows = merge_layers([doc, doc, {"layers": []}])
        assert [(row["layer"], row["calls"]) for row in rows] == [
            ("sim", 18), ("cache", 8)]
        assert rows[0]["self_seconds"] == pytest.approx(0.6)
        assert rows[0]["share"] == pytest.approx(0.75)

    def test_warm_point_calls_match_a_hand_fold(self, tmp_path):
        spec = SweepSpec(name="profiled-gemm", points=gemm_points(
            {"pcie_8gb": SystemConfig.pcie_8gb()}, 64))
        settings = TelemetrySettings(profile=True, trace_dir=str(tmp_path))
        for _warm in range(2):
            run_sweep(spec, workers=1, cache=False, telemetry=settings)
        outcome = run_sweep(spec, workers=1, cache=False,
                            telemetry=settings).outcomes[0]
        document = json.loads(
            open(outcome.telemetry["profile"]["path"]).read()
        )
        assert document["wall_seconds"] > 0
        assert "sim" in {row["layer"] for row in document["layers"]}
        # Host wall-clock stays out of the cross-process summary.
        assert outcome.telemetry == {"profile": {
            "path": str(tmp_path / f"{outcome.key_hash}.profile.json")}}

        # The reference: the same point body profiled by hand, folded
        # by pstats entry with a package map written out here.  It runs
        # as a collected point too (profiling, no artifact directory),
        # so the system hook does the same work in both profiles.
        point = spec.points[0]

        def hand_profiled(*args):
            profile = cProfile.Profile()
            profile.runcall(_point_record, *args)
            return profile

        profile, _summary = collect_point(
            TelemetrySettings(profile=True), outcome.key_hash,
            hand_profiled, resolve_runner(spec.runner), point.config,
            point_params(spec, point))
        reference = {}
        root = REPRO_DIR + os.sep
        for (filename, _line, _name), entry in (
                pstats.Stats(profile).stats.items()):
            if filename == "~":
                layer = "builtins"
            elif filename.startswith(root):
                package = os.path.dirname(filename[len(root):])
                layer = package.replace(os.sep, ".") or "repro"
            else:
                layer = "other"
            reference[layer] = reference.get(layer, 0) + entry[1]
        assert {row["layer"]: row["calls"]
                for row in document["layers"]} == reference

    def test_no_artifact_directory_means_no_profiling(self, monkeypatch):
        import repro.telemetry.profiler as profiler

        def refuse(*args):
            raise AssertionError("profiled a point it cannot write out")

        monkeypatch.setattr(profiler, "profile_call", refuse)
        report = run_sweep(small_spec(), workers=1, cache=False,
                           telemetry=TelemetrySettings(profile=True))
        assert [outcome.telemetry for outcome in report.outcomes] == [
            None, None]

    def test_records_identical_with_profile(self, tmp_path):
        plain = run_sweep(small_spec(), workers=1, cache=False)
        profiled = run_sweep(
            small_spec(), workers=1, cache=False,
            telemetry=TelemetrySettings(profile=True,
                                        trace_dir=str(tmp_path)))
        assert ([outcome.record for outcome in plain.outcomes]
                == [outcome.record for outcome in profiled.outcomes])
        assert len(list(tmp_path.glob("*.profile.json"))) == 2


# ----------------------------------------------------------------------
# Diagnostics
# ----------------------------------------------------------------------
class TestDiagnostics:
    def test_simulator_diagnostics(self):
        sim = Simulator()
        sim.cancel(sim.schedule(5, lambda: None))
        sim.schedule(10, lambda: None)
        sim.run()
        assert sim.diagnostics() == {"events_executed": 1,
                                     "events_skipped": 1}

    def test_gemm_results_unchanged_by_telemetry(self, tmp_path):
        config = SystemConfig.table2_baseline()
        plain = run_gemm(config, SIZE, SIZE, SIZE)
        settings = TelemetrySettings(
            trace=True, trace_dir=str(tmp_path / "g"),
            metrics_every=1_000_000, profile=True, diagnostics=True,
        )
        traced, summary = collect_point(settings, "gemm", run_gemm, config,
                                        SIZE, SIZE, SIZE)
        assert plain == traced
        assert summary["trace"]["events"] > 0
