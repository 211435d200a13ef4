"""Streaming and batched sweep execution (iter_sweep / run_sweeps).

The engine yields points as they finish (``imap_unordered`` under the
hood); these tests pin the contract:

* ``iter_sweep`` yields every outcome exactly once -- cached points
  first in point order, simulated points in completion order -- and the
  stream's results match a barriered ``run_sweep`` bit-for-bit;
* ``run_sweeps`` runs several specs against one pool invocation and
  returns per-spec reports identical to separate ``run_sweep`` calls;
* the ``progress`` callback counts points across the whole batch.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from repro import SystemConfig
from repro.sweep import (
    SweepPoint,
    SweepSpec,
    gemm_points,
    iter_sweep,
    run_sweep,
    run_sweeps,
)

SIZE = 32


def small_spec(packets=(64, 128, 256), name="stream-sweep") -> SweepSpec:
    base = SystemConfig.table2_baseline()
    configs = {packet: base.with_packet_size(packet) for packet in packets}
    return SweepSpec(name=name, points=gemm_points(configs, SIZE))


class TestIterSweep:
    def test_yields_every_point_once(self, tmp_path):
        spec = small_spec()
        outcomes = list(iter_sweep(spec, workers=1, cache_dir=tmp_path))
        assert sorted(o.key for o in outcomes) == sorted(
            p.key for p in spec.points
        )
        assert all(not o.cached for o in outcomes)

    def test_stream_matches_run_sweep(self, tmp_path):
        spec = small_spec()
        streamed = {o.key: o.record
                    for o in iter_sweep(spec, workers=1, cache=False)}
        report = run_sweep(spec, workers=1, cache=False)
        assert streamed == {o.key: o.record for o in report.outcomes}

    def test_cached_points_stream_first(self, tmp_path):
        spec = small_spec()
        run_sweep(SweepSpec(spec.name, spec.points[:2], runner=spec.runner),
                  workers=1, cache_dir=tmp_path)
        order = [o.cached for o in iter_sweep(spec, workers=1,
                                              cache_dir=tmp_path)]
        assert order == [True, True, False]

    def test_parallel_stream_completes(self, tmp_path):
        spec = small_spec()
        outcomes = list(iter_sweep(spec, workers=2, cache_dir=tmp_path))
        assert len(outcomes) == len(spec.points)
        # And the cache was populated point by point as results landed.
        replay = run_sweep(spec, workers=1, cache_dir=tmp_path)
        assert replay.fully_cached

    def test_failure_raises_after_survivors(self, tmp_path):
        def runner(config, **params):
            if params["m"] == 2:
                raise ValueError("stream point broke")
            return {"m": params["m"]}

        base = SystemConfig.table2_baseline()
        points = [SweepPoint(key=i, config=base, params={"m": i})
                  for i in (1, 2, 3)]
        spec = SweepSpec("stream-fail", points, runner=runner)
        seen = []
        with pytest.raises(RuntimeError, match="stream point broke"):
            for outcome in iter_sweep(spec, workers=1, cache=False):
                seen.append(outcome.key)
        # Serial execution fails fast: the earlier sibling still arrived.
        assert seen == [1]


class TestRunSweeps:
    def test_batch_matches_individual_runs(self, tmp_path):
        spec_a = small_spec(name="batch-a")
        spec_b = small_spec(packets=(512,), name="batch-b")
        batched = run_sweeps([spec_a, spec_b], workers=1,
                             cache_dir=tmp_path / "batch")
        solo_a = run_sweep(spec_a, workers=1, cache_dir=tmp_path / "solo")
        solo_b = run_sweep(spec_b, workers=1, cache_dir=tmp_path / "solo")
        assert [o.record for o in batched[0].outcomes] == [
            o.record for o in solo_a.outcomes
        ]
        assert [o.record for o in batched[1].outcomes] == [
            o.record for o in solo_b.outcomes
        ]

    def test_batch_shares_one_pool(self, tmp_path, monkeypatch):
        import repro.sweep.engine as engine

        calls = []
        real = engine._run_parallel

        def counting(jobs, workers):
            calls.append(len(jobs))
            return real(jobs, workers)

        monkeypatch.setattr(engine, "_run_parallel", counting)
        spec_a = small_spec(packets=(64, 128), name="pool-a")
        spec_b = small_spec(packets=(256, 512), name="pool-b")
        run_sweeps([spec_a, spec_b], workers=2, cache=False)
        # One pool invocation covering all four points, not one per spec.
        assert calls == [4]

    def test_point_order_preserved_per_spec(self, tmp_path):
        spec = small_spec()
        report = run_sweeps([spec], workers=2, cache=False)[0]
        assert [o.key for o in report.outcomes] == [
            p.key for p in spec.points
        ]

    def test_progress_counts_across_batch(self, tmp_path):
        spec_a = small_spec(packets=(64,), name="prog-a")
        spec_b = small_spec(packets=(128,), name="prog-b")
        ticks = []

        def progress(done, total, outcome):
            ticks.append((done, total, outcome.cached))

        run_sweeps([spec_a, spec_b], workers=1, cache_dir=tmp_path,
                   progress=progress)
        assert [t[:2] for t in ticks] == [(1, 2), (2, 2)]
        assert all(not cached for _d, _t, cached in ticks)
        # Second run: same shape, everything cached.
        ticks.clear()
        run_sweeps([spec_a, spec_b], workers=1, cache_dir=tmp_path,
                   progress=progress)
        assert [t[:2] for t in ticks] == [(1, 2), (2, 2)]
        assert all(cached for _d, _t, cached in ticks)

    def test_run_sweep_progress_kwarg(self, tmp_path):
        spec = small_spec(packets=(64, 128))
        seen = []
        run_sweep(spec, workers=1, cache=False,
                  progress=lambda done, total, o: seen.append((done, total)))
        assert seen == [(1, 2), (2, 2)]


class TestBatchDedup:
    """Identical cache keys within one batch simulate exactly once."""

    def _counting_runner(self):
        calls = []

        def runner(config, **params):
            calls.append(params["m"])
            return {"m": params["m"]}

        return runner, calls

    def test_duplicate_specs_simulate_once(self):
        runner, calls = self._counting_runner()
        base = SystemConfig.table2_baseline()
        points = [SweepPoint(key=i, config=base, params={"m": i})
                  for i in (1, 2)]
        spec_a = SweepSpec("dup-a", points, runner=runner)
        spec_b = SweepSpec("dup-b", points, runner=runner)
        reports = run_sweeps([spec_a, spec_b], workers=1, cache=False)
        assert sorted(calls) == [1, 2]  # not [1, 1, 2, 2]
        # Both reports still carry every point; the replayed copies
        # count as (deduped) hits.
        for report in reports:
            assert {o.key for o in report.outcomes} == {1, 2}
        assert reports[0].misses == 2
        assert reports[1].hits == 2

    def test_same_key_points_within_one_spec_simulate_once(self):
        runner, calls = self._counting_runner()
        base = SystemConfig.table2_baseline()
        # Different labels, identical config+params: same cache key.
        points = [SweepPoint(key="left", config=base, params={"m": 8}),
                  SweepPoint(key="right", config=base, params={"m": 8})]
        spec = SweepSpec("dup-in-spec", points, runner=runner)
        report = run_sweep(spec, workers=1, cache=False)
        assert calls == [8]
        assert [o.key for o in report.outcomes] == ["left", "right"]
        assert report.outcomes[0].record == report.outcomes[1].record


class TestDecodeErrorsPropagate:
    def test_parallel_decode_error_raises_not_swallowed(self, tmp_path):
        """A decode() bug must raise, not masquerade as a pool failure
        while silently dropping the outcome from the report."""
        from repro.sweep import register_runner

        @dataclass
        class ExplodingResult:
            m: int

            def __post_init__(self):
                raise KeyError("decode exploded")

        def run_point(config, **params):
            # Encoding reads the record fields off any object; only
            # rebuilding an ExplodingResult from the record raises.
            return SimpleNamespace(m=params.get("m", 0))

        register_runner("bad-decode", run_point, ExplodingResult)
        try:
            base = SystemConfig.table2_baseline()
            points = [SweepPoint(key=i, config=base, params={"m": i})
                      for i in (1, 2)]
            spec = SweepSpec("decode-fail", points, runner="bad-decode")
            with pytest.raises(KeyError, match="decode exploded"):
                run_sweep(spec, workers=2, cache=False)
        finally:
            from repro.sweep.spec import RUNNERS

            RUNNERS.pop("bad-decode", None)
