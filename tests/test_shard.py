"""Sweep sharding: deterministic, disjoint, exhaustive point slices."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SystemConfig
from repro.sweep import (
    SWEEPS,
    ResultCache,
    SweepPoint,
    SweepSpec,
    build_sweep,
    gemm_points,
    iter_sweep,
    parse_shard,
    run_sweep,
    shard_points,
)

SIZE = 24


def grid_spec(n: int = 10) -> SweepSpec:
    base = SystemConfig.table2_baseline()
    configs = {64 * (i + 1): base.with_packet_size(64 * (i + 1))
               for i in range(n)}
    return SweepSpec(name="shard-test", points=gemm_points(configs, SIZE))


class TestShardPartitioning:
    @pytest.mark.parametrize("total", [1, 2, 3, 4, 7, 10, 13])
    def test_disjoint_and_exhaustive(self, total):
        points = grid_spec().points
        shards = [shard_points(points, (i, total))
                  for i in range(1, total + 1)]
        seen = [p.key for shard in shards for p in shard]
        assert sorted(seen) == sorted(p.key for p in points)
        assert len(seen) == len(set(seen)), "shards overlap"

    def test_deterministic(self):
        points = grid_spec().points
        first = [p.key for p in shard_points(points, (2, 4))]
        second = [p.key for p in shard_points(points, (2, 4))]
        assert first == second

    def test_no_shard_is_identity(self):
        points = grid_spec().points
        assert shard_points(points, None) == list(points)

    def test_invalid_shards_rejected(self):
        points = grid_spec().points
        for bad in ((0, 4), (5, 4), (1, 0), (-1, 2)):
            with pytest.raises(ValueError, match="shard"):
                shard_points(points, bad)

    def test_parse_shard(self):
        assert parse_shard("1/4") == (1, 4)
        assert parse_shard("4/4") == (4, 4)
        with pytest.raises(ValueError, match="I/N"):
            parse_shard("nope")
        with pytest.raises(ValueError, match="shard"):
            parse_shard("0/4")


@functools.lru_cache(maxsize=None)
def registry_spec(name: str) -> SweepSpec:
    """One reduced-scale build of a registered sweep (construction only,
    nothing is simulated)."""
    return build_sweep(name)


class TestShardPropertiesAcrossRegistry:
    """Property-style guarantees over every *registered* sweep: for
    randomized (spec, N), the N shard slices are pairwise-disjoint,
    exhaustive, order-preserving, and stable -- the invariants that let
    hand-run shards on many machines compose one grid."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_shards_partition_registered_sweeps(self, data):
        name = data.draw(st.sampled_from(sorted(SWEEPS)))
        spec = registry_spec(name)
        total = data.draw(
            st.integers(min_value=1, max_value=len(spec) + 3),
            label="shard total N",
        )
        shards = [shard_points(spec.points, (index, total))
                  for index in range(1, total + 1)]
        # Disjoint and exhaustive: the multiset of keys across shards
        # is exactly the grid (keys are unique within a spec).
        seen = [repr(point.key) for shard in shards for point in shard]
        assert sorted(seen) == sorted(repr(p.key) for p in spec.points), (
            f"shards of {name!r} with N={total} lose or duplicate points"
        )
        assert len(seen) == len(set(seen)), f"shards of {name!r} overlap"
        # Order-preserving: every slice respects spec point order.
        order = {repr(p.key): i for i, p in enumerate(spec.points)}
        for shard in shards:
            positions = [order[repr(p.key)] for p in shard]
            assert positions == sorted(positions)
        # Stable: recomputing any randomly chosen slice is identical.
        index = data.draw(st.integers(min_value=1, max_value=total),
                          label="shard index I")
        again = shard_points(spec.points, (index, total))
        assert [p.key for p in again] == [p.key for p in shards[index - 1]]

    def test_shard_slices_stable_across_processes(self):
        """Sharding's core assumption: a process on another machine
        slices a named sweep exactly as this one does."""
        cases = [
            ("pcie-bandwidth", 1, 3),
            ("fig7-transformer", 2, 2),
            ("tab4-translation", 3, 4),
            ("topo-p2p", 2, 3),
            ("ext-cxl-vit", 1, 2),
        ]
        expected = {
            f"{name}:{index}/{total}": [
                repr(p.key)
                for p in shard_points(registry_spec(name).points,
                                      (index, total))
            ]
            for name, index, total in cases
        }
        script = (
            "import json\n"
            "from repro.sweep import build_sweep, shard_points\n"
            f"cases = {cases!r}\n"
            "out = {}\n"
            "for name, index, total in cases:\n"
            "    points = build_sweep(name).points\n"
            "    out[f'{name}:{index}/{total}'] = [\n"
            "        repr(p.key)\n"
            "        for p in shard_points(points, (index, total))]\n"
            "print(json.dumps(out))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == expected


class TestShardedExecution:
    def test_shards_compose_into_full_grid(self, tmp_path):
        """Acceptance: 1/4..4/4 over a shared cache dir cover exactly the
        full grid with no point simulated twice."""
        spec = grid_spec(n=6)
        simulated = 0
        for index in range(1, 5):
            report = run_sweep(spec, workers=1, cache_dir=tmp_path,
                               shard=(index, 4))
            assert report.hits == 0, "shards must not overlap"
            simulated += report.misses
        assert simulated == len(spec)
        assert len(ResultCache(tmp_path)) == len(spec)
        # A final unsharded run replays everything from cache.
        full = run_sweep(spec, workers=1, cache_dir=tmp_path)
        assert full.fully_cached
        assert [o.key for o in full.outcomes] == [p.key for p in spec.points]

    def test_shard_results_match_full_run(self, tmp_path):
        spec = grid_spec(n=4)
        full = run_sweep(spec, workers=1, cache_dir=tmp_path / "full")
        halves = {}
        for index in (1, 2):
            report = run_sweep(spec, workers=1, cache_dir=tmp_path / "shard",
                               shard=(index, 2))
            halves.update({o.key: o.record for o in report.outcomes})
        assert halves == {o.key: o.record for o in full.outcomes}

    def test_report_carries_shard(self, tmp_path):
        report = run_sweep(grid_spec(n=4), workers=1, cache=False,
                           shard=(1, 2))
        assert report.shard == (1, 2)
        assert "shard 1/2" in report.describe()

    def test_registered_sweep_shards(self, tmp_path):
        spec = build_sweep("tab4-translation", sizes=(16, 24, 32))
        keys = []
        for index in (1, 2, 3):
            report = run_sweep(spec, workers=1, cache_dir=tmp_path,
                               shard=(index, 3))
            keys.extend(o.key for o in report.outcomes)
        assert sorted(keys) == [16, 24, 32]


def _records(report):
    return [(repr(o.key), o.record) for o in report.outcomes]


class TestShardResume:
    """Hand-run shards over one cache resume after a crash, and a shard
    run by different code costs recomputation, never wrong results."""

    def test_interrupted_shard_resumes_from_cache(self, tmp_path):
        spec = grid_spec(n=6)
        stream = iter_sweep(spec, workers=1, cache_dir=tmp_path,
                            shard=(1, 2))
        finished = next(stream)
        stream.close()  # the shard dies after its first point
        assert not finished.cached
        rerun = run_sweep(spec, workers=1, cache_dir=tmp_path, shard=(1, 2))
        assert [o.key for o in rerun.outcomes if o.cached] == [finished.key]
        assert rerun.misses == len(rerun.outcomes) - 1 > 0
        other = run_sweep(spec, workers=1, cache_dir=tmp_path, shard=(2, 2))
        assert other.hits == 0
        replay = run_sweep(spec, workers=1, cache_dir=tmp_path)
        assert replay.fully_cached
        assert _records(replay) == _records(
            run_sweep(spec, workers=1, cache=False))

    def test_foreign_code_version_entries_are_never_read(self, tmp_path,
                                                         monkeypatch):
        from repro.sweep import cache as cache_mod

        spec = grid_spec(n=4)
        with monkeypatch.context() as patch:
            patch.setattr(cache_mod, "code_version", lambda: "0" * 64)
            foreign = run_sweep(spec, workers=1, cache_dir=tmp_path,
                                shard=(1, 2))
        run_sweep(spec, workers=1, cache_dir=tmp_path, shard=(2, 2))
        replay = run_sweep(spec, workers=1, cache_dir=tmp_path)
        # The foreign shard's entries sit under other keys: the replay
        # simulates its points again instead of reading them.
        assert sorted(o.key for o in replay.outcomes if not o.cached) == (
            sorted(o.key for o in foreign.outcomes))
        assert len(ResultCache(tmp_path)) == len(spec) + len(foreign.outcomes)
        assert _records(replay) == _records(
            run_sweep(spec, workers=1, cache=False))
