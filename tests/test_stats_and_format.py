"""Unit tests for statistics primitives and report formatting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SystemConfig, collect_stats, format_table, run_gemm
from repro.core.system import AcceSysSystem
from repro.sim.statistics import Histogram, Scalar, StatGroup


class TestScalar:
    def test_inc_and_set(self):
        s = Scalar("x")
        s.inc()
        s.inc(4)
        assert s.value == 5
        s.set(2)
        assert s.value == 2
        s.reset()
        assert s.value == 0

    def test_repr(self):
        s = Scalar("hits")
        assert "hits" in repr(s)


class TestHistogram:
    def test_moments(self):
        h = Histogram("lat")
        for v in (10, 20, 30):
            h.sample(v)
        assert h.count == 3
        assert h.mean == 20
        assert h.min == 10
        assert h.max == 30

    def test_repeat_samples(self):
        h = Histogram("lat")
        h.sample(5, repeat=100)
        assert h.count == 100
        assert h.mean == 5

    def test_variance(self):
        h = Histogram("lat")
        h.sample(0)
        h.sample(10)
        assert h.variance == pytest.approx(25.0)

    def test_empty_histogram(self):
        h = Histogram("lat")
        assert h.mean == 0.0
        assert h.variance == 0.0

    @settings(max_examples=30)
    @given(values=st.lists(st.integers(min_value=0, max_value=10**6),
                           min_size=1, max_size=50))
    def test_mean_matches_reference(self, values):
        h = Histogram("x")
        for v in values:
            h.sample(v)
        assert h.mean == pytest.approx(sum(values) / len(values))


class TestStatGroup:
    def test_scalar_reuse(self):
        group = StatGroup("comp")
        a = group.scalar("count")
        b = group.scalar("count")
        assert a is b

    def test_type_conflict(self):
        group = StatGroup("comp")
        group.scalar("x")
        with pytest.raises(TypeError):
            group.histogram("x")

    def test_flatten_names(self):
        group = StatGroup("sys.cache")
        group.scalar("hits").inc(3)
        group.histogram("lat").sample(10)
        flat = dict(group.flatten())
        assert flat["sys.cache.hits"] == 3
        assert flat["sys.cache.lat.count"] == 1

    def test_reset_all(self):
        group = StatGroup("c")
        group.scalar("a").inc(5)
        group.histogram("b").sample(1)
        group.reset()
        assert group["a"].value == 0
        assert group["b"].count == 0

    def test_contains(self):
        group = StatGroup("c")
        group.scalar("x")
        assert "x" in group
        assert "y" not in group


class TestDirtyFlagSnapshots:
    """flatten() memoization: clean groups never re-walk their stats."""

    def test_mutation_marks_group_dirty(self):
        group = StatGroup("c")
        counter = group.scalar("hits")
        group.flatten()
        assert not group.dirty
        counter.inc()
        assert group.dirty

    def test_flatten_cached_until_dirty(self):
        group = StatGroup("c")
        counter = group.scalar("hits")
        counter.inc(3)
        first = group.flatten()
        assert group.flatten() is first  # served from cache
        counter.inc()
        second = group.flatten()
        assert second is not first
        assert dict(second)["c.hits"] == 4

    def test_generation_tracks_observable_changes(self):
        group = StatGroup("c")
        counter = group.scalar("hits")
        group.flatten()
        gen = group.generation
        group.flatten()
        assert group.generation == gen  # cached: nothing new observable
        counter.inc()
        group.flatten()
        assert group.generation == gen + 1

    def test_reset_serves_pristine_snapshot(self):
        group = StatGroup("c")
        counter = group.scalar("hits")
        histogram = group.histogram("lat")
        pristine = group.flatten()  # computed before any mutation
        counter.inc(7)
        histogram.sample(3)
        assert dict(group.flatten())["c.hits"] == 7
        group.reset()
        assert not group.dirty
        # After reset the shared pristine rows are served without a walk.
        assert group.flatten() is pristine
        assert dict(pristine)["c.hits"] == 0

    def test_late_registration_invalidates_caches(self):
        group = StatGroup("c")
        group.scalar("a").inc()
        group.flatten()
        group.scalar("b")  # new stat after a snapshot was cached
        flat = dict(group.flatten())
        assert set(flat) == {"c.a", "c.b"}

    def test_late_registration_never_poisons_pristine_rows(self):
        """Regression: mutate -> flatten -> register -> flatten must not
        capture the mutated values as the shared pristine snapshot --
        a later reset() would then serve stale non-zero rows."""
        group = StatGroup("c")
        counter = group.scalar("a")
        counter.inc(5)
        group.flatten()  # clears dirty; group is clean but NOT pristine
        group.scalar("b")  # late registration drops the caches
        group.flatten()  # must not be captured as pristine
        group.reset()
        flat = dict(group.flatten())
        assert flat == {"c.a": 0, "c.b": 0}
        assert counter.value == 0

    def test_direct_stat_reset_marks_dirty(self):
        group = StatGroup("c")
        counter = group.scalar("a")
        counter.inc(5)
        group.flatten()
        counter.reset()
        assert dict(group.flatten())["c.a"] == 0

    def test_standalone_stats_do_not_crash(self):
        # Scalars/Histograms built outside a group mark a shared sink.
        s = Scalar("x")
        s.inc()
        h = Histogram("y")
        h.sample(1)
        assert s.value == 1 and h.count == 1


class TestCollectStats:
    def test_full_system_snapshot(self):
        result = run_gemm(SystemConfig.table2_baseline(), 64, 64, 64)
        assert result.component_stats  # non-empty
        system = AcceSysSystem(SystemConfig.table2_baseline())
        flat = collect_stats(system)
        assert any("membus" in key for key in flat)
        assert any("utlb" in key for key in flat)

    def test_devmem_system_snapshot(self):
        system = AcceSysSystem(SystemConfig.devmem_system())
        flat = collect_stats(system)
        assert any("devmem" in key for key in flat)


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        # All rows share the same width.
        assert len(set(len(line) for line in lines)) <= 2

    def test_title(self):
        text = format_table(["x"], [[1]], title="hello")
        assert text.splitlines()[0] == "hello"

    def test_float_formatting(self):
        text = format_table(["v"], [[0.000123], [1234567.0], [1.5], [0]])
        assert "1.230e-04" in text
        assert "1.235e+06" in text
        assert "1.500" in text
