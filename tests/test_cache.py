"""Unit and property tests for the cache hierarchy."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import Cache, CacheParams, TagStore, make_policy
from repro.memory.addr_range import AddrRange
from repro.memory.physmem import PhysicalMemory
from repro.memory.simple import SimpleMemory
from repro.sim.eventq import Simulator
from repro.sim.ports import FixedLatencyTarget
from repro.sim.ticks import ns
from repro.sim.transaction import Transaction

GB = 10**9


def make_cache(size=4096, assoc=4, mshrs=16, mem_latency=ns(100), **kw):
    sim = Simulator()
    mem = FixedLatencyTarget(sim, "mem", latency=mem_latency)
    params = CacheParams(size=size, assoc=assoc, hit_latency=ns(2),
                         miss_latency=ns(2), mshrs=mshrs, **kw)
    cache = Cache(sim, "l1", params, mem)
    return sim, cache, mem


def do_access(sim, cache, addr, size, write=False):
    """Send one access and return its completion tick."""
    done = []
    txn = Transaction.write(addr, size) if write else Transaction.read(addr, size)
    cache.send(txn, lambda t: done.append(sim.now))
    sim.run()
    return done[0]


class TestReplacementPolicies:
    def test_lru_evicts_least_recent(self):
        tags = TagStore(size=4 * 64, assoc=4, line_size=64, policy="lru")
        tags.fill_range(0, 4, False)
        tags.access_range(0, 0, False)  # line 0 is now most recent
        assert tags.fill_range(4, 1, False) == (1, [])
        assert tags.probe(0) and not tags.probe(1)

    def test_fifo_ignores_touches(self):
        tags = TagStore(size=4 * 64, assoc=4, line_size=64, policy="fifo")
        tags.fill_range(0, 4, False)
        tags.access_range(0, 0, False)
        assert tags.fill_range(4, 1, False) == (1, [])
        assert not tags.probe(0) and tags.probe(1)

    @pytest.mark.parametrize("name", ["lru", "fifo"])
    def test_victim_among_occupied_subset(self, name):
        tags = TagStore(size=8 * 64, assoc=4, line_size=64, policy=name)
        # Odd lines map to set 1: lines 1, 3, 5, 7 take ways 0..3.
        for line in (1, 3, 5, 7):
            tags.fill_range(line, 1, False)
        assert tags.invalidate_range(3, 3) == (1, [])
        # A set with a free way fills it instead of evicting.
        assert tags.fill_range(9, 1, False) == (0, [])
        # Full again: the oldest occupied way goes first (line 1, way
        # 0), then way 2 (line 5), not the refilled way 1 (line 9).
        assert tags.fill_range(11, 1, False) == (1, [])
        assert not tags.probe(1) and tags.probe(9)
        assert tags.fill_range(13, 1, False) == (1, [])
        assert not tags.probe(5) and tags.probe(9)
        assert tags.resident_lines == 4  # set 0 untouched

    def test_random_is_seeded(self):
        def residents_after_fills(tags):
            for line in range(0, 40, 3):
                tags.fill_range(line, 2, False)
            return sorted(tags._where)

        a = TagStore(size=8 * 64, assoc=8, line_size=64, policy="random")
        b = TagStore(size=8 * 64, assoc=8, line_size=64, policy="random")
        first = residents_after_fills(a)
        assert first == residents_after_fills(b)
        a.reset()
        assert residents_after_fills(a) == first

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make_policy("plru", 1, 4)


class TestTagStore:
    def test_fill_then_hit(self):
        tags = TagStore(size=1024, assoc=2, line_size=64)
        assert tags.access_range(5, 5, False) == (0, [(5, 1)])
        assert tags.fill_range(5, 1, False) == (0, [])
        assert tags.access_range(5, 5, False) == (1, [])

    def test_eviction_on_full_set(self):
        tags = TagStore(size=256, assoc=2, line_size=64)  # 2 sets
        # Lines 0, 2, 4 all map to set 0.
        tags.fill_range(0, 1, False)
        tags.fill_range(2, 1, False)
        assert tags.fill_range(4, 1, False) == (1, [])
        assert not tags.probe(0)
        assert tags.probe(2) and tags.probe(4)

    def test_dirty_eviction_reported(self):
        tags = TagStore(size=256, assoc=2, line_size=64)
        tags.fill_range(0, 1, False)
        assert tags.access_range(0, 0, True) == (1, [])  # write hit
        tags.fill_range(2, 1, False)
        assert tags.fill_range(4, 1, False) == (1, [0])

    def test_refill_merges_dirty(self):
        tags = TagStore(size=256, assoc=2, line_size=64)
        tags.fill_range(7, 1, True)
        assert tags.fill_range(7, 1, False) == (0, [])
        assert tags.is_dirty(7)

    def test_invalidate(self):
        tags = TagStore(size=256, assoc=2, line_size=64)
        tags.fill_range(3, 1, True)
        assert tags.invalidate_range(3, 3) == (1, [3])
        assert not tags.probe(3)
        assert tags.invalidate_range(3, 3) == (0, [])
        assert tags.invalidate_range(0, 1 << 20) == (0, [])

    def test_mark_dirty_missing_line(self):
        """A write to a missing line reports it missing and marks
        nothing dirty."""
        tags = TagStore(size=256, assoc=2, line_size=64)
        assert tags.access_range(99, 99, True) == (0, [(99, 1)])
        assert not tags.probe(99) and not tags.is_dirty(99)

    def test_access_range_coalesces_missing_runs(self):
        tags = TagStore(size=1024, assoc=2, line_size=64)
        tags.fill_range(2, 1, False)
        tags.fill_range(5, 2, False)
        assert tags.access_range(0, 9, True) == (3, [(0, 2), (3, 2), (7, 3)])
        assert [tags.is_dirty(line) for line in (2, 5, 6)] == [True] * 3
        assert tags.access_range(2, 2, False) == (1, [])

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            TagStore(size=1000, assoc=3, line_size=64)
        with pytest.raises(ValueError):
            TagStore(size=1024, assoc=2, line_size=60)
        with pytest.raises(ValueError, match="assoc"):
            TagStore(size=4096, assoc=0)
        with pytest.raises(ValueError, match="size"):
            TagStore(size=-4096, assoc=4)
        with pytest.raises(ValueError, match="size"):
            TagStore(size=0, assoc=4)

    def test_lru_order_respected(self):
        tags = TagStore(size=256, assoc=2, line_size=64)  # 2 sets
        tags.fill_range(0, 1, False)
        tags.fill_range(2, 1, False)
        tags.access_range(0, 0, False)  # 0 most recent; victim should be 2
        assert tags.fill_range(4, 1, False) == (1, [])
        assert tags.probe(0) and not tags.probe(2)

    def test_construction_allocates_no_object_per_line(self):
        """Flat per-slot arrays: a 2 MiB, 8-way LRU store costs a few
        bytes per line (one ``_Way`` object per line cost ~81)."""
        size, line_size = 2 * 1024 * 1024, 64
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tags = TagStore(size, 8, line_size, "lru")
            used = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert tags.num_sets == 4096
        assert used / (size // line_size) <= 24


# ----------------------------------------------------------------------
# Differential oracle: the per-way-object tag store and list-of-lists
# LRU/FIFO policies the flat arrays replaced.
# ----------------------------------------------------------------------
class _OracleWay:
    __slots__ = ("line", "dirty")

    def __init__(self):
        self.line = None
        self.dirty = False


class _OracleLRU:
    def __init__(self, num_sets, assoc):
        self._stamp = 0
        self._last_use = [[0] * assoc for _ in range(num_sets)]

    def touch(self, set_index, way):
        self._stamp += 1
        self._last_use[set_index][way] = self._stamp

    def insert(self, set_index, way):
        self.touch(set_index, way)

    def victim(self, set_index, occupied):
        return min(occupied, key=self._last_use[set_index].__getitem__)

    def reset(self):
        self.__init__(len(self._last_use), len(self._last_use[0]))


class _OracleFIFO(_OracleLRU):
    def touch(self, set_index, way):
        pass

    def insert(self, set_index, way):
        _OracleLRU.touch(self, set_index, way)


class _OracleRandom:
    def __init__(self, num_sets, assoc, seed=1):
        self._seed = seed
        self._rng = random.Random(seed)

    def touch(self, set_index, way):
        pass

    insert = touch

    def victim(self, set_index, occupied):
        return self._rng.choice(occupied)

    def reset(self):
        self._rng = random.Random(self._seed)


class _OracleTagStore:
    def __init__(self, size, assoc, line_size, policy):
        self.assoc = assoc
        self.num_sets = size // (assoc * line_size)
        self.policy = {"lru": _OracleLRU, "fifo": _OracleFIFO,
                       "random": _OracleRandom}[policy](self.num_sets, assoc)
        self._sets = [[_OracleWay() for _ in range(assoc)]
                      for _ in range(self.num_sets)]
        self._where = {}
        self._occupancy = [0] * self.num_sets

    def access(self, line):
        loc = self._where.get(line)
        if loc is None:
            return False
        self.policy.touch(*loc)
        return True

    def is_dirty(self, line):
        loc = self._where.get(line)
        return loc is not None and self._sets[loc[0]][loc[1]].dirty

    def fill(self, line, dirty=False):
        loc = self._where.get(line)
        if loc is not None:
            way = self._sets[loc[0]][loc[1]]
            way.dirty = way.dirty or dirty
            self.policy.touch(*loc)
            return None
        set_index = line % self.num_sets
        ways = self._sets[set_index]
        victim_info = None
        if self._occupancy[set_index] < self.assoc:
            free_way = next(i for i, w in enumerate(ways) if w.line is None)
            self._occupancy[set_index] += 1
        else:
            free_way = self.policy.victim(set_index, list(range(self.assoc)))
            victim = ways[free_way]
            victim_info = (victim.line, victim.dirty)
            del self._where[victim.line]
        ways[free_way].line = line
        ways[free_way].dirty = dirty
        self._where[line] = (set_index, free_way)
        self.policy.insert(set_index, free_way)
        return victim_info

    def mark_dirty(self, line):
        loc = self._where.get(line)
        if loc is None:
            raise KeyError(line)
        self._sets[loc[0]][loc[1]].dirty = True

    def invalidate(self, line):
        loc = self._where.pop(line, None)
        if loc is None:
            return False
        way = self._sets[loc[0]][loc[1]]
        dirty = way.dirty
        way.line = None
        way.dirty = False
        self._occupancy[loc[0]] -= 1
        return dirty

    def reset(self):
        for ways in self._sets:
            for way in ways:
                way.line = None
                way.dirty = False
        self._where.clear()
        self._occupancy = [0] * self.num_sets
        self.policy.reset()

    @property
    def resident_lines(self):
        return len(self._where)


    # Range calls, one line at a time, as the cache made them before
    # the tag store grew range operations.
    def access_range(self, first, last, write):
        hits, missing = 0, []
        for line in range(first, last + 1):
            if self.access(line):
                hits += 1
                if write:
                    self.mark_dirty(line)
            else:
                missing.append(line)
        return hits, _coalesce(missing)

    def fill_range(self, start, count, dirty):
        evictions, victims = 0, []
        for line in range(start, start + count):
            victim = self.fill(line, dirty)
            if victim is not None:
                evictions += 1
                if victim[1]:
                    victims.append(victim[0])
        return evictions, victims

    def invalidate_range(self, first, last):
        dropped, victims = 0, []
        for line in range(first, last + 1):
            if line in self._where:
                dropped += 1
                if self.invalidate(line):
                    victims.append(line)
        return dropped, victims


def _coalesce(lines):
    """Merge ascending line numbers into (start, length) runs."""
    runs = []
    for line in lines:
        if runs and runs[-1][0] + runs[-1][1] == line:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((line, 1))
    return runs


#: Lines 0..23 overflow even the largest (4 x 4) store; fills dominate
#: so sets fill up and evict, and a rare reset rewinds everything.
#: Each op covers ``count`` lines from ``first`` (clipped to the probed
#: lines), so ranges span sets, hit and miss in runs, and invalidate
#: ranges that are partly, wholly or not at all resident.
_TAG_LINES = 24
_TAG_OPS = st.tuples(
    st.sampled_from(["fill"] * 4 + ["access"] * 3 + ["invalidate", "reset"]),
    st.integers(min_value=0, max_value=_TAG_LINES - 1),
    st.integers(min_value=1, max_value=6),
    st.booleans(),
)


class TestTagStoreDifferential:
    @settings(max_examples=200, deadline=None)
    @given(
        policy=st.sampled_from(["lru", "fifo", "random"]),
        num_sets=st.integers(min_value=1, max_value=4),
        assoc=st.integers(min_value=1, max_value=4),
        ops=st.lists(_TAG_OPS, min_size=20, max_size=100),
    )
    def test_matches_per_way_oracle(self, policy, num_sets, assoc, ops):
        size = num_sets * assoc * 64
        tags = TagStore(size, assoc, 64, policy)
        oracle = _OracleTagStore(size, assoc, 64, policy)

        def outcome(store, op, first, last, write):
            if op == "fill":
                return store.fill_range(first, last - first + 1, write)
            if op == "access":
                return store.access_range(first, last, write)
            if op == "invalidate":
                return store.invalidate_range(first, last)
            return store.reset()

        for op, first, count, write in ops:
            last = min(first + count, _TAG_LINES) - 1
            assert outcome(tags, op, first, last, write) == outcome(
                oracle, op, first, last, write), (op, first, last, write)
            assert tags.resident_lines == oracle.resident_lines
            for probe in range(_TAG_LINES):
                assert tags.probe(probe) == (probe in oracle._where), probe
                assert tags.is_dirty(probe) == oracle.is_dirty(probe), probe


class TestCacheTiming:
    def test_miss_then_hit_faster(self):
        sim, cache, _ = make_cache()
        t_miss = do_access(sim, cache, 0, 64)
        start = sim.now
        t_hit = do_access(sim, cache, 0, 64) - start
        assert t_miss >= ns(100)
        assert t_hit <= ns(4)

    def test_hit_and_miss_counters(self):
        sim, cache, _ = make_cache()
        do_access(sim, cache, 0, 128)       # 2 lines miss
        do_access(sim, cache, 0, 128)       # 2 lines hit
        assert cache.stats["misses"].value == 2
        assert cache.stats["hits"].value == 2
        assert cache.hit_rate == 0.5

    def test_partial_hit_fetches_only_missing(self):
        sim, cache, mem = make_cache()
        do_access(sim, cache, 0, 64)   # line 0 misses
        do_access(sim, cache, 0, 192)  # line 0 hit, lines 1-2 miss
        assert cache.stats["hits"].value == 1
        assert cache.stats["misses"].value == 3
        # Lines 1-2 are contiguous -> one coalesced fetch (plus the first).
        assert mem.stats["transactions"].value == 2

    def test_write_allocate_marks_dirty(self):
        sim, cache, _ = make_cache()
        do_access(sim, cache, 0, 64, write=True)
        assert cache.tags.is_dirty(0)

    def test_dirty_eviction_writes_back(self):
        sim, cache, mem = make_cache(size=256, assoc=2)  # 2 sets, 4 lines
        do_access(sim, cache, 0, 64, write=True)      # line 0, set 0
        do_access(sim, cache, 128, 64)                # line 2, set 0
        do_access(sim, cache, 256, 64)                # line 4, set 0: evicts 0
        sim.run()
        assert cache.stats["writebacks"].value == 1

    def test_partial_hit_write_dirties_hits_and_writes_back_victims(self):
        sim, cache, mem = make_cache(size=256, assoc=2)  # 2 sets, 4 lines
        sent = []
        send = mem.send

        def recording_send(txn, on_complete):
            sent.append((txn.is_write, txn.addr, txn.size, txn.source))
            send(txn, on_complete)

        mem.send = recording_send
        do_access(sim, cache, 0, 128)               # lines 0-1 miss, clean
        do_access(sim, cache, 0, 192, write=True)   # 0-1 hit, 2 misses
        assert cache.stats["hits"].value == 2
        assert [cache.tags.is_dirty(line) for line in range(3)] == [True] * 3
        del sent[:]
        # Lines 4-7 are one run; filling it evicts dirty lines 0 (set 0),
        # 2 (set 0) and 1 (set 1; line 5 took set 1's free way).
        do_access(sim, cache, 256, 256)
        sim.run()
        assert sent == [
            (False, 256, 256, "l1"),
            (True, 0, 64, "l1.wb"),
            (True, 128, 64, "l1.wb"),
            (True, 64, 64, "l1.wb"),
        ]
        assert cache.stats["evictions"].value == 3
        assert cache.stats["writebacks"].value == 3

    def test_write_no_allocate_forwards(self):
        sim, cache, mem = make_cache(write_allocate=False)
        do_access(sim, cache, 0, 64, write=True)
        assert cache.tags.resident_lines == 0
        assert mem.stats["transactions"].value == 1

    def test_mshr_limit_serializes(self):
        sim_few, cache_few, _ = make_cache(mshrs=1, mem_latency=ns(100))
        done_few = []
        for i in range(4):
            cache_few.send(
                Transaction.read(i * 4096, 64),
                lambda t: done_few.append(sim_few.now),
            )
        sim_few.run()

        sim_many, cache_many, _ = make_cache(mshrs=8, mem_latency=ns(100))
        done_many = []
        for i in range(4):
            cache_many.send(
                Transaction.read(i * 4096, 64),
                lambda t: done_many.append(sim_many.now),
            )
        sim_many.run()
        assert max(done_few) > max(done_many)

    def test_invalidate_range_drops_lines(self):
        sim, cache, _ = make_cache()
        do_access(sim, cache, 0, 256)
        assert cache.tags.resident_lines == 4
        dropped = cache.invalidate_range(0, 128)
        assert dropped == 2
        assert cache.tags.resident_lines == 2

    def test_invalidate_dirty_generates_writeback(self):
        sim, cache, mem = make_cache()
        do_access(sim, cache, 0, 64, write=True)
        cache.invalidate_range(0, 64)
        sim.run()
        assert cache.stats["writebacks"].value == 1

    def test_invalidate_range_on_empty_cache(self):
        sim, cache, mem = make_cache()
        assert cache.invalidate_range(0, 1 << 20) == 0
        sim.run()
        assert cache.stats["invalidations"].value == 0
        assert cache.stats["writebacks"].value == 0


class TestCacheFunctional:
    def test_read_your_writes_through_cache(self):
        sim = Simulator()
        store = PhysicalMemory(AddrRange(0, 1 << 20))
        mem = SimpleMemory(sim, "mem", AddrRange(0, 1 << 20), ns(50), 10 * GB, store)
        cache = Cache(sim, "l1", CacheParams(size=4096, assoc=4), mem, store)
        payload = np.arange(64, dtype=np.uint8)
        cache.send(Transaction.write(0, 64, payload), lambda t: None)
        got = []
        cache.send(Transaction.read(0, 64), lambda t: got.append(t.data))
        sim.run()
        np.testing.assert_array_equal(got[0], payload)


class TestCacheProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        addrs=st.lists(
            st.integers(min_value=0, max_value=255), min_size=1, max_size=60
        )
    )
    def test_resident_never_exceeds_capacity(self, addrs):
        tags = TagStore(size=1024, assoc=2, line_size=64)  # 16 lines
        for line in addrs:
            tags.fill_range(line, 1, False)
        assert tags.resident_lines <= 16

    @settings(max_examples=30, deadline=None)
    @given(
        addrs=st.lists(
            st.integers(min_value=0, max_value=31), min_size=1, max_size=40
        )
    )
    def test_repeat_access_after_fill_always_hits(self, addrs):
        """Filling then immediately accessing the same line always hits."""
        tags = TagStore(size=2048, assoc=4, line_size=64)
        for line in addrs:
            tags.fill_range(line, 1, False)
            assert tags.access_range(line, line, False) == (1, [])

    @settings(max_examples=20, deadline=None)
    @given(
        accesses=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2048 - 64),
                st.sampled_from([64, 128, 256]),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_hits_plus_misses_equals_lines(self, accesses):
        sim, cache, _ = make_cache(size=1024, assoc=4)
        total_lines = 0
        for addr, size in accesses:
            addr = (addr // 64) * 64
            total_lines += (addr + size - 1) // 64 - addr // 64 + 1
            cache.send(Transaction.read(addr, size), lambda t: None)
            sim.run()
        got = cache.stats["hits"].value + cache.stats["misses"].value
        assert got == total_lines
