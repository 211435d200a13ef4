"""Unit and property tests for the cache hierarchy."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import Cache, CacheParams, RandomPolicy, TagStore, make_policy
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
        policy = make_policy("lru", num_sets=1, assoc=4)
        for way in range(4):
            policy.insert(0, way)
        policy.touch(0, 0)  # way 0 is now most recent
        assert policy.victim(0, [0, 1, 2, 3]) == 1

    def test_fifo_ignores_touches(self):
        policy = make_policy("fifo", num_sets=1, assoc=4)
        for way in range(4):
            policy.insert(0, way)
        policy.touch(0, 0)
        assert policy.victim(0, [0, 1, 2, 3]) == 0

    @pytest.mark.parametrize("name", ["lru", "fifo"])
    def test_victim_among_occupied_subset(self, name):
        policy = make_policy(name, num_sets=2, assoc=4)
        assert policy.victim(1, [0, 1, 2, 3]) == 0  # all unstamped: lowest
        assert policy.victim(1, [2, 3]) == 2
        for way in (3, 1, 2, 0):
            policy.insert(1, way)
        assert policy.victim(1, [0, 1, 2, 3]) == 3
        assert policy.victim(1, [0, 1, 2]) == 1
        assert policy.victim(0, [0, 1, 2, 3]) == 0  # other set untouched

    def test_random_is_seeded(self):
        a = make_policy("random", 1, 8)
        b = make_policy("random", 1, 8)
        picks_a = [a.victim(0, list(range(8))) for _ in range(10)]
        picks_b = [b.victim(0, list(range(8))) for _ in range(10)]
        assert picks_a == picks_b

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make_policy("plru", 1, 4)


class TestTagStore:
    def test_fill_then_hit(self):
        tags = TagStore(size=1024, assoc=2, line_size=64)
        assert not tags.access(5)
        assert tags.fill(5) is None
        assert tags.access(5)

    def test_eviction_on_full_set(self):
        tags = TagStore(size=256, assoc=2, line_size=64)  # 2 sets
        # Lines 0, 2, 4 all map to set 0.
        tags.fill(0)
        tags.fill(2)
        victim = tags.fill(4)
        assert victim == (0, False)
        assert not tags.probe(0)
        assert tags.probe(2) and tags.probe(4)

    def test_dirty_eviction_reported(self):
        tags = TagStore(size=256, assoc=2, line_size=64)
        tags.fill(0)
        tags.mark_dirty(0)
        tags.fill(2)
        victim = tags.fill(4)
        assert victim == (0, True)

    def test_refill_merges_dirty(self):
        tags = TagStore(size=256, assoc=2, line_size=64)
        tags.fill(7, dirty=True)
        assert tags.fill(7, dirty=False) is None
        assert tags.is_dirty(7)

    def test_invalidate(self):
        tags = TagStore(size=256, assoc=2, line_size=64)
        tags.fill(3, dirty=True)
        assert tags.invalidate(3) is True
        assert not tags.probe(3)
        assert tags.invalidate(3) is False

    def test_mark_dirty_missing_line(self):
        tags = TagStore(size=256, assoc=2, line_size=64)
        with pytest.raises(KeyError):
            tags.mark_dirty(99)

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
        tags.fill(0)
        tags.fill(2)
        tags.access(0)  # 0 most recent; victim should be 2
        victim = tags.fill(4)
        assert victim[0] == 2

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


class _OracleTagStore:
    def __init__(self, size, assoc, line_size, policy):
        self.assoc = assoc
        self.num_sets = size // (assoc * line_size)
        self.policy = {"lru": _OracleLRU, "fifo": _OracleFIFO,
                       "random": RandomPolicy}[policy](self.num_sets, assoc)
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


#: Lines 0..23 overflow even the largest (4 x 4) store; fills dominate
#: so sets fill up and evict, and a rare reset rewinds everything.
_TAG_LINES = 24
_TAG_OPS = st.tuples(
    st.sampled_from(["fill"] * 4 + ["access"] * 2
                    + ["mark_dirty", "invalidate", "reset"]),
    st.integers(min_value=0, max_value=_TAG_LINES - 1),
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

        def outcome(store, op, line, dirty):
            try:
                if op == "fill":
                    return store.fill(line, dirty)
                if op == "reset":
                    return store.reset()
                return getattr(store, op)(line)
            except KeyError:
                return KeyError

        for op, line, dirty in ops:
            assert outcome(tags, op, line, dirty) == outcome(
                oracle, op, line, dirty), (op, line, dirty)
            assert tags.resident_lines == oracle.resident_lines
            for probe in range(_TAG_LINES):
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
            tags.fill(line)
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
            tags.fill(line)
            assert tags.access(line)

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
            total_lines += Transaction.read(addr, size).num_lines(64)
            cache.send(Transaction.read(addr, size), lambda t: None)
            sim.run()
        got = cache.stats["hits"].value + cache.stats["misses"].value
        assert got == total_lines
