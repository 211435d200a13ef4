"""Unit and property tests for the TLB."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smmu.tlb import TLB


class TestBasics:
    def test_miss_then_hit(self):
        tlb = TLB("t", entries=8)
        assert tlb.lookup(5) is None
        tlb.insert(5, 99)
        assert tlb.lookup(5) == 99
        assert tlb.lookups == 2
        assert tlb.hits == 1
        assert tlb.misses == 1

    def test_batched_lookup_counting(self):
        tlb = TLB("t", entries=8)
        tlb.insert(1, 10)
        tlb.lookup(1, count=63)
        assert tlb.lookups == 63
        assert tlb.hits == 63

    def test_lru_eviction_fully_assoc(self):
        tlb = TLB("t", entries=2)
        tlb.insert(1, 10)
        tlb.insert(2, 20)
        tlb.lookup(1)            # 1 most recent
        evicted = tlb.insert(3, 30)
        assert evicted == 2
        assert tlb.probe(1) and tlb.probe(3)
        assert not tlb.probe(2)

    def test_set_associative_mapping(self):
        tlb = TLB("t", entries=8, assoc=2)  # 4 sets
        # vpns 0, 4, 8 all map to set 0; assoc 2 -> third insert evicts.
        tlb.insert(0, 1)
        tlb.insert(4, 2)
        evicted = tlb.insert(8, 3)
        assert evicted == 0
        assert tlb.occupancy == 2

    def test_reinsert_updates(self):
        tlb = TLB("t", entries=4)
        tlb.insert(1, 10)
        assert tlb.insert(1, 11) is None
        assert tlb.lookup(1) == 11

    def test_invalidate(self):
        tlb = TLB("t", entries=4)
        tlb.insert(1, 10)
        assert tlb.invalidate(1)
        assert not tlb.invalidate(1)
        assert tlb.lookup(1) is None

    def test_invalidate_all(self):
        tlb = TLB("t", entries=4)
        for i in range(4):
            tlb.insert(i, i)
        tlb.invalidate_all()
        assert tlb.occupancy == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            TLB("t", entries=0)
        with pytest.raises(ValueError):
            TLB("t", entries=10, assoc=4)

    def test_assoc_capped_to_fully(self):
        tlb = TLB("t", entries=4, assoc=100)
        assert tlb.assoc == 4
        assert tlb.num_sets == 1

    def test_stat_dict(self):
        tlb = TLB("mytlb", entries=4)
        tlb.insert(0, 0)
        tlb.lookup(0)
        stats = tlb.stat_dict()
        assert stats["mytlb.hit_rate"] == 1.0


class TestProperties:
    @settings(max_examples=40)
    @given(
        ops=st.lists(
            st.integers(min_value=0, max_value=63), min_size=1, max_size=100
        ),
        entries=st.sampled_from([2, 4, 8, 16]),
    )
    def test_occupancy_bounded(self, ops, entries):
        tlb = TLB("t", entries=entries)
        for vpn in ops:
            if tlb.lookup(vpn) is None:
                tlb.insert(vpn, vpn + 1000)
        assert tlb.occupancy <= entries

    @settings(max_examples=40)
    @given(
        ops=st.lists(
            st.integers(min_value=0, max_value=63), min_size=1, max_size=100
        )
    )
    def test_hits_plus_misses_equals_lookups(self, ops):
        tlb = TLB("t", entries=8, assoc=2)
        for vpn in ops:
            if tlb.lookup(vpn) is None:
                tlb.insert(vpn, vpn)
        assert tlb.hits + tlb.misses == tlb.lookups

    @settings(max_examples=30)
    @given(
        working_set=st.integers(min_value=1, max_value=8),
        passes=st.integers(min_value=2, max_value=5),
    )
    def test_working_set_within_capacity_always_hits_after_warmup(
        self, working_set, passes
    ):
        tlb = TLB("t", entries=8)
        for vpn in range(working_set):
            tlb.insert(vpn, vpn)
        for _ in range(passes):
            for vpn in range(working_set):
                assert tlb.lookup(vpn) == vpn


class _EagerTLB:
    """The TLB as it was before sets were created lazily: one
    ``OrderedDict`` per set, built up front.  The differential oracle."""

    def __init__(self, entries, assoc=None):
        if assoc is None or assoc >= entries:
            assoc = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        self._sets = [OrderedDict() for _ in range(self.num_sets)]
        self.lookups = self.hits = self.misses = 0

    def lookup(self, vpn, count=1):
        self.lookups += count
        entry_set = self._sets[vpn % self.num_sets]
        pfn = entry_set.get(vpn)
        if pfn is None:
            self.misses += count
            return None
        self.hits += count
        entry_set.move_to_end(vpn)
        return pfn

    def probe(self, vpn):
        return vpn in self._sets[vpn % self.num_sets]

    def insert(self, vpn, pfn):
        entry_set = self._sets[vpn % self.num_sets]
        victim = None
        if vpn not in entry_set and len(entry_set) >= self.assoc:
            victim, _ = entry_set.popitem(last=False)
        entry_set[vpn] = pfn
        entry_set.move_to_end(vpn)
        return victim

    def invalidate(self, vpn):
        return self._sets[vpn % self.num_sets].pop(vpn, None) is not None

    def invalidate_all(self):
        for entry_set in self._sets:
            entry_set.clear()

    def reset(self):
        self.invalidate_all()
        self.lookups = self.hits = self.misses = 0

    @property
    def occupancy(self):
        return sum(len(s) for s in self._sets)


#: VPNs 0..39 overflow every geometry below, so sets fill and evict.
_TLB_VPNS = 40
_TLB_OPS = st.tuples(
    st.sampled_from(["insert"] * 4 + ["lookup"] * 3
                    + ["probe", "invalidate", "invalidate_all", "reset"]),
    st.integers(min_value=0, max_value=_TLB_VPNS - 1),
    st.integers(min_value=1, max_value=4),
)


class TestLazySetsDifferential:
    """Lazily created sets keep the eager TLB's hits, LRU order and
    victims exactly."""

    @settings(max_examples=200, deadline=None)
    @given(
        geometry=st.sampled_from([(1, None), (4, None), (8, 2), (16, 4),
                                  (16, 1), (32, 8)]),
        ops=st.lists(_TLB_OPS, min_size=20, max_size=120),
    )
    def test_matches_eager_oracle(self, geometry, ops):
        entries, assoc = geometry
        tlb = TLB("t", entries, assoc)
        oracle = _EagerTLB(entries, assoc)
        for op, vpn, count in ops:
            if op == "insert":
                args = (vpn, vpn + 1000 * count)
            elif op == "lookup":
                args = (vpn, count)
            elif op in ("probe", "invalidate"):
                args = (vpn,)
            else:
                args = ()
            assert getattr(tlb, op)(*args) == getattr(oracle, op)(*args), (
                op, args)
            assert tlb.occupancy == oracle.occupancy
            assert (tlb.lookups, tlb.hits, tlb.misses) == (
                oracle.lookups, oracle.hits, oracle.misses)
        for vpn in range(_TLB_VPNS):
            assert tlb.probe(vpn) == oracle.probe(vpn), vpn
        # Victim order: filling every set evicts in the same LRU order.
        for vpn in range(_TLB_VPNS, 3 * _TLB_VPNS):
            assert tlb.insert(vpn, vpn) == oracle.insert(vpn, vpn), vpn

    def test_sets_are_created_on_first_insert_and_dropped_on_reset(self):
        tlb = TLB("t", entries=4096, assoc=8)
        assert tlb.lookup(3) is None and not tlb.probe(3)
        assert not tlb.invalidate(3)
        assert len(tlb._sets) == 0
        tlb.insert(3, 7)
        tlb.insert(3 + tlb.num_sets, 8)
        assert len(tlb._sets) == 1
        tlb.reset()
        assert len(tlb._sets) == 0 and tlb.occupancy == 0
