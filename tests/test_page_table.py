"""Unit and property tests for the radix page table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smmu.page_table import (
    LEVELS,
    PAGE_SIZE,
    PageFault,
    PageTable,
)

TABLE_BASE = 0x8000_0000


def make_table():
    return PageTable(TABLE_BASE)


class TestMapping:
    def test_map_and_translate(self):
        pt = make_table()
        pt.map_page(0x1000, 0x40000)
        assert pt.translate(0x1000) == 0x40000
        assert pt.translate(0x1234) == 0x40234

    def test_unmapped_faults(self):
        pt = make_table()
        with pytest.raises(PageFault):
            pt.translate(0xDEAD000)

    def test_unaligned_mapping_rejected(self):
        pt = make_table()
        with pytest.raises(ValueError):
            pt.map_page(0x1001, 0x2000)
        with pytest.raises(ValueError):
            pt.map_page(0x1000, 0x2001)

    def test_map_range_counts_pages(self):
        pt = make_table()
        pages = pt.map_range(0x10000, 0x200000, 3 * PAGE_SIZE)
        assert pages == 3
        assert pt.mapped_pages == 3

    def test_map_range_partial_pages(self):
        pt = make_table()
        # 1 byte crossing a boundary needs 2 pages.
        pages = pt.map_range(PAGE_SIZE - 1, 0x100000 + PAGE_SIZE - 1, 2)
        assert pages == 2

    def test_map_range_preserves_offset(self):
        pt = make_table()
        pt.map_range(0x10000, 0x900000, 4 * PAGE_SIZE)
        for offset in (0, 0x1111, 0x3FFF):
            assert pt.translate(0x10000 + offset) == 0x900000 + offset

    def test_remap_does_not_double_count(self):
        pt = make_table()
        pt.map_page(0x1000, 0x2000)
        pt.map_page(0x1000, 0x3000)
        assert pt.mapped_pages == 1
        assert pt.translate(0x1000) == 0x3000

    def test_zero_size_range_rejected(self):
        pt = make_table()
        with pytest.raises(ValueError):
            pt.map_range(0, 0, 0)


class TestWalkPath:
    def test_walk_path_has_all_levels(self):
        pt = make_table()
        pt.map_page(0x1000, 0x2000)
        path = pt.walk_path(1)
        assert len(path) == LEVELS
        assert [level for level, _ in path] == list(range(LEVELS))

    def test_walk_path_addresses_in_table_region(self):
        pt = make_table()
        pt.map_page(0x1000, 0x2000)
        for _, pte_addr in pt.walk_path(1):
            assert TABLE_BASE <= pte_addr < TABLE_BASE + pt.table_bytes

    def test_walk_path_unmapped_faults(self):
        pt = make_table()
        with pytest.raises(PageFault):
            pt.walk_path(123)

    def test_shared_interior_nodes(self):
        pt = make_table()
        pt.map_page(0x1000, 0x2000)
        before = pt.table_bytes
        pt.map_page(0x2000, 0x3000)  # same leaf node
        assert pt.table_bytes == before

    def test_distant_mappings_allocate_new_nodes(self):
        pt = make_table()
        pt.map_page(0x1000, 0x2000)
        before = pt.table_bytes
        pt.map_page(1 << 40, 0x3000)  # far away -> new interior nodes
        assert pt.table_bytes > before


class TestPageTableProperties:
    @settings(max_examples=50)
    @given(
        vpage=st.integers(min_value=0, max_value=1 << 30),
        ppage=st.integers(min_value=0, max_value=1 << 30),
        offset=st.integers(min_value=0, max_value=PAGE_SIZE - 1),
    )
    def test_translate_round_trip(self, vpage, ppage, offset):
        pt = make_table()
        vaddr = vpage * PAGE_SIZE
        paddr = ppage * PAGE_SIZE
        pt.map_page(vaddr, paddr)
        assert pt.translate(vaddr + offset) == paddr + offset

    @settings(max_examples=25)
    @given(
        mappings=st.dictionaries(
            st.integers(min_value=0, max_value=10000),
            st.integers(min_value=0, max_value=10000),
            min_size=1,
            max_size=30,
        )
    )
    def test_many_mappings_independent(self, mappings):
        pt = make_table()
        for vpn, pfn in mappings.items():
            pt.map_page(vpn * PAGE_SIZE, pfn * PAGE_SIZE)
        for vpn, pfn in mappings.items():
            assert pt.translate(vpn * PAGE_SIZE) == pfn * PAGE_SIZE
        assert pt.mapped_pages == len(mappings)


def _radix_leaf(pt, vpn):
    """The pfn the radix tree holds for ``vpn`` (None if unmapped)."""
    node = pt.root
    for level in range(LEVELS - 1):
        node = node.entries.get(pt.level_index(vpn, level))
        if node is None:
            return None
    return node.entries.get(pt.level_index(vpn, LEVELS - 1))


#: Virtual pages from two regions, each small enough that ranges overlap
#: (remaps), and far enough apart to need separate interior nodes.
VPAGES = st.one_of(st.integers(min_value=0, max_value=64),
                   st.integers(min_value=1 << 26, max_value=(1 << 26) + 64))


class TestLeafDictDifferential:
    """The flat leaf dict always agrees with the radix tree."""

    @settings(max_examples=60, deadline=None)
    @given(
        ranges=st.lists(
            st.tuples(VPAGES,
                      st.integers(min_value=0, max_value=1 << 20),
                      st.integers(min_value=0, max_value=PAGE_SIZE - 1),
                      st.integers(min_value=1, max_value=12 * PAGE_SIZE)),
            min_size=1, max_size=12,
        ),
        probes=st.lists(VPAGES, max_size=20),
        offset=st.integers(min_value=0, max_value=PAGE_SIZE - 1),
    )
    def test_translate_equals_the_radix_walk(self, ranges, probes, offset):
        pt = make_table()
        expected = {}
        for vpage, ppage, start, size in ranges:
            vaddr = vpage * PAGE_SIZE + start
            delta = (ppage - vpage) * PAGE_SIZE
            pages = pt.map_range(vaddr, vaddr + delta, size)
            for page in range(vpage, vpage + pages):
                expected[page] = page + delta // PAGE_SIZE

        assert pt.mapped_pages == len(expected)
        for vpn in [*expected, *probes]:
            vaddr = vpn * PAGE_SIZE + offset
            leaf = _radix_leaf(pt, vpn)
            assert leaf == expected.get(vpn)
            if leaf is None:
                with pytest.raises(PageFault):
                    pt.translate(vaddr)
                with pytest.raises(PageFault):
                    pt.walk_path(vpn)
                continue
            assert pt.translate(vaddr) == leaf * PAGE_SIZE + offset
            assert len(pt.walk_path(vpn)) == LEVELS

        pt.reset()
        assert pt.mapped_pages == 0
        for vpn in expected:
            with pytest.raises(PageFault):
                pt.translate(vpn * PAGE_SIZE + offset)
            with pytest.raises(PageFault):
                pt.walk_path(vpn)
