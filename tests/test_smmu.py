"""Unit tests for the SMMU and the page-table walker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.eventq import Simulator
from repro.sim.ports import FixedLatencyTarget
from repro.sim.ticks import ns
from repro.sim.transaction import Transaction
from repro.smmu import SMMU, PageTable, PageTableWalker, SMMUConfig
from repro.smmu.page_table import PAGE_SIZE, PageFault

TABLE_BASE = 0x8000_0000
VA_BASE = 0x10_0000
PA_BASE = 0x40_0000


def make_smmu(mem_latency=ns(100), utlb=32, tlb=4096, map_bytes=1 << 20, **cfg_kw):
    sim = Simulator()
    mem = FixedLatencyTarget(sim, "mem", latency=mem_latency)
    table = PageTable(TABLE_BASE)
    table.map_range(VA_BASE, PA_BASE, map_bytes)
    config = SMMUConfig(utlb_entries=utlb, tlb_entries=tlb, **cfg_kw)
    smmu = SMMU(sim, "smmu", config, table, mem)
    return sim, smmu, table, mem


class HandBack:
    """A target that completes every transaction at once: what
    ``SMMU.translate`` sends to, so a test sees the translation alone."""

    @staticmethod
    def send(txn, on_complete):
        on_complete(txn)


def do_translate(sim, smmu, addr, size):
    done = []
    txn = Transaction.read(addr, size)
    smmu.translate(txn, HandBack, lambda t: done.append((sim.now, t)))
    sim.run()
    return done[0]


class TestWalker:
    def test_cold_walk_fetches_all_levels(self):
        sim, smmu, table, mem = make_smmu()
        results = []
        smmu.walker.walk(VA_BASE // PAGE_SIZE, lambda v, l, t: results.append((v, l, t)))
        sim.run()
        vpn, levels, ticks = results[0]
        assert levels == 4
        assert ticks >= 4 * ns(100)
        assert mem.stats["transactions"].value == 4

    def test_walk_cache_skips_interior_levels(self):
        sim, smmu, table, mem = make_smmu()
        results = []
        vpn0 = VA_BASE // PAGE_SIZE
        smmu.walker.walk(vpn0, lambda v, l, t: results.append(l))
        sim.run()
        # Second walk to the adjacent page shares all interior nodes.
        smmu.walker.walk(vpn0 + 1, lambda v, l, t: results.append(l))
        sim.run()
        assert results[0] == 4
        assert results[1] == 1  # only the leaf PTE fetch

    def test_walks_serialize(self):
        sim, smmu, table, mem = make_smmu(mem_latency=ns(100))
        done = []
        vpn0 = VA_BASE // PAGE_SIZE
        smmu.walker.walk(vpn0, lambda v, l, t: done.append(sim.now))
        smmu.walker.walk(vpn0 + 1, lambda v, l, t: done.append(sim.now))
        sim.run()
        assert done[1] > done[0]

    def test_unmapped_walk_faults(self):
        sim, smmu, table, mem = make_smmu()
        with pytest.raises(PageFault):
            smmu.walker.walk(0xDEAD, lambda v, l, t: None)
            sim.run()


class TestTranslation:
    def test_translates_address(self):
        sim, smmu, _, _ = make_smmu()
        _, txn = do_translate(sim, smmu, VA_BASE + 0x123, 64)
        assert txn.vaddr == VA_BASE + 0x123
        assert txn.addr == PA_BASE + 0x123
        assert txn.paddr == PA_BASE + 0x123
        assert txn.is_translated

    def test_per_line_accounting(self):
        sim, smmu, _, _ = make_smmu()
        do_translate(sim, smmu, VA_BASE, 4096)  # 64 lines, one page
        assert smmu.utlb.lookups == 64
        assert smmu.utlb.misses == 1
        assert smmu.stats["translations"].value == 64

    def test_multi_page_transaction(self):
        sim, smmu, _, _ = make_smmu()
        do_translate(sim, smmu, VA_BASE, 3 * 4096)
        assert smmu.utlb.misses == 3
        assert smmu.utlb.lookups == 3 * 64

    def test_warm_translation_is_fast(self):
        sim, smmu, _, _ = make_smmu()
        t_cold, _ = do_translate(sim, smmu, VA_BASE, 64)
        before = sim.now
        t_warm, _ = do_translate(sim, smmu, VA_BASE, 64)
        assert (t_warm - before) < t_cold

    def test_tlb_hit_cheaper_than_walk(self):
        # Tiny uTLB (1 entry) forces uTLB misses; large main TLB catches them.
        sim, smmu, _, _ = make_smmu(utlb=1)
        do_translate(sim, smmu, VA_BASE, 64)          # cold: walk
        do_translate(sim, smmu, VA_BASE + 4096, 64)   # evicts page 0 from uTLB
        start = sim.now
        do_translate(sim, smmu, VA_BASE, 64)          # uTLB miss, main TLB hit
        elapsed = sim.now - start
        assert elapsed == smmu.config.tlb_latency
        assert smmu.walker.stats["walks"].value == 2

    def test_walk_count_matches_footprint(self):
        """With a large main TLB each page walks exactly once."""
        sim, smmu, _, _ = make_smmu(utlb=2)
        npages = 16
        for i in range(npages):
            do_translate(sim, smmu, VA_BASE + i * 4096, 4096)
        # Revisit: uTLB (2 entries) misses, but the main TLB absorbs them.
        for i in range(npages):
            do_translate(sim, smmu, VA_BASE + i * 4096, 4096)
        assert smmu.walker.stats["walks"].value == npages

    def test_small_main_tlb_thrashes(self):
        """When the footprint exceeds the main TLB, walks recur (Table IV)."""
        sim, smmu, _, _ = make_smmu(utlb=1, tlb=4)
        npages = 16
        for _ in range(2):
            for i in range(npages):
                do_translate(sim, smmu, VA_BASE + i * 4096, 4096)
        assert smmu.walker.stats["walks"].value > npages

    def test_unmapped_translation_faults(self):
        sim, smmu, _, _ = make_smmu()
        with pytest.raises(PageFault):
            do_translate(sim, smmu, 0xDEAD_0000, 64)

    def test_stall_accumulates(self):
        sim, smmu, _, _ = make_smmu()
        do_translate(sim, smmu, VA_BASE, 4096)
        assert smmu.stats["stall_ticks"].value > 0


def reference_translate(smmu, txn, target, on_complete):
    """Translate ``txn`` page by page under the SMMU's per-line rules.

    The reference for :meth:`SMMU.translate`: it drives the SMMU's own
    TLBs, walker and stats, one page at a time.  Each page looks up its
    first line in the uTLB; on a hit the page's other lines hit too.  A
    uTLB miss stalls ``tlb_latency`` and consults the main TLB; a
    main-TLB miss walks, and the walk's completion resumes with the next
    page.  The head's functional translation becomes the physical
    address, and the summed TLB stall delays its send to ``target``.
    """
    cfg = smmu.config
    line, page = cfg.line_size, cfg.page_size
    pages = []
    current = txn.addr // line
    last = (txn.addr + txn.size - 1) // line
    while current <= last:
        vpn = current * line // page
        end = min(last, ((vpn + 1) * page - 1) // line)
        pages.append((vpn, end - current + 1))
        current = end + 1
    translations = smmu.stats["translations"]
    trans_cycles = smmu.stats["trans_cycles"]
    miss_cycles = 1 + cfg.tlb_latency // cfg.cycle_ticks
    start = smmu.sim.now
    state = {"stall": 0}

    def account(nlines):
        if nlines > 0:
            translations.inc(nlines)
            trans_cycles.sample(1, repeat=nlines)

    def filled(vpn, pfn, nlines, cycles):
        smmu.utlb.insert(vpn, pfn)
        if nlines > 1:
            smmu.utlb.lookup(vpn, count=nlines - 1)
        trans_cycles.sample(cycles)
        translations.inc(1)
        account(nlines - 1)

    def step(index):
        while index < len(pages):
            vpn, nlines = pages[index]
            index += 1
            if smmu.utlb.lookup(vpn) is not None:
                if nlines > 1:
                    smmu.utlb.lookup(vpn, count=nlines - 1)
                account(nlines)
                continue
            state["stall"] += cfg.tlb_latency
            pfn = smmu.tlb.lookup(vpn)
            if pfn is not None:
                filled(vpn, pfn, nlines, miss_cycles)
                continue

            def walked(vpn, _levels, ticks, index=index, nlines=nlines):
                pfn = smmu.page_table.translate(vpn << 12) >> 12
                smmu.tlb.insert(vpn, pfn)
                walk_cycles = ticks // cfg.cycle_ticks
                smmu.stats["ptw_cycles"].sample(walk_cycles)
                filled(vpn, pfn, nlines, miss_cycles + walk_cycles)
                step(index)

            smmu.walker.walk(vpn, walked)
            return
        paddr = smmu.page_table.translate(txn.addr)
        txn.vaddr = txn.addr
        txn.paddr = txn.addr = paddr
        txn.is_translated = True
        stall = state["stall"]
        smmu.stats["stall_ticks"].inc(smmu.sim.now - start + stall)
        if stall:
            smmu.sim.schedule(stall, lambda: target.send(txn, on_complete))
        else:
            target.send(txn, on_complete)

    step(0)


#: Pages the differential streams touch: more than the 32-entry uTLB
#: holds, and more than the small main TLBs below.
_STREAM_PAGES = 96

_SEGMENT = st.tuples(
    st.sampled_from([0, 0, 1, ns(5), ns(40), ns(300)]),   # gap before issue
    st.integers(0, _STREAM_PAGES - 4),                      # first page
    st.integers(0, PAGE_SIZE - 1),                          # offset in page
    st.one_of(st.integers(1, 256), st.integers(1, PAGE_SIZE),
              st.integers(PAGE_SIZE + 1, 3 * PAGE_SIZE)),   # bytes
)


class TestTranslateDifferential:
    """``SMMU.translate`` leaves every counter, stat, tick and address
    exactly as the per-page reference rules do."""

    @staticmethod
    def _run(translate, utlb, tlb, phases):
        sim, smmu, _, _ = make_smmu(
            utlb=utlb, tlb=tlb[0], tlb_assoc=tlb[1],
            map_bytes=_STREAM_PAGES * PAGE_SIZE)
        seen = []
        for phase in phases:
            sim.reset()
            for obj in sim.objects:
                obj.reset_state()
            done = []
            when = 0
            for index, (gap, page, offset, size) in enumerate(phase):
                when += gap
                txn = Transaction.read(VA_BASE + page * PAGE_SIZE + offset,
                                       size)

                def issue(txn=txn, index=index):
                    translate(smmu, txn, HandBack, lambda t: done.append(
                        (index, sim.now, t.vaddr, t.paddr, t.addr,
                         t.is_translated)))

                sim.schedule_at(when, issue)
            sim.run()
            trans = smmu.stats["trans_cycles"]
            ptw = smmu.stats["ptw_cycles"]
            seen.append({
                "done": done,
                "utlb": (smmu.utlb.lookups, smmu.utlb.hits, smmu.utlb.misses),
                "tlb": (smmu.tlb.lookups, smmu.tlb.hits, smmu.tlb.misses),
                "translations": smmu.stats["translations"].value,
                "trans_cycles": (trans.count, trans.total, trans.min,
                                 trans.max),
                "ptw_cycles": (ptw.count, ptw.total, ptw.min, ptw.max),
                "stall_ticks": smmu.stats["stall_ticks"].value,
                "walks": smmu.walker.stats["walks"].value,
                "now": sim.now,
            })
        return seen

    @settings(max_examples=100, deadline=None)
    @given(
        utlb=st.sampled_from([32, 32, 4]),
        tlb=st.sampled_from([(4096, 8), (64, 8), (16, 4)]),
        phases=st.lists(st.lists(_SEGMENT, min_size=1, max_size=60),
                        min_size=1, max_size=2),
    )
    def test_matches_per_page_reference(self, utlb, tlb, phases):
        actual = self._run(
            SMMU.translate,
            utlb, tlb, phases)
        expected = self._run(reference_translate, utlb, tlb, phases)
        assert actual == expected

    def test_streams_reach_every_path(self):
        """A long page sweep evicts the uTLB, misses the small main TLB
        and walks again, so the differential covers all three paths."""
        segments = [(ns(40), page % 40, 100, PAGE_SIZE)
                    for page in range(80)]
        segments += [(ns(40), page % (_STREAM_PAGES - 1), 100, PAGE_SIZE)
                     for page in range(0, 3 * _STREAM_PAGES, 5)]
        segments += [(0, 3, 0, 64)] * 4
        (result,) = self._run(
            SMMU.translate,
            32, (64, 8), [segments])
        assert result["utlb"][1] > 0 and result["utlb"][2] > 0
        assert result["tlb"][1] > 0 and result["tlb"][2] > 0
        assert result["walks"] > _STREAM_PAGES


class TestTable4Metrics:
    def test_metrics_shape(self):
        sim, smmu, table, _ = make_smmu(map_bytes=48 * 1024)
        for i in range(12):
            do_translate(sim, smmu, VA_BASE + i * 4096, 4096)
        metrics = smmu.table4_metrics(total_runtime_ticks=sim.now)
        assert metrics["memory_footprint_pages"] == 12
        assert metrics["translation_times"] == 12 * 64
        assert metrics["ptw_times"] == 12
        assert metrics["utlb_lookup_times"] == 12 * 64
        assert metrics["utlb_miss_times"] == 12
        assert 0 < metrics["trans_overhead_pct"] <= 100
        assert metrics["trans_mean_cycles"] > 1.0

    def test_overhead_zero_without_runtime(self):
        sim, smmu, _, _ = make_smmu()
        assert smmu.table4_metrics(0)["trans_overhead_pct"] == 0.0


class TestConfigValidation:
    def test_bad_page_size(self):
        with pytest.raises(ValueError):
            SMMUConfig(page_size=3000)

    def test_line_must_divide_page(self):
        with pytest.raises(ValueError):
            SMMUConfig(line_size=48)
