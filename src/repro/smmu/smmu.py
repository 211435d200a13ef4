"""The SMMU device: two-level TLB plus hardware walker.

Per-transaction behaviour mirrors an SMMU TBU/TCU pair:

* every cache line of the transaction performs a uTLB lookup (accounted
  exactly, arithmetically -- lines after the first within a page hit once
  the page is resident),
* a uTLB miss consults the main TLB (``tlb_latency`` stall),
* a main-TLB miss launches a serialized page-table walk whose descriptor
  fetches are real memory transactions,
* the transaction's physical address is the functional translation of its
  head; driver-pinned buffers are physically contiguous so multi-page
  transactions remain contiguous after translation.

Statistics map one-to-one onto the paper's Table IV: translation counts,
mean translation time (in accelerator cycles), PTW counts and mean times,
uTLB lookups/misses, and the cumulative translation stall used to compute
the overhead percentage.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.smmu.page_table import PageTable
from repro.smmu.tlb import TLB
from repro.smmu.walker import PageTableWalker
from repro.sim.eventq import Simulator
from repro.sim.ports import CompletionFn, TargetPort
from repro.sim.simobject import SimObject
from repro.sim.transaction import Transaction
from repro.sim.ticks import ns


@dataclass(frozen=True)
class SMMUConfig:
    """SMMU structure and timing parameters."""

    utlb_entries: int = 32
    tlb_entries: int = 4096
    tlb_assoc: int = 8
    page_size: int = 4096
    line_size: int = 64
    #: Stall for a main-TLB lookup on a uTLB miss.
    tlb_latency: int = ns(8)
    #: Accelerator clock period (for cycle-denominated Table IV stats).
    cycle_ticks: int = 1000
    walk_cache_entries: int = 64

    def __post_init__(self) -> None:
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ValueError(f"page size must be a power of two, got {self.page_size}")
        if self.line_size <= 0 or self.page_size % self.line_size:
            raise ValueError("line size must divide the page size")


class SMMU(SimObject):
    """Translation agent between the accelerator's DMA and host memory."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config: SMMUConfig,
        page_table: PageTable,
        mem_target: TargetPort,
    ) -> None:
        super().__init__(sim, name)
        self.config = config
        self.page_table = page_table
        self._line_size = config.line_size
        self._lines_per_page = config.page_size // config.line_size
        self.utlb = TLB(f"{name}.utlb", config.utlb_entries)
        self.tlb = TLB(f"{name}.tlb", config.tlb_entries, config.tlb_assoc)
        self.walker = PageTableWalker(
            sim, f"{name}.walker", page_table, mem_target, config.walk_cache_entries
        )

        self._translations = self.stats.scalar(
            "translations", "per-line translations performed"
        )
        # Nothing faults pages in (every buffer is pinned up front), so
        # this stays 0; it is kept because every SMMU record carries it.
        self.stats.scalar("page_faults", "translation faults taken")
        self._trans_cycles = self.stats.histogram(
            "trans_cycles", "per-line translation latency (cycles)"
        )
        self._ptw_cycles = self.stats.histogram(
            "ptw_cycles", "per-walk latency (cycles)"
        )
        self._stall_ticks = self.stats.scalar(
            "stall_ticks", "cumulative translation stall"
        )

    def reset_state(self) -> None:
        super().reset_state()
        self.utlb.reset()
        self.tlb.reset()

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    def translate(self, txn: Transaction, target: TargetPort,
                  on_complete: CompletionFn) -> None:
        """Translate ``txn`` in place, then ``target.send(txn, on_complete)``.

        ``txn.addr`` is interpreted as virtual; once translated
        ``txn.vaddr`` holds the original address and
        ``txn.addr``/``txn.paddr`` the physical one.  Taking the target
        spares the caller a forwarding closure per transaction.

        A transaction whose pages all hit the uTLB (nearly every DMA
        segment) is translated here, with one uTLB lookup per page for
        all of its lines and no stall.  At the first page that misses,
        a :class:`_Translation` takes over from that page.
        """
        utlb = self.utlb
        addr = txn.addr
        line_size = self._line_size
        lines_per_page = self._lines_per_page
        line = addr // line_size
        last = (addr + txn.size - 1) // line_size
        hits = 0
        while line <= last:
            vpn = line // lines_per_page
            end = (vpn + 1) * lines_per_page
            if end > last:
                end = last + 1
            nlines = end - line
            if utlb.lookup(vpn, nlines) is None:
                # Take the peek back: _Translation looks the page up
                # again, counting its miss as one line.
                utlb.lookups -= nlines
                utlb.misses -= nlines
                self._account_lines(hits, hit_cycles=1)
                _Translation(self, txn, target, on_complete, line, last).step()
                return
            hits += nlines
            line = end
        # Batched stat update (equivalent to _account_lines(hits, 1)):
        # every line hit the uTLB in one cycle.
        self._translations.value += hits
        trans_cycles = self._trans_cycles
        trans_cycles.count += hits
        trans_cycles.total += hits
        if trans_cycles.min > 1:
            trans_cycles.min = 1
        if trans_cycles.max < 1:
            trans_cycles.max = 1
        self.stats.dirty = True
        paddr = self.page_table.translate(addr)
        txn.vaddr = addr
        txn.paddr = paddr
        txn.addr = paddr
        txn.is_translated = True
        target.send(txn, on_complete)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _account_lines(self, nlines: int, hit_cycles: int) -> None:
        if nlines <= 0:
            return
        self._translations.inc(nlines)
        self._trans_cycles.sample(hit_cycles, repeat=nlines)

    # ------------------------------------------------------------------
    # Table IV report
    # ------------------------------------------------------------------
    def table4_metrics(self, total_runtime_ticks: int) -> dict:
        """The Table IV row for this run."""
        return {
            "memory_footprint_pages": self.page_table.mapped_pages,
            "translation_times": int(self._translations.value),
            "trans_mean_cycles": self._trans_cycles.mean,
            "ptw_times": self.walker.stats["walks"].value,
            "ptw_mean_cycles": self._ptw_cycles.mean,
            "utlb_lookup_times": self.utlb.lookups,
            "utlb_miss_times": self.utlb.misses,
            "trans_overhead_pct": (
                100.0 * self._stall_ticks.value / total_runtime_ticks
                if total_runtime_ticks
                else 0.0
            ),
        }


class _Translation:
    """One :meth:`SMMU.translate` call that missed the uTLB.

    It resumes at line ``line`` (the first line of a page) and goes page
    by page: a uTLB hit accounts the page's lines, a miss stalls
    ``tlb_latency`` and consults the main TLB, and a main-TLB miss
    starts a walk whose completion resumes the same object.

    The walker and the event queue hold bound methods of this object
    and it holds no reference back to any of them, so it is freed by
    reference counting once its last callback has run
    (docs/PERFORMANCE.md, "Garbage collection").
    """

    __slots__ = (
        "smmu", "txn", "target", "on_complete", "line", "last", "stall",
        "start_tick", "nlines",
    )

    def __init__(self, smmu: SMMU, txn: Transaction, target: TargetPort,
                 on_complete: CompletionFn, line: int, last: int) -> None:
        self.smmu = smmu
        self.txn = txn
        self.target = target
        self.on_complete = on_complete
        self.line = line
        self.last = last
        self.stall = 0
        self.start_tick = smmu.sim.now
        self.nlines = 0

    def step(self) -> None:
        smmu = self.smmu
        cfg = smmu.config
        utlb = smmu.utlb
        lines_per_page = smmu._lines_per_page
        last = self.last
        while self.line <= last:
            vpn = self.line // lines_per_page
            end = min(last + 1, (vpn + 1) * lines_per_page)
            nlines = end - self.line
            self.line = end
            pfn = utlb.lookup(vpn, count=1)
            if pfn is not None:
                if nlines > 1:
                    utlb.lookup(vpn, count=nlines - 1)
                smmu._account_lines(nlines, hit_cycles=1)
                continue
            # uTLB miss: consult the main TLB.
            pfn = smmu.tlb.lookup(vpn)
            if pfn is not None:
                self.stall += cfg.tlb_latency
                utlb.insert(vpn, pfn)
                if nlines > 1:
                    utlb.lookup(vpn, count=nlines - 1)
                miss_cycles = 1 + cfg.tlb_latency // cfg.cycle_ticks
                smmu._trans_cycles.sample(miss_cycles)
                smmu._translations.inc(1)
                smmu._account_lines(nlines - 1, hit_cycles=1)
                continue
            # Main-TLB miss: walk.
            self.stall += cfg.tlb_latency
            self.nlines = nlines
            smmu.walker.walk(vpn, self.walk_done)
            return
        self.finish()

    def walk_done(self, vpn: int, _levels: int, walk_ticks: int) -> None:
        smmu = self.smmu
        cfg = smmu.config
        nlines = self.nlines
        paddr = smmu.page_table.translate(vpn << 12)
        pfn = paddr >> 12
        smmu.tlb.insert(vpn, pfn)
        smmu.utlb.insert(vpn, pfn)
        if nlines > 1:
            smmu.utlb.lookup(vpn, count=nlines - 1)
        walk_cycles = walk_ticks // cfg.cycle_ticks
        smmu._ptw_cycles.sample(walk_cycles)
        miss_cycles = 1 + (cfg.tlb_latency // cfg.cycle_ticks)
        smmu._trans_cycles.sample(miss_cycles + walk_cycles)
        smmu._translations.inc(1)
        smmu._account_lines(nlines - 1, hit_cycles=1)
        self.step()

    def finish(self) -> None:
        smmu = self.smmu
        txn = self.txn
        paddr = smmu.page_table.translate(txn.addr)
        txn.vaddr = txn.addr
        txn.paddr = paddr
        txn.addr = paddr
        txn.is_translated = True
        stall = self.stall
        smmu._stall_ticks.inc((smmu.sim.now - self.start_tick) + stall)
        if stall:
            smmu.sim.schedule(stall, self.deliver)
        else:
            self.deliver()

    def deliver(self) -> None:
        self.target.send(self.txn, self.on_complete)
