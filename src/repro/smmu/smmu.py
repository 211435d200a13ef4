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
from typing import List, Tuple

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
    def translate(self, txn: Transaction, on_done: CompletionFn) -> None:
        """Translate ``txn`` in place, then fire ``on_done(txn)``.

        ``txn.addr`` is interpreted as virtual; on completion ``txn.vaddr``
        holds the original address and ``txn.addr``/``txn.paddr`` the
        physical one.
        """
        _Translation(self, txn, on_done).step()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _pages_with_lines(self, txn: Transaction) -> List[Tuple[int, int]]:
        """(vpn, lines-in-page) pairs covering the transaction, in order."""
        cfg = self.config
        page = cfg.page_size
        line = cfg.line_size
        first_line = txn.addr // line
        last_line = (txn.end_addr - 1) // line
        pages: List[Tuple[int, int]] = []
        current = first_line
        while current <= last_line:
            vpn = (current * line) // page
            page_last_line = ((vpn + 1) * page - 1) // line
            end = min(last_line, page_last_line)
            pages.append((vpn, end - current + 1))
            current = end + 1
        return pages

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
    """One in-flight :meth:`SMMU.translate` call.

    The walker and the event queue hold bound methods of this object
    and it holds no reference back to any of them, so it is freed by
    reference counting once its last callback has run
    (docs/PERFORMANCE.md, "Garbage collection").
    """

    __slots__ = (
        "smmu", "txn", "on_done", "pages", "index", "stall", "start_tick",
        "nlines",
    )

    def __init__(self, smmu: SMMU, txn: Transaction,
                 on_done: CompletionFn) -> None:
        self.smmu = smmu
        self.txn = txn
        self.on_done = on_done
        self.pages = smmu._pages_with_lines(txn)
        self.index = 0
        self.stall = 0
        self.start_tick = smmu.now
        self.nlines = 0

    def step(self) -> None:
        smmu = self.smmu
        cfg = smmu.config
        pages = self.pages
        utlb = smmu.utlb
        while self.index < len(pages):
            vpn, nlines = pages[self.index]
            self.index += 1
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
        smmu._stall_ticks.inc((smmu.now - self.start_tick) + stall)
        if stall:
            smmu.sim.schedule(stall, self.deliver)
        else:
            self.on_done(txn)

    def deliver(self) -> None:
        self.on_done(self.txn)
