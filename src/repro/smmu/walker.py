"""Hardware page-table walker.

Walks the radix table level by level, fetching one 8-byte descriptor per
level through a real memory target -- so walk latency reflects the actual
state of the memory system.  A *walk cache* holds recently used interior
nodes (levels 0..2), letting most walks skip straight to the leaf fetch,
which is why mean PTW times sit far below four full memory round trips
until the footprint outgrows the caches (the Table IV cliff).

Walks are serialized through the walker (one walk in flight), as in real
SMMU implementations with a small number of walk slots.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.smmu.page_table import LEVELS, PTE_BYTES, PageTable
from repro.sim.eventq import Simulator
from repro.sim.ports import TargetPort
from repro.sim.simobject import SimObject
from repro.sim.transaction import Transaction

#: Callback type: (vpn, levels_fetched, walk_ticks).
WalkDoneFn = Callable[[int, int, int], None]


class PageTableWalker(SimObject):
    """Serialized table walker with an interior-node walk cache."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        page_table: PageTable,
        mem_target: TargetPort,
        walk_cache_entries: int = 64,
    ) -> None:
        super().__init__(sim, name)
        self.page_table = page_table
        self.mem_target = mem_target
        self.walk_cache_entries = walk_cache_entries
        #: node phys addr -> True, LRU over interior nodes.
        self._walk_cache: OrderedDict = OrderedDict()
        self._busy = False
        self._pending: Deque[Tuple[int, WalkDoneFn]] = deque()
        # The walk in flight (see _fetch_next).
        self._to_fetch: List[Tuple[int, int]] = []
        self._fetch_index = 0
        self._vpn = 0
        self._on_done: Optional[WalkDoneFn] = None
        self._start_tick = 0

        self._walks = self.stats.scalar("walks", "page table walks")
        self._fetches = self.stats.scalar("descriptor_fetches", "PTE memory reads")
        self._walk_cache_hits = self.stats.scalar(
            "walk_cache_hits", "interior levels skipped"
        )
        self._walk_ticks = self.stats.histogram("walk_ticks", "per-walk latency")

    def reset_state(self) -> None:
        super().reset_state()
        self._walk_cache.clear()
        self._busy = False
        self._pending.clear()
        self._to_fetch = []
        self._fetch_index = 0
        self._on_done = None

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def walk(self, vpn: int, on_done: WalkDoneFn) -> None:
        """Resolve ``vpn``; fire ``on_done(vpn, levels_fetched, ticks)``."""
        self._pending.append((vpn, on_done))
        if not self._busy:
            self._start_next()

    # ------------------------------------------------------------------
    # Walk machinery
    # ------------------------------------------------------------------
    def _start_next(self) -> None:
        if not self._pending:
            self._busy = False
            return
        self._busy = True
        vpn, on_done = self._pending.popleft()
        self._walks.inc()
        path = self.page_table.walk_path(vpn)

        # Skip interior levels whose node is in the walk cache.  The walk
        # resumes at the first uncached level; the leaf PTE fetch always
        # goes to memory (it is what the TLBs exist to cache).
        first_fetch = 0
        for level, pte_addr in path[:-1]:
            node_page = pte_addr - (pte_addr % 4096)
            if node_page in self._walk_cache:
                self._walk_cache.move_to_end(node_page)
                self._walk_cache_hits.inc()
                first_fetch = level + 1
            else:
                break

        self._to_fetch = path[first_fetch:]
        self._fetch_index = 0
        self._vpn = vpn
        self._on_done = on_done
        self._start_tick = self.now
        self._fetch_next()

    def _fetch_next(self, _txn: Optional[Transaction] = None) -> None:
        """Fetch the current walk's next descriptor, or finish the walk.

        The walk's state lives on the walker (one walk is in flight at a
        time) and the memory completion calls this bound method back, so
        no per-walk object can reach itself (docs/PERFORMANCE.md,
        "Garbage collection").
        """
        to_fetch = self._to_fetch
        index = self._fetch_index
        if index >= len(to_fetch):
            self._finish(len(to_fetch))
            return
        level, pte_addr = to_fetch[index]
        self._fetch_index = index + 1
        self._fetches.inc()
        if level < LEVELS - 1:
            self._cache_node(pte_addr - (pte_addr % 4096))
        txn = Transaction.read(pte_addr, PTE_BYTES, source=f"{self.name}.ptw")
        self.mem_target.send(txn, self._fetch_next)

    def _cache_node(self, node_page: int) -> None:
        if node_page in self._walk_cache:
            self._walk_cache.move_to_end(node_page)
            return
        if len(self._walk_cache) >= self.walk_cache_entries:
            self._walk_cache.popitem(last=False)
        self._walk_cache[node_page] = True

    def _finish(self, levels_fetched: int) -> None:
        on_done = self._on_done
        self._on_done = None
        ticks = self.now - self._start_tick
        self._walk_ticks.sample(ticks)
        on_done(self._vpn, levels_fetched, ticks)
        self._start_next()
