"""Set-associative translation lookaside buffer.

Used twice in the SMMU: a small fully-associative uTLB close to the
accelerator stream and a large set-associative main TLB behind it.  Entries
map virtual page numbers to physical frame numbers with LRU replacement
within a set.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional


class TLB:
    """VPN -> PFN cache with per-set LRU.

    Parameters
    ----------
    entries:
        Total capacity.
    assoc:
        Ways per set; ``entries`` for fully associative (the default turns
        any ``assoc >= entries`` into fully associative).
    """

    def __init__(self, name: str, entries: int, assoc: Optional[int] = None) -> None:
        if entries <= 0:
            raise ValueError(f"TLB needs at least one entry, got {entries}")
        if assoc is None or assoc >= entries:
            assoc = entries
        if entries % assoc:
            raise ValueError(f"entries {entries} not divisible by assoc {assoc}")
        self.name = name
        self.entries = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        #: Set index -> that set's LRU-ordered {vpn: pfn}, created on the
        #: set's first insert (a main TLB has 512 sets and most runs
        #: touch a handful of them).
        self._sets: Dict[int, OrderedDict] = {}

        self.lookups = 0
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def lookup(self, vpn: int, count: int = 1) -> Optional[int]:
        """Look up ``vpn``; ``count`` accounts for batched per-line lookups.

        Returns the pfn on hit (with LRU update) or None.
        """
        self.lookups += count
        entry_set = self._sets.get(vpn % self.num_sets)
        pfn = None if entry_set is None else entry_set.get(vpn)
        if pfn is None:
            self.misses += count
            return None
        self.hits += count
        entry_set.move_to_end(vpn)
        return pfn

    def probe(self, vpn: int) -> bool:
        """Presence check without stats or LRU update."""
        entry_set = self._sets.get(vpn % self.num_sets)
        return entry_set is not None and vpn in entry_set

    def insert(self, vpn: int, pfn: int) -> Optional[int]:
        """Insert a mapping; returns an evicted vpn or None."""
        index = vpn % self.num_sets
        entry_set = self._sets.get(index)
        if entry_set is None:
            entry_set = self._sets[index] = OrderedDict()
        victim = None
        if vpn not in entry_set and len(entry_set) >= self.assoc:
            victim, _ = entry_set.popitem(last=False)
        entry_set[vpn] = pfn
        entry_set.move_to_end(vpn)
        return victim

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def invalidate_all(self) -> None:
        self._sets.clear()

    def reset(self) -> None:
        """Drop all entries and zero the access counters."""
        self.invalidate_all()
        self.lookups = 0
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets.values())

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0
