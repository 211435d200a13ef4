"""Set-associative tag store.

Tracks which cache lines are resident, their dirty bits, and drives the
replacement policy.  Addresses are *line* addresses (byte address //
line_size); the :class:`~repro.cache.cache.Cache` handles byte-level
slicing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cache.replacement import ReplacementPolicy, make_policy


class TagStore:
    """Tags for a set-associative cache.

    Way ``w`` of set ``s`` is slot ``s * assoc + w`` of two flat arrays:
    ``_lines`` (the resident line, or ``None``) and ``_dirty`` (one byte
    per slot, meaningful only while the slot holds a line: every insert
    overwrites it).  Both are allocated in one C-level call, so building
    even a multi-megabyte cache costs no Python object per line.
    ``_where`` maps each resident line to its slot.

    Parameters
    ----------
    size:
        Capacity in bytes.
    assoc:
        Associativity (ways per set).
    line_size:
        Bytes per line (power of two).
    policy:
        Replacement policy name ('lru', 'fifo', 'random').
    """

    def __init__(
        self, size: int, assoc: int, line_size: int = 64, policy: str = "lru"
    ) -> None:
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        if assoc <= 0:
            raise ValueError(f"assoc must be positive, got {assoc}")
        if line_size <= 0 or line_size & (line_size - 1):
            raise ValueError(f"line size must be a power of two, got {line_size}")
        if size % (assoc * line_size):
            raise ValueError(
                f"size {size} not divisible by assoc*line_size "
                f"({assoc}*{line_size})"
            )
        self.size = size
        self.assoc = assoc
        self.line_size = line_size
        self.num_sets = size // (assoc * line_size)
        self.policy: ReplacementPolicy = make_policy(policy, self.num_sets, assoc)
        slots = self.num_sets * assoc
        self._lines: List[Optional[int]] = [None] * slots
        self._dirty = bytearray(slots)
        self._where: Dict[int, int] = {}
        self._occupancy: List[int] = [0] * self.num_sets
        self._all_ways = list(range(assoc))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def probe(self, line: int) -> bool:
        """True if ``line`` is resident; does not update recency."""
        return line in self._where

    def is_dirty(self, line: int) -> bool:
        slot = self._where.get(line)
        return slot is not None and bool(self._dirty[slot])

    # ------------------------------------------------------------------
    # Range operations
    #
    # Each walks lines ``first..last`` (inclusive) in ascending order with
    # the dict lookup, the stamp list and the stamp clock bound to locals
    # once per range; the result is exactly that of visiting the lines
    # one at a time.
    # ------------------------------------------------------------------
    def access_range(
        self, first: int, last: int, write: bool
    ) -> Tuple[int, List[Tuple[int, int]]]:
        """Look up lines ``first..last``; return ``(hits, missing runs)``.

        Hits update recency (LRU) and, for a write, set the dirty bit.
        Missing lines come back coalesced into ascending ``(start,
        count)`` runs of contiguous lines.
        """
        where_get = self._where.get
        dirty = self._dirty
        policy = self.policy
        stamps = policy.stamps if policy.stamp_on_touch else None
        clock = policy.clock
        hits = 0
        runs: List[Tuple[int, int]] = []
        run_start = -1
        for line in range(first, last + 1):
            slot = where_get(line)
            if slot is None:
                if run_start < 0:
                    run_start = line
                continue
            hits += 1
            if run_start >= 0:
                runs.append((run_start, line - run_start))
                run_start = -1
            if stamps is not None:
                clock += 1
                stamps[slot] = clock
            if write:
                dirty[slot] = 1
        if run_start >= 0:
            runs.append((run_start, last + 1 - run_start))
        policy.clock = clock
        return hits, runs

    def fill_range(
        self, start: int, count: int, dirty: bool
    ) -> Tuple[int, List[int]]:
        """Insert ``count`` lines from ``start``; return ``(evictions,
        dirty victim lines)``.

        Filling a line that is already resident just ORs in its dirty bit
        and updates recency.  A new line takes the lowest free way of its
        set, or the policy's victim when the set is full.
        """
        where = self._where
        where_get = where.get
        lines = self._lines
        dirty_bits = self._dirty
        occupancy = self._occupancy
        assoc = self.assoc
        num_sets = self.num_sets
        policy = self.policy
        stamps = policy.stamps
        touch_stamps = stamps if policy.stamp_on_touch else None
        clock = policy.clock
        choose = policy.choose
        all_ways = self._all_ways
        bit = 1 if dirty else 0
        evictions = 0
        victims: List[int] = []
        for line in range(start, start + count):
            slot = where_get(line)
            if slot is not None:
                if dirty:
                    dirty_bits[slot] = 1
                if touch_stamps is not None:
                    clock += 1
                    touch_stamps[slot] = clock
                continue
            set_index = line % num_sets
            base = set_index * assoc
            if occupancy[set_index] < assoc:
                slot = lines.index(None, base, base + assoc)
                occupancy[set_index] += 1
            else:
                if stamps is None:
                    slot = base + choose(all_ways)
                else:
                    ways = stamps[base:base + assoc]
                    slot = base + ways.index(min(ways))
                victim = lines[slot]
                del where[victim]
                evictions += 1
                if dirty_bits[slot]:
                    victims.append(victim)
            lines[slot] = line
            dirty_bits[slot] = bit
            where[line] = slot
            if stamps is not None:
                clock += 1
                stamps[slot] = clock
        policy.clock = clock
        return evictions, victims

    def invalidate_range(self, first: int, last: int) -> Tuple[int, List[int]]:
        """Drop every resident line of ``first..last``; return
        ``(dropped, dirty dropped lines)``.

        A range with no resident line returns at once, after one
        C-level membership scan.
        """
        where = self._where
        span = range(first, last + 1)
        if where.keys().isdisjoint(span):
            return 0, []
        where_pop = where.pop
        lines = self._lines
        dirty = self._dirty
        occupancy = self._occupancy
        assoc = self.assoc
        dropped = 0
        victims: List[int] = []
        for line in span:
            slot = where_pop(line, None)
            if slot is None:
                continue
            dropped += 1
            if dirty[slot]:
                victims.append(line)
            lines[slot] = None
            occupancy[slot // assoc] -= 1
        return dropped, victims

    def reset(self) -> None:
        """Empty every set and rewind the replacement policy.

        Walks only the *resident* lines (``_where`` knows exactly which
        slots are occupied) instead of every slot, so resetting a
        barely-touched tag store between memoized-sweep points is
        O(resident lines) rather than O(capacity).
        """
        if self._where:
            lines = self._lines
            for slot in self._where.values():
                lines[slot] = None
            self._where.clear()
            self._occupancy = [0] * self.num_sets
        self.policy.reset()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def resident_lines(self) -> int:
        return len(self._where)
