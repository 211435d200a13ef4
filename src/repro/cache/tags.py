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
    per slot).  Both are allocated in one C-level call, so building even
    a multi-megabyte cache costs no Python object per line.

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
        # line -> (set_index, way_index) for O(1) lookup.
        self._where: Dict[int, Tuple[int, int]] = {}
        self._occupancy: List[int] = [0] * self.num_sets
        self._all_ways = list(range(assoc))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def set_index_of(self, line: int) -> int:
        return line % self.num_sets

    def probe(self, line: int) -> bool:
        """True if ``line`` is resident; does not update recency."""
        return line in self._where

    def access(self, line: int) -> bool:
        """Lookup with recency update; True on hit."""
        loc = self._where.get(line)
        if loc is None:
            return False
        self.policy.touch(*loc)
        return True

    def is_dirty(self, line: int) -> bool:
        loc = self._where.get(line)
        if loc is None:
            return False
        return bool(self._dirty[loc[0] * self.assoc + loc[1]])

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def fill(self, line: int, dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Insert ``line``; return evicted ``(line, was_dirty)`` if any.

        Filling a line that is already resident just updates its dirty bit
        (logical OR) and recency.  A new line takes the lowest free way of
        its set, or the policy's victim when the set is full.
        """
        assoc = self.assoc
        loc = self._where.get(line)
        if loc is not None:
            if dirty:
                self._dirty[loc[0] * assoc + loc[1]] = 1
            self.policy.touch(*loc)
            return None

        set_index = self.set_index_of(line)
        base = set_index * assoc
        victim_info: Optional[Tuple[int, bool]] = None

        if self._occupancy[set_index] < assoc:
            slot = self._lines.index(None, base, base + assoc)
            self._occupancy[set_index] += 1
        else:
            slot = base + self.policy.victim(set_index, self._all_ways)
            victim_line = self._lines[slot]
            victim_info = (victim_line, bool(self._dirty[slot]))
            del self._where[victim_line]

        way = slot - base
        self._lines[slot] = line
        self._dirty[slot] = 1 if dirty else 0
        self._where[line] = (set_index, way)
        self.policy.insert(set_index, way)
        return victim_info

    def mark_dirty(self, line: int) -> None:
        """Set the dirty bit of a resident line."""
        loc = self._where.get(line)
        if loc is None:
            raise KeyError(f"line {line:#x} not resident")
        self._dirty[loc[0] * self.assoc + loc[1]] = 1

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if resident; returns True if it was dirty."""
        loc = self._where.pop(line, None)
        if loc is None:
            return False
        slot = loc[0] * self.assoc + loc[1]
        dirty = bool(self._dirty[slot])
        self._lines[slot] = None
        self._dirty[slot] = 0
        self._occupancy[loc[0]] -= 1
        return dirty

    def reset(self) -> None:
        """Empty every set and rewind the replacement policy.

        Walks only the *resident* lines (``_where`` knows exactly which
        slots are occupied) instead of every slot, so resetting a
        barely-touched tag store between memoized-sweep points is
        O(resident lines) rather than O(capacity).
        """
        if self._where:
            lines, dirty, assoc = self._lines, self._dirty, self.assoc
            for set_index, way_index in self._where.values():
                slot = set_index * assoc + way_index
                lines[slot] = None
                dirty[slot] = 0
            self._where.clear()
            self._occupancy = [0] * self.num_sets
        self.policy.reset()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def resident_lines(self) -> int:
        return len(self._where)

    def __contains__(self, line: int) -> bool:
        return line in self._where
