"""Radix page table (ARM LPAE-style: 4 levels, 9 bits per level, 4 KiB).

The table is held both *logically* (a flat ``vpn -> pfn`` dict, so a
functional translation is one lookup) and *spatially* (the radix tree):
every table node is assigned a physical page so the walker can issue real
descriptor fetches with meaningful addresses.  :meth:`PageTable.map_page`
writes both and :meth:`PageTable.reset` clears both, so they always hold
the same mappings.  Mappings are installed by the driver model when it
pins DMA buffers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: 4 KiB pages -> 12 offset bits; 9 translation bits per level; 4 levels.
PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
BITS_PER_LEVEL = 9
LEVELS = 4
ENTRIES_PER_NODE = 1 << BITS_PER_LEVEL
#: Descriptor size in bytes (one 64-bit PTE).
PTE_BYTES = 8


class PageFault(Exception):
    """Raised when translating an unmapped virtual address."""

    def __init__(self, vaddr: int) -> None:
        super().__init__(f"page fault at vaddr {vaddr:#x}")
        self.vaddr = vaddr


class _Node:
    """One table node: children (interior) or pfns (leaf), plus its page."""

    __slots__ = ("phys_addr", "entries")

    def __init__(self, phys_addr: int) -> None:
        self.phys_addr = phys_addr
        self.entries: Dict[int, object] = {}


class PageTable:
    """A 4-level radix table rooted at a physical page.

    Parameters
    ----------
    table_base:
        Physical address where table nodes are allocated (grows upward,
        one 4 KiB page per node).
    """

    def __init__(self, table_base: int) -> None:
        self.table_base = table_base
        self._alloc_cursor = table_base
        self.root = self._new_node()
        #: Leaf of every mapping, ``vpn -> pfn`` (the radix tree's leaves).
        self._leaves: Dict[int, int] = {}

    def reset(self) -> None:
        """Drop every mapping and node, back to a freshly built table."""
        self._alloc_cursor = self.table_base
        self.root = self._new_node()
        self._leaves.clear()

    @property
    def mapped_pages(self) -> int:
        """Distinct pages mapped (a remap does not count twice)."""
        return len(self._leaves)

    def _new_node(self) -> _Node:
        node = _Node(self._alloc_cursor)
        self._alloc_cursor += PAGE_SIZE
        return node

    # ------------------------------------------------------------------
    # Index math
    # ------------------------------------------------------------------
    @staticmethod
    def vpn_of(vaddr: int) -> int:
        return vaddr >> PAGE_SHIFT

    @staticmethod
    def level_index(vpn: int, level: int) -> int:
        """Index into the node at ``level`` (0 = root) for this vpn."""
        shift = BITS_PER_LEVEL * (LEVELS - 1 - level)
        return (vpn >> shift) & (ENTRIES_PER_NODE - 1)

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def map_page(self, vaddr: int, paddr: int) -> None:
        """Install one 4 KiB mapping (addresses must be page-aligned)."""
        if vaddr % PAGE_SIZE or paddr % PAGE_SIZE:
            raise ValueError(
                f"mapping must be page aligned: va={vaddr:#x} pa={paddr:#x}"
            )
        vpn = self.vpn_of(vaddr)
        node = self.root
        for level in range(LEVELS - 1):
            index = self.level_index(vpn, level)
            child = node.entries.get(index)
            if child is None:
                child = self._new_node()
                node.entries[index] = child
            node = child
        pfn = paddr >> PAGE_SHIFT
        node.entries[self.level_index(vpn, LEVELS - 1)] = pfn
        self._leaves[vpn] = pfn

    def map_range(self, vaddr: int, paddr: int, size: int) -> int:
        """Map a contiguous range; returns the number of pages mapped.

        The physical range is contiguous (a pinned DMA allocation), so a
        multi-page transaction translated at its head stays contiguous.
        """
        if size <= 0:
            raise ValueError(f"mapping size must be positive, got {size}")
        first = vaddr // PAGE_SIZE * PAGE_SIZE
        last = (vaddr + size - 1) // PAGE_SIZE * PAGE_SIZE
        pages = 0
        offset = paddr - vaddr
        va = first
        while va <= last:
            self.map_page(va, va + offset)
            va += PAGE_SIZE
            pages += 1
        return pages

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    def translate(self, vaddr: int) -> int:
        """Return the physical address for ``vaddr`` (functional).

        Reads the flat leaf dict; :meth:`walk_path` walks the radix tree
        for the descriptor addresses a timed walk fetches.
        """
        pfn = self._leaves.get(vaddr >> PAGE_SHIFT)
        if pfn is None:
            raise PageFault(vaddr)
        return (pfn << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1))

    def walk_path(self, vpn: int) -> List[Tuple[int, int]]:
        """Descriptor fetch addresses for a walk: [(level, pte_addr), ...].

        Raises :class:`PageFault` if the vpn is unmapped.
        """
        path: List[Tuple[int, int]] = []
        node: Optional[_Node] = self.root
        for level in range(LEVELS):
            index = self.level_index(vpn, level)
            path.append((level, node.phys_addr + index * PTE_BYTES))
            entry = node.entries.get(index)
            if entry is None:
                raise PageFault(vpn << PAGE_SHIFT)
            if level < LEVELS - 1:
                node = entry
        return path

    def is_mapped(self, vaddr: int) -> bool:
        return vaddr >> PAGE_SHIFT in self._leaves

    @property
    def table_bytes(self) -> int:
        """Physical memory consumed by table nodes."""
        return self._alloc_cursor - self.root.phys_addr
