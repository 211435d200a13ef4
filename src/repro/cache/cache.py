"""Set-associative cache with MSHRs, writeback and invalidation.

The cache operates at transaction granularity: an incoming transaction's
lines are classified hit/miss against the tag store, missing lines are
coalesced into contiguous runs fetched downstream (one MSHR per run), and
the transaction completes when its slowest piece does.  Dirty victims
generate downstream writebacks which consume downstream bandwidth but do
not delay the triggering transaction (writeback buffer semantics).

Caches are timing-authoritative but not data-authoritative: functional
payloads are read from / committed to the shared backing store at issue
time, so timing modes (DC vs DM) never change computed results -- the same
policy gem5 users get from functional accesses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Deque, List, Optional

from repro.cache.tags import TagStore
from repro.memory.physmem import PhysicalMemory
from repro.sim.eventq import Simulator
from repro.sim.ports import CompletionFn, TargetPort
from repro.sim.transaction import Transaction
from repro.sim.ticks import ns


@dataclass(frozen=True)
class CacheParams:
    """Configuration for one cache level.

    ``hit_latency``/``miss_latency`` are in ticks and model the tag+data
    access and the fill path respectively; per-line data-array occupancy is
    ``line_access``.
    """

    size: int
    assoc: int
    line_size: int = 64
    hit_latency: int = ns(2)
    miss_latency: int = ns(2)
    line_access: int = 0
    mshrs: int = 16
    write_allocate: bool = True
    policy: str = "lru"

    def __post_init__(self) -> None:
        if self.size <= 0 or self.assoc <= 0:
            raise ValueError("cache size and associativity must be positive")
        if self.mshrs <= 0:
            raise ValueError("need at least one MSHR")


def _discard(_txn: Transaction) -> None:
    """Completion sink for writebacks: nothing waits on them."""


class Cache(TargetPort):
    """One cache level in front of a downstream target."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        params: CacheParams,
        downstream: TargetPort,
        functional_store: Optional[PhysicalMemory] = None,
    ) -> None:
        super().__init__(sim, name)
        self.params = params
        self.downstream = downstream
        self.functional_store = functional_store
        self.tags = TagStore(
            params.size, params.assoc, params.line_size, params.policy
        )
        self._mshrs_free = params.mshrs
        self._mshr_queue: Deque[_Fetch] = deque()
        self._wb_source = f"{name}.wb"

        self._hits = self.stats.scalar("hits", "demand line hits")
        self._misses = self.stats.scalar("misses", "demand line misses")
        self._accesses = self.stats.scalar("accesses", "demand transactions")
        self._evictions = self.stats.scalar("evictions", "lines evicted")
        self._writebacks = self.stats.scalar("writebacks", "dirty lines written back")
        self._invalidations = self.stats.scalar("invalidations", "lines invalidated")

    def reset_state(self) -> None:
        super().reset_state()
        self.tags.reset()
        self._mshrs_free = self.params.mshrs
        self._mshr_queue.clear()

    # ------------------------------------------------------------------
    # TargetPort interface
    # ------------------------------------------------------------------
    def send(self, txn: Transaction, on_complete: CompletionFn) -> None:
        params = self.params
        line_size = params.line_size
        is_write = txn.is_write

        first_line = txn.addr // line_size
        last_line = (txn.addr + txn.size - 1) // line_size
        hit_lines, runs = self.tags.access_range(first_line, last_line, is_write)
        # Batched stat update (equivalent to inc() per counter).
        self._accesses.value += 1
        self._hits.value += hit_lines
        self._misses.value += last_line - first_line + 1 - hit_lines
        self.stats.dirty = True

        if self.functional_store is not None:
            self._functional_access(txn)

        if not runs or (is_write and not params.write_allocate):
            if runs:
                # Write-no-allocate: forward the whole write downstream.
                self.downstream.send(
                    Transaction.write(txn.addr, txn.size, source=txn.source),
                    _discard,
                )
            hit_time = params.hit_latency + hit_lines * params.line_access
            self.sim.schedule(hit_time, partial(on_complete, txn))
            return

        # One MSHR per contiguous run of missing lines.
        miss = _Miss(self, txn, on_complete, len(runs))
        for run_start, run_len in runs:
            fetch = Transaction.read(
                run_start * line_size, run_len * line_size, source=self.name
            )
            fetch.for_ownership = is_write
            self._issue_miss(_Fetch(miss, fetch, run_start, run_len))

    # ------------------------------------------------------------------
    # Miss path
    # ------------------------------------------------------------------
    def _issue_miss(self, fetch: _Fetch) -> None:
        if self._mshrs_free == 0:
            self._mshr_queue.append(fetch)
            return
        self._mshrs_free -= 1
        self.downstream.send(fetch.txn, fetch.filled)

    def _fill_lines(self, run_start: int, run_len: int, dirty: bool) -> None:
        evictions, dirty_victims = self.tags.fill_range(run_start, run_len, dirty)
        if not evictions:
            return
        self._evictions.inc(evictions)
        if dirty_victims:
            self._write_back(dirty_victims, self._wb_source)

    def _write_back(self, lines: List[int], source: str) -> None:
        """Send one downstream line write per dirty line (timing only)."""
        self._writebacks.inc(len(lines))
        line_size = self.params.line_size
        send = self.downstream.send
        for line in lines:
            send(Transaction.write(line * line_size, line_size, source=source),
                 _discard)

    # ------------------------------------------------------------------
    # Functional data and coherence
    # ------------------------------------------------------------------
    def _functional_access(self, txn: Transaction) -> None:
        if txn.is_read:
            txn.data = self.functional_store.read(txn.addr, txn.size)
        elif txn.data is not None:
            self.functional_store.write(txn.addr, txn.data)

    def invalidate_range(self, addr: int, size: int) -> int:
        """Invalidate all lines overlapping ``[addr, addr+size)``.

        Dirty lines are written back downstream (timing only).  Returns the
        number of lines invalidated.  Used by the MemBus snoop path when
        another master writes, and by the driver for explicit flushes.
        """
        line_size = self.params.line_size
        dropped, dirty_lines = self.tags.invalidate_range(
            addr // line_size, (addr + size - 1) // line_size
        )
        if dropped:
            self._invalidations.inc(dropped)
            if dirty_lines:
                self._write_back(dirty_lines, f"{self.name}.snoopwb")
        return dropped

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Demand line hit rate."""
        total = self._hits.value + self._misses.value
        return self._hits.value / total if total else 0.0


class _Miss:
    """One demand transaction waiting on its missing runs.

    Like the DMA path's step objects, it holds no reference back to the
    fetches that call it, so it is freed by reference counting once the
    last run lands (docs/PERFORMANCE.md, "Garbage collection").
    """

    __slots__ = ("cache", "txn", "on_complete", "remaining")

    def __init__(self, cache: Cache, txn: Transaction,
                 on_complete: CompletionFn, runs: int) -> None:
        self.cache = cache
        self.txn = txn
        self.on_complete = on_complete
        self.remaining = runs

    def run_done(self) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            cache = self.cache
            cache.sim.schedule(cache.params.miss_latency,
                               partial(self.on_complete, self.txn))


class _Fetch:
    """One MSHR's downstream read of a run of missing lines."""

    __slots__ = ("miss", "txn", "start", "count")

    def __init__(self, miss: _Miss, txn: Transaction,
                 start: int, count: int) -> None:
        self.miss = miss
        self.txn = txn
        self.start = start
        self.count = count

    def filled(self, _fetch_txn: Transaction) -> None:
        miss = self.miss
        cache = miss.cache
        cache._fill_lines(self.start, self.count, miss.txn.is_write)
        cache._mshrs_free += 1
        if cache._mshr_queue:
            cache._issue_miss(cache._mshr_queue.popleft())
        miss.run_done()
