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

from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple
from collections import deque

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
        self._mshr_queue: Deque[tuple] = deque()

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
        self._accesses.inc()

        first_line = txn.addr // line_size
        last_line = (txn.end_addr - 1) // line_size
        missing: List[int] = []
        hit_lines = 0
        for line in range(first_line, last_line + 1):
            if self.tags.access(line):
                hit_lines += 1
                if txn.is_write:
                    self.tags.mark_dirty(line)
            else:
                missing.append(line)
        self._hits.inc(hit_lines)
        self._misses.inc(len(missing))

        if self.functional_store is not None:
            self._functional_access(txn)

        hit_time = params.hit_latency + hit_lines * params.line_access

        if not missing or (txn.is_write and not params.write_allocate):
            if missing and txn.is_write:
                # Write-no-allocate: forward the whole write downstream.
                self.downstream.send(
                    Transaction.write(txn.addr, txn.size, source=txn.source),
                    lambda _t: None,
                )
            self.schedule(hit_time, lambda: on_complete(txn))
            return

        # Coalesce missing lines into contiguous runs.
        runs = self._coalesce(missing)
        state = {"remaining": len(runs)}
        fill_dirty = txn.is_write

        def fetch_done(_fetch_txn: Transaction) -> None:
            state["remaining"] -= 1
            if state["remaining"] == 0:
                self.schedule(self.params.miss_latency, lambda: on_complete(txn))

        for run_start, run_len in runs:
            fetch = Transaction.read(
                run_start * line_size, run_len * line_size, source=self.name
            )
            fetch.for_ownership = fill_dirty
            self._issue_miss(fetch, run_start, run_len, fill_dirty, fetch_done)

    # ------------------------------------------------------------------
    # Miss path
    # ------------------------------------------------------------------
    def _issue_miss(
        self,
        fetch: Transaction,
        run_start: int,
        run_len: int,
        fill_dirty: bool,
        fetch_done: CompletionFn,
    ) -> None:
        if self._mshrs_free == 0:
            self._mshr_queue.append((fetch, run_start, run_len, fill_dirty, fetch_done))
            return
        self._mshrs_free -= 1

        def on_fill(fetch_txn: Transaction) -> None:
            self._fill_lines(run_start, run_len, fill_dirty)
            self._mshrs_free += 1
            if self._mshr_queue:
                queued = self._mshr_queue.popleft()
                self._issue_miss(*queued)
            fetch_done(fetch_txn)

        self.downstream.send(fetch, on_fill)

    def _fill_lines(self, run_start: int, run_len: int, dirty: bool) -> None:
        line_size = self.params.line_size
        writeback_runs: List[int] = []
        for line in range(run_start, run_start + run_len):
            victim = self.tags.fill(line, dirty)
            if victim is not None:
                self._evictions.inc()
                victim_line, was_dirty = victim
                if was_dirty:
                    writeback_runs.append(victim_line)
        for victim_line in writeback_runs:
            self._writebacks.inc()
            wb = Transaction.write(
                victim_line * line_size, line_size, source=f"{self.name}.wb"
            )
            self.downstream.send(wb, lambda _t: None)

    @staticmethod
    def _coalesce(lines: List[int]) -> List[Tuple[int, int]]:
        """Merge sorted line numbers into (start, length) runs."""
        runs: List[Tuple[int, int]] = []
        start = prev = lines[0]
        for line in lines[1:]:
            if line == prev + 1:
                prev = line
                continue
            runs.append((start, prev - start + 1))
            start = prev = line
        runs.append((start, prev - start + 1))
        return runs

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
        if not self.tags.resident_lines:
            return 0  # nothing cached: skip probing every snooped line
        line_size = self.params.line_size
        first = addr // line_size
        last = (addr + size - 1) // line_size
        dropped = 0
        for line in range(first, last + 1):
            if line in self.tags:
                was_dirty = self.tags.invalidate(line)
                dropped += 1
                self._invalidations.inc()
                if was_dirty:
                    self._writebacks.inc()
                    wb = Transaction.write(
                        line * line_size, line_size, source=f"{self.name}.snoopwb"
                    )
                    self.downstream.send(wb, lambda _t: None)
        return dropped

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Demand line hit rate."""
        total = self._hits.value + self._misses.value
        return self._hits.value / total if total else 0.0

    @property
    def mshrs_in_use(self) -> int:
        return self.params.mshrs - self._mshrs_free
