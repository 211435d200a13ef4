"""Bank-state DRAM controller.

Models, per channel:

* a shared data bus (one burst at a time, ``tBURST`` occupancy),
* per-bank row-buffer state -- a column access to the open row proceeds
  immediately (row hit), otherwise the bank precharges (``tRP``, honouring
  ``tRAS``) and activates (``tRCD``, honouring ``tRC``) first,
* periodic refresh: every ``tREFI`` the channel is dead for ``tRFC``.

Transactions are contiguous, so the controller walks them one *row segment*
at a time (a run of bursts hitting the same bank row): one activate decision
followed by pipelined bursts.  This keeps the Python cost per transaction at
a handful of iterations while charging exactly the same bus occupancy and
activate penalties a per-burst walk would.

Address mapping (channel-local): column bits, then bank, then row --
consecutive row-buffer-sized blocks land on consecutive banks, giving
streaming workloads bank-level parallelism, the standard mapping for
bandwidth-optimized controllers.  Channels interleave at burst granularity.
"""

from __future__ import annotations

from typing import List, Optional

from repro.memory.addr_range import AddrRange
from repro.memory.dram.timings import DRAMTimings
from repro.memory.physmem import PhysicalMemory
from repro.sim.eventq import Simulator
from repro.sim.ports import CompletionFn, TargetPort
from repro.sim.transaction import MemCmd, Transaction
from repro.sim.ticks import ns


class _Bank:
    """Row-buffer state for one bank."""

    __slots__ = ("open_row", "ready_at", "act_at")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.ready_at = 0
        self.act_at = -(10**15)


class _Channel:
    """Per-channel bus, bank array and refresh state."""

    __slots__ = ("banks", "bus_free_at", "next_refresh_at")

    def __init__(self, num_banks: int, t_refi: int) -> None:
        self.banks = [_Bank() for _ in range(num_banks)]
        self.bus_free_at = 0
        self.next_refresh_at = t_refi


class DRAMController(TargetPort):
    """Multi-channel DRAM with bank-state timing.

    Parameters
    ----------
    timings:
        Technology preset (see :mod:`repro.memory.dram.devices`).
    range_:
        Physical address range served.
    backing:
        Optional functional store.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        timings: DRAMTimings,
        range_: AddrRange,
        backing: Optional[PhysicalMemory] = None,
    ) -> None:
        super().__init__(sim, name)
        self.timings = timings
        self.range = range_
        self.backing = backing

        t = timings
        self._t_burst = ns(t.t_burst_ns)
        self._t_cl = ns(t.t_cl)
        self._t_rcd = ns(t.t_rcd)
        self._t_rp = ns(t.t_rp)
        self._t_ras = ns(t.t_ras)
        self._t_rc = ns(t.t_rc_ns)
        self._t_rfc = ns(t.t_rfc)
        self._t_refi = ns(t.t_refi)
        self._t_ctrl = ns(t.t_ctrl)
        self._burst_bytes = t.burst_bytes
        self._row_bytes = t.row_buffer_bytes
        self._num_banks = t.banks * t.ranks
        #: Channel interleave granularity: one burst, at least a cache line.
        self._interleave = max(64, t.burst_bytes)
        #: Hot-loop timing bundle: one attribute load + unpack in
        #: _access_channel instead of eight attribute loads.
        self._timing = (
            self._t_burst, self._t_cl, self._t_rcd, self._t_rp,
            self._t_ras, self._t_rc, self._t_rfc, self._t_refi,
        )

        self._channels = [
            _Channel(self._num_banks, self._t_refi) for _ in range(t.channels)
        ]
        #: Striping memo: (offset % (interleave * channels), size) ->
        #: relative channel pieces.  DMA traffic repeats a handful of
        #: aligned segment shapes, so the division-heavy split loop runs
        #: once per shape instead of once per transaction (the striping
        #: arithmetic is a pure function of the phase and size).
        self._split_memo: dict = {}
        self._split_period = self._interleave * t.channels
        self._single_channel = t.channels == 1

        self._reads = self.stats.scalar("reads", "read transactions")
        self._writes = self.stats.scalar("writes", "write transactions")
        self._bytes = self.stats.scalar("bytes", "bytes transferred")
        self._bytes_read = self.stats.scalar("bytes_read", "bytes read")
        self._bytes_written = self.stats.scalar("bytes_written", "bytes written")
        self._bursts = self.stats.scalar("bursts", "column commands issued")
        self._row_hits = self.stats.scalar("row_hits", "row-buffer hits")
        self._row_misses = self.stats.scalar("row_misses", "row-buffer misses")
        self._refreshes = self.stats.scalar("refresh_stalls", "bursts delayed by refresh")

    def reset_state(self) -> None:
        super().reset_state()
        self._channels = [
            _Channel(self._num_banks, self._t_refi)
            for _ in range(self.timings.channels)
        ]

    # ------------------------------------------------------------------
    # TargetPort interface
    # ------------------------------------------------------------------
    def send(self, txn: Transaction, on_complete: CompletionFn) -> None:
        addr = txn.addr
        addr_range = self.range
        if not addr_range.start <= addr < addr_range.end:
            raise ValueError(
                f"{self.name}: address {addr:#x} outside {self.range}"
            )
        # Batched stat update: bump the counters directly and mark the
        # group dirty once (equivalent to inc() per counter, fewer calls).
        size = txn.size
        if txn.cmd is MemCmd.READ:
            self._reads.value += 1
            self._bytes_read.value += size
        else:
            self._writes.value += 1
            self._bytes_written.value += size
        self._bytes.value += size
        self.stats.dirty = True

        offset = addr - addr_range.start
        sim = self.sim
        arrive = sim.now + self._t_ctrl
        finish = arrive
        if self._single_channel:
            finish = self._access_channel(0, offset, size, arrive)
        else:
            access = self._access_channel
            pieces, shift = self._split_rebased(offset, size)
            for ch_idx, local_addr, local_size in pieces:
                done = access(ch_idx, local_addr + shift, local_size, arrive)
                if done > finish:
                    finish = done

        if self.backing is not None:
            self._functional_access(txn)
        sim.schedule_at(finish, lambda: on_complete(txn))

    # ------------------------------------------------------------------
    # Channel striping
    # ------------------------------------------------------------------
    def _split_rebased(self, offset: int, size: int):
        """Stripe a contiguous access across channels.

        Returns ``(pieces, shift)``: ``pieces`` holds ``(channel,
        relative_local_addr, bytes)`` per channel, and a piece's
        channel-local address is ``relative_local_addr + shift``.  The
        channel-local address is the global offset compressed by the
        channel count, which preserves the stride/locality structure that
        the bank and row mapping depend on.  Byte counts are exact:
        partial head and tail blocks are charged only for the bytes
        actually touched.

        The split depends on the offset only through its phase within one
        interleave period (``interleave * channels`` bytes): shifting the
        offset by a whole period shifts every channel-local address by one
        interleave block and changes nothing else.  ``_split_pieces``
        memoizes the per-phase result; this returns it with the shift
        unapplied, so ``send`` adds the shift as it walks the pieces and
        builds no per-access list.
        """
        period = self._split_period
        base = offset // period
        return (
            self._split_pieces(offset - base * period, size),
            base * self._interleave,
        )

    def _split_pieces(self, phase: int, size: int) -> List[tuple[int, int, int]]:
        """Memoized striping for one (phase, size) shape (see above)."""
        key = (phase, size)
        pieces = self._split_memo.get(key)
        if pieces is not None:
            return pieces
        gran = self._interleave
        num_ch = len(self._channels)
        pieces = []
        first_block = phase // gran
        last_block = (phase + size - 1) // gran
        head_missing = phase - first_block * gran
        tail_missing = (last_block + 1) * gran - (phase + size)
        for ch in range(num_ch):
            first_for_ch = first_block + (ch - first_block) % num_ch
            if first_for_ch > last_block:
                continue
            nblocks = (last_block - first_for_ch) // num_ch + 1
            last_for_ch = first_for_ch + (nblocks - 1) * num_ch
            nbytes = nblocks * gran
            local_addr = (first_for_ch // num_ch) * gran
            if first_for_ch == first_block:
                nbytes -= head_missing
                local_addr += head_missing
            if last_for_ch == last_block:
                nbytes -= tail_missing
            pieces.append((ch, local_addr, nbytes))
        if len(self._split_memo) < 4096:
            # Real workloads cycle through a handful of aligned shapes;
            # the cap only guards pathological random-offset streams.
            self._split_memo[key] = pieces
        return pieces

    # ------------------------------------------------------------------
    # Bank-state walk
    # ------------------------------------------------------------------
    def _access_channel(self, ch_idx: int, addr: int, size: int, start: int) -> int:
        """Walk ``[addr, addr+size)`` on one channel; return finish tick.

        The timing constants and per-segment stat counts are bound to /
        accumulated in locals: this method runs once per channel piece of
        every memory transaction, which makes it the hottest pure-Python
        loop in DRAM-bound sweeps.
        """
        channel = self._channels[ch_idx]
        banks = channel.banks
        row_bytes = self._row_bytes
        burst_bytes = self._burst_bytes
        num_banks = self._num_banks
        t_burst, t_cl, t_rcd, t_rp, t_ras, t_rc, t_rfc, t_refi = self._timing
        bus_free_at = channel.bus_free_at
        next_refresh_at = channel.next_refresh_at
        row_hits = row_misses = bursts = refreshes = 0
        finish = start
        pos = addr
        end = addr + size
        while pos < end:
            block = pos // row_bytes
            seg_end = (block + 1) * row_bytes
            if seg_end > end:
                seg_end = end
            nbursts = -(-(seg_end - pos) // burst_bytes)
            bank = banks[block % num_banks]
            row = block // num_banks

            ready = bank.ready_at
            if ready < start:
                ready = start
            if bank.open_row != row:
                act_at = bank.act_at
                if bank.open_row is not None:
                    pre_at = act_at + t_ras
                    if pre_at < ready:
                        pre_at = ready
                    ready = pre_at + t_rp
                if act_at + t_rc > ready:
                    act_at += t_rc
                else:
                    act_at = ready
                bank.act_at = act_at
                bank.open_row = row
                ready = act_at + t_rcd
                row_misses += 1
                row_hits += nbursts - 1
            else:
                row_hits += nbursts

            data_at = ready if ready > bus_free_at else bus_free_at
            # Refresh blackout: catch up past any elapsed refresh windows.
            while data_at >= next_refresh_at:
                blocked = next_refresh_at + t_rfc
                if blocked > data_at:
                    refreshes += 1
                else:
                    blocked = data_at
                data_at = blocked
                next_refresh_at += t_refi

            done = data_at + nbursts * t_burst
            bus_free_at = done
            bank.ready_at = done
            bursts += nbursts
            if done + t_cl > finish:
                finish = done + t_cl
            pos = seg_end
        channel.bus_free_at = bus_free_at
        channel.next_refresh_at = next_refresh_at
        self._row_hits.value += row_hits
        self._row_misses.value += row_misses
        self._bursts.value += bursts
        self._refreshes.value += refreshes
        self.stats.dirty = True
        return finish

    def _functional_access(self, txn: Transaction) -> None:
        if txn.is_read:
            txn.data = self.backing.read(txn.addr, txn.size)
        elif txn.data is not None:
            self.backing.write(txn.addr, txn.data)

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    @property
    def row_hit_rate(self) -> float:
        """Fraction of bursts that hit an open row."""
        hits = self._row_hits.value
        total = hits + self._row_misses.value
        return hits / total if total else 0.0

    def energy_report(self, elapsed_ticks: int | None = None):
        """Integrated energy over the run (DRAMsim3-style power stats).

        ``elapsed_ticks`` defaults to the current simulation time.
        Activates are counted from row misses; refreshes from elapsed
        tREFI windows per channel.
        """
        from repro.memory.dram.energy import energy_params_for, integrate_energy

        elapsed = self.sim.now if elapsed_ticks is None else elapsed_ticks
        refreshes = (elapsed // self._t_refi) * len(self._channels)
        return integrate_energy(
            energy_params_for(self.timings.name),
            activates=self._row_misses.value,
            bytes_read=self._bytes_read.value,
            bytes_written=self._bytes_written.value,
            refreshes=refreshes,
            channels=len(self._channels),
            elapsed_ticks=elapsed,
        )
