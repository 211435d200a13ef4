"""Multi-channel, tag-limited DMA engine.

The engine owns ``num_channels`` independent descriptor queues.  Each
descriptor is cut into request-sized transactions (``segment_bytes``, or
the descriptor's packet size if smaller requests were programmed); segments
from busy channels are issued round-robin while free tags remain -- the
tag pool models the PCIe non-posted credit limit and is what bounds the
bandwidth-delay product of the link.

The engine is transport-agnostic: it sends transactions to whatever
:class:`~repro.sim.ports.TargetPort` it was given (the PCIe fabric adapter
in host-memory modes, the device memory controller in DevMem mode).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from repro.dma.descriptor import DMADescriptor
from repro.sim.eventq import Simulator
from repro.sim.ports import TargetPort
from repro.sim.simobject import SimObject
from repro.sim.transaction import MemCmd, Transaction

#: Called with the finished descriptor.
DescriptorDoneFn = Callable[[DMADescriptor], None]


class _Work:
    """One submitted descriptor's issue/retire state.

    ``channel`` is the owning channel's index, so the fully-issued retire
    path pops the right queue directly instead of scanning every channel
    for the entry.  ``size`` and ``is_read`` cache descriptor fields the
    per-segment loop would otherwise re-derive through attribute (and
    property) lookups.  ``template`` is a per-descriptor transaction
    carrying the fields every segment shares (command, source, stream,
    packet size); segments are stamped out of it with
    :meth:`~repro.sim.transaction.Transaction.clone_for_segment`, which
    skips constructor validation on the engine's hottest path.
    """

    __slots__ = (
        "descriptor", "channel", "size", "is_read", "template",
        "next_offset", "outstanding", "on_complete", "failed",
        "submit_tick", "retries",
    )

    def __init__(
        self,
        descriptor: DMADescriptor,
        channel: int,
        on_complete: Optional[DescriptorDoneFn],
        source: str,
    ) -> None:
        self.descriptor = descriptor
        self.channel = channel
        self.size = descriptor.size
        self.is_read = descriptor.is_read
        template = Transaction(
            MemCmd.READ if self.is_read else MemCmd.WRITE,
            descriptor.addr, descriptor.size, source=source,
        )
        template.stream = descriptor.stream
        template.packet_size = descriptor.packet_size
        self.template = template
        self.next_offset = 0
        self.outstanding = 0
        self.on_complete = on_complete
        self.failed = False
        self.submit_tick = 0
        self.retries = 0


class _SegmentState:
    """One guarded segment in flight (faulted runs only).

    ``settled`` latches on the first outcome (completion, or abort after
    the retry budget/limit) so a late original completion racing a retry
    -- or arriving after an abort -- can never double-retire the tag.

    The target and the event queue call this object's methods back.  It
    holds its pending timeout event only until that event fires or is
    cancelled, so a settled segment is freed by reference counting
    (docs/PERFORMANCE.md, "Garbage collection").
    """

    __slots__ = (
        "engine", "work", "addr", "size", "attempts", "settled", "retrying",
        "timeout_event", "issued_at",
    )

    def __init__(self, engine: "DMAEngine", work: _Work,
                 addr: int, size: int, issued_at: int) -> None:
        self.engine = engine
        self.work = work
        self.addr = addr
        self.size = size
        self.attempts = 0
        self.settled = False
        self.retrying = False
        self.timeout_event = None
        self.issued_at = issued_at

    def send(self, txn: Transaction) -> None:
        """Arm this attempt's completion timeout and issue ``txn``."""
        engine = self.engine
        policy = engine._fault_policy
        timeout = policy.completion_timeout * (policy.backoff ** self.attempts)
        self.timeout_event = engine.sim.schedule(timeout, self.timeout_fired)
        engine.target.send(txn, self.arrival)

    def arrival(self, done_txn: Transaction) -> None:
        engine = self.engine
        now = engine.sim.now
        if self.settled:
            # Late completion of a superseded attempt (the original
            # and a retry can both arrive) or of an aborted segment.
            return
        endpoint = engine._endpoint_fault
        if endpoint is not None and endpoint.dropping(now):
            # The endpoint is stalled/crashed: the completion is
            # lost on the floor; the armed timeout takes it from here.
            return
        self.settled = True
        if self.timeout_event is not None:
            engine.sim.cancel(self.timeout_event)
            self.timeout_event = None
        if self.retrying:
            engine._channel_retries[self.work.channel] -= 1
        done_txn.complete_tick = now
        engine._latency.sample(now - self.issued_at)
        if engine.trace is not None:
            engine.trace.segment(
                done_txn.stream, self.issued_at, now, self.size
            )
        engine._retire_guarded(self.work, now)

    def timeout_fired(self) -> None:
        self.timeout_event = None
        if self.settled:
            return
        engine = self.engine
        policy = engine._fault_policy
        channel = self.work.channel
        engine._timeouts.inc()
        can_retry = self.attempts < policy.max_retries
        if can_retry and not self.retrying:
            if engine._channel_retries[channel] < policy.retry_budget:
                self.retrying = True
                engine._channel_retries[channel] += 1
            else:
                can_retry = False
        if not can_retry:
            self.abort()
            return
        self.attempts += 1
        engine._retries.inc()
        work = self.work
        if engine.trace is not None:
            work.retries += 1
            engine.trace.retry(
                work.template.stream, engine.sim.now, self.attempts
            )
        self.send(work.template.clone_for_segment(
            self.addr, self.size, engine.sim.now
        ))

    def abort(self) -> None:
        engine = self.engine
        work = self.work
        now = engine.sim.now
        self.settled = True
        if self.retrying:
            engine._channel_retries[work.channel] -= 1
        descriptor = work.descriptor
        if not work.failed:
            work.failed = True
            engine._aborted.inc()
            endpoint = engine._endpoint_fault
            if endpoint is not None and endpoint.crashed(now):
                descriptor.error = (
                    f"device lost: segment {self.addr:#x}+{self.size} "
                    f"never completed ({self.attempts + 1} attempt(s))"
                )
            else:
                descriptor.error = (
                    f"completion timeout: segment {self.addr:#x}"
                    f"+{self.size} after {self.attempts + 1} attempt(s)"
                )
            if work.next_offset < work.size:
                # Still partially queued: by construction the head of
                # its channel; drop it so no further segments are cut.
                queue = engine._channels[work.channel].queue
                if queue and queue[0] is work:
                    queue.popleft()
                work.next_offset = work.size
            if engine.trace is not None:
                engine.trace.abort(descriptor.stream, now, descriptor.error)
        engine._retire_guarded(work, now)


class _ChannelState:
    """Per-channel queue of pending :class:`_Work`."""

    __slots__ = ("queue",)

    def __init__(self) -> None:
        self.queue: Deque[_Work] = deque()


class DMAEngine(SimObject):
    """Descriptor-driven mover between host memory and the device."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        target: TargetPort,
        num_channels: int = 4,
        max_outstanding: int = 32,
        segment_bytes: int = 4096,
    ) -> None:
        super().__init__(sim, name)
        if num_channels <= 0:
            raise ValueError(f"need at least one channel, got {num_channels}")
        if max_outstanding <= 0:
            raise ValueError(f"need at least one tag, got {max_outstanding}")
        if segment_bytes <= 0:
            raise ValueError(f"segment size must be positive, got {segment_bytes}")
        self.target = target
        self.num_channels = num_channels
        self.max_outstanding = max_outstanding
        self.segment_bytes = segment_bytes

        self._channels: List[_ChannelState] = [
            _ChannelState() for _ in range(num_channels)
        ]
        self._rr_next = 0
        self._tags_in_use = 0

        self._descriptors = self.stats.scalar("descriptors", "descriptors completed")
        self._segments = self.stats.scalar("segments", "request transactions issued")
        self._bytes_read = self.stats.scalar("bytes_read", "host-to-device bytes")
        self._bytes_written = self.stats.scalar("bytes_written", "device-to-host bytes")
        self._latency = self.stats.histogram("segment_ticks", "per-segment latency")

        # Fault machinery (repro.faults): completion timeouts with
        # exponential-backoff retry and endpoint stall/crash handling.
        # Everything stays None/untouched -- including the fault stats,
        # which would change snapshot shapes -- until a fault model calls
        # configure_faults(); the issue path checks a single attribute.
        self._fault_policy = None
        self._endpoint_fault = None
        self._channel_retries: List[int] = []
        self._timeouts = None
        self._retries = None
        self._aborted = None

        # Telemetry hook (repro.telemetry): a DmaTrace recording
        # descriptor lifecycle spans, or None when tracing is off --
        # same default-None discipline as the fault attributes above.
        self.trace = None

    def configure_faults(self, policy, endpoint_fault=None) -> None:
        """Arm completion timeouts (and optional endpoint stall/crash).

        ``policy`` is a :class:`repro.faults.spec.RetryPolicy`;
        ``endpoint_fault`` an
        :class:`~repro.faults.injector.EndpointFaultState` for this
        engine's endpoint.  Called once at system build; the armed state
        survives ``reset_state`` (it is configuration, not run state).
        """
        self._fault_policy = policy
        self._endpoint_fault = endpoint_fault
        self._channel_retries = [0] * self.num_channels
        self._timeouts = self.stats.scalar(
            "fault_timeouts", "segment completion timeouts"
        )
        self._retries = self.stats.scalar(
            "fault_retries", "segments reissued after a timeout"
        )
        self._aborted = self.stats.scalar(
            "fault_aborted_descriptors", "descriptors aborted"
        )

    def reset_state(self) -> None:
        super().reset_state()
        for channel in self._channels:
            channel.queue.clear()
        self._rr_next = 0
        self._tags_in_use = 0
        if self._fault_policy is not None:
            self._channel_retries = [0] * self.num_channels

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        descriptor: DMADescriptor,
        on_complete: Optional[DescriptorDoneFn] = None,
        channel: Optional[int] = None,
    ) -> None:
        """Queue a descriptor; ``on_complete(descriptor)`` fires when done.

        Without an explicit ``channel`` descriptors spread round-robin.
        """
        if channel is None:
            channel = self._rr_next
            self._rr_next = (self._rr_next + 1) % self.num_channels
        elif not 0 <= channel < self.num_channels:
            raise ValueError(
                f"channel {channel} out of range 0..{self.num_channels - 1}"
            )
        work = _Work(descriptor, channel, on_complete, self.name)
        if self.trace is not None:
            work.submit_tick = self.sim.now
            self.trace.submit(descriptor.stream, descriptor.size, self.sim.now)
        self._channels[channel].queue.append(work)
        self._pump()

    def submit_list(
        self,
        descriptors: List[DMADescriptor],
        on_all_complete: Optional[Callable[[], None]] = None,
    ) -> None:
        """Submit a scatter-gather list; callback after the last finishes."""
        remaining = {"n": len(descriptors)}
        if not descriptors:
            if on_all_complete is not None:
                on_all_complete()
            return

        def one_done(_descriptor: DMADescriptor) -> None:
            remaining["n"] -= 1
            if remaining["n"] == 0 and on_all_complete is not None:
                on_all_complete()

        for descriptor in descriptors:
            self.submit(descriptor, one_done)

    # ------------------------------------------------------------------
    # Issue loop
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Issue segments round-robin across channels while tags remain.

        The round-robin scan is inlined (rather than a `_next_work` call
        per issued segment): the pump runs after every submit and every
        segment completion, making it the DMA engine's hottest loop.
        """
        max_outstanding = self.max_outstanding
        channels = self._channels
        num_channels = self.num_channels
        while self._tags_in_use < max_outstanding:
            work = None
            index = self._rr_next
            for _step in range(num_channels):
                queue = channels[index].queue
                if queue:
                    head = queue[0]
                    if head.next_offset < head.size:
                        work = head
                        self._rr_next = index + 1 if index + 1 < num_channels else 0
                        break
                index = index + 1 if index + 1 < num_channels else 0
            if work is None:
                return
            self._issue_segment(work)

    def _issue_segment(self, work: _Work) -> None:
        descriptor = work.descriptor
        # Segment size is the read-request granularity (PCIe max read
        # request); the on-wire packet size rides on the transaction and
        # is applied by the link's TLP model.
        offset = work.next_offset
        total = work.size
        size = total - offset
        if size > self.segment_bytes:
            size = self.segment_bytes
        work.next_offset = offset + size
        work.outstanding += 1

        is_read = work.is_read
        txn = work.template.clone_for_segment(
            descriptor.addr + offset, size, self.sim.now
        )
        self._tags_in_use += 1
        # Batched stat update (equivalent to inc() per counter).
        self._segments.value += 1
        if is_read:
            self._bytes_read.value += size
        else:
            self._bytes_written.value += size
        self.stats.dirty = True

        if work.next_offset >= total:
            # Fully issued: retire from the owning channel's queue.  The
            # work being issued is by construction that queue's head.
            self._channels[work.channel].queue.popleft()

        if self._fault_policy is not None:
            self._send_guarded(work, txn, descriptor.addr + offset, size)
            return

        def segment_done(done_txn: Transaction) -> None:
            now = self.sim.now
            done_txn.complete_tick = now
            # Batched stat update (equivalent to _latency.sample(ticks)).
            ticks = now - done_txn.issue_tick
            latency = self._latency
            latency.count += 1
            latency.total += ticks
            if ticks < latency.min:
                latency.min = ticks
            if ticks > latency.max:
                latency.max = ticks
            self.stats.dirty = True
            self._tags_in_use -= 1
            work.outstanding -= 1
            if self.trace is not None:
                self.trace.segment(
                    done_txn.stream, done_txn.issue_tick, now, done_txn.size
                )
            if work.outstanding == 0 and work.next_offset >= total:
                descriptor.completed_at = now
                self._descriptors.value += 1
                if self.trace is not None:
                    self.trace.descriptor(
                        descriptor.stream, work.submit_tick, now,
                        work.size, work.retries,
                    )
                if work.on_complete is not None:
                    work.on_complete(descriptor)
            self._pump()

        self.target.send(txn, segment_done)

    # ------------------------------------------------------------------
    # Guarded issue path (armed retry policy; see repro.faults)
    # ------------------------------------------------------------------
    def _send_guarded(self, work: _Work, txn: Transaction,
                      addr: int, size: int) -> None:
        """Issue one segment with a completion timeout armed.

        On expiry the segment is reissued with exponentially backed-off
        timeouts, up to the policy's retry limit and the per-channel
        outstanding-retry budget; past either bound the whole descriptor
        aborts: ``descriptor.error`` is set, remaining segments are
        never cut, and the completion callback still fires so callers
        observe the failure instead of hanging.  An endpoint in a
        stall/crash window silently drops arriving completions -- the
        timeout is then the only way forward, exactly as on real
        hardware.  :class:`_SegmentState` carries the steps.
        """
        _SegmentState(self, work, addr, size, self.sim.now).send(txn)

    def _retire_guarded(self, work: _Work, now: int) -> None:
        """Free a guarded segment's tag; finish its descriptor if last."""
        self._tags_in_use -= 1
        work.outstanding -= 1
        if work.outstanding == 0 and work.next_offset >= work.size:
            descriptor = work.descriptor
            descriptor.completed_at = now
            if not work.failed:
                self._descriptors.inc()
                if self.trace is not None:
                    self.trace.descriptor(
                        descriptor.stream, work.submit_tick, now,
                        work.size, work.retries,
                    )
            if work.on_complete is not None:
                work.on_complete(descriptor)
        self._pump()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def tags_in_use(self) -> int:
        return self._tags_in_use

    @property
    def idle(self) -> bool:
        return self._tags_in_use == 0 and all(
            not channel.queue for channel in self._channels
        )
