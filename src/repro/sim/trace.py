"""Transaction trace recording and replay.

Trace-driven methodology, as in gem5's ``CommMonitor`` + ``TrafficGen``
pair: wrap any :class:`~repro.sim.ports.TargetPort` with a
:class:`TracingPort` to capture the request stream flowing through it,
persist it, then drive the same stream into a *different* memory system
with a :class:`TraceReplayer` — memory studies without re-simulating the
accelerator that generated the traffic.

Traces store ``(tick, cmd, addr, size, source, stream)`` records; the
replayer can respect recorded inter-arrival times (open-loop) or issue
as fast as a fixed window allows (closed-loop), the two standard replay
disciplines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.sim.eventq import Simulator
from repro.sim.ports import CompletionFn, TargetPort
from repro.sim.transaction import MemCmd, Transaction


@dataclass(frozen=True)
class TraceRecord:
    """One captured request."""

    tick: int
    cmd: str
    addr: int
    size: int
    source: str = ""
    stream: str = ""

    def to_transaction(self) -> Transaction:
        txn = Transaction(MemCmd(self.cmd), self.addr, self.size,
                          source=self.source)
        txn.stream = self.stream
        return txn


class Trace:
    """An ordered collection of :class:`TraceRecord`."""

    def __init__(self, records: Optional[List[TraceRecord]] = None) -> None:
        self.records: List[TraceRecord] = records or []

    def append(self, record: TraceRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def total_bytes(self) -> int:
        return sum(record.size for record in self.records)

    @property
    def duration_ticks(self) -> int:
        if not self.records:
            return 0
        return self.records[-1].tick - self.records[0].tick

    # ------------------------------------------------------------------
    # Persistence (JSON lines)
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            for record in self.records:
                handle.write(json.dumps({
                    "tick": record.tick,
                    "cmd": record.cmd,
                    "addr": record.addr,
                    "size": record.size,
                    "source": record.source,
                    "stream": record.stream,
                }) + "\n")

    @classmethod
    def load(cls, path: str) -> "Trace":
        records = []
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                raw = json.loads(line)
                records.append(TraceRecord(
                    tick=raw["tick"], cmd=raw["cmd"], addr=raw["addr"],
                    size=raw["size"], source=raw.get("source", ""),
                    stream=raw.get("stream", ""),
                ))
        return cls(records)


class TracingPort(TargetPort):
    """Transparent proxy that records every request it forwards."""

    def __init__(self, sim: Simulator, name: str, wrapped: TargetPort) -> None:
        super().__init__(sim, name)
        self.wrapped = wrapped
        self.trace = Trace()
        self._recorded = self.stats.scalar("recorded", "requests captured")

    def send(self, txn: Transaction, on_complete: CompletionFn) -> None:
        self.trace.append(TraceRecord(
            tick=self.now,
            cmd=txn.cmd.value,
            addr=txn.addr,
            size=txn.size,
            source=txn.source,
            stream=txn.stream,
        ))
        self._recorded.inc()
        self.wrapped.send(txn, on_complete)


class TraceReplayer(TargetPort):
    """Drives a recorded trace into a target.

    Parameters
    ----------
    mode:
        ``"timed"`` replays with the recorded inter-arrival gaps
        (open-loop; measures added queueing under the new memory);
        ``"asap"`` issues as fast as ``window`` outstanding requests
        allow (closed-loop; measures the new memory's throughput).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        trace: Trace,
        target: TargetPort,
        mode: str = "asap",
        window: int = 8,
    ) -> None:
        super().__init__(sim, name)
        if mode not in ("timed", "asap"):
            raise ValueError(f"unknown replay mode {mode!r}")
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.trace = trace
        self.target = target
        self.mode = mode
        self.window = window
        self._replayed = self.stats.scalar("replayed", "requests issued")
        self._latency = self.stats.histogram("latency", "per-request latency")

    def run(self, on_done: Callable[[int], None]) -> None:
        """Replay the whole trace; ``on_done(finish_tick)`` at the end."""
        records = self.trace.records
        if not records:
            on_done(self.now)
            return
        if self.mode == "timed":
            self._run_timed(records, on_done)
        else:
            self._run_asap(records, on_done)

    # ------------------------------------------------------------------
    def _run_timed(self, records, on_done) -> None:
        base = records[0].tick
        start = self.now
        state = {"outstanding": 0, "issued": 0}

        def completion(txn: Transaction) -> None:
            self._latency.sample(self.now - txn.issue_tick)
            state["outstanding"] -= 1
            if state["issued"] == len(records) and state["outstanding"] == 0:
                on_done(self.now)

        for record in records:
            def issue(record=record) -> None:
                txn = record.to_transaction()
                txn.issue_tick = self.now
                state["outstanding"] += 1
                state["issued"] += 1
                self._replayed.inc()
                self.target.send(txn, completion)

            self.sim.schedule_at(start + (record.tick - base), issue)

    def _run_asap(self, records, on_done) -> None:
        state = {"next": 0, "outstanding": 0}

        def pump() -> None:
            while (
                state["next"] < len(records)
                and state["outstanding"] < self.window
            ):
                record = records[state["next"]]
                state["next"] += 1
                txn = record.to_transaction()
                txn.issue_tick = self.now
                state["outstanding"] += 1
                self._replayed.inc()
                self.target.send(txn, completion)

        def completion(txn: Transaction) -> None:
            self._latency.sample(self.now - txn.issue_tick)
            state["outstanding"] -= 1
            if state["next"] < len(records):
                pump()
            elif state["outstanding"] == 0:
                on_done(self.now)

        pump()

    def send(self, txn: Transaction, on_complete: CompletionFn) -> None:
        """TargetPort interface: pass-through (a replayer is an initiator)."""
        self.target.send(txn, on_complete)
