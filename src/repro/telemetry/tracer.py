"""Tick-domain span tracing with Chrome trace-event export.

The tracer records *simulated-time* spans -- DMA descriptor lifecycles,
TLP trains per link hop, fault retrain/down-train windows -- and exports them as Chrome trace-event JSON (the format
``chrome://tracing`` and Perfetto load natively).

Determinism
-----------
Every timestamp is a simulated tick converted with integer-exact
arithmetic (1 tick = 1 ps; Chrome's ``ts`` unit is microseconds, so
``ts = ticks / 10**6``); nothing here reads wall clocks, PIDs, or
iteration order of unordered containers.  Spans are emitted in event
execution order, which the simulator guarantees is identical across
reruns and ``--shard`` slices, so serializing the
same simulation twice produces *byte-identical* trace files -- the
telemetry acceptance bar, pinned by ``tests/test_telemetry.py``.

Zero overhead when off
----------------------
The instrumented components pay no call when tracing is off: their
hook attributes (``link.trace``, ``dma.trace``) default to ``None``
exactly like the fault layer's ``link.faults``, so the disabled path
costs one ``is None`` test co-located with an existing branch.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.sim.ticks import TICKS_PER_US

__all__ = [
    "DmaTrace",
    "LinkTrace",
    "SpanTracer",
    "validate_chrome_trace",
]


#: Chrome "process" of every simulator hook below; the export names it
#: ``domain0``.
SIM_PID = 0


class SpanTracer:
    """Recording tracer: spans accumulate in execution order.

    ``pid`` is the Chrome "process" (the simulator hooks all use
    :data:`SIM_PID`) and ``tid_name`` a component name, mapped to a stable integer thread
    id in first-appearance order (deterministic, because attachment and
    event execution order are).
    """

    def __init__(self) -> None:
        #: Recorded events: ("X"|"i", pid, tid, name, cat, ts, dur, args).
        self._events: List[tuple] = []
        #: (pid, tid_name) -> integer tid, in first-appearance order.
        self._tids: Dict[Tuple[int, str], int] = {}

    def __len__(self) -> int:
        return len(self._events)

    def _tid(self, pid: int, tid_name: str) -> int:
        key = (pid, tid_name)
        tid = self._tids.get(key)
        if tid is None:
            tid = len(self._tids)
            self._tids[key] = tid
        return tid

    def complete(self, pid: int, tid_name: str, name: str, cat: str,
                 start_tick: int, dur_ticks: int,
                 args: Optional[dict] = None) -> None:
        """Record one complete ("X") span of ``dur_ticks`` ticks."""
        self._events.append(
            ("X", pid, self._tid(pid, tid_name), name, cat,
             start_tick, dur_ticks, args)
        )

    def instant(self, pid: int, tid_name: str, name: str, cat: str,
                tick: int, args: Optional[dict] = None) -> None:
        """Record one instant ("i") event."""
        self._events.append(
            ("i", pid, self._tid(pid, tid_name), name, cat, tick, 0, args)
        )

    def clear(self) -> None:
        self._events.clear()
        self._tids.clear()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def chrome_events(self) -> List[dict]:
        """Trace events in Chrome trace-event dict form.

        Metadata (process/thread names) first, then the spans in
        recording order.  ``ts``/``dur`` are microseconds derived from
        ticks by exact division.
        """
        out: List[dict] = []
        pids = sorted({pid for (pid, _name) in self._tids})
        for pid in pids:
            out.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": f"domain{pid}"},
            })
        for (pid, tid_name), tid in self._tids.items():
            out.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": tid_name},
            })
        for ph, pid, tid, name, cat, tick, dur, args in self._events:
            event = {
                "ph": ph, "pid": pid, "tid": tid, "name": name, "cat": cat,
                "ts": tick / TICKS_PER_US,
            }
            if ph == "X":
                event["dur"] = dur / TICKS_PER_US
            else:
                event["s"] = "t"
            if args:
                event["args"] = args
            out.append(event)
        return out

    def to_chrome_json(self) -> str:
        """The full trace document as a deterministic JSON string."""
        document = {
            "displayTimeUnit": "ns",
            "traceEvents": self.chrome_events(),
        }
        return json.dumps(document, sort_keys=True, separators=(",", ":"))

    def write_chrome(self, path) -> None:
        """Write the trace document to ``path`` (UTF-8, byte-stable)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_chrome_json())


def validate_chrome_trace(document: dict) -> List[str]:
    """Schema-check a Chrome trace-event document.

    Returns a list of problems (empty means valid).  Checks the subset
    of the format the tracer emits and Perfetto requires: a
    ``traceEvents`` array whose entries carry ``ph``/``pid``/``tid``/
    ``name``, non-negative numeric ``ts``, and ``dur`` on complete
    events.  Shared by the tests and the CI telemetry-smoke job.
    """
    problems: List[str] = []
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "i", "M", "B", "E", "C"):
            problems.append(f"{where}: unknown phase {ph!r}")
        if not isinstance(event.get("pid"), int):
            problems.append(f"{where}: pid missing or not an int")
        if not isinstance(event.get("tid"), int):
            problems.append(f"{where}: tid missing or not an int")
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: name missing or not a string")
        if ph in ("X", "i"):
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
    return problems


# ----------------------------------------------------------------------
# Component hook adapters
# ----------------------------------------------------------------------
class LinkTrace:
    """Per-link tracing hook: TLP trains plus fault windows.

    Bound to one directional link (``link.trace``) with its name as the
    thread; the fault layer shares the
    hook (``LinkFaultState.trace``) so retrain/down-train windows land
    on the same thread row as the trains they delay.
    """

    __slots__ = ("tracer", "tid_name")

    def __init__(self, tracer: SpanTracer, tid_name: str) -> None:
        self.tracer = tracer
        self.tid_name = tid_name

    def tlp_train(self, start: int, occupancy: int, n_tlps: int,
                  payload_bytes: int) -> None:
        self.tracer.complete(
            SIM_PID, self.tid_name, "tlp-train", "pcie", start, occupancy,
            args={"tlps": n_tlps, "bytes": payload_bytes},
        )

    def retrain(self, start: int, stall: int) -> None:
        self.tracer.complete(
            SIM_PID, self.tid_name, "retrain-window", "fault", start, stall
        )

    def downtrain(self, start: int, penalty: int) -> None:
        self.tracer.complete(
            SIM_PID, self.tid_name, "downtrain-penalty", "fault",
            start, penalty,
        )


class DmaTrace:
    """Per-engine tracing hook for DMA descriptor lifecycles."""

    __slots__ = ("tracer", "tid_name")

    def __init__(self, tracer: SpanTracer, tid_name: str) -> None:
        self.tracer = tracer
        self.tid_name = tid_name

    def submit(self, stream: str, size: int, tick: int) -> None:
        self.tracer.instant(
            SIM_PID, self.tid_name, f"dma-submit:{stream}", "dma", tick,
            args={"bytes": size},
        )

    def segment(self, stream: str, issued_tick: int, done_tick: int,
                size: int) -> None:
        self.tracer.complete(
            SIM_PID, self.tid_name, f"dma-segment:{stream}", "dma",
            issued_tick, done_tick - issued_tick, args={"bytes": size},
        )

    def descriptor(self, stream: str, submit_tick: int, retire_tick: int,
                   size: int, retries: int) -> None:
        args = {"bytes": size}
        if retries:
            args["retries"] = retries
        self.tracer.complete(
            SIM_PID, self.tid_name, f"dma-descriptor:{stream}", "dma",
            submit_tick, retire_tick - submit_tick, args=args,
        )

    def retry(self, stream: str, tick: int, attempt: int) -> None:
        self.tracer.instant(
            SIM_PID, self.tid_name, f"dma-retry:{stream}", "dma", tick,
            args={"attempt": attempt},
        )

    def abort(self, stream: str, tick: int, reason: str) -> None:
        self.tracer.instant(
            SIM_PID, self.tid_name, f"dma-abort:{stream}", "dma", tick,
            args={"reason": reason},
        )
