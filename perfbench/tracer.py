"""Host-clock span tracer for the benchmark's traced runs.

The tracer wraps the public entry points of each ``repro`` package (a
*layer*, named after its module) and every event callback, and keeps a
span stack per thread.  A span's *self* time is its duration minus the
durations of the spans nested directly inside it, so the self times of
all layers add up to the time of the outermost span of an operation.

Per-layer totals (self time, entries, wall time) accumulate online in
per-thread state, so they cover every span however long the run.  The
spans themselves -- name, start, end, parent span and operation tag --
are kept in memory up to a per-thread cap and written out once, by
:meth:`Tracer.dump`, when the traced process ends.

A span name is ``layer`` or ``layer/detail``; reports fold the detail
away, except where a metric needs it (the result cache's ``get`` and
``put``).  :meth:`Tracer.install` wraps the classes and functions listed
in :data:`ENTRY_POINTS` for the benchmark process only, and must run
before any system is built, because components keep bound methods they
take while they are wired.  :meth:`Tracer.uninstall` restores them.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import types
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

#: The layers every report lists, in table order.  Callbacks defined in
#: other ``repro`` packages get a layer named after that package (for
#: example ``cpu`` or ``core.system``); code outside ``repro`` is ``other``.
LAYERS = (
    "sim",
    "cache",
    "interconnect.bus",
    "interconnect.pcie",
    "topology",
    "smmu",
    "dma",
    "memory",
    "accel",
    "core.acquire",
    "core.drive",
    "core.snapshot",
    "sweep",
    "sweep.cache",
    "serve.query",
    "serve.fill",
    "serve.digest",
    "serve.http",
)

#: Module prefix -> layer, for event callbacks.  First match wins; any
#: other ``repro`` module is named after its top-level package.
MODULE_LAYERS = (
    ("repro.interconnect.bus", "interconnect.bus"),
    ("repro.interconnect.pcie", "interconnect.pcie"),
    ("repro.interconnect.cxl", "interconnect.cxl"),
    ("repro.core.runner", "core.drive"),
    ("repro.core", "core.system"),
    ("repro.sweep.cache", "sweep.cache"),
)

#: (span name, module, class or None for a module function, attributes).
ENTRY_POINTS = (
    ("sim", "repro.sim.eventq", "Simulator", ("run", "run_until_idle")),
    ("cache", "repro.cache.cache", "Cache", ("send", "invalidate_range")),
    ("interconnect.bus", "repro.interconnect.bus", "MemBus", ("send",)),
    ("interconnect.pcie", "repro.interconnect.pcie.link", "PCIeChannel",
     ("deliver",)),
    ("interconnect.pcie", "repro.interconnect.pcie.fabric", "PCIeFabric",
     ("device_access", "host_access")),
    ("topology", "repro.topology.fabric", "SwitchLink", ("submit",)),
    ("topology", "repro.topology.fabric", "SwitchedPCIeFabric",
     ("device_access", "host_access")),
    ("smmu", "repro.smmu.smmu", "SMMU", ("translate",)),
    ("smmu", "repro.smmu.walker", "PageTableWalker", ("walk",)),
    ("dma", "repro.dma.engine", "DMAEngine", ("submit", "submit_list")),
    ("memory", "repro.memory.dram.controller", "DRAMController", ("send",)),
    ("memory", "repro.memory.simple", "SimpleMemory", ("send",)),
    ("accel", "repro.accel.controller", "AcceleratorController", ("launch",)),
    ("accel", "repro.accel.systolic", "SystolicArray", ("compute_tile",)),
    ("accel", "repro.accel.devmem", "DeviceMemory", ("send",)),
    ("accel", "repro.accel.local_buffer", "LocalBuffer", ("send",)),
    ("accel", "repro.accel.driver", "AccelDriver", ("launch_gemm",)),
    ("core.acquire", "repro.core.runner", None, ("system_for",)),
    ("core.drive", "repro.core.runner", "GemmRunner", ("drive",)),
    ("core.drive", "repro.core.runner", "MultiGemmRunner", ("drive",)),
    ("core.drive", "repro.core.runner", "PeerTransferRunner", ("drive",)),
    ("core.drive", "repro.core.runner", "ViTRunner", ("drive",)),
    ("core.snapshot", "repro.core.runner", "WorkloadRunner", ("snapshot",)),
    ("core.snapshot", "repro.core.runner", "MultiGemmRunner", ("snapshot",)),
    ("sweep.cache/get", "repro.sweep.cache", "ResultCache", ("get",)),
    ("sweep.cache/put", "repro.sweep.cache", "ResultCache", ("put",)),
)

#: Entry points of the result server, wrapped only in a server process.
SERVE_ENTRY_POINTS = (
    ("serve.fill", "repro.serve.service", None, ("run_points",)),
    ("serve.digest", "repro.serve.service", None, ("fresh_code_version",)),
)

#: Scheduling methods whose callbacks run inside a span of their layer.
#: Every component schedules through these.
SCHEDULERS = (
    ("repro.sim.eventq", "Simulator", ("schedule", "schedule_at")),
    ("repro.sim.eventq", "ParallelSimulator", ("schedule", "schedule_at")),
)

#: Spans kept per thread for :meth:`Tracer.dump`; totals count them all.
LOG_CAP = 100_000


def layer_for_module(module: Optional[str]) -> str:
    """The layer that owns code defined in ``module``."""
    if not module or not (module == "repro" or module.startswith("repro.")):
        return "other"
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else "other"


def callback_layer(callback: Callable) -> str:
    """The layer of the package that defined ``callback``.

    Bound methods count for the module that defines the method (an
    inherited method counts for its base class's package), closures and
    lambdas for the module they were written in, ``functools.partial``
    objects for the function they wrap, and other callables for their
    class's module.
    """
    target = callback
    while isinstance(target, functools.partial):
        target = target.func
    target = getattr(target, "__func__", target)
    module = getattr(target, "__module__", None)
    if not isinstance(module, str):
        module = type(target).__module__
    return layer_for_module(module)


def layer_of(name: str) -> str:
    """``"sweep.cache/get"`` -> ``"sweep.cache"``."""
    return name.partition("/")[0]


class _ThreadState:
    """One thread's span stack, totals and span log."""

    __slots__ = ("index", "name", "stack", "seq", "op", "self_ns", "calls",
                 "wall_ns", "events", "log", "dropped")

    def __init__(self, index: int, name: str) -> None:
        self.index = index
        self.name = name
        #: Open frames: [name, start_ns, child_ns, span_id].
        self.stack: List[list] = []
        self.seq = 0
        #: Operation tag stamped on every span this thread closes.
        self.op = None
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.wall_ns: Dict[str, int] = {}
        self.events = 0
        #: Closed spans: (span_id, parent_id, name, start, end, op).
        self.log: List[tuple] = []
        self.dropped = 0


class _Span:
    """A span that may be suspended and resumed (a coroutine's)."""

    __slots__ = ("name", "span_id", "parent", "start", "op")

    def __init__(self, name, span_id, parent, start, op) -> None:
        self.name = name
        self.span_id = span_id
        self.parent = parent
        self.start = start
        self.op = op


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._wrapped: List[tuple] = []
        self._layer_cache: Dict[object, str] = {}
        self._query_ids = 0
        #: Operation tag -> point key hash (sweep operations).
        self.op_keys: Dict[object, str] = {}

    # ------------------------------------------------------------------
    # Span stack
    # ------------------------------------------------------------------
    def state(self) -> _ThreadState:
        """This thread's state, created on first use."""
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                state = _ThreadState(len(self._states),
                                     threading.current_thread().name)
                self._states.append(state)
            self._local.state = state
            return state

    def enter(self, name: str) -> _ThreadState:
        """Open a span on this thread; returns the thread's state."""
        state = self.state()
        state.seq += 1
        state.stack.append([name, perf_counter_ns(), 0, state.seq])
        return state

    def exit(self, state: _ThreadState) -> None:
        """Close the innermost open span of ``state``."""
        end = perf_counter_ns()
        name, start, child, span_id = state.stack.pop()
        duration = end - start
        state.self_ns[name] = state.self_ns.get(name, 0) + duration - child
        state.calls[name] = state.calls.get(name, 0) + 1
        state.wall_ns[name] = state.wall_ns.get(name, 0) + duration
        parent = 0
        if state.stack:
            top = state.stack[-1]
            top[2] += duration
            parent = top[3]
        if len(state.log) < LOG_CAP:
            state.log.append((span_id, parent, name, start, end, state.op))
        else:
            state.dropped += 1

    def span(self, name: str, op=None) -> "_SpanContext":
        """``with tracer.span(name, op):`` -- one span; a non-None ``op``
        tags it and every span nested in it."""
        return _SpanContext(self, name, op)

    # Suspendable spans (coroutines) -----------------------------------
    def open_span(self, name: str, op=None) -> _Span:
        state = self.state()
        state.seq += 1
        parent = state.stack[-1][3] if state.stack else 0
        return _Span(name, state.seq, parent, perf_counter_ns(), op)

    def resume(self, span: _Span):
        """Put ``span`` back on this thread's stack; returns a token."""
        state = self.state()
        saved_op, state.op = state.op, span.op
        state.stack.append([span.name, perf_counter_ns(), 0, span.span_id])
        return state, saved_op

    def suspend(self, token) -> None:
        """Take the span resumed with ``token`` off the stack again."""
        state, saved_op = token
        end = perf_counter_ns()
        name, start, child, _span_id = state.stack.pop()
        duration = end - start
        state.self_ns[name] = state.self_ns.get(name, 0) + duration - child
        if state.stack:
            state.stack[-1][2] += duration
        state.op = saved_op

    def close_span(self, span: _Span) -> None:
        end = perf_counter_ns()
        state = self.state()
        state.calls[span.name] = state.calls.get(span.name, 0) + 1
        state.wall_ns[span.name] = (
            state.wall_ns.get(span.name, 0) + end - span.start)
        if len(state.log) < LOG_CAP:
            state.log.append((span.span_id, span.parent, span.name,
                              span.start, end, span.op))
        else:
            state.dropped += 1

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def wrap_function(self, fn: Callable, name: str) -> Callable:
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(state)

        return traced

    def wrap_coroutine(self, fn: Callable, name: str) -> Callable:
        """Wrap an ``async def``: its span is on the stack only while the
        coroutine runs, so time spent awaiting is not its self time.
        Each call gets the next query id as its operation tag."""
        tracer = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            with tracer._lock:
                tracer._query_ids += 1
                op = tracer._query_ids
            return await _drive(tracer, tracer.open_span(name, op),
                                fn(*args, **kwargs))

        return traced

    def layer_of_callback(self, callback: Callable) -> str:
        target = getattr(callback, "__func__", callback)
        key = getattr(target, "__code__", None)
        if key is None:
            return callback_layer(callback)
        layer = self._layer_cache.get(key)
        if layer is None:
            layer = self._layer_cache[key] = callback_layer(callback)
        return layer

    def bind_callback(self, callback: Callable) -> Callable:
        """``callback`` wrapped in a span of the layer that defined it."""
        layer = self.layer_of_callback(callback)
        enter, exit_ = self.enter, self.exit

        def traced_event():
            state = enter(layer)
            state.events += 1
            try:
                callback()
            finally:
                exit_(state)

        return traced_event

    def _wrap_scheduler(self, fn: Callable) -> Callable:
        bind = self.bind_callback

        @functools.wraps(fn)
        def schedule(sim, when, callback, *args, **kwargs):
            return fn(sim, when, bind(callback), *args, **kwargs)

        return schedule

    def install(self, serve: bool = False) -> "Tracer":
        """Wrap every entry point and scheduler (and, with ``serve``,
        the result server's query, fill and digest paths)."""
        points = ENTRY_POINTS + (SERVE_ENTRY_POINTS if serve else ())
        for name, module_name, owner_name, attributes in points:
            owner = _owner(module_name, owner_name)
            for attribute in attributes:
                self._replace(owner, attribute, self.wrap_function(
                    getattr(owner, attribute), name))
        for module_name, owner_name, attributes in SCHEDULERS:
            owner = _owner(module_name, owner_name, optional=True)
            for attribute in attributes:
                if owner is not None and attribute in vars(owner):
                    self._replace(owner, attribute, self._wrap_scheduler(
                        vars(owner)[attribute]))
        if serve:
            from repro.serve.service import SweepService

            self._replace(SweepService, "query", self.wrap_coroutine(
                SweepService.query, "serve.query"))
        return self

    def _replace(self, owner, attribute: str, replacement) -> None:
        if isinstance(owner, type) and attribute not in vars(owner):
            raise AttributeError(
                f"{owner.__name__}.{attribute} is inherited; trace the "
                f"class that defines it")
        self._wrapped.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        """Restore everything :meth:`install` wrapped, latest first."""
        while self._wrapped:
            owner, attribute, original = self._wrapped.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def threads(self) -> List[_ThreadState]:
        with self._lock:
            return list(self._states)

    def totals(self, threads: Optional[List[_ThreadState]] = None) -> dict:
        """Merged ``self_ns``/``calls``/``wall_ns`` per span name, plus
        the number of event callbacks run."""
        merged = {"self_ns": {}, "calls": {}, "wall_ns": {}, "events": 0}
        for state in self.threads() if threads is None else threads:
            for field in ("self_ns", "calls", "wall_ns"):
                into = merged[field]
                for name, value in getattr(state, field).items():
                    into[name] = into.get(name, 0) + value
            merged["events"] += state.events
        return merged

    def reset(self) -> None:
        """Forget every closed span and total (open spans stay open)."""
        for state in self.threads():
            state.self_ns.clear()
            state.calls.clear()
            state.wall_ns.clear()
            state.events = 0
            state.log.clear()
            state.dropped = 0
        self.op_keys.clear()

    def dump(self, path) -> None:
        """Write the kept spans, the per-thread totals and the merged
        totals as JSON."""
        payload = {
            "totals": self.totals(),
            "fields": ["span", "parent", "name", "start_ns", "end_ns", "op"],
            "threads": [
                {"index": state.index, "name": state.name,
                 "spans": state.log, "dropped": state.dropped,
                 "totals": self.totals([state])}
                for state in self.threads()
            ],
            "ops": {str(op): key for op, key in self.op_keys.items()},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


class _SpanContext:
    __slots__ = ("tracer", "name", "op", "state", "saved_op")

    def __init__(self, tracer: Tracer, name: str, op) -> None:
        self.tracer = tracer
        self.name = name
        self.op = op

    def __enter__(self) -> "_SpanContext":
        state = self.tracer.state()
        self.saved_op = state.op
        if self.op is not None:
            state.op = self.op
        self.state = self.tracer.enter(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.exit(self.state)
        self.state.op = self.saved_op


@types.coroutine
def _drive(tracer: Tracer, span: _Span, coro):
    """Run ``coro`` step by step with ``span`` on the stack only while
    the coroutine itself executes."""
    value, error = None, None
    try:
        while True:
            token = tracer.resume(span)
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer.suspend(token)
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # re-raised inside the coroutine
                value, error = None, exc
    finally:
        tracer.close_span(span)


def _owner(module_name: str, owner_name: Optional[str],
           optional: bool = False):
    module = importlib.import_module(module_name)
    if owner_name is None:
        return module
    owner = getattr(module, owner_name, None)
    if owner is None and not optional:
        raise AttributeError(f"{module_name} has no {owner_name}")
    return owner


def self_times_from_spans(spans) -> Dict[str, int]:
    """Per-name self time recomputed offline from one thread's spans.

    ``spans`` are ``(span_id, parent_id, name, start, end, op)`` tuples
    of synchronous spans.  The online totals must agree with this.
    """
    child: Dict[int, int] = {}
    for _span_id, parent, _name, start, end, _op in spans:
        if parent:
            child[parent] = child.get(parent, 0) + end - start
    out: Dict[str, int] = {}
    for span_id, _parent, name, start, end, _op in spans:
        out[name] = out.get(name, 0) + end - start - child.get(span_id, 0)
    return out
