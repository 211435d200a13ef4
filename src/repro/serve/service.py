"""The sweep service: query path, single-flight fills, pinned identity.

:class:`SweepService` is the HTTP-agnostic core of ``python -m repro
serve`` (docs/SERVING.md).  It answers point-result queries straight
from the content-addressed :class:`~repro.sweep.cache.ResultCache` --
a warm query is an in-memory index lookup plus one ``stat`` of the
entry, whose record bytes the service keeps from its first read (the
*reply memo*, below) -- and turns cold misses into simulations through
three layers:

1. **Single-flight coalescing** (:mod:`repro.serve.singleflight`):
   concurrent identical misses share one flight keyed on the same
   sha256 ``point_key`` the cache uses, so N clients asking for one
   cold point cost exactly one simulation.
2. **Miss batching**: the fill loop takes every pending miss each
   time it wakes, so distinct cold misses that arrive while a batch
   runs fill together as *one* :func:`~repro.sweep.engine.run_points`
   batch on a worker pool.  A first miss starts its fill at once; an
   optional ``batch_window`` makes it wait for companions instead.
3. **Bit-identity**: fills run through the unmodified sweep engine
   against the same cache directory, so served records are the very
   records a direct ``run_sweep`` produces (the serve record
   byte-identity tests gate this in CI).

A long-running server must not let its identity drift under it, so the
service *pins* at construction what batch runs re-derive per process:
the resolved cache directory (``$REPRO_SWEEP_CACHE_DIR`` is read once,
a mid-flight env change cannot split the cache) and the
:func:`~repro.sweep.cache.code_version` digest.  Both are exposed in
``/healthz``; before every fill batch the digest is checked against
disk (:func:`~repro.sweep.cache.fresh_code_version`) and a mismatch --
someone edited the source tree under a running server -- refuses the
fill with :class:`StaleCodeError` rather than serving records that are
no longer reproducible by this tree.  Cached entries keep serving:
they are still bit-identical to what the pinned tree computed.  The
check is a stat fingerprint (every source file's size and mtime, every
source directory's mtime; the startup pin seeds it), so an unchanged
tree costs ~115 ``stat`` calls, not a re-hash.  Its blind spot: an edit
that keeps both a file's size and its ``mtime_ns`` (within one coarse
kernel timestamp tick, or by a tool that restores mtimes) is missed
until restart.

The reply memo maps a point's ``key_hash`` to the ``stat`` signature
``(st_ino, st_size, st_mtime_ns)`` of its cache entry, taken *before*
the read, and the record's canonical JSON bytes.  A repeat query
serves those bytes only while the entry's current ``stat`` matches;
a deleted, rewritten or replaced entry goes through
:meth:`ResultCache.get` again (a miss when it is gone or undecodable).
The memo holds at most :data:`REPLY_MEMO_ENTRIES` points, oldest
evicted first.  Its blind spot is the source digest's: an in-place
edit that keeps the entry's size, inode and ``mtime_ns``.

A fill answers its waiters before its cache write.  As soon as a
point has simulated, the fill thread encodes the record once and
*publishes* it: every waiter of the flight replies at once.  The fill
thread then writes the entry (both fsyncs, the temp file and the
rename) and the flight *lands*.  A query that arrives in between
awaits the landing and then reads the entry as a warm hit.  So a cold
reply no longer means the entry is on disk; ``in_flight`` reaching 0
does, and :meth:`SweepService.stop` returns only after every published
write has landed.

A cold GEMM point is filled only when its three operand matrices fit
:data:`GEMM_FILL_BUDGET`; a larger one is refused with a 400 before it
is claimed, since it would hold the one fill thread for minutes or
exhaust memory.  Entries already on disk are served whatever their
size, and ``repro sweep`` is not bounded.

Threading model: all service state is touched only from the event
loop.  Fill batches run one at a time on one dedicated fill thread,
which reports back exclusively through ``call_soon_threadsafe``; the
shared :class:`ResultCache` instance is the one object both threads
drive, which its lock-protected counters make safe.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.sweep import SWEEPS, apply_overrides
from repro.sweep.cache import (
    ResultCache,
    code_version,
    default_cache_dir,
    fresh_code_version,
    point_key,
)
from repro.sweep.engine import point_params, run_points
from repro.sweep.spec import SweepPoint, SweepSpec, resolve_runner
from repro.telemetry.metrics import render_prometheus

from repro.serve.singleflight import SingleFlight

__all__ = [
    "BadRequestError",
    "FillError",
    "GEMM_FILL_BUDGET",
    "REPLY_MEMO_ENTRIES",
    "SPEC_INDEX_ENTRIES",
    "ServeSettings",
    "StaleCodeError",
    "SweepService",
    "UnknownPointError",
    "UnknownSweepError",
    "reply_body",
]

#: Most points whose record bytes the reply memo keeps (FIFO eviction).
REPLY_MEMO_ENTRIES = 4096

#: Most (sweep, args) identities whose spec and point index the service
#: keeps (FIFO eviction).  Clients choose ``args`` freely, and each
#: distinct one builds an index, even when its query then 404s.
SPEC_INDEX_ENTRIES = 256

#: Most bytes of GEMM operands, ``(m*k + k*n + m*n) * 4``, that one
#: served fill may move: exactly the largest default point of any
#: registered sweep (tab4-translation's 512-cubed GEMM).
GEMM_FILL_BUDGET = 3 * 2**20

_JSON_BOOL = {True: b"true", False: b"false"}


def reply_body(sweep: str, key: str, key_hash: str, record: bytes, *,
               cached: bool, coalesced: bool) -> bytes:
    """The ``/query`` reply for one point, around its record's JSON.

    ``record`` is ``json.dumps(record, sort_keys=True)`` encoded; the
    result is byte-identical to ``json.dumps`` of the whole reply
    object with ``sort_keys=True``, whose keys sort as spliced here.
    """
    return b"".join((
        b'{"cached": ', _JSON_BOOL[cached],
        b', "coalesced": ', _JSON_BOOL[coalesced],
        b', "key": ', json.dumps(key).encode(),
        b', "key_hash": ', json.dumps(key_hash).encode(),
        b', "record": ', record,
        b', "sweep": ', json.dumps(sweep).encode(),
        b"}",
    ))


def _record_json(record: dict) -> bytes:
    return json.dumps(record, sort_keys=True).encode()


def _fill_bytes(runner, params: dict) -> int:
    """Bytes of GEMM operands one point moves; 0 for other runners."""
    if runner.name != "gemm":
        return 0
    m, k, n = params["m"], params["k"], params["n"]
    return (m * k + k * n + m * n) * 4


class UnknownSweepError(LookupError):
    """No registered sweep under the queried name (HTTP 404)."""


class UnknownPointError(LookupError):
    """The sweep exists but has no point with that key (HTTP 404)."""


class BadRequestError(ValueError):
    """Malformed query arguments (HTTP 400)."""


class StaleCodeError(RuntimeError):
    """The source tree no longer matches the pinned digest (HTTP 503)."""


class FillError(RuntimeError):
    """A fill run failed; the waiting queries surface it (HTTP 500)."""


@dataclass(frozen=True)
class ServeSettings:
    """Startup configuration of the result server."""

    host: str = "127.0.0.1"
    port: int = 8321
    #: Process-pool width of each fill batch (1 = simulate in the fill
    #: thread itself).
    workers: int = 1
    #: Cache directory; None resolves ``$REPRO_SWEEP_CACHE_DIR`` or the
    #: default location *once*, at service construction.
    cache_dir: Optional[str] = None
    #: Seconds a first miss waits for concurrent distinct misses to
    #: pile onto the same fill batch.  0 starts the fill at once; misses
    #: arriving while it runs still share the next batch.
    batch_window: float = 0.0
    #: Retained per-query latency samples for the /metrics quantiles.
    latency_window: int = 4096


@dataclass
class _FillJob:
    """One cold point awaiting the next fill batch."""

    spec: SweepSpec
    point: SweepPoint
    key_hash: str


@dataclass
class _PointEntry:
    """Pre-resolved identity of one queryable point."""

    point: SweepPoint
    params: dict
    key_hash: str
    #: GEMM operand bytes a fill would move (see :data:`GEMM_FILL_BUDGET`).
    fill_bytes: int


class _PublishingStore:
    """A fill batch's view of the cache: publish, then write.

    The engine calls :meth:`put` once per simulated point; the record
    reaches its waiters before the durable write starts.
    """

    def __init__(self, cache: ResultCache, publish) -> None:
        self.cache = cache
        self._publish = publish

    def get(self, key: str) -> Optional[dict]:
        return self.cache.get(key)

    def put(self, key: str, record: dict, meta: Optional[dict] = None) -> None:
        self._publish(key, _record_json(record))
        self.cache.put(key, record, meta)


class SweepService:
    """Query/fill core shared by the HTTP front end, tests and benches."""

    def __init__(self, settings: Optional[ServeSettings] = None) -> None:
        self.settings = settings or ServeSettings()
        #: Pinned at startup: the env var is consulted exactly once.
        self.cache_dir = str(
            (self.settings.cache_dir and os.path.abspath(
                os.path.expanduser(self.settings.cache_dir)))
            or default_cache_dir().expanduser().resolve()
        )
        #: Pinned at startup: fills are refused once the tree drifts.
        self.code = code_version()
        self.cache = ResultCache(self.cache_dir)
        self.started = time.time()
        self.singleflight = SingleFlight()
        #: key_hash -> job waiting for the next fill batch.
        self._pending: Dict[str, _FillJob] = {}
        #: key_hash -> sweep name, for labelling landed outcomes.
        self._flight_sweep: Dict[str, str] = {}
        #: (name, canonical args JSON) -> (spec, {repr(key): entry}).
        self._indices: Dict[Tuple[str, str],
                            Tuple[SweepSpec, Dict[str, _PointEntry]]] = {}
        #: key_hash -> (entry stat signature, record JSON bytes).
        self._reply_memo: Dict[str, Tuple[Tuple[int, int, int], bytes]] = {}
        self._subscribers: List[asyncio.Queue] = []
        self._wake: Optional[asyncio.Event] = None
        self._fill_task: Optional[asyncio.Task] = None
        self._fill_thread: Optional[ThreadPoolExecutor] = None
        # Counters (event-loop thread only).
        self.queries_total = 0
        self.query_hits = 0
        self.query_misses = 0
        self.fill_runs = 0
        self.fill_points = 0
        self.fill_refused = 0
        self.events_dropped = 0
        self.reply_memo_hits = 0
        self._latency_us: deque = deque(
            maxlen=self.settings.latency_window)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Arm the fill loop on the running event loop."""
        self._wake = asyncio.Event()
        # Not the loop's default executor: a batch submitted just as
        # the previous one returned found no idle thread there and
        # started another, and each extra thread's malloc arena grew
        # the server's RSS by megabytes.
        self._fill_thread = ThreadPoolExecutor(
            1, thread_name_prefix="repro.serve.fill")
        self._fill_task = asyncio.get_running_loop().create_task(
            self._fill_loop(), name="repro.serve.fill"
        )

    async def stop(self) -> None:
        """Cancel the fill loop and fail every in-flight query.

        Returns once every published record's cache write has landed;
        a simulation still running is not waited for.
        """
        if self._fill_task is not None:
            self._fill_task.cancel()
            try:
                await self._fill_task
            except asyncio.CancelledError:
                pass
            self._fill_task = None
        if self._fill_thread is not None:
            # A batch still running finishes in the background.
            self._fill_thread.shutdown(wait=False, cancel_futures=True)
            self._fill_thread = None
        self._pending.clear()
        await self.singleflight.landed()
        self._flight_sweep.clear()
        self.singleflight.fail_all(FillError("server shutting down"))

    # ------------------------------------------------------------------
    # Point resolution
    # ------------------------------------------------------------------
    def _spec_index(
        self, sweep: str, args: Optional[dict]
    ) -> Tuple[SweepSpec, Dict[str, _PointEntry]]:
        """The (spec, key-index) pair for one (sweep, args) identity.

        Built once per identity and cached: every later query is pure
        dict lookups.  ``args`` are JSON-safe sweep-factory overrides,
        decoded by :func:`repro.sweep.apply_overrides` (``base`` is a
        system *name*).
        At most :data:`SPEC_INDEX_ENTRIES` identities are kept, oldest
        evicted first; an evicted identity is rebuilt on its next query.
        """
        if args is not None and not isinstance(args, dict):
            raise BadRequestError(
                f"args must be a JSON object of sweep-factory overrides, "
                f"got {type(args).__name__}"
            )
        args = args or {}
        try:
            cache_key = (sweep, json.dumps(args, sort_keys=True))
        except TypeError as exc:
            raise BadRequestError(f"args are not JSON-safe: {exc}") from None
        cached = self._indices.get(cache_key)
        if cached is not None:
            return cached
        if sweep not in SWEEPS:
            raise UnknownSweepError(
                f"unknown sweep {sweep!r}; GET /sweeps lists the "
                f"{len(SWEEPS)} registered names"
            )
        try:
            spec = apply_overrides(sweep, args)
            runner = resolve_runner(spec.runner)
            index: Dict[str, _PointEntry] = {}
            for point in spec.points:
                params = point_params(spec, point)
                index[repr(point.key)] = _PointEntry(
                    point=point,
                    params=params,
                    key_hash=point_key(point, runner, params),
                    fill_bytes=_fill_bytes(runner, params),
                )
        except Exception as exc:  # noqa: BLE001 - any bad args are a 400
            # Factories take whatever JSON the client sent, so a wrong
            # type can fail anywhere inside them or in keying the points
            # they built (AttributeError, OverflowError, ...).
            raise BadRequestError(
                f"cannot build sweep {sweep!r} with args {args!r}: "
                f"{type(exc).__name__}: {exc}"
            ) from None
        indices = self._indices
        if len(indices) >= SPEC_INDEX_ENTRIES:
            del indices[next(iter(indices))]
        indices[cache_key] = (spec, index)
        return spec, index

    def _lookup(
        self, sweep: str, key: str, args: Optional[dict]
    ) -> Tuple[SweepSpec, _PointEntry]:
        spec, index = self._spec_index(sweep, args)
        entry = index.get(key)
        if entry is None:
            sample = next(iter(index), None)
            raise UnknownPointError(
                f"sweep {sweep!r} has no point keyed {key!r}; keys are "
                f"Python reprs of the point labels ({len(index)} points, "
                f"e.g. {sample!r})"
            )
        return spec, entry

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    async def query(
        self, sweep: str, key: str, args: Optional[dict] = None
    ) -> bytes:
        """One point's JSON reply: cache hit, coalesced wait, or fill.

        The in-flight registry is checked *before* the cache: a
        coalesced follower costs a dict lookup, never disk I/O, and the
        engine's own lookup inside the fill batch remains the single
        authoritative miss per flight.  A key whose record is published
        but not yet written is awaited, then read as a warm hit.
        """
        t0 = time.perf_counter()
        self.queries_total += 1
        spec, entry = self._lookup(sweep, key, args)
        flights = self.singleflight
        landing = flights.landing(entry.key_hash)
        while landing is not None:
            await flights.wait(landing)
            landing = flights.landing(entry.key_hash)
        coalesced = False
        if entry.key_hash in flights:
            flight, _leader = flights.claim(entry.key_hash)
            coalesced = True
        else:
            record = self._cached_record(entry.key_hash)
            if record is not None:
                self.query_hits += 1
                self._note_latency(t0)
                return reply_body(sweep, key, entry.key_hash, record,
                                  cached=True, coalesced=False)
            self._check_budget(sweep, key, entry)
            flight, leader = flights.claim(entry.key_hash)
            if leader:
                self._enqueue(spec, entry)
        self.query_misses += 1
        record = await flights.wait(flight)
        self._note_latency(t0)
        return reply_body(sweep, key, entry.key_hash, record,
                          cached=False, coalesced=coalesced)

    def _cached_record(self, key_hash: str) -> Optional[bytes]:
        """The cached record's JSON bytes for ``key_hash``, or None.

        Served from the reply memo while the entry's ``stat`` matches
        the one taken before the memo's read; otherwise read through
        :meth:`ResultCache.get`, which counts the hit or miss.
        """
        memo = self._reply_memo
        try:
            st = os.stat(self.cache.entry_path(key_hash))
        except OSError:
            signature = None
        else:
            signature = (st.st_ino, st.st_size, st.st_mtime_ns)
            held = memo.get(key_hash)
            if held is not None and held[0] == signature:
                self.cache.count_hit()
                self.reply_memo_hits += 1
                return held[1]
        memo.pop(key_hash, None)
        record = self.cache.get(key_hash)
        if record is None:
            return None
        data = _record_json(record)
        if signature is not None:
            if len(memo) >= REPLY_MEMO_ENTRIES:
                del memo[next(iter(memo))]
            memo[key_hash] = (signature, data)
        return data

    def enqueue_sweep(self, sweep: str, args: Optional[dict] = None) -> dict:
        """Prefetch: enqueue every cold point of a sweep for filling.

        Returns the disposition per point (already cached / already in
        flight / newly enqueued); progress streams to ``/events``
        subscribers as each fill lands.
        """
        spec, index = self._spec_index(sweep, args)
        cached = in_flight = enqueued = 0
        cold = []
        for key, entry in index.items():
            if entry.key_hash in self.singleflight:
                in_flight += 1
            elif self.cache.get(entry.key_hash) is not None:
                cached += 1
            else:
                # Refuse the whole prefetch before claiming any point.
                self._check_budget(sweep, key, entry)
                cold.append(entry)
        for entry in cold:
            _flight, leader = self.singleflight.claim(entry.key_hash)
            if leader:
                self._enqueue(spec, entry)
                enqueued += 1
        return {
            "sweep": sweep,
            "points": len(index),
            "cached": cached,
            "in_flight": in_flight,
            "enqueued": enqueued,
        }

    @staticmethod
    def _check_budget(sweep: str, key: str, entry: _PointEntry) -> None:
        """Refuse to fill a point over :data:`GEMM_FILL_BUDGET` (a 400)."""
        if entry.fill_bytes > GEMM_FILL_BUDGET:
            raise BadRequestError(
                f"point {key!r} of sweep {sweep!r} would move an estimated "
                f"{entry.fill_bytes} bytes of GEMM operands, over the "
                f"server's fill budget of {GEMM_FILL_BUDGET} bytes; run it "
                f"with `repro sweep` instead"
            )

    def _enqueue(self, spec: SweepSpec, entry: _PointEntry) -> None:
        self._pending[entry.key_hash] = _FillJob(
            spec=spec, point=entry.point, key_hash=entry.key_hash
        )
        self._flight_sweep[entry.key_hash] = spec.name
        if self._wake is None:
            raise FillError("service not started: no fill loop to wake")
        self._wake.set()

    def _note_latency(self, t0: float) -> None:
        self._latency_us.append((time.perf_counter() - t0) * 1e6)

    # ------------------------------------------------------------------
    # Fill loop
    # ------------------------------------------------------------------
    async def _fill_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            if self.settings.batch_window > 0:
                # Let a burst of concurrent distinct misses pile onto
                # this batch instead of paying one fill run each.
                await self._sleep_batch_window()
            jobs = list(self._pending.values())
            self._pending.clear()
            if jobs:
                await self._run_fill(jobs)

    async def _sleep_batch_window(self) -> None:
        """Sleep ``batch_window`` seconds of time the loop could run.

        The window is slept in 16 ticks, and a tick that overran counts
        as two at most.  When the whole process pauses (a full garbage
        collection in a large process took 25-35 ms), the rest of the
        window still lets the queries that the pause held back reach the
        flight before its record is published.
        """
        loop = asyncio.get_running_loop()
        window = self.settings.batch_window
        tick = window / 16
        waited = 0.0
        while waited < window:
            start = loop.time()
            await asyncio.sleep(tick)
            waited += min(loop.time() - start, 2 * tick)

    async def _run_fill(self, jobs: List[_FillJob]) -> None:
        loop = asyncio.get_running_loop()

        def post(callback, *args) -> None:
            try:
                loop.call_soon_threadsafe(callback, *args)
            except RuntimeError:
                # The loop closed under a batch that outlived stop();
                # its writes still land on disk.
                pass

        await loop.run_in_executor(self._fill_thread, self._fill_batch,
                                   jobs, post)

    def _fill_batch(self, jobs: List[_FillJob], post) -> None:
        """One batch, on the fill thread: check the source digest, then
        simulate, publish and write every job's point.

        Every result reaches the event loop through ``post``, in the
        order it happened, so a failure fails the batch's open flights
        (published ones included) in one step.  Both steps go through
        this module's ``fresh_code_version`` and ``run_points`` names,
        looked up at call time.
        """
        try:
            digest = fresh_code_version()
        except Exception as exc:  # noqa: BLE001 - surfaced per waiter
            # E.g. a file listed by the re-hash vanished before it was
            # read.  Fail this batch, keep the fill loop alive.
            post(self._fail_jobs, jobs, "fill-error", FillError(
                f"code digest check failed: {type(exc).__name__}: {exc}"))
            return
        if digest != self.code:
            post(self._refuse, jobs, StaleCodeError(
                f"source tree changed under the running server: pinned "
                f"code digest {self.code[:12]}..., tree is now "
                f"{digest[:12]}... -- refusing to fill; restart the "
                f"server to serve the edited tree"
            ))
            return
        post(self._fill_started, len(jobs))
        try:
            run_points(
                [(job.spec, job.point) for job in jobs],
                workers=self.settings.workers,
                cache=_PublishingStore(self.cache,
                                       functools.partial(post, self._publish)),
                on_outcome=functools.partial(post, self._land),
            )
        except Exception as exc:  # noqa: BLE001 - surfaced per waiter
            # A failed point's message carries the worker's traceback;
            # clients get its first line, not the server's source paths.
            summary = str(exc).partition("\n")[0]
            post(self._fail_jobs, jobs, "fill-error",
                 FillError(f"fill run failed: {summary}"))
            return
        post(self._broadcast, {"type": "fill-done", "points": len(jobs)})

    def _refuse(self, jobs: List[_FillJob], error: StaleCodeError) -> None:
        self.fill_refused += len(jobs)
        self._fail_jobs(jobs, "fill-refused", error)

    def _fill_started(self, points: int) -> None:
        self.fill_runs += 1
        self._broadcast({"type": "fill-start", "points": points})

    def _fail_jobs(self, jobs: List[_FillJob], event: str,
                   error: Exception) -> None:
        """Fail every still-open flight of ``jobs`` with ``error``."""
        for job in jobs:
            # Outcomes that landed before a failure already resolved
            # their flights; failing them again is a no-op.  A flight
            # published but not landed is retired, and the queries
            # awaiting its landing go on to the warm path.
            self._flight_sweep.pop(job.key_hash, None)
            self.singleflight.fail(job.key_hash, error)
        self._broadcast({"type": event, "points": len(jobs),
                         "error": str(error)})

    def _publish(self, key_hash: str, record: bytes) -> None:
        """A simulated point's record, before its cache write."""
        self.fill_points += 1
        self.singleflight.publish(key_hash, record)

    def _land(self, outcome) -> None:
        """One fill outcome arrives on the event loop thread.

        A simulated point was published before its write, which has
        now landed.  A replayed entry or a deduplicated sibling was not:
        its waiters get the record encoded here.
        """
        flights = self.singleflight
        record = (None if flights.landing(outcome.key_hash) is not None
                  else _record_json(outcome.record))
        sweep = self._flight_sweep.pop(outcome.key_hash, None)
        flights.resolve(outcome.key_hash, record)
        self._broadcast({
            "type": "outcome",
            "sweep": sweep,
            "key": repr(outcome.key),
            "key_hash": outcome.key_hash,
            "cached": outcome.cached,
        })

    # ------------------------------------------------------------------
    # Progress streaming (SSE feed)
    # ------------------------------------------------------------------
    def subscribe(self) -> asyncio.Queue:
        queue: asyncio.Queue = asyncio.Queue(maxsize=256)
        self._subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        try:
            self._subscribers.remove(queue)
        except ValueError:
            pass

    def _broadcast(self, event: dict) -> None:
        for queue in self._subscribers:
            try:
                queue.put_nowait(event)
            except asyncio.QueueFull:
                # A stalled consumer must not block the loop; it can
                # re-sync from /healthz counters.
                self.events_dropped += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def latency_quantiles(self) -> Optional[Dict[str, float]]:
        if not self._latency_us:
            return None
        data = sorted(self._latency_us)

        def at(fraction: float) -> float:
            return data[min(len(data) - 1,
                            int(fraction * (len(data) - 1) + 0.5))]

        return {"p50": round(at(0.50), 1), "p95": round(at(0.95), 1)}

    def healthz(self) -> dict:
        """Liveness plus the pinned identity every client can verify."""
        return {
            "status": "ok",
            "pid": os.getpid(),
            "uptime_s": round(time.time() - self.started, 3),
            "cache_dir": self.cache_dir,
            "code": self.code,
            "workers": self.settings.workers,
            "batch_window_s": self.settings.batch_window,
            "queries_total": self.queries_total,
            "query_hits": self.query_hits,
            "query_misses": self.query_misses,
            "coalesced": self.singleflight.coalesced,
            "in_flight": len(self.singleflight),
            "pending_fill": len(self._pending),
            "fill_runs": self.fill_runs,
            "fill_points": self.fill_points,
            "fill_refused": self.fill_refused,
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "reply_memo_entries": len(self._reply_memo),
            "reply_memo_hits": self.reply_memo_hits,
            "latency_us": self.latency_quantiles(),
        }

    def sweeps(self) -> List[dict]:
        """The queryable namespace (name + default point count)."""
        out = []
        for name in sorted(SWEEPS):
            entry: Dict[str, Any] = {"name": name}
            try:
                spec, index = self._spec_index(name, None)
            except BadRequestError:
                entry["points"] = None
            else:
                entry["points"] = len(index)
            out.append(entry)
        return out

    def metrics_text(self) -> str:
        """Prometheus text exposition of the server counters."""
        quantiles = self.latency_quantiles() or {}
        families = [
            ("repro_serve_queries_total", "counter",
             "Point queries received.",
             [(None, self.queries_total)]),
            ("repro_serve_query_hits_total", "counter",
             "Queries answered straight from the result cache.",
             [(None, self.query_hits)]),
            ("repro_serve_query_misses_total", "counter",
             "Queries that waited on a fill (leaders and followers).",
             [(None, self.query_misses)]),
            ("repro_serve_coalesced_total", "counter",
             "Queries coalesced onto an in-flight identical fill.",
             [(None, self.singleflight.coalesced)]),
            ("repro_serve_fill_runs_total", "counter",
             "Batched fill runs executed.",
             [(None, self.fill_runs)]),
            ("repro_serve_fill_points_total", "counter",
             "Points simulated by fill runs.",
             [(None, self.fill_points)]),
            ("repro_serve_fill_refused_total", "counter",
             "Fill jobs refused because the source tree no longer "
             "matches the pinned code digest.",
             [(None, self.fill_refused)]),
            ("repro_serve_cache_hits_total", "counter",
             "Result-cache hits (query path plus fill engine).",
             [(None, self.cache.hits)]),
            ("repro_serve_cache_misses_total", "counter",
             "Result-cache misses (query path plus fill engine).",
             [(None, self.cache.misses)]),
            ("repro_serve_reply_memo_entries", "gauge",
             "Points whose record bytes the reply memo holds.",
             [(None, len(self._reply_memo))]),
            ("repro_serve_reply_memo_hits_total", "counter",
             "Cache hits answered from the reply memo after a stat "
             "check, without reading the entry.",
             [(None, self.reply_memo_hits)]),
            ("repro_serve_in_flight", "gauge",
             "Cold keys currently being filled.",
             [(None, len(self.singleflight))]),
            ("repro_serve_events_dropped_total", "counter",
             "Progress events dropped on stalled SSE subscribers.",
             [(None, self.events_dropped)]),
            ("repro_serve_uptime_seconds", "gauge",
             "Seconds since the server pinned its identity.",
             [(None, round(time.time() - self.started, 3))]),
        ]
        if quantiles:
            families.append((
                "repro_serve_query_latency_us", "gauge",
                "Recent query latency quantiles, microseconds.",
                [({"quantile": "0.5"}, quantiles["p50"]),
                 ({"quantile": "0.95"}, quantiles["p95"])],
            ))
        return render_prometheus(families)
