"""The sweep executor: cache lookup, process-pool fan-out, fallback.

:func:`run_sweep` drives a :class:`~repro.sweep.spec.SweepSpec` end to
end:

1. every point is hashed (config + params + runner + code version) and
   looked up in the on-disk :class:`~repro.sweep.cache.ResultCache`
   (an entry the runner cannot decode counts as a miss);
2. the remaining points are sharded across a ``multiprocessing`` pool
   (``fork`` where available, ``spawn`` otherwise) -- each point is an
   independent :class:`~repro.core.system.AcceSysSystem`, so points
   never share simulator state and parallel results are bit-identical
   to serial ones;
3. fresh records are written back to the cache and decoded into the
   same result type a cache hit yields.

Results stream: the pool is driven with ``imap_unordered``, so every
entry point can observe points as they finish rather than after the
whole grid barriers.  :func:`iter_sweep` exposes that stream directly;
:func:`run_sweep` accepts a ``progress`` callback; and
:func:`run_sweeps` executes *several* specs against one worker-pool
invocation, amortizing pool spin-up across experiments (the named
registry makes sweep composition plain data).

Worker count resolves from the ``workers`` argument, then the
``REPRO_SWEEP_WORKERS`` environment variable, then 1 (serial).  Any
failure to stand up the pool degrades gracefully to in-process serial
execution rather than failing the sweep.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import traceback
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.sweep.cache import (
    NullCache,
    ResultCache,
    atomic_write_json,
    point_key,
)
from repro.sweep.spec import (
    Runner,
    SweepPoint,
    SweepSpec,
    derive_seed,
    resolve_runner,
)

#: Environment override for the default worker count.
WORKERS_ENV = "REPRO_SWEEP_WORKERS"


@dataclass
class SweepOutcome:
    """One finished point: its decoded result plus cache provenance."""

    point: SweepPoint
    result: Any
    record: dict
    cached: bool
    key_hash: str
    #: Per-point telemetry summary (artifact paths, sampler counts,
    #: diagnostics) when a telemetry session was active while the point
    #: simulated; None for cached replays and untraced runs.  Lives
    #: *beside* ``record``, never inside it: the record payload stays
    #: bit-identical with telemetry on and off.
    telemetry: Optional[dict] = None

    @property
    def key(self):
        return self.point.key

    def to_record(self) -> dict:
        """JSON-safe summary of this outcome (key repr + raw record).

        The point key is stored as ``repr`` -- keys are tuples/strings
        chosen to label reports, and their repr is what shard workers
        and the orchestrator compare across process boundaries.
        Telemetry and diagnostics, when captured, ride as optional
        sibling keys -- absent on untraced runs, so untraced record
        dicts are byte-for-byte what they were before telemetry existed.
        """
        out = {
            "key": repr(self.key),
            "key_hash": self.key_hash,
            "cached": self.cached,
            "record": self.record,
        }
        if self.telemetry:
            telemetry = dict(self.telemetry)
            diagnostics = telemetry.pop("diagnostics", None)
            if telemetry:
                out["telemetry"] = telemetry
            if diagnostics is not None:
                out["diagnostics"] = diagnostics
        return out


@dataclass
class SweepReport:
    """Everything :func:`run_sweep` learned, in point order."""

    spec_name: str
    outcomes: List[SweepOutcome] = field(default_factory=list)
    workers: int = 1
    parallel: bool = False
    #: (index, total) when this report covers one shard of the grid.
    shard: Optional[Tuple[int, int]] = None

    @property
    def hits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)

    @property
    def misses(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.cached)

    @property
    def fully_cached(self) -> bool:
        return bool(self.outcomes) and self.misses == 0

    def results(self) -> Dict[Any, Any]:
        """Point key -> decoded result, preserving spec order."""
        return {outcome.key: outcome.result for outcome in self.outcomes}

    def describe(self) -> str:
        mode = (f"{self.workers} workers" if self.parallel else "serial")
        shard = (f", shard {self.shard[0]}/{self.shard[1]}"
                 if self.shard else "")
        return (
            f"sweep {self.spec_name!r}: {len(self.outcomes)} points{shard}, "
            f"{self.hits} cached / {self.misses} simulated ({mode})"
        )

    def to_record(self) -> dict:
        """JSON-safe report summary: what a shard worker ships home.

        The orchestrator merges these per-shard records
        (:func:`merge_report_records`) into one full-grid record and
        checks it bit-identical against a cached replay of the sweep.
        """
        return {
            "spec": self.spec_name,
            "shard": list(self.shard) if self.shard else None,
            "workers": self.workers,
            "parallel": self.parallel,
            "hits": self.hits,
            "misses": self.misses,
            "points": [outcome.to_record() for outcome in self.outcomes],
        }


#: Fields every shard report record must carry to be mergeable.  A
#: record missing any of them is malformed (or written by an older,
#: incompatible tree) and is refused rather than silently merged as
#: zero -- ``misses`` in particular feeds the orchestrator's
#: no-recompute assertion, and a defaulted 0 there produces a
#: wrong-but-plausible fleet total.
REQUIRED_REPORT_FIELDS = ("spec", "points", "hits", "misses")


def merge_report_records(records: Sequence[dict]) -> dict:
    """Merge per-shard report records into one full-grid record.

    All records must describe the same spec.  Point keys must be
    pairwise disjoint across shards (the sharder guarantees this;
    a violation here means mixed-up shard files) -- except that a
    reassigned shard may legitimately appear twice, in which case the
    duplicate must carry a bit-identical ``record`` payload or the
    merge refuses.  Hit/miss counters are summed across shards, so the
    merged record's ``misses`` says how many points were *actually
    simulated* across the whole run -- the orchestrator's
    no-recompute assertion reads it directly.

    Shape mismatches are refused with provenance: a record missing any
    of :data:`REQUIRED_REPORT_FIELDS` raises, naming the record's
    position and (when present) its spec, instead of contributing
    zeroed counters to the fleet total.
    """
    if not records:
        raise ValueError("nothing to merge: no shard report records")
    for index, record in enumerate(records):
        if not isinstance(record, dict):
            raise ValueError(
                f"shard report #{index} is not a report record "
                f"(got {type(record).__name__}); refusing to merge"
            )
        missing = [name for name in REQUIRED_REPORT_FIELDS
                   if name not in record]
        if missing:
            raise ValueError(
                f"shard report #{index} "
                f"(spec {record.get('spec', '<unknown>')!r}) is missing "
                f"field(s) {missing}: malformed or written by an "
                f"incompatible tree; refusing to merge it into a "
                f"wrong-but-plausible fleet total"
            )
    spec_names = {record["spec"] for record in records}
    if len(spec_names) != 1:
        raise ValueError(
            f"cannot merge reports from different sweeps: {sorted(spec_names)}"
        )
    merged_points: Dict[str, dict] = {}
    hits = misses = 0
    for record in records:
        hits += record["hits"]
        misses += record["misses"]
        for point in record["points"]:
            prior = merged_points.get(point["key"])
            if prior is not None and prior["record"] != point["record"]:
                raise ValueError(
                    f"shard reports disagree on point {point['key']}: "
                    f"{prior['record']!r} != {point['record']!r}"
                )
            if prior is None:
                merged_points[point["key"]] = point
    return {
        "spec": spec_names.pop(),
        "shard": None,
        "hits": hits,
        "misses": misses,
        "points": list(merged_points.values()),
    }


def resolve_workers(workers: Optional[int]) -> int:
    """Explicit argument, else $REPRO_SWEEP_WORKERS, else serial.

    A malformed environment value falls back to serial *loudly* -- a
    typo must not silently turn a paper-scale sweep single-core.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        if env is None:
            workers = 1
        else:
            try:
                workers = int(env)
            except ValueError:
                print(
                    f"repro.sweep: ignoring invalid {WORKERS_ENV}="
                    f"{env!r} (not an integer); running serial",
                    file=sys.stderr,
                )
                workers = 1
    return max(1, workers)


def parse_shard(value: str) -> Tuple[int, int]:
    """Parse an ``I/N`` shard argument into a validated (index, total)."""
    try:
        index_text, total_text = value.split("/", 1)
        index, total = int(index_text), int(total_text)
    except ValueError:
        raise ValueError(
            f"shard must look like I/N (e.g. 2/4), got {value!r}"
        ) from None
    return validate_shard((index, total))


def validate_shard(shard: Tuple[int, int]) -> Tuple[int, int]:
    index, total = shard
    if total < 1 or not 1 <= index <= total:
        raise ValueError(
            f"shard index must satisfy 1 <= I <= N, got {index}/{total}"
        )
    return index, total


def shard_points(
    points: List[SweepPoint], shard: Optional[Tuple[int, int]]
) -> List[SweepPoint]:
    """Deterministic slice of the grid for shard ``(index, total)``.

    Round-robin by point position (``points[index-1::total]``): shards
    are disjoint, exhaustive, independent of point *content*, and stable
    across runs -- so N machines pointed at a shared cache directory each
    simulate their slice exactly once and a final unsharded run replays
    everything from cache.
    """
    if shard is None:
        return list(points)
    index, total = validate_shard(shard)
    return list(points[index - 1::total])


def point_params(spec: SweepSpec, point: SweepPoint) -> dict:
    """The final runner kwargs for one point (auto-seed applied).

    Public because the cache key of a point covers these *final*
    parameters, not the raw ``point.params``: anything that wants to
    compute a point's key outside the engine (the result server's
    query index, external tooling) must derive the seed exactly as the
    engine does or silently miss the cache.
    """
    params = dict(point.params)
    if spec.auto_seed and "seed" not in params:
        params["seed"] = derive_seed(spec.base_seed, point)
    return params


def _drain_telemetry(settings, key_hash: str, profile) -> Optional[dict]:
    """Collect one simulated point's telemetry; write its artifacts.

    Runs in whichever process simulated the point (pool workers inherit
    the session through the environment channel), so artifacts land on
    disk exactly once, next to the worker that produced them.  Artifact
    names are ``<key_hash>.<kind>``, so rerunning the same point
    overwrites them (byte-identically, except the wall-clock profile).
    Returns the JSON-safe summary carried on
    :attr:`SweepOutcome.telemetry`, or None when no session is active.
    The profile's numbers go only into their artifact file, never the
    summary: everything shipped between processes must be deterministic.
    """
    if settings is None or not settings.enabled:
        return None
    from repro.telemetry.state import drain_point

    data = drain_point() or {}
    directory = settings.trace_dir
    if directory:
        os.makedirs(directory, exist_ok=True)
    out: Dict[str, Any] = {}
    trace = data.get("trace")
    if trace is not None:
        entry: Dict[str, Any] = {"events": trace["events"]}
        if directory:
            path = os.path.join(directory, f"{key_hash}.trace.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(trace["chrome_json"])
            entry["path"] = path
        out["trace"] = entry
    metrics = data.get("metrics")
    if metrics is not None:
        entry = {"summary": metrics["summary"]}
        if directory:
            path = os.path.join(directory, f"{key_hash}.metrics.json")
            atomic_write_json(path, metrics["record"])
            prom_path = os.path.join(directory, f"{key_hash}.prom")
            with open(prom_path, "w", encoding="utf-8") as handle:
                handle.write(metrics["prometheus"])
            entry["path"] = path
            entry["prometheus_path"] = prom_path
        out["metrics"] = entry
    if profile is not None and directory:
        path = os.path.join(directory, f"{key_hash}.profile.json")
        atomic_write_json(path, profile)
        out["profile"] = {"path": path}
    if "diagnostics" in data:
        out["diagnostics"] = data["diagnostics"]
    return out or None


def _point_record(runner: Runner, config, params: dict) -> dict:
    """Acquire, drive and snapshot one point, then encode its record."""
    return runner.encode(runner.run(config, **params))


def _simulate(
    runner: Runner, point: SweepPoint, params: dict, key_hash: str
) -> tuple:
    """Run one point and encode its result (this is the worker body).

    Returns ``(record, telemetry)``: the runner-encoded record, plus the
    per-point telemetry summary (None on ordinary untraced runs).  A
    session with ``profile`` on and an artifact directory to write the
    profile to runs the whole point under cProfile.
    """
    from repro.telemetry.state import active

    settings = active()
    if settings is not None and settings.profile and settings.trace_dir:
        from repro.telemetry.profiler import profile_call

        record, profile = profile_call(_point_record, runner,
                                       point.config, params)
    else:
        record, profile = _point_record(runner, point.config, params), None
    return record, _drain_telemetry(settings, key_hash, profile)


@dataclass
class _WorkerFailure:
    """A simulation error, shipped back as a value so the parent can
    tell runner bugs apart from pool-infrastructure failures."""

    point_key: str
    message: str
    traceback: str

    @classmethod
    def capture(cls, point: SweepPoint, exc: Exception) -> "_WorkerFailure":
        return cls(
            point_key=repr(point.key),
            message=f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(),
        )


def _pool_entry(payload) -> tuple:
    """Module-level trampoline so the pool can pickle the work unit."""
    index, runner_ref, point, params, key_hash = payload
    runner = resolve_runner(runner_ref)
    try:
        return index, _simulate(runner, point, params, key_hash)
    except Exception as exc:  # noqa: BLE001 - re-raised by the parent
        return index, _WorkerFailure.capture(point, exc)


def _run_parallel(jobs: List[tuple], workers: int):
    """Stream ``jobs`` through a process pool; None means "fall back".

    ``fork`` is preferred (no re-import, cheap start); platforms without
    it use ``spawn``.  Pool stand-up failures -- an interpreter without
    ``multiprocessing`` support, a sandbox that forbids subprocesses --
    are caught and reported as a fallback, because the serial path
    computes identical results.  On success, returns an iterator of
    ``(index, record)`` pairs in *completion* order
    (``imap_unordered``), so the consumer observes points as they
    finish.  Exceptions raised by the simulation itself come back as
    :class:`_WorkerFailure` values mixed into the stream; the engine
    caches the successful siblings and then raises, so a broken point
    is never "fixed" by re-running everything serially.
    """
    try:
        methods = multiprocessing.get_all_start_methods()
        method = "fork" if "fork" in methods else "spawn"
        context = multiprocessing.get_context(method)
        pool = context.Pool(processes=workers)
    except Exception as exc:  # noqa: BLE001 - fallback is the contract
        print(
            f"repro.sweep: parallel execution unavailable ({exc!r}); "
            f"falling back to serial",
            file=sys.stderr,
        )
        return None

    def stream():
        with pool:
            yield from pool.imap_unordered(_pool_entry, jobs)

    return stream()


@dataclass
class _EngineState:
    """Bookkeeping the streaming core reports back to its entry point."""

    workers: int = 1
    parallel: bool = False
    failures: List[_WorkerFailure] = field(default_factory=list)


def _resolve_store(cache, cache_dir):
    if isinstance(cache, bool):
        return ResultCache(cache_dir) if cache else NullCache()
    return cache


def _execute(
    specs: Sequence[SweepSpec],
    sharded: Sequence[List[SweepPoint]],
    workers: int,
    store,
    state: _EngineState,
) -> Iterator[Tuple[int, int, SweepOutcome]]:
    """Core streaming engine shared by every entry point.

    Yields ``(spec_index, point_index, outcome)`` as points finish:
    cached points first (in point order), then simulated points in
    completion order.  All specs' pending points share one pool
    invocation, and points with identical cache keys (point-identical
    experiments like fig8/fig9, or batched duplicates) are simulated
    once -- followers replay the sibling's record as a cache hit would.
    Raises after the stream is exhausted if any point failed --
    successful siblings are cached (and yielded) first.
    """
    runners = [resolve_runner(spec.runner) for spec in specs]

    # Phase 1: cache lookups -------------------------------------------
    pending: List[tuple] = []  # (gi, si, pi, point, params, key_hash)
    first_of_key: Dict[str, int] = {}
    #: gi of a pending point -> identically-keyed points awaiting it.
    followers: Dict[int, List[tuple]] = {}
    for si, (spec, points) in enumerate(zip(specs, sharded)):
        runner = runners[si]
        for pi, point in enumerate(points):
            params = point_params(spec, point)
            key_hash = point_key(point, runner, params)
            record = store.get(key_hash)
            if record is not None:
                try:
                    result = runner.decode(record)
                except (TypeError, KeyError, ValueError):
                    # An entry the runner cannot rebuild (wrong shape,
                    # stale field set) is a miss: simulate the point
                    # again and overwrite it.
                    pass
                else:
                    yield si, pi, SweepOutcome(
                        point=point,
                        result=result,
                        record=record,
                        cached=True,
                        key_hash=key_hash,
                    )
                    continue
            prior_gi = first_of_key.get(key_hash)
            if prior_gi is not None:
                # Identical cache key already pending (point-identical
                # experiments like fig8/fig9, or a batched duplicate):
                # simulate once, fan the record out on completion.
                followers.setdefault(prior_gi, []).append(
                    (si, pi, point, key_hash)
                )
                continue
            first_of_key[key_hash] = len(pending)
            pending.append(
                (len(pending), si, pi, point, params, key_hash)
            )

    # Phase 2+3 interleaved: simulate, write back, yield ---------------
    cache_write_failed = False

    def finish(entry, payload) -> Optional[Tuple[int, int, SweepOutcome]]:
        nonlocal cache_write_failed
        _gi, si, pi, point, params, key_hash = entry
        if isinstance(payload, _WorkerFailure):
            state.failures.append(payload)
            return None
        record, telemetry = payload
        try:
            store.put(
                key_hash,
                record,
                meta={
                    "sweep": specs[si].name,
                    "point": repr(point.key),
                    "config": point.config.name,
                },
            )
        except (OSError, TypeError) as exc:
            # A broken cache location (OSError) or a JSON-unsafe record
            # from a dict-returning runner (TypeError) must not discard
            # finished work; report once and keep returning live results.
            if not cache_write_failed:
                print(
                    f"repro.sweep: cannot write result cache ({exc}); "
                    f"results will not be reusable",
                    file=sys.stderr,
                )
                cache_write_failed = True
        return si, pi, SweepOutcome(
            point=point,
            result=runners[si].decode(record),
            record=record,
            cached=False,
            key_hash=key_hash,
            telemetry=telemetry,
        )

    def emit(entry, payload):
        """Outcomes for one finished point plus its deduped followers."""
        out = finish(entry, payload)
        if out is None:
            return
        yield out
        record = payload[0]
        for fsi, fpi, fpoint, fhash in followers.get(entry[0], ()):
            # A follower never simulated: it replays the sibling's
            # record, exactly as a cache hit would have.
            yield fsi, fpi, SweepOutcome(
                point=fpoint,
                result=runners[fsi].decode(record),
                record=record,
                cached=True,
                key_hash=fhash,
            )

    stream = None
    if workers > 1 and len(pending) > 1:
        # runner refs (names or module-level callables) pickle to workers
        jobs = [(gi, specs[si].runner, point, params, key_hash)
                for gi, si, pi, point, params, key_hash in pending]
        stream = _run_parallel(jobs, min(workers, len(jobs)))

    done: set = set()
    if stream is not None:
        state.parallel = True
        stream_iter = iter(stream)
        while True:
            # Only the *stream* step is guarded: an infrastructure
            # failure there (e.g. an unpicklable payload surfacing at
            # dispatch) falls back to serial, while errors from
            # finish()/decode on an already-delivered record propagate
            # loudly, exactly as they do on the serial path.
            try:
                gi, record = next(stream_iter)
            except StopIteration:
                break
            except Exception as exc:  # noqa: BLE001 - fallback contract
                print(
                    f"repro.sweep: parallel execution unavailable "
                    f"({exc!r}); falling back to serial",
                    file=sys.stderr,
                )
                state.parallel = False
                break
            done.add(gi)
            yield from emit(pending[gi], record)
    if stream is None or not state.parallel:
        # Serial (or fallback): fail fast on the first broken point, but
        # flow earlier successes through `finish` so they reach the
        # cache before the raise below.
        for entry in pending:
            gi, si, pi, point, params, key_hash = entry
            if gi in done:
                continue
            try:
                payload = _simulate(runners[si], point, params, key_hash)
            except Exception as exc:  # noqa: BLE001 - re-raised below
                state.failures.append(_WorkerFailure.capture(point, exc))
                break
            done.add(gi)
            yield from emit(entry, payload)

    if state.failures:
        first = state.failures[0]
        others = (f"\n({len(state.failures) - 1} more point(s) also failed)"
                  if len(state.failures) > 1 else "")
        raise RuntimeError(
            f"sweep point {first.point_key} failed: {first.message}\n"
            f"{first.traceback}{others}"
        )


#: Progress callback: (finished points, total points, newest outcome).
ProgressFn = Callable[[int, int, SweepOutcome], None]

#: Outcome-merge hook: called with every outcome as it lands (cached
#: replays included), before it is delivered to the caller.  Shard
#: workers use it to stream per-point state (heartbeats, counters,
#: partial outcome records) into their lease files while a sweep runs.
OutcomeFn = Callable[[SweepOutcome], None]


def iter_sweep(
    spec: SweepSpec,
    workers: Optional[int] = None,
    cache: Union[bool, ResultCache, NullCache] = True,
    cache_dir: Optional[os.PathLike] = None,
    shard: Optional[Tuple[int, int]] = None,
    on_outcome: Optional[OutcomeFn] = None,
) -> Iterator[SweepOutcome]:
    """Yield :class:`SweepOutcome`\\ s as points finish.

    Cached points arrive first (in point order, effectively instantly);
    simulated points follow in *completion* order -- under a worker pool
    that is whatever order the workers finish in.  This is the streaming
    face of :func:`run_sweep`: consume it for live progress bars or to
    start plotting a grid before its slowest point lands.  Arguments
    match :func:`run_sweep`; ``on_outcome`` additionally observes each
    outcome *before* it is yielded (even if the consumer abandons the
    generator early).
    """
    store = _resolve_store(cache, cache_dir)
    state = _EngineState(workers=resolve_workers(workers))
    points = shard_points(spec.points, shard)
    for _si, _pi, outcome in _execute(
        [spec], [points], state.workers, store, state
    ):
        if on_outcome is not None:
            on_outcome(outcome)
        yield outcome


def run_sweep(
    spec: SweepSpec,
    workers: Optional[int] = None,
    cache: Union[bool, ResultCache, NullCache] = True,
    cache_dir: Optional[os.PathLike] = None,
    shard: Optional[Tuple[int, int]] = None,
    progress: Optional[ProgressFn] = None,
    on_outcome: Optional[OutcomeFn] = None,
) -> SweepReport:
    """Execute every point of ``spec``; replay cached points instantly.

    Parameters
    ----------
    workers:
        Process count for uncached points; ``None`` consults
        ``$REPRO_SWEEP_WORKERS`` and defaults to serial.
    cache:
        ``True`` (default) uses the on-disk cache at ``cache_dir`` (or
        its default location), ``False`` disables caching entirely, and
        an explicit cache object is used as-is.
    shard:
        ``(index, total)`` with ``1 <= index <= total``: simulate only a
        deterministic 1/total slice of the grid (see
        :func:`shard_points`).  Point cache keys are unchanged, so
        shards run on different machines against a shared cache
        directory compose into the full sweep.
    progress:
        Optional callback invoked as each point finishes with
        ``(finished, total, outcome)``; see :func:`iter_sweep` for a
        generator interface instead.
    on_outcome:
        Optional per-outcome hook (cached replays included), called as
        each outcome lands -- the merge surface shard workers use to
        stream state while the sweep runs.
    """
    return run_sweeps(
        [spec], workers=workers, cache=cache, cache_dir=cache_dir,
        shard=shard, progress=progress, on_outcome=on_outcome,
    )[0]


def run_sweeps(
    specs: Sequence[SweepSpec],
    workers: Optional[int] = None,
    cache: Union[bool, ResultCache, NullCache] = True,
    cache_dir: Optional[os.PathLike] = None,
    shard: Optional[Tuple[int, int]] = None,
    progress: Optional[ProgressFn] = None,
    on_outcome: Optional[OutcomeFn] = None,
) -> List[SweepReport]:
    """Execute several sweeps against **one** worker-pool invocation.

    All uncached points across ``specs`` are pooled into a single
    ``multiprocessing`` fan-out, so running N small experiments costs
    one pool spin-up instead of N -- and short sweeps pack the idle
    workers a long sibling would leave behind.  Returns one
    :class:`SweepReport` per spec, each identical to what a separate
    :func:`run_sweep` call would produce (points keep their per-spec
    order; cache keys are unchanged).  ``progress`` counts points across
    the whole batch.
    """
    store = _resolve_store(cache, cache_dir)
    workers = resolve_workers(workers)
    state = _EngineState(workers=workers)
    sharded = [shard_points(spec.points, shard) for spec in specs]
    total = sum(len(points) for points in sharded)
    slots: List[List[Optional[SweepOutcome]]] = [
        [None] * len(points) for points in sharded
    ]
    finished = 0
    for si, pi, outcome in _execute(specs, sharded, workers, store, state):
        slots[si][pi] = outcome
        finished += 1
        if on_outcome is not None:
            on_outcome(outcome)
        if progress is not None:
            progress(finished, total, outcome)
    return [
        SweepReport(
            spec_name=spec.name,
            outcomes=[slot for slot in spec_slots if slot is not None],
            workers=workers,
            parallel=state.parallel,
            shard=validate_shard(shard) if shard else None,
        )
        for spec, spec_slots in zip(specs, slots)
    ]


def run_points(
    jobs: Sequence[Tuple[SweepSpec, SweepPoint]],
    workers: Optional[int] = None,
    cache: Union[bool, ResultCache, NullCache] = True,
    cache_dir: Optional[os.PathLike] = None,
    on_outcome: Optional[OutcomeFn] = None,
) -> List[SweepOutcome]:
    """Fill an arbitrary set of ``(spec, point)`` pairs in one batch.

    The result server's fill path: each pair becomes a one-point spec
    carrying its parent's name, runner, and seeding policy -- so cache
    keys, auto-seeds, and the ``meta.sweep`` tag are *identical* to a
    full :func:`run_sweep` of the parent spec -- and every pending point
    across the batch shares one worker-pool invocation.  Points with
    identical cache keys (coalesced misses that raced past the server's
    in-flight registry, or duplicates within the batch) simulate once.
    Returns one outcome per job, in job order; ``on_outcome`` observes
    each outcome as it lands, exactly as in :func:`run_sweeps`.
    """
    specs = [
        SweepSpec(
            name=spec.name,
            points=[point],
            runner=spec.runner,
            base_seed=spec.base_seed,
            auto_seed=spec.auto_seed,
        )
        for spec, point in jobs
    ]
    reports = run_sweeps(
        specs, workers=workers, cache=cache, cache_dir=cache_dir,
        on_outcome=on_outcome,
    )
    return [report.outcomes[0] for report in reports]
