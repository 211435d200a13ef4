#!/usr/bin/env python
"""Simulator-core microbenchmarks: the tracked perf trajectory.

Measures the hot paths the sweep engine leans on -- raw event-loop
throughput, cancellation churn, quiesce-throttled idle loops, one GEMM
point, one system build, a fresh process's start-up, a warm cached-grid
replay, a stats snapshot, a small fig6 grid, and the result server's
warm- and cold-query latency and miss-coalescing factor (see
docs/PERFORMANCE.md).  It also prints an informational per-package
host-time fold (cProfile, the table ``sweep --profile`` writes) of one
warm gemm and one warm multigemm point.

Usage::

    python benchmarks/bench_perf_core.py                  # full sizes
    python benchmarks/bench_perf_core.py --quick          # CI-sized
    python benchmarks/bench_perf_core.py --quick --against ../base/src
    python benchmarks/bench_perf_core.py --quick --record # update JSON

Every run makes :data:`PAIRS` passes of this tree, each one
:func:`collect_metrics` in a fresh interpreter.  ``--against SRC``
alternates them in pairs with passes of the baseline ``src`` tree and
exits non-zero when a metric's median per-pair ratio reads more than
30% (``--tolerance``) slower.  ``--record`` writes this tree's
quartiles under the mode (quick/full) to ``--out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple, Optional

REPO_ROOT = Path(__file__).resolve().parents[1]
try:  # honour an externally-provided tree (e.g. PYTHONPATH to a baseline)
    import repro
except ImportError:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    import repro

from repro import SystemConfig  # noqa: E402
from repro.core.runner import (  # noqa: E402
    GemmRunner,
    clear_system_memo,
    run_gemm,
    run_multi_gemm,
    run_peer_transfer,
    system_for,
)
from repro.sim.eventq import Simulator  # noqa: E402
from repro.sweep import build_sweep, run_sweep  # noqa: E402

DEFAULT_JSON = REPO_ROOT / "BENCH_core.json"

#: Alternating (baseline, this tree) pairs per gated run; an ungated
#: run makes this many passes of this tree.
PAIRS = 10

#: Metrics where larger is faster; everything else is seconds-like.
HIGHER_IS_BETTER = {
    "event_throughput_eps",
    "event_cancel_eps",
    "idle_loop_eps",
    "serve_coalesce_x",
}

#: Metrics gated *absolutely* on this tree's passes (the value is
#: already a fraction sitting near zero, so a relative tolerance is
#: meaningless): name -> max allowed ``max(0, median)`` of every
#: sample pooled across the passes.
ABSOLUTE_GATES = {"tracer_off_overhead": 0.02}

#: Metrics gated absolutely from *below*: name -> min allowed median.
#: ``serve_coalesce_x`` is a machine-free ratio (identical concurrent
#: cold queries per simulation actually run), so a relative tolerance
#: is meaningless -- anything under the floor means miss coalescing
#: broke.
ABSOLUTE_MIN_GATES = {"serve_coalesce_x": 6.0}


def _best_of(fn, repeats: int = 5):
    """Run ``fn`` ``repeats`` times; return the fastest (value, seconds)."""
    best = None
    for _ in range(repeats):
        value, elapsed = fn()
        if best is None or elapsed < best[1]:
            best = (value, elapsed)
    return best


# ----------------------------------------------------------------------
# Event-loop microbenchmarks
# ----------------------------------------------------------------------
#: Self-rescheduling trains kept in flight by the throughput bench.  A
#: busy simulated system (multi-channel DMA, pipelined links, DRAM banks)
#: holds hundreds of pending events, and heap depth is exactly where
#: event-comparison cost shows up (log-depth sifts on every push/pop).
EVENT_TRAINS = 512

#: Each event rate is its fastest block over the whole pass: before
#: every other bench, and once after the last, each event bench times
#: this many blocks.  On a shared host the event loop ran about a third
#: slower for tenths of a second to seconds at a time (2-CPU container),
#: so blocks run back to back could all land in one slow stretch.  The
#: point benches are spread over the pass the same way (one timed run
#: per visit).
EVENT_BLOCKS_PER_VISIT = 2


def _run_block(sim: Simulator):
    """A block runner that dispatches ``events`` more events of ``sim``
    and returns how many it ran."""

    def run_block(events: int) -> int:
        before = sim.events_executed
        sim.run(max_events=events)
        return sim.events_executed - before

    return run_block


def event_throughput_blocks():
    """Block runner of ``event_throughput_eps``: self-rescheduling event
    trains, pure queue+dispatch throughput."""
    sim = Simulator()

    # Varied coprime-ish delays so the heap order actually churns.
    def make_train(delay):
        def fire():
            sim.schedule(delay, fire)

        return fire

    for i in range(EVENT_TRAINS):
        sim.schedule(3 + (i * 7) % 97, make_train(3 + (i * 11) % 101))
    return _run_block(sim)


def event_cancel_blocks():
    """Block runner of ``event_cancel_eps``: schedule-then-cancel churn.
    Every dispatched event schedules and cancels a victim, which the run
    loop later skips."""
    sim = Simulator()

    def fire():
        sim.cancel(sim.schedule(10, _noop))
        sim.schedule(3, fire)

    sim.schedule(1, fire)
    return _run_block(sim)


def _noop() -> None:
    pass


def idle_loop_blocks():
    """Block runner of ``idle_loop_eps``: run_until_idle with a flag
    quiesce, measuring throttled re-checks.  Each block drains until
    ``events`` more events have fired."""
    sim = Simulator()
    fired = [0]

    def fire():
        fired[0] += 1
        sim.schedule(2, fire)

    def run_block(events: int) -> int:
        before = fired[0]
        target = before + events
        sim.run_until_idle(lambda: fired[0] >= target)
        return fired[0] - before

    sim.schedule(1, fire)
    return run_block


# ----------------------------------------------------------------------
# System-level benchmarks
# ----------------------------------------------------------------------
def _warm_point(run, *args):
    """A timer of one warm ``run(*args)`` in seconds.

    Each call first runs the point untimed, so the timed run finds its
    system memoized, as a sweep worker does, even after a bench that
    cleared the memo ran in between.
    """

    def timed() -> float:
        run(*args)
        t0 = time.perf_counter()
        run(*args)
        return time.perf_counter() - t0

    return timed


def bench_system_build() -> float:
    """Seconds to build one system, as a first-time fig5 run pays it.

    Clears the system memo, then builds each of the 12 ``fig5-memory``
    configurations (size 128) once; reports the per-system mean of the
    fastest of 5 passes.  The cleared systems are reference cycles, so
    each pass collects them before it starts the clock: a first-time run
    has none to collect, and the collector's pauses otherwise depended
    on what earlier benches of the pass had left behind (more than half
    of the timed build with the collector on, 2-CPU container).
    """
    configs = [point.config
               for point in build_sweep("fig5-memory", size=128).points]

    def run():
        clear_system_memo()
        gc.collect()
        t0 = time.perf_counter()
        for config in configs:
            system_for(config)
        t1 = time.perf_counter()
        return (t1 - t0) / len(configs), t1 - t0

    best = _best_of(run)[0]
    clear_system_memo()  # pin no fig5 system for the later benches
    return best


#: Child program of :func:`bench_cold_start`: what a first-time
#: ``fig5-memory`` run does before its first point.
COLD_START_CHILD = """
from repro.core.runner import system_for
from repro.sweep import build_sweep

for point in build_sweep("fig5-memory", size=128).points:
    system_for(point.config)
print("ready", flush=True)
"""


def bench_cold_start(samples: int) -> float:
    """Median seconds from spawning a fresh interpreter until the 12
    ``fig5-memory`` systems (size 128) are built.

    This is what perfbench's ``setup_s`` times: interpreter start,
    importing ``repro`` and every system build of a first-time fig5
    run.  The child imports the same ``repro`` tree as this process.
    """
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", COLD_START_CHILD],
                                stdout=subprocess.PIPE, text=True, env=env)
        ready = proc.stdout.readline()
        times.append(time.perf_counter() - t0)
        proc.stdout.close()
        if proc.wait() != 0 or ready.strip() != "ready":
            raise RuntimeError("cold-start child failed")
    return statistics.median(times)


def bench_warm_replay(passes: int) -> float:
    """Median per-point microseconds of a warm ``fig5-memory`` replay.

    Simulates the 12 points (size 128) into a throwaway cache once, then
    replays the grid ``passes`` times through ``iter_sweep``; a point's
    time is the gap between consecutive outcomes, as perfbench's
    ``warm_us_p50`` times it.  Every replayed point is a cache hit, so
    this is the cost of keying a point and reading its record.  Each
    pass builds the spec afresh, as a ``repro sweep`` replay does, so
    no config arrives with its canonical form already stored.
    """
    import tempfile

    from repro.sweep import iter_sweep

    samples = []
    with tempfile.TemporaryDirectory() as tmp:
        run_sweep(build_sweep("fig5-memory", size=128), workers=1,
                  cache_dir=tmp)
        for _ in range(passes):
            spec = build_sweep("fig5-memory", size=128)
            last = time.perf_counter_ns()
            for outcome in iter_sweep(spec, workers=1, cache_dir=tmp):
                now = time.perf_counter_ns()
                assert outcome.cached
                samples.append(now - last)
                last = now
    clear_system_memo()  # pin no fig5 system for the later benches
    return statistics.median(samples) / 1e3


def bench_tracer_off_overhead(size: int) -> list:
    """Fractional cost of the *disabled* telemetry layer on a warm point.

    Outside a collected point every component hook is ``None`` and the
    only telemetry work left on a point is the system factory's call to
    :func:`repro.telemetry.state.on_system_acquired` on each
    acquisition (a collector ``None`` check).  This bench times a warm
    GEMM point on that normal path, then again with ``system_for``'s
    hook short-circuited, and returns the 9 paired fractional
    differences, unclamped (pairing cancels transient machine noise).
    The event loop carries no telemetry test at all (profiling wraps a
    whole point in the sweep engine, outside ``Simulator.run``); the
    remaining ``trace is None`` checks on the link and DMA paths sit
    next to pre-existing branches and cannot be separated out, so this
    measures everything else the telemetry layer adds to the point
    path.  One pass's median cannot resolve 2% on a ~10 ms point, so
    the gate pools the differences of every pass and holds
    ``max(0, median)`` under 2% (``ABSOLUTE_GATES``) -- a relative
    tolerance is useless on a number that should sit at zero.
    """
    import repro.core.runner as core_runner

    config = SystemConfig.pcie_8gb()
    run_gemm(config, size, size, size)  # warm the system memo

    def timed_points() -> float:
        t0 = time.perf_counter()
        for _ in range(3):
            run_gemm(config, size, size, size)
        return time.perf_counter() - t0

    real_hook = core_runner.on_system_acquired

    def noop_hook(system) -> None:
        return None

    def one_side(short_circuit: bool) -> float:
        if short_circuit:
            core_runner.on_system_acquired = noop_hook
        try:
            return timed_points()
        finally:
            core_runner.on_system_acquired = real_hook

    diffs = []
    for pair in range(9):
        # Alternate which side runs first so cache-warming / frequency
        # drift biases cancel across pairs instead of accumulating.
        if pair % 2 == 0:
            with_layer = one_side(False)
            without_layer = one_side(True)
        else:
            without_layer = one_side(True)
            with_layer = one_side(False)
        diffs.append((with_layer - without_layer) / without_layer)
    return diffs


def bench_snapshot(size: int, iterations: int) -> float:
    """Stat snapshot cost in microseconds, one component touched.

    Mirrors the per-point pattern of a sweep: between snapshots only a
    handful of components mutate, so the walk should cost O(touched).
    """
    config = SystemConfig.pcie_8gb()
    runner = GemmRunner()
    system = runner.acquire_system(config)
    runner.drive(system, m=size, k=size, n=size)
    touched = system.mem_ctrl.stats.scalar("bytes")
    runner.snapshot(system)  # prime any caches

    def run():
        t0 = time.perf_counter()
        for _ in range(iterations):
            touched.inc(0)  # dirty one component, values unchanged
            runner.snapshot(system)
        t1 = time.perf_counter()
        return (t1 - t0) / iterations * 1e6, t1 - t0

    return _best_of(run)[0]


def bench_fig6_grid(size: int) -> float:
    """Serial, uncached fig6(a) small-GEMM grid: sweep wall-clock."""
    spec = build_sweep("fig6a-mem-bandwidth", size=size)

    def run():
        t0 = time.perf_counter()
        report = run_sweep(spec, workers=1, cache=False)
        t1 = time.perf_counter()
        assert report.misses == len(spec.points)
        return t1 - t0, t1 - t0

    return _best_of(run, repeats=3)[0]


def bench_ladder_fig6(size: int) -> float:
    """Fidelity ladder on the fig6 grid: score, prune to 10%, simulate.

    Same grid as :func:`bench_fig6_grid`, but pruned by the surrogate
    before simulation -- the recorded ratio ``fig6_grid_s /
    ladder_fig6_s`` is the ladder's end-to-end win (>= 5x at top-K=10%).
    """
    from repro.surrogate import LadderSpec, run_ladder

    spec = build_sweep("fig6a-mem-bandwidth", size=size)
    ladder = LadderSpec(spec=spec, top_k="10%", margin=0.0)

    def run():
        t0 = time.perf_counter()
        report = run_ladder(ladder, workers=1, cache=False)
        t1 = time.perf_counter()
        assert report.pruned > 0
        return t1 - t0, t1 - t0

    return _best_of(run, repeats=3)[0]


# ----------------------------------------------------------------------
# Result-server benchmarks (docs/SERVING.md)
# ----------------------------------------------------------------------
#: Small served sweep: two 16x16 GEMM points, keyed by packet size.
SERVE_SWEEP = "packet-size"
SERVE_ARGS = {"size": 16, "packets": [64, 128]}
SERVE_KEY = "64"


def bench_serve_query_lat(quick: bool) -> float:
    """Warm point-query p50 through the result server, microseconds.

    Starts a real server on an ephemeral port against a throwaway cache
    directory, fills one point, then times warm queries over a single
    keep-alive connection -- the steady-state cost of serving a cached
    record over HTTP (parse, index lookup, cache read, JSON response).
    The queries run in blocks and the fastest block's p50 is kept, as
    the other timed benches keep their fastest run: on a shared 2-CPU
    host the whole latency shifted between ~260 and ~550 us for tenths
    of a second at a time, so one p50 over every query read either.
    """
    import http.client
    import tempfile

    from repro.serve import ServeSettings, ServerThread

    blocks, rounds = (5, 200) if quick else (5, 400)
    body = json.dumps(
        {"sweep": SERVE_SWEEP, "key": SERVE_KEY, "args": SERVE_ARGS}
    )
    with tempfile.TemporaryDirectory() as tmp:
        settings = ServeSettings(port=0, cache_dir=tmp, batch_window=0.0)
        with ServerThread(settings) as st:
            conn = http.client.HTTPConnection(st.host, st.port, timeout=120)

            def once() -> dict:
                conn.request("POST", "/query", body=body)
                response = conn.getresponse()
                return json.loads(response.read())

            assert once()["cached"] is False  # the one cold fill
            while st.service.healthz()["in_flight"]:
                time.sleep(0.001)  # its entry is written after the reply
            p50s = []
            for _ in range(blocks):
                samples = []
                for _ in range(rounds):
                    t0 = time.perf_counter()
                    payload = once()
                    samples.append((time.perf_counter() - t0) * 1e6)
                samples.sort()
                p50s.append(samples[len(samples) // 2])
            conn.close()
            assert payload["cached"] is True
    return min(p50s)


#: Cold-query grid: one 16x16 GEMM point per packet size, 7 systems,
#: all resident in the system memo so a cold query pays its fill, not a
#: system build.
SERVE_COLD_ARGS = {"size": 16, "packets": [64, 128, 256, 512, 1024, 2048,
                                           4096]}


def bench_serve_cold_query(quick: bool) -> float:
    """Cold point-query p50 through the result server, milliseconds.

    A real server at default settings (so at the default batch window)
    answers every point of :data:`SERVE_COLD_ARGS` once per round over
    one keep-alive connection; the grid's cache entries are deleted
    between rounds, so each timed query misses and waits out its fill.
    A cold reply may go out before its entry is written, so each round
    first waits for ``in_flight`` to reach 0: a late rename must not
    bring a deleted entry back.  The first round builds the query index
    and is not timed.
    """
    import http.client
    import tempfile

    from repro.serve import ServeSettings, ServerThread

    rounds = 3 if quick else 8
    spec = build_sweep(SERVE_SWEEP, size=SERVE_COLD_ARGS["size"],
                       packets=tuple(SERVE_COLD_ARGS["packets"]))
    for point in spec.points:
        system_for(point.config)
    bodies = [json.dumps({"sweep": SERVE_SWEEP, "key": repr(point.key),
                          "args": SERVE_COLD_ARGS})
              for point in spec.points]
    samples = []
    with tempfile.TemporaryDirectory() as tmp:
        with ServerThread(ServeSettings(port=0, cache_dir=tmp)) as st:
            conn = http.client.HTTPConnection(st.host, st.port, timeout=120)
            for round_index in range(rounds + 1):
                while st.service.healthz()["in_flight"]:
                    time.sleep(0.001)
                for entry in Path(tmp).glob("*.json"):
                    entry.unlink()
                for body in bodies:
                    t0 = time.perf_counter()
                    conn.request("POST", "/query", body=body)
                    payload = json.loads(conn.getresponse().read())
                    elapsed = time.perf_counter() - t0
                    assert payload["cached"] is False, payload
                    if round_index:
                        samples.append(elapsed * 1e3)
            conn.close()
    samples.sort()
    return samples[len(samples) // 2]


def bench_serve_coalesce() -> float:
    """Single-flight factor: identical concurrent colds per simulation.

    Eight clients ask for the same uncached point at once; the ratio of
    queries to points actually simulated (the service's fill-points
    probe) is 8.0 when miss coalescing works and 1.0 when every client
    pays for its own run.  Machine-free by construction, so CI gates it
    absolutely (>= 6, see ``ABSOLUTE_MIN_GATES``).
    """
    import http.client
    import tempfile
    from concurrent.futures import ThreadPoolExecutor

    from repro.serve import ServeSettings, ServerThread

    clients = 8
    body = json.dumps(
        {"sweep": SERVE_SWEEP, "key": SERVE_KEY, "args": SERVE_ARGS}
    )
    with tempfile.TemporaryDirectory() as tmp:
        settings = ServeSettings(port=0, cache_dir=tmp, batch_window=0.02)
        with ServerThread(settings) as st:
            def one(_index: int) -> None:
                conn = http.client.HTTPConnection(st.host, st.port,
                                                  timeout=120)
                conn.request("POST", "/query", body=body)
                response = conn.getresponse()
                assert response.status == 200, response.read()
                response.read()
                conn.close()

            with ThreadPoolExecutor(clients) as pool:
                list(pool.map(one, range(clients)))
            simulated = st.service.fill_points
    assert simulated >= 1
    return round(clients / simulated, 2)


def print_layer_folds(size: int) -> None:
    """Print where one warm gemm and one warm multigemm point spend host time.

    Each point runs three times under cProfile, folded by ``repro``
    package (:mod:`repro.telemetry.profiler`, the fold ``sweep
    --profile`` writes); the fastest run is printed, as the timed
    benches keep their fastest.  Informational: printed only, never
    recorded in ``BENCH_core.json`` or gated.  A tree without the fold
    (an older baseline on ``PYTHONPATH``) skips it.
    """
    try:
        from repro.telemetry.profiler import layer_table, profile_call
    except ImportError:
        print("  (no per-package profile fold in this tree)")
        return
    points = (
        ("gemm_point", run_gemm, SystemConfig.pcie_8gb()),
        ("multigemm_point", run_multi_gemm,
         SystemConfig.pcie_2gb(num_accelerators=2)),
    )
    for name, run, config in points:
        run(config, size, size, size)  # warm the system memo
        document = min(
            (profile_call(run, config, size, size, size)[1]
             for _ in range(3)),
            key=lambda doc: doc["wall_seconds"],
        )
        print()
        print(layer_table(
            document["layers"],
            title=f"{name} layer fold ({size}^3, warm, "
                  f"{document['wall_seconds'] * 1e3:.1f} ms under cProfile)",
        ))


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _sig4(value: float) -> float:
    """Round to 4 significant digits: quick-mode points take ~0.01 s,
    where a fixed number of decimals keeps only one or two."""
    return float(f"{value:.4g}")


def collect_metrics(quick: bool) -> dict:
    """One pass: every metric of this process's ``repro`` tree, raw.

    A bench whose subsystem the tree lacks (an older baseline on
    ``PYTHONPATH``) raises ``ImportError``; its metric is left out.
    """
    block_events = 5_000 if quick else 10_000
    gemm_size = 64 if quick else 96
    grid_size = 128 if quick else 256
    benches = {
        "system_build_s": bench_system_build,
        "cold_start_s": lambda: bench_cold_start(5 if quick else 9),
        "warm_replay_us": lambda: bench_warm_replay(100 if quick else 300),
        "snapshot_us": lambda: bench_snapshot(gemm_size,
                                              2000 if quick else 5000),
        "tracer_off_overhead": lambda: bench_tracer_off_overhead(gemm_size),
        "fig6_grid_s": lambda: bench_fig6_grid(grid_size),
        "ladder_fig6_s": lambda: bench_ladder_fig6(grid_size),
        "serve_query_lat_us": lambda: bench_serve_query_lat(quick),
        "serve_cold_query_ms": lambda: bench_serve_cold_query(quick),
        "serve_coalesce_x": bench_serve_coalesce,
    }
    event_blocks = {
        "event_throughput_eps": event_throughput_blocks(),
        "event_cancel_eps": event_cancel_blocks(),
        "idle_loop_eps": idle_loop_blocks(),
    }
    event_rates = dict.fromkeys(event_blocks, 0.0)
    point_timers = {
        # One warm GEMM point.
        "gemm_point_s": _warm_point(run_gemm, SystemConfig.pcie_8gb(),
                                    gemm_size, gemm_size, gemm_size),
        # One warm 2-device contention point on the switched fabric: the
        # topology's per-endpoint DMA entry ports, round-robin
        # arbitration on the shared links and the cluster-wide snapshot.
        "multigemm_point_s": _warm_point(
            run_multi_gemm, SystemConfig.pcie_2gb(num_accelerators=2),
            gemm_size, gemm_size, gemm_size),
        # One warm peer-to-peer DMA (endpoint -> switch -> endpoint).
        "p2p_transfer_s": _warm_point(
            run_peer_transfer, SystemConfig.pcie_2gb(num_accelerators=2),
            128 * 1024 if quick else 512 * 1024, "p2p"),
    }
    point_times = dict.fromkeys(point_timers, float("inf"))

    def visit() -> None:
        """Time the event blocks and one run of each point bench."""
        for name, run_block in event_blocks.items():
            for _ in range(EVENT_BLOCKS_PER_VISIT):
                t0 = time.perf_counter()
                ran = run_block(block_events)
                rate = ran / (time.perf_counter() - t0)
                event_rates[name] = max(event_rates[name], rate)
        for name, timer in point_timers.items():
            point_times[name] = min(point_times[name], timer())

    metrics = {}
    for name, bench in benches.items():
        visit()
        try:
            metrics[name] = bench()
        except ImportError:
            continue
    visit()
    return {**event_rates, **point_times, **metrics}


#: Child program of :func:`run_pass`: load this script by path under
#: the child's ``PYTHONPATH`` and print one pass as a JSON line.
PASS_CHILD = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("bench_perf_core", sys.argv[1])
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)
print(json.dumps(bench.collect_metrics(sys.argv[2] == "quick")))
"""


def run_pass(src: str, quick: bool) -> dict:
    """One pass of :func:`collect_metrics` in a fresh interpreter that
    imports ``repro`` from ``src`` alone."""
    proc = subprocess.run(
        [sys.executable, "-c", PASS_CHILD, str(Path(__file__).resolve()),
         "quick" if quick else "full"],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
        text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def pooled(passes: list, name: str) -> list:
    """Every value of ``name`` across ``passes``; a list-valued metric
    (``tracer_off_overhead``'s paired differences) is pooled."""
    out = []
    for metrics in passes:
        value = metrics.get(name)
        if isinstance(value, list):
            out.extend(value)
        elif value is not None:
            out.append(value)
    return out


def quartiles(values: list) -> list:
    """``[q1, median, q3]`` of ``values`` (inclusive quantiles)."""
    if len(values) == 1:
        return list(values) * 3
    return statistics.quantiles(values, n=4, method="inclusive")


class GateRow(NamedTuple):
    """One metric's verdict; quartiles are ``[q1, median, q3]``."""

    metric: str
    baseline: Optional[list]
    change: Optional[list]
    #: Median over the pairs of change/baseline, oriented so that a
    #: ratio above 1 means this tree is slower; None when not paired.
    ratio: Optional[float]
    #: Pairs this tree was faster in, and pairs compared.
    won: Optional[tuple]
    verdict: str  # "ok", "FAIL" or "ungated"
    rule: str


def gate(baseline: list, change: list, tolerance: float) -> list:
    """Gate this tree's passes against the baseline's, pair by pair.

    ``baseline[i]`` and ``change[i]`` are the two passes of pair ``i``
    (``baseline`` may be empty).  A relative metric fails when the
    median of its per-pair ratios exceeds ``1 + tolerance``; a metric
    the baseline passes lack is ungated, one this tree's passes lack
    fails.  The absolute gates read this tree's passes alone.
    """
    names = dict.fromkeys(name for metrics in change + baseline
                          for name in metrics)
    rows = []
    for name in names:
        base_values = pooled(baseline, name)
        change_values = pooled(change, name)
        base_q = quartiles(base_values) if base_values else None
        if not change_values:
            rows.append(GateRow(name, base_q, None, None, None, "FAIL",
                                "missing from this tree"))
            continue
        change_q = quartiles(change_values)
        ratio = won = None
        if name in ABSOLUTE_GATES:
            value, limit = max(0.0, change_q[1]), ABSOLUTE_GATES[name]
            ok = value <= limit
            rule = f"max(0, median) {value:.4f} <= {limit:g}"
        elif name in ABSOLUTE_MIN_GATES:
            value, floor = change_q[1], ABSOLUTE_MIN_GATES[name]
            ok, rule = value >= floor, f"median {value:g} >= {floor:g}"
        else:
            ratios = [
                (base[name] / now[name] if name in HIGHER_IS_BETTER
                 else now[name] / base[name])
                for base, now in zip(baseline, change)
                if name in base and name in now
            ]
            if not ratios:
                rows.append(GateRow(name, base_q, change_q, None, None,
                                    "ungated", "no baseline value"))
                continue
            ratio = statistics.median(ratios)
            won = (sum(r < 1.0 for r in ratios), len(ratios))
            ok = ratio <= 1.0 + tolerance
            rule = f"ratio <= {1.0 + tolerance:.2f}"
        rows.append(GateRow(name, base_q, change_q, ratio, won,
                            "ok" if ok else "FAIL", rule))
    return rows


def _quartile_text(q: Optional[list]) -> str:
    return "-" if q is None else f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def print_rows(rows: list) -> None:
    print(f"  {'metric':22s} {'baseline median [q1, q3]':>32s} "
          f"{'this tree median [q1, q3]':>32s} {'ratio':>6s} {'won':>5s}  "
          f"verdict")
    for row in rows:
        ratio = "-" if row.ratio is None else f"{row.ratio:.3f}"
        won = "-" if row.won is None else f"{row.won[0]}/{row.won[1]}"
        print(f"  {row.metric:22s} {_quartile_text(row.baseline):>32s} "
              f"{_quartile_text(row.change):>32s} {ratio:>6s} {won:>5s}  "
              f"{row.verdict} ({row.rule})")


def record(path: Path, mode: str, passes: list) -> None:
    """Write ``passes`` as ``[q1, median, q3]`` per metric under ``mode``
    (schema 2), keeping the other mode's section of a schema-2 file."""
    doc = json.loads(path.read_text()) if path.exists() else {}
    if doc.get("schema") != 2:
        doc = {"schema": 2}
    doc["meta"] = {"python": platform.python_version(),
                   "passes": len(passes)}
    names = dict.fromkeys(name for metrics in passes for name in metrics)
    doc[mode] = {name: [_sig4(q) for q in quartiles(pooled(passes, name))]
                 for name in names}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized problem set")
    parser.add_argument("--against", metavar="SRC",
                        help="baseline src tree to alternate passes with")
    parser.add_argument("--record", action="store_true",
                        help="write this tree's passes to --out")
    parser.add_argument("--out", default=str(DEFAULT_JSON),
                        help="JSON file for --record (BENCH_core.json)")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed median per-pair slowdown for --against")
    args = parser.parse_args(argv)
    if args.against and not (Path(args.against) / "repro").is_dir():
        parser.error(f"--against {args.against}: no repro package there")

    mode = "quick" if args.quick else "full"
    here = str(Path(repro.__file__).resolve().parents[1])
    sides = [("this tree", here)]
    if args.against:
        sides.insert(0, ("baseline", str(Path(args.against).resolve())))
    print(f"bench_perf_core [{mode}] on {platform.python_version()}: "
          f"{PAIRS} passes of " + " alternating with ".join(
              src for _, src in reversed(sides)), flush=True)
    passes = {label: [] for label, _ in sides}
    for pair in range(PAIRS):
        for label, src in (sides if pair % 2 == 0 else sides[::-1]):
            t0 = time.perf_counter()
            passes[label].append(run_pass(src, args.quick))
            print(f"  pair {pair + 1}/{PAIRS} {label}: "
                  f"{time.perf_counter() - t0:.1f} s", flush=True)
    print_layer_folds(64 if args.quick else 96)
    print()

    rows = gate(passes.get("baseline", []), passes["this tree"],
                args.tolerance)
    print_rows(rows)
    if args.record:
        record(Path(args.out), mode, passes["this tree"])
        print(f"recorded {mode} ({PAIRS} passes) -> {args.out}")
    failures = [row.metric for row in rows if row.verdict == "FAIL"]
    if failures:
        print(f"perf gate FAILED: {', '.join(failures)}")
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
