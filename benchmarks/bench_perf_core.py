#!/usr/bin/env python
"""Simulator-core microbenchmarks: the tracked perf trajectory.

Measures the hot paths the sweep engine leans on -- raw event-loop
throughput, cancellation churn, quiesce-throttled idle loops, one GEMM
point, one system build, a fresh process's start-up, a warm cached-grid
replay, a stats snapshot, a small fig6 grid, and the result server's
warm- and cold-query latency and miss-coalescing factor -- and records
them in ``BENCH_core.json`` so every change can show its perf delta
against the committed numbers (see docs/PERFORMANCE.md).

It also prints an informational per-package host-time fold (cProfile,
the table ``sweep --profile`` writes) of one warm gemm and one warm
multigemm point.

Usage::

    python benchmarks/bench_perf_core.py                  # print metrics
    python benchmarks/bench_perf_core.py --quick          # CI-sized run
    python benchmarks/bench_perf_core.py --record after   # update JSON
    python benchmarks/bench_perf_core.py --quick --check BENCH_core.json

``--record {before,after}`` merges the current run into the JSON file
under the current mode (quick/full).  ``--check`` compares the current
run against the file's ``after`` numbers and exits non-zero on a >30%
(``--tolerance``) regression; comparisons use *calibration-normalized*
values so the gate tracks simulator regressions, not machine speed.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parents[1]
try:  # honour an externally-provided tree (e.g. PYTHONPATH to a baseline)
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(REPO_ROOT / "src"))

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

#: Metrics where larger is faster; everything else is seconds-like.
HIGHER_IS_BETTER = {
    "calib_kops",
    "event_throughput_eps",
    "event_cancel_eps",
    "idle_loop_eps",
    "surrogate_grid_eps",
    "serve_coalesce_x",
}

#: Metrics gated *absolutely* (the value is already a fraction sitting
#: near zero, so a relative tolerance is meaningless): name -> max
#: allowed value.  Excluded from normalization and speedup ratios.
ABSOLUTE_GATES = {"tracer_off_overhead": 0.02}

#: Metrics gated absolutely from *below*: name -> min allowed value.
#: ``serve_coalesce_x`` is a machine-free ratio (identical concurrent
#: cold queries per simulation actually run), so calibration
#: normalization would corrupt it and a relative tolerance is
#: meaningless -- anything under the floor means miss coalescing broke.
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
# Calibration
# ----------------------------------------------------------------------
def bench_calibration() -> float:
    """Machine-speed yardstick: pure-Python kilo-ops per second.

    Used to normalize the regression gate across hosts of different
    speeds -- the ratio metric/calibration is (roughly) machine-free.
    """

    def run():
        n = 200_000
        t0 = time.perf_counter()
        acc = 0
        values = list(range(64))
        for i in range(n):
            acc += values[i & 63] * 3 + (i >> 2)
        t1 = time.perf_counter()
        assert acc > 0
        return n / 1e3 / (t1 - t0), t1 - t0

    return _best_of(run)[0]


# ----------------------------------------------------------------------
# Event-loop microbenchmarks
# ----------------------------------------------------------------------
#: Self-rescheduling trains kept in flight by the throughput bench.  A
#: busy simulated system (multi-channel DMA, pipelined links, DRAM banks)
#: holds hundreds of pending events, and heap depth is exactly where
#: event-comparison cost shows up (log-depth sifts on every push/pop).
EVENT_TRAINS = 512


def bench_event_throughput(total_events: int) -> float:
    """Self-rescheduling event trains: pure queue+dispatch throughput."""

    def run():
        sim = Simulator()

        # Varied coprime-ish delays so the heap order actually churns.
        def make_train(delay):
            def fire():
                sim.schedule(delay, fire)

            return fire

        for i in range(EVENT_TRAINS):
            sim.schedule(3 + (i * 7) % 97, make_train(3 + (i * 11) % 101))

        t0 = time.perf_counter()
        sim.run(max_events=total_events)
        t1 = time.perf_counter()
        return sim.events_executed / (t1 - t0), t1 - t0

    return _best_of(run)[0]


def bench_event_cancel(total_events: int) -> float:
    """Schedule-then-cancel churn: exercises lazy deletion + reuse."""

    def run():
        sim = Simulator()

        def fire():
            victim = sim.schedule(10, _noop)
            victim.cancel()
            sim.schedule(3, fire)

        sim.schedule(1, fire)
        t0 = time.perf_counter()
        sim.run(max_events=total_events)
        t1 = time.perf_counter()
        return sim.events_executed / (t1 - t0), t1 - t0

    return _best_of(run)[0]


def _noop() -> None:
    pass


def bench_idle_loop(total_events: int) -> float:
    """run_until_idle with a flag quiesce: measures throttled re-checks."""

    def run():
        sim = Simulator()
        state = {"left": total_events}

        def fire():
            state["left"] -= 1
            if state["left"] > 0:
                sim.schedule(2, fire)

        sim.schedule(1, fire)
        t0 = time.perf_counter()
        sim.run_until_idle(lambda: state["left"] <= 0)
        t1 = time.perf_counter()
        return total_events / (t1 - t0), t1 - t0

    return _best_of(run)[0]


# ----------------------------------------------------------------------
# System-level benchmarks
# ----------------------------------------------------------------------
def bench_gemm_point(size: int) -> float:
    """One warm GEMM point (memoized system, like a sweep worker sees)."""
    config = SystemConfig.pcie_8gb()
    run_gemm(config, size, size, size)  # warm the system memo

    def run():
        t0 = time.perf_counter()
        run_gemm(config, size, size, size)
        t1 = time.perf_counter()
        return t1 - t0, t1 - t0

    return _best_of(run)[0]


def bench_multigemm_point(size: int, devices: int = 2) -> float:
    """One warm multi-device contention point on the switched fabric.

    Exercises the topology subsystem's hot paths: per-endpoint DMA entry
    ports, round-robin arbitration on the shared links, and the
    cluster-wide snapshot.
    """
    config = SystemConfig.pcie_2gb(num_accelerators=devices)
    run_multi_gemm(config, size, size, size)  # warm the system memo

    def run():
        t0 = time.perf_counter()
        run_multi_gemm(config, size, size, size)
        t1 = time.perf_counter()
        return t1 - t0, t1 - t0

    return _best_of(run)[0]


def bench_p2p_transfer(size_bytes: int) -> float:
    """One warm peer-to-peer DMA point (endpoint -> switch -> endpoint)."""
    config = SystemConfig.pcie_2gb(num_accelerators=2)
    run_peer_transfer(config, size_bytes, mode="p2p")  # warm the memo

    def run():
        t0 = time.perf_counter()
        run_peer_transfer(config, size_bytes, mode="p2p")
        t1 = time.perf_counter()
        return t1 - t0, t1 - t0

    return _best_of(run)[0]


def bench_system_build() -> float:
    """Seconds to build one system, as a first-time fig5 run pays it.

    Clears the system memo, then builds each of the 12 ``fig5-memory``
    configurations (size 128) once; reports the per-system mean of the
    fastest of 5 passes.
    """
    configs = [point.config
               for point in build_sweep("fig5-memory", size=128).points]

    def run():
        clear_system_memo()
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
    import os
    import statistics
    import subprocess

    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
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
    import statistics
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


def bench_tracer_off_overhead(size: int) -> float:
    """Fractional cost of the *disabled* telemetry layer on a warm point.

    Outside a collected point every component hook is ``None`` and the
    only telemetry work left on a point is the system factory's call to
    :func:`repro.telemetry.state.on_system_acquired` on each
    acquisition (a collector ``None`` check).  This bench times a warm
    GEMM point on that normal path, then again with ``system_for``'s
    hook short-circuited, and reports the median of paired fractional
    differences (pairing cancels transient machine noise).  The event
    loop carries no telemetry test at all (profiling wraps a whole point
    in the sweep engine, outside ``Simulator.run``); the remaining
    ``trace is None`` checks on the link and DMA paths sit next to
    pre-existing branches and cannot be separated out, so this measures
    everything else the telemetry layer adds to the point path.  CI
    gates it absolutely (<2%, see
    ``ABSOLUTE_GATES``) -- a relative tolerance is useless on a number
    that should sit at zero.
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
    diffs.sort()
    return max(diffs[len(diffs) // 2], 0.0)


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


def bench_surrogate_grid(quick: bool) -> float:
    """Vectorized surrogate scoring throughput, points per second.

    Scores a cross-product GEMM design grid (matrix size x packet size x
    lane speed x lane count x memory bandwidth) through the analytical
    tier's batch path -- the ``estimate_grid`` rate the fidelity ladder
    leans on to make million-point grids browsable (docs/SURROGATE.md
    gates this at >= 100k points/s).
    """
    from repro.surrogate import SurrogateGrid, estimate_grid

    sizes = 20 if quick else 40
    grid = SurrogateGrid(
        base=SystemConfig.pcie_8gb(),
        axes={
            "size": [16 * (i + 1) for i in range(sizes)],
            "packet_size": [64, 128, 256, 512, 1024, 2048, 4096],
            "lane_gbps": [2.5, 5.0, 8.0, 16.0, 32.0, 64.0],
            "lanes": [1, 2, 4, 8, 16],
            "mem_gbps": [10, 20, 40, 80, 160, 320],
        },
    )

    def run():
        t0 = time.perf_counter()
        estimates = estimate_grid(grid)
        t1 = time.perf_counter()
        assert estimates.num_points == grid.num_points
        return grid.num_points / (t1 - t0), t1 - t0

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
    """
    import http.client
    import tempfile

    from repro.serve import ServeSettings, ServerThread

    rounds = 200 if quick else 600
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
            samples = []
            for _ in range(rounds):
                t0 = time.perf_counter()
                payload = once()
                samples.append((time.perf_counter() - t0) * 1e6)
            conn.close()
            assert payload["cached"] is True
    samples.sort()
    return samples[len(samples) // 2]


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
    The first round builds the query index and is not timed.
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
def _sig4(seconds: float) -> float:
    """Round to 4 significant digits: quick-mode points take ~0.01 s,
    where a fixed number of decimals keeps only one or two."""
    return float(f"{seconds:.4g}")


def collect_metrics(quick: bool) -> dict:
    events = 100_000 if quick else 300_000
    gemm_size = 64 if quick else 96
    grid_size = 128 if quick else 256
    snap_iters = 200 if quick else 500

    metrics = {}
    metrics["calib_kops"] = round(bench_calibration(), 1)
    metrics["event_throughput_eps"] = round(bench_event_throughput(events), 1)
    metrics["event_cancel_eps"] = round(bench_event_cancel(events), 1)
    metrics["idle_loop_eps"] = round(bench_idle_loop(events), 1)
    metrics["gemm_point_s"] = _sig4(bench_gemm_point(gemm_size))
    metrics["multigemm_point_s"] = _sig4(bench_multigemm_point(gemm_size))
    metrics["p2p_transfer_s"] = _sig4(
        bench_p2p_transfer(128 * 1024 if quick else 512 * 1024)
    )
    metrics["system_build_s"] = _sig4(bench_system_build())
    metrics["cold_start_s"] = _sig4(bench_cold_start(5 if quick else 9))
    metrics["warm_replay_us"] = round(bench_warm_replay(
        100 if quick else 300), 1)
    metrics["snapshot_us"] = round(bench_snapshot(gemm_size, snap_iters), 2)
    metrics["tracer_off_overhead"] = round(
        bench_tracer_off_overhead(gemm_size), 4
    )
    metrics["fig6_grid_s"] = _sig4(bench_fig6_grid(grid_size))
    metrics["surrogate_grid_eps"] = round(bench_surrogate_grid(quick), 1)
    metrics["ladder_fig6_s"] = _sig4(bench_ladder_fig6(grid_size))
    metrics["serve_query_lat_us"] = round(bench_serve_query_lat(quick), 1)
    metrics["serve_cold_query_ms"] = round(bench_serve_cold_query(quick), 3)
    metrics["serve_coalesce_x"] = bench_serve_coalesce()
    return metrics


def merge_best(old: Optional[dict], new: dict) -> dict:
    """Fold a fresh run into recorded numbers, keeping the best of each.

    Re-recording the same key therefore acts as extra best-of rounds --
    interleaving ``--record before`` / ``--record after`` runs averages
    out machine-speed drift between the two trees being compared.

    The ``_normalized`` sub-dict merges recursively: each run computes
    its normalized values from *its own* calibration before merging, so
    the regression gate never compares against a raw metric paired with
    a different run's ``calib_kops``.
    """
    if not old:
        return new
    merged = dict(old)
    for name, value in new.items():
        prior = merged.get(name)
        if name == "_normalized":
            merged[name] = merge_best(
                prior if isinstance(prior, dict) else None, value
            )
        elif not isinstance(prior, (int, float)):
            merged[name] = value
        elif name in HIGHER_IS_BETTER:
            merged[name] = max(prior, value)
        else:
            merged[name] = min(prior, value)
    return merged


def speedups(before: dict, after: dict) -> dict:
    """Per-metric speedup factor (>1 means after is faster)."""
    out = {}
    for name, old in before.items():
        new = after.get(name)
        if not isinstance(old, (int, float)) or not new:
            continue
        if name == "calib_kops" or name.startswith("_"):
            continue  # machine yardstick / bookkeeping, not tracked
        if name in ABSOLUTE_GATES or name in ABSOLUTE_MIN_GATES:
            continue  # absolutely gated; a ratio of it is noise
        ratio = new / old if name in HIGHER_IS_BETTER else old / new
        out[name] = round(ratio, 2)
    return out


def normalized(metrics: dict) -> dict:
    """Calibration-normalized values (machine-speed independent).

    Recorded runs carry their own coherent normalization under
    ``_normalized`` (same-run calibration); when present it is returned
    as-is, so merged documents never pair a metric with another run's
    ``calib_kops``.
    """
    stored = metrics.get("_normalized")
    if isinstance(stored, dict):
        return stored
    calib = metrics.get("calib_kops") or 1.0
    out = {}
    for name, value in metrics.items():
        if name == "calib_kops" or name.startswith("_"):
            continue
        if name in ABSOLUTE_GATES or name in ABSOLUTE_MIN_GATES:
            continue  # already dimensionless; gated absolutely
        if not isinstance(value, (int, float)):
            continue
        # eps/calib and seconds*calib are both ~machine-free.
        out[name] = (value / calib if name in HIGHER_IS_BETTER
                     else value * calib)
    return out


def check_regression(current: dict, committed: dict, tolerance: float) -> int:
    """Exit code 1 if any normalized metric regressed past tolerance."""
    norm_now = normalized(current)
    norm_ref = normalized(committed)
    failures = []
    for name, ref in norm_ref.items():
        now = norm_now.get(name)
        if now is None or ref == 0:
            continue
        if name in HIGHER_IS_BETTER:
            regression = (ref - now) / ref
        else:
            regression = (now - ref) / ref
        marker = "REGRESSED" if regression > tolerance else "ok"
        print(f"  {name:24s} {regression * 100:+7.1f}%  {marker}")
        if regression > tolerance:
            failures.append(name)
    for name, limit in ABSOLUTE_GATES.items():
        now = current.get(name)
        if not isinstance(now, (int, float)):
            continue
        marker = "REGRESSED" if now > limit else "ok"
        print(f"  {name:24s} {now * 100:+7.2f}% "
              f"(absolute limit {limit * 100:.0f}%)  {marker}")
        if now > limit:
            failures.append(name)
    for name, floor in ABSOLUTE_MIN_GATES.items():
        now = current.get(name)
        if not isinstance(now, (int, float)):
            continue
        marker = "REGRESSED" if now < floor else "ok"
        print(f"  {name:24s} {now:8.2f}  "
              f"(absolute floor {floor:g})  {marker}")
        if now < floor:
            failures.append(name)
    if failures:
        print(f"perf check FAILED: {', '.join(failures)} "
              f"regressed more than {tolerance * 100:.0f}%")
        return 1
    print("perf check passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized problem set")
    parser.add_argument("--record", choices=["before", "after"],
                        help="merge this run into the JSON under the key")
    parser.add_argument("--out", default=str(DEFAULT_JSON),
                        help="JSON file for --record (default BENCH_core.json)")
    parser.add_argument("--check", metavar="JSON",
                        help="compare against the file's 'after' numbers")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional regression for --check")
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    print(f"bench_perf_core [{mode}] on {platform.python_version()} ...")
    metrics = collect_metrics(args.quick)
    for name, value in metrics.items():
        # Seconds metrics sit near 0.01 on quick runs, where ,.2f
        # would keep one significant digit.
        shown = (f"{value:>14.4g}" if name.endswith("_s")
                 else f"{value:>14,.2f}")
        print(f"  {name:24s} {shown}")
    print_layer_folds(64 if args.quick else 96)
    # Pair this run's metrics with its own calibration for the gate.
    metrics["_normalized"] = {
        name: round(value, 4) for name, value in normalized(metrics).items()
    }

    if args.record:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {"schema": 1}
        section = doc.setdefault(mode, {})
        section[args.record] = merge_best(section.get(args.record), metrics)
        if "before" in section and "after" in section:
            section["speedup"] = speedups(section["before"], section["after"])
        doc["meta"] = {
            "python": platform.python_version(),
            "generated_by": "benchmarks/bench_perf_core.py",
        }
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"recorded {mode}/{args.record} -> {path}")

    if args.check:
        doc = json.loads(Path(args.check).read_text())
        committed = (doc.get(mode) or {}).get("after")
        if not committed:
            print(f"no {mode}/after numbers in {args.check}; nothing to check")
            return 0
        print(f"checking against {args.check} [{mode}/after], "
              f"tolerance {args.tolerance * 100:.0f}%:")
        return check_regression(metrics, committed, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
