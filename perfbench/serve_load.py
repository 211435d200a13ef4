"""serve-mixed: closed-loop ``POST /query`` traffic against ``repro serve``.

Two keep-alive clients work through one seeded request sequence.  A
*round* asks every point of :data:`POINT_GROUPS` once cold, in a seeded
order, and follows each cold query with ``WARM_PER_COLD`` queries for
points already asked.  Those are warm, unless the point's fill is still
in flight, in which case they coalesce onto it.  Between rounds the
benchmark empties the server's result cache, so every round starts cold
while the server's memoized systems stay warm, as in a long-running
server.  Every reply is checked byte-for-byte against the pinned
direct-run record.

Cold latency is taken only from each point's first query of a round
(its *leader* slot), which waits the batch window plus its fill;
revisits that coalesce onto a fill wait a shorter, varying part of it
and are counted apart.

The server runs in its own process, started through this file's
``--serve`` role, which builds the systems of every point before the
server starts (the grid's configurations fit the server's system memo),
and installs the span tracer first when ``--trace-out`` is given::

    python3 perfbench/serve_load.py --serve --cache-dir DIR [--trace-out FILE]
"""

from __future__ import annotations

import argparse
import http.client
import json
import random
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter, perf_counter_ns

import common

SIZES = tuple(range(8, 65, 4))
#: (sweep, factory args): 15 sizes x 7 packet sizes = 105 distinct
#: single-device host-memory GEMM points over 7 system configurations,
#: so all of them stay in the server's system memo (8 systems) and a
#: cold fill takes milliseconds, not a system build.
POINT_GROUPS = tuple(
    ("packet-size", {"size": size,
                     "packets": [64, 128, 256, 512, 1024, 2048, 4096]})
    for size in SIZES
)
WARM_PER_COLD = 15
#: Closed-loop clients; each waits for its reply before the next query.
CLIENTS = 2
#: Seconds one query may take before it counts as failed.
QUERY_TIMEOUT = 60.0
_READY = re.compile(r"listening on http://([\d.]+):(\d+)")


def request_sequence(seed: int, round_index: int, points: int) -> list:
    """Point indices of one round: each point once cold, in a seeded
    order, each followed by ``WARM_PER_COLD`` revisits of points
    already asked."""
    rng = random.Random(seed * 1_000_003 + round_index)
    order = list(range(points))
    rng.shuffle(order)
    sequence, asked = [], []
    for index in order:
        sequence.append(index)
        asked.append(index)
        sequence.extend(rng.choice(asked) for _ in range(WARM_PER_COLD))
    return sequence


def check_reply(pin: dict, status, data: bytes):
    """``(ok, payload, reason)`` for one reply to the query for ``pin``."""
    if status != 200:
        return False, None, f"{pin['sweep']} {pin['key']}: HTTP {status}"
    try:
        payload = json.loads(data)
    except ValueError:
        return False, None, f"{pin['sweep']} {pin['key']}: reply is not JSON"
    if (payload.get("key") != pin["key"]
            or common.digest(payload.get("record")) != pin["sha256"]):
        return False, None, (f"{pin['sweep']} {pin['key']}: served record "
                             f"differs from the pinned direct run")
    return True, payload, ""


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, cache_dir: Path, trace_out=None) -> None:
        command = [sys.executable, str(Path(__file__).resolve()), "--serve",
                   "--cache-dir", str(cache_dir)]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     text=True, cwd=common.ROOT,
                                     env=common.child_env())
        watchdog = threading.Timer(60.0, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        match = _READY.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not come up (said {line!r})")
        self.host, self.port = match.group(1), int(match.group(2))

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=QUERY_TIMEOUT)

    def health(self) -> dict:
        conn = self.connect()
        try:
            conn.request("GET", "/healthz")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def run_round(server: Server, bodies, sequence):
    """Drive one round; returns ([(position, index, start, end, status,
    data)], round time)."""
    lock = threading.Lock()
    pending = iter(enumerate(sequence))
    results = []

    def client() -> None:
        conn = server.connect()
        try:
            while True:
                with lock:
                    position, index = next(pending, (None, None))
                if index is None:
                    return
                start = perf_counter_ns()
                try:
                    conn.request("POST", "/query", body=bodies[index],
                                 headers={"Content-Type": "application/json"})
                    response = conn.getresponse()
                    status, data = response.status, response.read()
                except (OSError, http.client.HTTPException) as exc:
                    status, data = None, repr(exc).encode()
                    conn.close()
                    conn = server.connect()
                results.append((position, index, start, perf_counter_ns(),
                                status, data))
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    start = perf_counter_ns()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, perf_counter_ns() - start


def check_round(results, points, ratios, tally: common.Tally) -> dict:
    """Check one round's replies; returns its latency samples."""
    stride = 1 + WARM_PER_COLD
    cold, warm, records = {}, {}, {}
    for position, index, start, end, status, data in results:
        tally.attempted += 1
        ok, payload, reason = check_reply(points[index], status, data)
        if not ok:
            tally.fail(reason)
            continue
        records.setdefault(index, payload["record"])
        if payload.get("cached"):
            warm.setdefault(index, []).append(end - start)
        elif position % stride == 0:
            cold.setdefault(index, []).append(end - start)
    round_ratios = None
    if len(records) == len(points):
        round_ratios = common.sim_ratios(
            [records[index] for index in range(len(points))])
        if round_ratios != ratios:
            tally.fail("simulated ratios of a round differ from the pins")
    return {"cold": cold, "warm": warm, "ratios": round_ratios,
            "latency_ns": sum(result[3] - result[2] for result in results)}


def measure(seed: int, seconds: float, tally: common.Tally, setups: int = 1,
            trace_out=None) -> dict:
    """Start the server ``setups`` times (keeping the last), then drive
    whole rounds until ``seconds`` are used."""
    pins = common.load_pins()["workloads"]["serve-mixed"]
    points = pins["points"]
    bodies = [json.dumps({"sweep": pin["sweep"], "key": pin["key"],
                          "args": pin["args"]}).encode() for pin in points]
    common.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="serve-mixed-", dir=common.WORK))
    try:
        setup_s = []
        for index in range(setups):
            last = index == setups - 1
            start = perf_counter()
            server = Server(work / f"cache{index}", trace_out if last else None)
            setup_s.append(perf_counter() - start)
            if not last:
                server.stop()
        cache_dir = work / f"cache{setups - 1}"
        cold, warm, rounds, queries = {}, {}, [], 0
        ratios, latency_ns = None, 0
        try:
            deadline = perf_counter_ns() + int(seconds * 1e9)
            while not rounds or perf_counter_ns() < deadline:
                for entry in cache_dir.glob("*.json"):
                    entry.unlink()
                sequence = request_sequence(seed, len(rounds), len(points))
                results, round_ns = run_round(server, bodies, sequence)
                rounds.append(round_ns)
                queries = len(sequence)
                samples = check_round(results, points, pins["ratios"], tally)
                for name, into in (("cold", cold), ("warm", warm)):
                    for index, values in samples[name].items():
                        into.setdefault(index, []).extend(values)
                ratios = samples["ratios"] or ratios
                latency_ns += samples["latency_ns"]
            health = server.health()
        finally:
            server.stop()
        trace = None
        if trace_out is not None:
            with open(trace_out, encoding="utf-8") as handle:
                trace = json.load(handle)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "points": len(points),
        "queries": queries,
        "setup_s": setup_s,
        "cold_ns": cold,
        "warm_ns": warm,
        "ratios": ratios,
        "latency_ns": latency_ns,
        "round_ns": rounds,
        "health": health,
        # Every server this process started has been waited for; the
        # largest is the one that did the work.
        "rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "trace": trace,
    }


def serve_main(argv=None) -> int:
    """The server role: ``repro serve`` on an ephemeral port until
    SIGTERM, optionally traced."""
    parser = argparse.ArgumentParser(description="repro serve, for perfbench")
    parser.add_argument("--serve", action="store_true", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    common.use_source_tree()
    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer().install(serve=True)
    import asyncio

    from repro.core.runner import system_for
    from repro.orchestrate.manifest import apply_overrides
    from repro.serve import ServeSettings, serve_forever

    for sweep, sweep_args in POINT_GROUPS:
        for point in apply_overrides(sweep, sweep_args).points:
            system_for(point.config)
    if tracer is not None:
        tracer.reset()

    settings = ServeSettings(port=0, cache_dir=args.cache_dir, workers=1)

    async def run() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        await serve_forever(settings, stop=stop, announce=True)

    asyncio.run(run())
    if tracer is not None:
        tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(serve_main())
