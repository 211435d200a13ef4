"""The repository benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload memory-types --seed 1 --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` makes a short untraced run and a traced run of the same
workload and reports the per-layer metrics.  Tables for people come
first; the last line of standard output is the JSON result.  The exit
code is 0 only when every operation's output matched the pinned
records.  perfbench/README.md describes the workloads, metrics and
layers.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import threading
from time import perf_counter

import common
import serve_load
from tracer import LAYERS, layer_of

WORKLOADS = ("cluster-gemm", "devmem-grid", "memory-types", "serve-mixed")

#: Units of the end-to-end metrics, in report order.
END_TO_END = {
    "ops_per_s": "1/s",
    "cold_ms_p50": "ms",
    "cold_ms_p90": "ms",
    "warm_us_p50": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Layers that do work on every workload and so report their self time;
#: the rest report their share and entries only (README.md says why).
SELF_MS_LAYERS = ("sim", "dma", "memory", "accel",
                  "core.acquire", "core.drive", "core.snapshot",
                  "sweep.cache")

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Seconds a work process may take before it is killed.
CHILD_TIMEOUT = 150.0


class RunFailed(RuntimeError):
    """A work process did not finish its run."""


def spawn_sweeps(workload: str, *args: str):
    """Run one ``sweeps.py`` process; returns (set-up seconds, summary)."""
    command = [sys.executable, str(common.PERFBENCH / "sweeps.py"),
               "--workload", workload, *args]
    start = perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            cwd=common.ROOT, env=common.child_env())
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise RunFailed(f"{workload} work process exited with code {code}")
    lines = rest.strip().splitlines()
    return setup, json.loads(lines[-1]) if lines else {}


def latency_metrics(ops_per_s: float, ops: int, cold: dict,
                    warm: dict) -> dict:
    """Latency percentiles rank the points by their floor latency
    (``common.point_percentile``)."""
    cold_n, warm_n = len(common.pooled(cold)), len(common.pooled(warm))
    return {
        "ops_per_s": (ops_per_s, ops),
        "cold_ms_p50": (common.point_percentile(cold, 50) / 1e6, cold_n),
        "cold_ms_p90": (common.point_percentile(cold, 90) / 1e6, cold_n),
        "warm_us_p50": (common.point_percentile(warm, 50) / 1e3, warm_n),
    }


def end_to_end(args, tally: common.Tally) -> dict:
    """``{name: (value, samples)}`` for every end-to-end metric."""
    if args.workload == "serve-mixed":
        run = serve_load.measure(args.seed, args.seconds, tally,
                                 setups=SETUP_SAMPLES)
        rounds = run["round_ns"]
        metrics = latency_metrics(
            run["queries"] / common.floor(rounds) * 1e9,
            run["queries"] * len(rounds), run["cold_ns"], run["warm_ns"])
        setups = run["setup_s"]
    else:
        setups = [spawn_sweeps(args.workload, "--probe")[0]
                  for _ in range(SETUP_SAMPLES - 1)]
        setup, run = spawn_sweeps(args.workload, "--seconds",
                                  str(args.seconds))
        setups.append(setup)
        tally.add(run)
        passes = run["pass_ns"]
        metrics = latency_metrics(
            run["points"] / common.floor(passes) * 1e9,
            run["points"] * len(passes), run["cold_ns"], run["warm_ns"])
    metrics["setup_s"] = (common.median(setups), len(setups))
    metrics["peak_rss_mb"] = (run["rss_kb"] / 1024, 1)
    return metrics


def fold(mapping: dict) -> dict:
    """Span-name totals folded into layer totals."""
    out: dict = {}
    for name, value in mapping.items():
        layer = layer_of(name)
        out[layer] = out.get(layer, 0) + value
    return out


def per_call_us(totals: dict, name: str) -> float:
    calls = totals["calls"].get(name, 0)
    return totals["self_ns"].get(name, 0) / calls / 1e3 if calls else 0.0


def layer_table(totals: dict, ops: int):
    """``{layer: (self ms per op, entries per op, share)}`` plus the sum
    of all self times."""
    self_ns, calls = fold(totals["self_ns"]), fold(totals["calls"])
    total = sum(self_ns.values())
    names = list(LAYERS) + sorted(set(self_ns) - set(LAYERS))
    return {
        name: (self_ns.get(name, 0) / ops / 1e6, calls.get(name, 0) / ops,
               self_ns.get(name, 0) / total if total else 0.0)
        for name in names
    }, total


def traced_sweep(args, tally: common.Tally):
    pins = common.load_pins()["workloads"][args.workload]
    base_seconds = args.seconds / 3
    _, base = spawn_sweeps(args.workload, "--seconds", str(base_seconds),
                           "--warm-samples", "0")
    trace_out = common.WORK / f"trace-{args.workload}.json"
    _, traced = spawn_sweeps(args.workload, "--seconds",
                             str(args.seconds - base_seconds),
                             "--warm-samples", "0",
                             "--trace-out", str(trace_out))
    tally.add(base)
    tally.add(traced)
    totals = traced["totals"]
    ops = traced["points"] * len(traced["pass_ns"])
    op_ns = sum(traced["pass_ns"])
    table, self_total = layer_table(totals, ops)
    if totals["events"] != pins["events"] * len(traced["pass_ns"]):
        tally.fail("traced event count differs from the pin")
    accounted = self_total / op_ns
    if not 0.95 <= accounted <= 1.05:
        tally.fail(f"layer self times cover {accounted:.3f} of point time")
    events = totals["events"] / ops
    base_op_ns = common.floor(base["pass_ns"]) / base["points"]
    # The result server is not on this path: its ratios are exactly 0
    # here, as a layer's entries and share are where it does no work.
    extras = {
        "sim.events": (events, "count"),
        "sim.host_ns_per_event": (base_op_ns / events, "ns"),
        "sweep.cache.get_us": (per_call_us(totals, "sweep.cache/get"), "us"),
        "sweep.cache.put_us": (per_call_us(totals, "sweep.cache/put"), "us"),
        "serve.hit_ratio": (0.0, "fraction"),
        "serve.coalesced_frac": (0.0, "fraction"),
        "serve.fill_batch_points": (0.0, "count"),
        "serve.fill_wait_frac": (0.0, "fraction"),
        "trace_overhead": (
            common.floor(traced["pass_ns"]) / traced["points"] / base_op_ns
            - 1, "fraction"),
        "accounted_frac": (accounted, "fraction"),
    }
    extras.update((name, (value, "fraction"))
                  for name, value in traced["ratios"].items())
    return table, extras, ops


def traced_serve(args, tally: common.Tally):
    pins = common.load_pins()["workloads"]["serve-mixed"]
    base = serve_load.measure(args.seed, args.seconds / 3, tally)
    trace_out = common.WORK / "trace-serve-mixed.json"
    traced = serve_load.measure(args.seed, args.seconds * 2 / 3, tally,
                                trace_out=trace_out)
    totals = traced["trace"]["totals"]
    loop = next((thread["totals"] for thread in traced["trace"]["threads"]
                 if thread["name"] == "MainThread"), {"wall_ns": {}})
    rounds = len(traced["round_ns"])
    ops, latency_ns = traced["queries"] * rounds, traced["latency_ns"]
    # HTTP parse/respond, sockets and the client: the part of each
    # query's latency outside the server's query span.
    totals["self_ns"]["serve.http"] = (
        latency_ns - loop["wall_ns"].get("serve.query", 0))
    totals["calls"]["serve.http"] = ops
    table, self_total = layer_table(totals, ops)
    if totals["events"] != pins["events"] * rounds:
        tally.fail("traced event count differs from the pin")
    if traced["ratios"] is None:
        tally.fail("no round served every point")
    events = totals["events"] / (rounds * traced["points"])
    cold = common.pooled(traced["cold_ns"])
    fill_calls = totals["calls"].get("serve.fill", 0)
    fill_ns = totals["wall_ns"].get("serve.fill", 0) / max(1, fill_calls)
    health = traced["health"]
    queries = max(1, health["queries_total"])
    base_ops = base["queries"] * len(base["round_ns"])
    extras = {
        "sim.events": (events, "count"),
        "sim.host_ns_per_event": (
            common.point_percentile(base["cold_ns"], 50) / events, "ns"),
        "sweep.cache.get_us": (per_call_us(totals, "sweep.cache/get"), "us"),
        "sweep.cache.put_us": (per_call_us(totals, "sweep.cache/put"), "us"),
        "serve.hit_ratio": (health["query_hits"] / queries, "fraction"),
        "serve.coalesced_frac": (health["coalesced"] / queries, "fraction"),
        "serve.fill_batch_points": (
            health["fill_points"] / max(1, health["fill_runs"]), "count"),
        # Mean cold latency outside the mean fill span (batch window,
        # digest check, HTTP), as a share of the mean cold latency.
        "serve.fill_wait_frac": (
            1 - fill_ns * len(cold) / sum(cold) if cold else 0.0,
            "fraction"),
        "trace_overhead": (
            latency_ns / ops / (base["latency_ns"] / base_ops) - 1,
            "fraction"),
        "accounted_frac": (self_total / latency_ns, "fraction"),
    }
    extras.update((name, (value, "fraction"))
                  for name, value in (traced["ratios"] or {}).items())
    return table, extras, ops


def per_layer(args, tally: common.Tally) -> dict:
    """``{name: (value, unit, samples)}`` for every per-layer metric."""
    if args.workload == "serve-mixed":
        table, extras, ops = traced_serve(args, tally)
    else:
        table, extras, ops = traced_sweep(args, tally)
    print(f"{'layer':<20}{'self ms/op':>12}{'calls/op':>12}{'share':>8}")
    for layer, (self_ms, calls, share) in table.items():
        print(f"{layer:<20}{self_ms:>12.4f}{calls:>12.1f}{share:>8.3f}")
    metrics = {}
    for layer in LAYERS:
        self_ms, calls, share = table[layer]
        if layer in SELF_MS_LAYERS:
            metrics[f"{layer}.self_ms"] = (self_ms, "ms", ops)
        metrics[f"{layer}.calls"] = (calls, "count", ops)
        metrics[f"{layer}.share"] = (share, "fraction", ops)
    metrics.update((name, (value, unit, ops))
                   for name, (value, unit) in extras.items())
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not common.have_source_tree():
        print(f"perfbench: no repro package under {common.SRC}",
              file=sys.stderr)
        return 2
    common.WORK.mkdir(exist_ok=True)
    tally = common.Tally()
    try:
        if args.trace:
            metrics = per_layer(args, tally)
        else:
            metrics = {name: (value, END_TO_END[name], samples)
                       for name, (value, samples)
                       in end_to_end(args, tally).items()}
    except (RuntimeError, OSError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"{'metric':<32}{'value':>14}  {'unit':<9}{'samples':>8}")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:<32}{value:>14.6g}  {unit:<9}{samples:>8}")
    print(f"{'error_rate':<32}{tally.failed / max(1, tally.attempted):>14.6g}"
          f"  {'fraction':<9}{tally.attempted:>8}")
    for reason in tally.errors:
        print(f"perfbench: failure: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _samples) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
