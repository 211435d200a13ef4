"""Work process of the sweep workloads (cluster-gemm, devmem-grid,
memory-types).

``run.py`` starts one fresh process per measurement::

    python3 perfbench/sweeps.py --workload devmem-grid --seconds 20

The process imports ``repro``, builds every system of the workload's
grid and prints ``ready`` (``run.py`` times set-up up to that line).  It
then runs one untimed warm-up pass, then timed cold passes -- each
through ``iter_sweep`` into a fresh result-cache directory -- until
``--seconds`` are used, with timed warm replays of each finished pass
from its cache in between.  Every record is checked against
``pins.json``.  The last line of
output is a JSON summary.  With ``--trace-out`` the span tracer is
installed before any system is built, each cold point runs inside one
``sweep`` span, and the spans are written to that file at exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from time import perf_counter_ns

import common


@dataclass(frozen=True)
class SweepWorkload:
    sweep: str
    args: dict = field(default_factory=dict)
    #: Drop the memoized systems before every pass, so each point builds
    #: its system as a first-time run of the figure does.
    clear_memo: bool = False


WORKLOADS = {
    "cluster-gemm": SweepWorkload("topo-endpoint-scaling"),
    "devmem-grid": SweepWorkload("fig6a-mem-bandwidth", {"size": 256}),
    "memory-types": SweepWorkload("fig5-memory", {"size": 128},
                                  clear_memo=True),
}

#: Warm replays timed per run, at least.
WARM_SAMPLES = 5000


def build_spec(workload: SweepWorkload):
    from repro.sweep import build_sweep

    return build_sweep(workload.sweep, **workload.args)


def timed_pass(spec, cache_dir, tracer=None, first_op=0):
    """One ``iter_sweep`` pass: (outcomes, per-point gaps, pass time).

    A point's latency is the gap between consecutive outcomes.  With a
    tracer, each step of the stream runs inside a ``sweep`` span tagged
    with the point's operation number.
    """
    from repro.sweep import iter_sweep

    outcomes, gaps = [], []
    stream = iter_sweep(spec, workers=1, cache_dir=cache_dir)
    start = last = perf_counter_ns()
    while True:
        if tracer is None:
            outcome = next(stream, None)
        else:
            with tracer.span("sweep", op=first_op + len(outcomes)):
                outcome = next(stream, None)
        now = perf_counter_ns()
        if outcome is None:
            return outcomes, gaps, now - start
        gaps.append(now - last)
        last = now
        outcomes.append(outcome)


class Checker:
    """Checks each pass against the pins and counts failures."""

    def __init__(self, pins: dict, tally: common.Tally) -> None:
        self.pins = pins
        self.tally = tally
        self.ratios = None

    def check_pass(self, outcomes, cached: bool) -> None:
        points = self.pins["points"]
        self.tally.attempted += len(points)
        records = {}
        for outcome in outcomes:
            key = repr(outcome.key)
            pin = points.get(key)
            if (pin is None or key in records or outcome.cached != cached
                    or outcome.record.get("ticks") != pin["ticks"]
                    or common.digest(outcome.record) != pin["sha256"]):
                self.tally.fail(f"point {key}: record differs from its pin")
            records[key] = outcome.record
        missing = [key for key in points if key not in records]
        if missing:
            self.tally.fail(f"points {missing} missing from a pass",
                            len(missing))
            return
        ordered = [records[key] for key in points]
        self.ratios = common.sim_ratios(ordered)
        if (sum(record["ticks"] for record in ordered)
                != self.pins["total_ticks"]
                or self.ratios != self.pins["ratios"]):
            self.tally.fail("pass totals differ from the pins")


def add_samples(by_point: dict, outcomes, gaps) -> None:
    for outcome, gap in zip(outcomes, gaps):
        by_point.setdefault(repr(outcome.key), []).append(gap)


def measure(spec, workload, args, checker, tracer, work) -> dict:
    from repro.core.runner import clear_system_memo

    def cold_pass(first_op=0):
        if workload.clear_memo:
            clear_system_memo()
        gc.collect()
        cache_dir = tempfile.mkdtemp(dir=work)
        outcomes, gaps, pass_ns = timed_pass(spec, cache_dir, tracer,
                                             first_op)
        checker.check_pass(outcomes, cached=False)
        if tracer is not None:
            for index, outcome in enumerate(outcomes):
                tracer.op_keys[first_op + index] = outcome.key_hash
        return cache_dir, outcomes, gaps, pass_ns

    def warm_pass(cache_dir):
        outcomes, gaps, replay_ns = timed_pass(spec, cache_dir)
        checker.check_pass(outcomes, cached=True)
        add_samples(warm, outcomes, gaps)
        return len(gaps), replay_ns

    # Untimed warm-up: state built lazily on first use settles first.
    cache_dir, _, _, _ = cold_pass()
    shutil.rmtree(cache_dir)
    if tracer is not None:
        tracer.reset()
    cold, warm, passes = {}, {}, []
    warm_count = warm_ns = 0
    deadline = perf_counter_ns() + int(args.seconds * 1e9)
    last_dir = None
    while not passes or perf_counter_ns() < deadline:
        cache_dir, outcomes, gaps, pass_ns = cold_pass(
            len(passes) * len(spec.points))
        add_samples(cold, outcomes, gaps)
        passes.append(pass_ns)
        if last_dir is not None:
            shutil.rmtree(last_dir)
        last_dir = cache_dir
        # Warm replays take a tenth of the time, interleaved with the
        # cold passes so both sample the same stretch of host noise.
        while args.warm_samples and warm_ns < sum(passes) // 10:
            count, replay_ns = warm_pass(cache_dir)
            warm_count += count
            warm_ns += replay_ns
    while warm_count < args.warm_samples:
        warm_count += warm_pass(last_dir)[0]
    return {"points": len(spec.points), "cold_ns": cold, "pass_ns": passes,
            "warm_ns": warm, "ratios": checker.ratios}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--warm-samples", type=int, default=WARM_SAMPLES)
    parser.add_argument("--probe", action="store_true",
                        help="exit as soon as set-up is done")
    parser.add_argument("--trace-out",
                        help="trace the run and write its spans here")
    args = parser.parse_args(argv)
    try:
        common.use_source_tree()
    except common.SourceTreeMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer().install()
    from repro.core.runner import system_for

    workload = WORKLOADS[args.workload]
    spec = build_spec(workload)
    for point in spec.points:
        system_for(point.config)
    print("ready", flush=True)
    if args.probe:
        return 0

    tally = common.Tally()
    checker = Checker(common.load_pins()["workloads"][args.workload], tally)
    common.WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=common.WORK)
    try:
        summary = measure(spec, workload, args, checker, tracer, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer is not None:
        tracer.dump(args.trace_out)
        summary["totals"] = tracer.totals()
    summary.update(tally.as_dict())
    summary["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
