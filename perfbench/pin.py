"""Regenerate ``pins.json``, the results every benchmark run must match.

    python3 perfbench/pin.py

Simulates each workload's grid once through ``run_sweep`` with caching
off and pins, per point, the sha256 of the canonical record and its
simulated ticks, plus the total ticks and the simulated ratios.  A
second pass with the span tracer installed counts the events one pass
executes, and must reproduce the same records.  Rerun this only for a
change that is meant to alter simulated results.
"""

from __future__ import annotations

import json
import sys

import common


def grids() -> dict:
    """Workload -> [(spec, (sweep, args) or None)]."""
    import serve_load
    import sweeps
    from repro.orchestrate.manifest import apply_overrides

    out = {name: [(sweeps.build_spec(workload), None)]
           for name, workload in sweeps.WORKLOADS.items()}
    out["serve-mixed"] = [(apply_overrides(sweep, args), (sweep, args))
                          for sweep, args in serve_load.POINT_GROUPS]
    return out


def simulate(specs) -> list:
    from repro.sweep import run_sweep

    return [(group, outcome) for spec, group in specs
            for outcome in run_sweep(spec, workers=1, cache=False).outcomes]


def main() -> int:
    common.use_source_tree()
    from repro.core.runner import clear_system_memo
    from tracer import Tracer

    pins = {}
    for name, specs in grids().items():
        entries = simulate(specs)
        records = [outcome.record for _group, outcome in entries]
        clear_system_memo()
        tracer = Tracer().install()
        try:
            traced = simulate(specs)
        finally:
            tracer.uninstall()
            clear_system_memo()
        if ([common.digest(outcome.record) for _group, outcome in traced]
                != [common.digest(record) for record in records]):
            print(f"{name}: traced records differ", file=sys.stderr)
            return 1
        if name == "serve-mixed":
            points = [{"sweep": group[0], "args": group[1],
                       "key": repr(outcome.key),
                       "sha256": common.digest(outcome.record),
                       "ticks": outcome.record["ticks"]}
                      for group, outcome in entries]
        else:
            points = {repr(outcome.key): {
                "sha256": common.digest(outcome.record),
                "ticks": outcome.record["ticks"]}
                for _group, outcome in entries}
        pins[name] = {
            "points": points,
            "total_ticks": sum(record["ticks"] for record in records),
            "ratios": common.sim_ratios(records),
            "events": tracer.totals()["events"],
        }
        print(f"{name}: {len(records)} points pinned", file=sys.stderr)
    with open(common.PINS, "w", encoding="utf-8") as handle:
        json.dump({"workloads": pins}, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
