"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``gemm``     -- run one GEMM on a named system configuration,
* ``vit``      -- run ViT inference and print the GEMM/non-GEMM split,
* ``sweep``    -- run any registered experiment sweep (all paper figures),
* ``surrogate`` -- score a sweep's grid analytically, or cross-validate
  the analytical model against simulation (docs/SURROGATE.md),
* ``cache``    -- inspect or maintain the on-disk sweep result cache,
* ``systems``  -- list the named system configurations,
* ``faults``   -- list or describe fault-injection presets
  (``sweep --faults <preset>`` overlays one onto any sweep),
* ``telemetry`` -- summarize or export per-point telemetry artifacts
  captured with ``sweep --trace`` / ``--metrics-every``
  (docs/OBSERVABILITY.md),
* ``serve``    -- long-running result server over the cache: warm point
  queries in microseconds, identical cold queries coalesced into one
  simulation, fill progress over SSE (docs/SERVING.md).

Examples::

    python -m repro gemm --system PCIe-8GB --size 256 --verify
    python -m repro vit --system DevMem --model base --dim-scale 0.25
    python -m repro sweep --list
    python -m repro sweep --name fig7-transformer --workers 4
    python -m repro sweep --name fig8-gemm-split --name fig9-tradeoff
    python -m repro sweep --name tab4-translation --shard 1/4
    python -m repro cache stats
    python -m repro cache prune --sweep fig7-transformer
    python -m repro systems

Repeating ``--name`` batches several sweeps through one worker-pool
invocation; while points simulate a live ``[done/total]`` progress line
is shown on stderr (tty-only; ``REPRO_PROGRESS=1`` forces it on,
``REPRO_PROGRESS=0`` off).
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys

from repro import (
    SystemConfig,
    format_table,
    run_gemm,
    run_vit,
)
from repro.core.runner import (
    GemmResult,
    MultiGemmResult,
    PeerTransferResult,
    ViTResult,
)
from repro.sweep import (
    SWEEPS,
    ResultCache,
    build_sweep,
    parse_shard,
    run_sweeps,
)
from repro.workloads import GemmWorkload


def _system_by_name(name: str) -> SystemConfig:
    try:
        return SystemConfig.by_name(name)
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from None


def cmd_systems(_args) -> int:
    rows = []
    for name, config in SystemConfig.named_systems().items():
        mem = config.devmem if config.uses_device_memory else config.host_mem
        rows.append(
            (
                name,
                config.access_mode.value,
                config.pcie.describe(),
                mem.describe() if mem is not None else "simple",
            )
        )
    print(format_table(["name", "mode", "PCIe", "memory"], rows))
    return 0


def cmd_gemm(args) -> int:
    config = _system_by_name(args.system)
    if args.packet_size:
        config = config.with_packet_size(args.packet_size)
    result = run_gemm(
        config, args.size, args.size, args.size,
        functional=args.verify, seed=args.seed,
    )
    print(f"system:     {config.name}")
    print(f"GEMM:       {args.size}x{args.size}x{args.size}")
    print(f"exec time:  {result.seconds * 1e6:.1f} us")
    print(f"traffic:    {result.traffic_bytes / 1e6:.2f} MB")
    print(f"delivered:  {result.delivered_bytes_per_sec / 1e9:.2f} GB/s")
    if args.verify:
        import numpy as np

        workload = GemmWorkload(args.size, args.size, args.size,
                                seed=args.seed)
        a, b = workload.generate()
        np.testing.assert_array_equal(result.c_matrix,
                                      workload.reference(a, b))
        print("verify:     PASSED")
    if result.table4 is not None and args.translation:
        print("\naddress translation:")
        for key, value in result.table4.items():
            print(f"  {key:28s} {value:>14.2f}" if isinstance(value, float)
                  else f"  {key:28s} {value:>14d}")
    return 0


def cmd_vit(args) -> int:
    config = _system_by_name(args.system)
    result = run_vit(config, args.model, dim_scale=args.dim_scale)
    print(f"system:        {config.name}")
    print(f"model:         {result.model_name}")
    print(f"total:         {result.seconds * 1e3:.2f} ms")
    print(f"GEMM:          {result.gemm_ticks / 1e9:.2f} ms")
    print(f"non-GEMM:      {result.nongemm_ticks / 1e9:.2f} ms")
    print(f"non-GEMM share {100 * result.nongemm_fraction:.1f}%")
    return 0


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
def _list_sweeps(as_json: bool = False) -> int:
    rows = []
    for name in sorted(SWEEPS):
        factory = SWEEPS[name]
        doc = (inspect.getdoc(factory) or "").splitlines()
        summary = doc[0] if doc else ""
        spec = factory()
        rows.append((name, spec.runner if isinstance(spec.runner, str)
                     else "custom", len(spec), summary))
    if as_json:
        fields = ("name", "runner", "points", "description")
        print(json.dumps([dict(zip(fields, row)) for row in rows], indent=1))
        return 0
    print(format_table(
        ["experiment", "runner", "points", "description"], rows,
        title="registered sweeps (python -m repro sweep --name <experiment>)",
    ))
    return 0


def _require_sweeps(names) -> None:
    """Exit with a pointer to ``sweep --list`` on any unregistered name."""
    for name in names:
        if name not in SWEEPS:
            raise SystemExit(
                f"unknown sweep {name!r}; see python -m repro sweep --list"
            )


#: The sweep-factory overrides ``sweep`` and ``surrogate`` share:
#: (factory parameter, CLI flag, type, subject).
_OVERRIDES = (
    ("base", "--system", None, "base system"),
    ("size", "--size", int, "GEMM size"),
    ("model", "--model", None, "ViT model"),
    ("dim_scale", "--dim-scale", float, "ViT dim-scale"),
)


def _factory_kwargs(name: str, args) -> dict:
    """CLI overrides the named factory accepts, as factory kwargs.

    Flags the factory does not take are reported on stderr rather than
    silently dropped; a ``--system`` name resolves to its config.
    """
    offered = []
    for param, flag, _type, _subject in _OVERRIDES:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            continue
        if param == "base":
            value = _system_by_name(value)  # validate even if dropped
        offered.append((param, flag, value))
    accepted = inspect.signature(SWEEPS[name]).parameters
    kwargs = {param: value for param, _flag, value in offered
              if param in accepted}
    dropped = sorted(flag for param, flag, _value in offered
                     if param not in accepted)
    if dropped:
        print(f"note: sweep {name!r} ignores {', '.join(dropped)}",
              file=sys.stderr)
    return kwargs


def _ticks_us(ticks: int) -> float:
    """Ticks to microseconds through the canonical time base."""
    from repro.sim.ticks import ticks_to_seconds

    return ticks_to_seconds(ticks) * 1e6


def _result_rows(report):
    """Generic per-point table for any runner's result type."""
    results = report.results()
    sample = next(iter(results.values()), None)
    if isinstance(sample, GemmResult):
        header = ["point", "exec us", "traffic MB"]
        rows = [
            (key, f"{r.seconds * 1e6:.1f}", f"{r.traffic_bytes / 1e6:.2f}")
            for key, r in results.items()
        ]
    elif isinstance(sample, MultiGemmResult):
        header = ["point", "devices", "exec us", "dev spread us",
                  "agg GB/s", "uplink util"]
        rows = [
            (
                key,
                f"{r.active_devices}/{r.num_devices}",
                f"{r.seconds * 1e6:.1f}",
                # Fastest-to-slowest device gap: arbitration fairness.
                (f"{_ticks_us(max(r.device_ticks) - min(r.device_ticks)):.1f}"
                 if r.device_ticks else "-"),
                f"{r.aggregate_bytes_per_sec / 1e9:.2f}",
                f"{100 * r.uplink_busy_frac:.1f}%",
            )
            for key, r in results.items()
        ]
    elif isinstance(sample, PeerTransferResult):
        header = ["point", "mode", "KiB", "exec us", "GB/s", "RC bytes"]
        rows = [
            (
                key,
                r.mode,
                f"{r.size_bytes / 1024:.0f}",
                f"{r.seconds * 1e6:.1f}",
                f"{r.bytes_per_sec / 1e9:.2f}",
                r.root_complex_bytes,
            )
            for key, r in results.items()
        ]
    elif type(sample).__name__ == "ResilienceResult":
        header = ["point", "done", "aborted", "makespan us", "p50 us",
                  "max us", "goodput GB/s", "retries", "replays"]
        rows = [
            (
                key,
                f"{r.completed}/{r.transfers}",
                r.aborted,
                f"{r.seconds * 1e6:.1f}",
                f"{_ticks_us(r.latency_p50):.1f}",
                f"{_ticks_us(r.latency_max):.1f}",
                f"{r.goodput_bytes_per_sec / 1e9:.2f}",
                r.retries,
                r.replays,
            )
            for key, r in results.items()
        ]
    elif isinstance(sample, ViTResult):
        header = ["point", "total ms", "GEMM ms", "non-GEMM ms", "non-GEMM %"]
        rows = [
            (
                key,
                f"{r.seconds * 1e3:.2f}",
                f"{r.gemm_ticks / 1e9:.2f}",
                f"{r.nongemm_ticks / 1e9:.2f}",
                f"{100 * r.nongemm_fraction:.1f}%",
            )
            for key, r in results.items()
        ]
    else:
        header = ["point", "record"]
        rows = [(key, repr(r)) for key, r in results.items()]
    return header, rows


def _progress_printer():
    """A live ``done/total`` line on stderr while a sweep simulates.

    Enabled when stderr is a terminal, or when ``REPRO_PROGRESS=1``
    forces it (useful under redirection); ``REPRO_PROGRESS=0`` disables
    it entirely.  Returns ``(progress_fn or None, finish_fn)``.
    """
    env = os.environ.get("REPRO_PROGRESS")
    enabled = (env == "1") or (env != "0" and sys.stderr.isatty())
    if not enabled:
        return None, lambda: None
    state = {"wrote": False}

    def progress(done: int, total: int, outcome) -> None:
        origin = "cached" if outcome.cached else "simulated"
        # \x1b[K clears to end of line: a short status must not leave
        # residue from a longer predecessor.
        print(f"\r[{done}/{total}] {origin} {outcome.key!r}\x1b[K",
              end="", file=sys.stderr, flush=True)
        state["wrote"] = True

    def finish() -> None:
        if state["wrote"]:
            print(file=sys.stderr, flush=True)

    return progress, finish


def _telemetry_settings(args):
    """Per-point telemetry settings from the sweep flags, or None."""
    if not (args.trace or args.metrics_every is not None
            or args.profile or args.diagnostics):
        if args.telemetry_dir is not None:
            print("note: --telemetry-dir applies with --trace, "
                  "--metrics-every, --profile or --diagnostics",
                  file=sys.stderr)
        return None
    from repro.telemetry.state import TelemetrySettings

    return TelemetrySettings(
        trace=args.trace,
        trace_dir=args.telemetry_dir or "telemetry",
        metrics_every=args.metrics_every,
        profile=args.profile,
        diagnostics=args.diagnostics,
    )


def cmd_sweep(args) -> int:
    if args.list:
        return _list_sweeps(as_json=args.json)
    if args.json:
        print("note: --json applies to --list only", file=sys.stderr)

    try:
        shard = parse_shard(args.shard) if args.shard else None
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    names = args.name
    if not names:
        raise SystemExit(
            "sweep requires --name <sweep> (repeatable; see "
            "python -m repro sweep --list)"
        )
    _require_sweeps(names)
    specs = [build_sweep(name, **_factory_kwargs(name, args))
             for name in names]
    if args.faults:
        # Fault overlay: every point of every requested sweep runs under
        # the named preset (docs/FAULTS.md).  The FaultSpec rides the
        # config hash, so overlaid runs never alias fault-free cache
        # entries.
        from repro.faults.runner import apply_faults
        from repro.faults.spec import fault_preset

        try:
            fault_spec = fault_preset(args.faults, seed=args.fault_seed)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        specs = [apply_faults(spec, fault_spec) for spec in specs]
    elif args.fault_seed is not None:
        print("note: --fault-seed applies with --faults only",
              file=sys.stderr)
    settings = _telemetry_settings(args)
    if args.ladder:
        return _run_ladders(args, specs, shard, settings)
    for flag in ("top_k", "pareto", "margin", "objective", "calibration"):
        # By identity: a numeric 0 (``--margin 0``) equals False.
        value = getattr(args, flag)
        if value is not None and value is not False:
            print(f"note: --{flag.replace('_', '-')} applies with --ladder "
                  f"only", file=sys.stderr)
    # All requested sweeps run against one worker-pool invocation.
    progress, progress_done = _progress_printer()
    try:
        reports = run_sweeps(
            specs,
            workers=args.workers,
            cache=not args.no_cache,
            cache_dir=args.cache_dir,
            shard=shard,
            progress=progress,
            telemetry=settings,
        )
    finally:
        progress_done()
    for spec, report in zip(specs, reports):
        header, rows = _result_rows(report)
        print(format_table(header, rows, title=spec.name))
        print(report.describe())
    if settings is not None:
        captured = sum(1 for report in reports
                       for outcome in report.outcomes if outcome.telemetry)
        total = sum(len(report.outcomes) for report in reports)
        print(f"telemetry: {captured}/{total} point(s) captured -> "
              f"{settings.trace_dir} "
              f"(python -m repro telemetry summarize --dir "
              f"{settings.trace_dir})")
        if captured < total:
            print("note: cached points replay their records without "
                  "simulating, so they produce no telemetry; use "
                  "--no-cache to capture every point", file=sys.stderr)
    return 0


def _run_ladders(args, specs, shard, settings) -> int:
    """``sweep --ladder``: surrogate-score, prune, simulate survivors."""
    from repro.surrogate import CalibrationError, LadderSpec, run_ladder

    calibration = _load_calibration(args.calibration)
    # An unset --margin leaves LadderSpec's own default in force.
    margin = {} if args.margin is None else {"margin": args.margin}
    objectives = tuple(args.objective) if args.objective else ("ticks",)
    top_k = args.top_k
    if top_k is None and not args.pareto:
        top_k = "10%"
    progress, progress_done = _progress_printer()
    try:
        for spec in specs:
            try:
                ladder = LadderSpec(
                    spec=spec,
                    top_k=top_k,
                    pareto=args.pareto,
                    objectives=objectives,
                    calibration=calibration,
                    **margin,
                )
                lreport = run_ladder(
                    ladder,
                    workers=args.workers,
                    cache=not args.no_cache,
                    cache_dir=args.cache_dir,
                    shard=shard,
                    progress=progress,
                    telemetry=settings,
                )
            except (CalibrationError, ValueError) as exc:
                raise SystemExit(f"ladder: {exc}") from None
            header, rows = _result_rows(lreport.report)
            estimates = {est.key: est for est in lreport.estimates}
            rows = [
                row + (f"{estimates[key].ticks / 1e6:.1f}",)
                for row, key in zip(rows, lreport.report.results())
            ]
            print(format_table(header + ["surrogate us"], rows,
                               title=spec.name))
            print(lreport.describe())
    finally:
        progress_done()
    return 0


def _load_calibration(path):
    """The calibration JSON at ``path``, or None when no path is given."""
    if not path:
        return None
    from repro.surrogate import Calibration

    try:
        return Calibration.load(path)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise SystemExit(f"cannot load calibration {path!r}: {exc}") from None


def cmd_surrogate(args) -> int:
    """``surrogate xval`` / ``surrogate estimate``."""
    from repro.surrogate import cross_validate, estimate_spec

    name = args.name
    _require_sweeps([name])
    spec = build_sweep(name, **_factory_kwargs(name, args))
    if args.action == "xval":
        progress, progress_done = _progress_printer()
        try:
            calibration = cross_validate(
                spec,
                fraction=args.fraction,
                workers=args.workers,
                cache=not args.no_cache,
                cache_dir=args.cache_dir,
                progress=progress,
            )
        except ValueError as exc:
            raise SystemExit(f"surrogate xval: {exc}") from None
        finally:
            progress_done()
        print(f"cross-validation of '{spec.name}' "
              f"(fraction {args.fraction:g}):")
        print(calibration.describe())
        if args.out:
            calibration.save(args.out)
            print(f"calibration written to {args.out}")
        return 0
    # estimate: score the whole grid analytically, no simulation at all.
    estimates = sorted(
        estimate_spec(spec, calibration=_load_calibration(args.calibration)),
        key=lambda est: est.ticks,
    )
    if args.top:
        estimates = estimates[:args.top]
    rows = [
        (
            repr(est.key),
            f"{est.ticks / 1e6:.1f}",
            f"{est.bytes_on_wire / 1e6:.2f}",
            f"{100 * est.uplink_busy:.1f}%",
        )
        for est in estimates
    ]
    print(format_table(
        ["point", "est us", "wire MB", "uplink"], rows,
        title=f"surrogate estimates: {spec.name} (best first)",
    ))
    return 0


# ----------------------------------------------------------------------
# faults
# ----------------------------------------------------------------------
def cmd_faults(args) -> int:
    """``faults list`` / ``faults describe --preset <name>``."""
    from repro.faults.spec import FAULT_PRESETS, fault_preset

    if args.action == "list":
        rows = []
        for name in sorted(FAULT_PRESETS):
            doc = (inspect.getdoc(FAULT_PRESETS[name]) or "").splitlines()
            rows.append((name, doc[0] if doc else ""))
        print(format_table(
            ["preset", "description"], rows,
            title="fault presets (python -m repro sweep --faults <preset>)",
        ))
        return 0
    if not args.preset:
        raise SystemExit("faults describe requires --preset <name>")
    try:
        spec = fault_preset(args.preset, seed=args.seed)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    print(f"preset: {args.preset}")
    print(spec.describe())
    return 0


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------
def _telemetry_keys(directory: str) -> list:
    """Point key hashes with artifacts in ``directory``, sorted."""
    from repro.telemetry.runtime import ARTIFACT_SUFFIXES

    keys = set()
    for entry in os.listdir(directory):
        for suffix in ARTIFACT_SUFFIXES.values():
            if entry.endswith(suffix):
                keys.add(entry[:-len(suffix)])
                break
    return sorted(keys)


def cmd_telemetry(args) -> int:
    """``telemetry summarize`` / ``telemetry export``."""
    from repro.telemetry import validate_chrome_trace
    from repro.telemetry.runtime import artifact_path

    directory = args.dir
    if not os.path.isdir(directory):
        raise SystemExit(
            f"telemetry: no artifact directory {directory!r} (capture one "
            f"with: python -m repro sweep --name <sweep> --trace)"
        )
    keys = _telemetry_keys(directory)
    if not keys:
        raise SystemExit(f"telemetry: no artifacts in {directory!r}")

    if args.action == "summarize":
        rows = []
        profiles = []
        for key in keys:
            spans = instants = "-"
            valid = "-"
            trace_path = artifact_path(directory, key, "trace")
            if os.path.exists(trace_path):
                with open(trace_path, encoding="utf-8") as handle:
                    document = json.load(handle)
                events = document.get("traceEvents", [])
                spans = sum(1 for e in events if e.get("ph") == "X")
                instants = sum(1 for e in events if e.get("ph") == "i")
                problems = validate_chrome_trace(document)
                valid = "ok" if not problems else f"{len(problems)} bad"
            samples = series = "-"
            metrics_path = artifact_path(directory, key, "metrics")
            if os.path.exists(metrics_path):
                with open(metrics_path, encoding="utf-8") as handle:
                    metrics = json.load(handle)
                samples = metrics.get("samples", "-")
                series = metrics.get("series", "-")
            hotspot = "-"
            profile_path = artifact_path(directory, key, "profile")
            if os.path.exists(profile_path):
                with open(profile_path, encoding="utf-8") as handle:
                    profile = json.load(handle)
                profiles.append(profile)
                layers = profile.get("layers", [])
                if layers:
                    hotspot = (f"{layers[0]['layer']} "
                               f"({layers[0]['share']:.2f})")
            rows.append((key[:16], spans, instants, samples, series,
                         hotspot, valid))
        print(format_table(
            ["point", "spans", "instants", "samples", "series",
             "hotspot", "trace"],
            rows, title=f"telemetry artifacts in {directory}",
        ))
        if profiles:
            from repro.telemetry.profiler import layer_table, merge_layers

            print()
            print(layer_table(
                merge_layers(profiles),
                title=f"host self time by layer, {len(profiles)} "
                      f"profiled point(s)",
            ))
        return 0

    # export: one validated Chrome trace document to --out.
    traces = [key for key in keys
              if os.path.exists(artifact_path(directory, key, "trace"))]
    if not traces:
        raise SystemExit(f"telemetry: no trace artifacts in {directory!r}")
    if args.key:
        matches = [key for key in traces if key.startswith(args.key)]
        if not matches:
            raise SystemExit(
                f"telemetry: no trace matches key prefix {args.key!r}"
            )
        if len(matches) > 1:
            raise SystemExit(
                f"telemetry: key prefix {args.key!r} is ambiguous "
                f"({len(matches)} matches); use a longer prefix"
            )
        chosen = matches[0]
    elif len(traces) == 1:
        chosen = traces[0]
    else:
        raise SystemExit(
            f"telemetry: {len(traces)} traces in {directory!r}; pick one "
            f"with --key <prefix> (see 'telemetry summarize')"
        )
    source = artifact_path(directory, chosen, "trace")
    with open(source, encoding="utf-8") as handle:
        document = json.load(handle)
    problems = validate_chrome_trace(document)
    if problems:
        raise SystemExit(
            f"telemetry: {source} is not a valid Chrome trace: "
            + "; ".join(problems[:5])
        )
    out = args.out or f"{chosen[:16]}.trace.json"
    with open(source, "rb") as handle:
        payload = handle.read()
    with open(out, "wb") as handle:
        handle.write(payload)
    events = document.get("traceEvents", [])
    spans = sum(1 for e in events if e.get("ph") == "X")
    print(f"wrote {out} ({spans} spans, {len(events)} events) -- load it "
          f"in Perfetto (ui.perfetto.dev) or chrome://tracing")
    return 0


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def cmd_serve(args) -> int:
    """``serve``: run the result server until interrupted."""
    import asyncio

    from repro.serve import ServeSettings, serve_forever

    settings = ServeSettings(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=args.cache_dir,
        batch_window=args.batch_window,
    )
    try:
        asyncio.run(serve_forever(settings, announce=True))
    except KeyboardInterrupt:
        print("repro serve: shutting down", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
def cmd_cache(args) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        summary = cache.summarize()
        print(f"cache dir:  {summary['root']}")
        print(f"entries:    {summary['entries']}")
        print(f"size:       {summary['bytes'] / 1e6:.2f} MB")
        if summary["sweeps"]:
            rows = sorted(summary["sweeps"].items())
            print()
            print(format_table(["sweep", "entries"], rows))
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.root}")
        return 0
    # prune
    if not args.sweep:
        raise SystemExit("cache prune requires --sweep <name>")
    removed = cache.prune(args.sweep)
    print(f"removed {removed} entries tagged {args.sweep!r} from {cache.root}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Gem5-AcceSys reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Parent parsers: one declaration per shared option.  Their actions
    # are shared objects, so no subparser may ``set_defaults`` one of
    # these dests -- that would change the default for every subparser.
    overrides = argparse.ArgumentParser(add_help=False)
    for _param, flag, type_, subject in _OVERRIDES:
        overrides.add_argument(flag, type=type_, default=None,
                               help=f"{subject} override "
                                    f"(if the sweep takes one)")
    cache_dir = argparse.ArgumentParser(add_help=False)
    cache_dir.add_argument("--cache-dir", default=None,
                           help="result cache location "
                                "(default: $REPRO_SWEEP_CACHE_DIR or "
                                "~/.cache/repro/sweeps)")
    local_run = argparse.ArgumentParser(add_help=False)
    local_run.add_argument("--workers", type=int, default=None,
                           help="process count for uncached points "
                                "(default: $REPRO_SWEEP_WORKERS or serial)")
    local_run.add_argument("--no-cache", action="store_true",
                           help="always re-simulate; do not read or "
                                "write the result cache")

    p_systems = sub.add_parser("systems", help="list named configurations")
    p_systems.set_defaults(func=cmd_systems)

    p_gemm = sub.add_parser("gemm", help="run one GEMM")
    p_gemm.add_argument("--system", default="Table2")
    p_gemm.add_argument("--size", type=int, default=128)
    p_gemm.add_argument("--packet-size", type=int, default=0)
    p_gemm.add_argument("--seed", type=int, default=1234)
    p_gemm.add_argument("--verify", action="store_true",
                        help="check the result against numpy")
    p_gemm.add_argument("--translation", action="store_true",
                        help="print Table IV metrics")
    p_gemm.set_defaults(func=cmd_gemm)

    p_vit = sub.add_parser("vit", help="run ViT inference")
    p_vit.add_argument("--system", default="PCIe-8GB")
    p_vit.add_argument("--model", default="base",
                       choices=["base", "large", "huge"])
    p_vit.add_argument("--dim-scale", type=float, default=0.25)
    p_vit.set_defaults(func=cmd_vit)

    p_sweep = sub.add_parser(
        "sweep", help="run a registered experiment sweep",
        parents=[overrides, local_run, cache_dir],
    )
    p_sweep.add_argument("--list", action="store_true",
                         help="list registered experiments and exit")
    p_sweep.add_argument("--json", action="store_true",
                         help="with --list: machine-readable registry "
                              "dump (name/runner/points/description)")
    p_sweep.add_argument("--name", action="append", default=None,
                         help="registered experiment to run "
                              "(see --list; covers every paper figure); "
                              "repeat to batch several sweeps through "
                              "one worker-pool invocation")
    p_sweep.add_argument("--shard", default=None, metavar="I/N",
                         help="simulate only shard I of N "
                              "(deterministic slice; share --cache-dir "
                              "across shards to compose the full grid)")
    p_sweep.add_argument("--ladder", action="store_true",
                         help="fidelity ladder: surrogate-score the full "
                              "grid, prune, simulate only the survivors "
                              "(docs/SURROGATE.md)")
    p_sweep.add_argument("--top-k", default=None, metavar="K",
                         help="ladder: keep the K best estimated points "
                              "(count or percentage like '10%%'; default "
                              "10%% when --pareto is not given)")
    p_sweep.add_argument("--pareto", action="store_true",
                         help="ladder: keep the Pareto front of the "
                              "estimated objectives instead of top-K")
    p_sweep.add_argument("--margin", type=float, default=None,
                         help="ladder: safety margin; survivors within "
                              "(1+margin) of the cutoff are kept "
                              "(default 0.1)")
    p_sweep.add_argument("--objective", action="append", default=None,
                         choices=["ticks", "bytes_on_wire", "uplink_busy"],
                         help="ladder objective (repeatable; top-K uses "
                              "the first, Pareto all; default: ticks)")
    p_sweep.add_argument("--calibration", default=None, metavar="PATH",
                         help="ladder: calibration JSON from 'surrogate "
                              "xval'; scales estimates and refuses to "
                              "prune when measured p95 error > margin")
    p_sweep.add_argument("--faults", default=None, metavar="PRESET",
                         help="overlay a fault-injection preset onto "
                              "every point (see 'faults list'; "
                              "docs/FAULTS.md)")
    p_sweep.add_argument("--fault-seed", type=int, default=None,
                         help="reseed the fault preset's deterministic "
                              "injection streams (with --faults)")
    p_sweep.add_argument("--trace", action="store_true",
                         help="record tick-domain spans (DMA lifecycles, "
                              "TLP trains, fault windows) per simulated "
                              "point as Chrome trace JSON "
                              "(docs/OBSERVABILITY.md); "
                              "results stay bit-identical")
    p_sweep.add_argument("--metrics-every", type=int, default=None,
                         metavar="TICKS",
                         help="sample per-component stat deltas every N "
                              "simulated ticks into ring-buffered time "
                              "series (with Prometheus text exposition)")
    p_sweep.add_argument("--profile", action="store_true",
                         help="run each simulated point under cProfile "
                              "and write its host self time, share and "
                              "calls per repro package (layer) as a "
                              "table; results stay bit-identical")
    p_sweep.add_argument("--diagnostics", action="store_true",
                         help="record simulator run-health counters "
                              "(events executed/skipped, freelist "
                              "high-water mark) in each outcome record")
    p_sweep.add_argument("--telemetry-dir", default=None, metavar="DIR",
                         help="artifact directory for --trace/"
                              "--metrics-every/--profile outputs "
                              "(default: ./telemetry)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_sur = sub.add_parser(
        "surrogate",
        help="analytical surrogate tier: score grids without simulating, "
             "cross-validate the model (docs/SURROGATE.md)",
        parents=[overrides, local_run, cache_dir],
    )
    p_sur.add_argument("action", choices=["xval", "estimate"],
                       help="xval: simulate a stratified sample and fit "
                            "the calibration; estimate: score the grid "
                            "analytically")
    p_sur.add_argument("--name", default="fig6a-mem-bandwidth",
                       help="registered sweep whose grid to score "
                            "(see sweep --list)")
    p_sur.add_argument("--fraction", type=float, default=0.5,
                       help="xval: fraction of the grid to simulate "
                            "(stratified every-Nth sample; default 0.5)")
    p_sur.add_argument("--out", default=None, metavar="PATH",
                       help="xval: write the calibration JSON here")
    p_sur.add_argument("--calibration", default=None, metavar="PATH",
                       help="estimate: apply a saved calibration")
    p_sur.add_argument("--top", type=int, default=None,
                       help="estimate: show only the N best points")
    p_sur.set_defaults(func=cmd_surrogate)

    p_faults = sub.add_parser(
        "faults",
        help="list or describe deterministic fault-injection presets "
             "(docs/FAULTS.md)",
    )
    p_faults.add_argument("action", choices=["list", "describe"],
                          nargs="?", default="list")
    p_faults.add_argument("--preset", default=None,
                          help="describe: preset name (see 'faults list')")
    p_faults.add_argument("--seed", type=int, default=None,
                          help="describe: show the preset reseeded")
    p_faults.set_defaults(func=cmd_faults)

    p_tel = sub.add_parser(
        "telemetry",
        help="summarize or export telemetry artifacts captured with "
             "sweep --trace / --metrics-every / --profile "
             "(docs/OBSERVABILITY.md)",
    )
    p_tel.add_argument("action", choices=["summarize", "export"],
                       nargs="?", default="summarize")
    p_tel.add_argument("--dir", default="telemetry",
                       help="artifact directory (default: ./telemetry; "
                            "matches sweep --telemetry-dir)")
    p_tel.add_argument("--key", default=None, metavar="PREFIX",
                       help="export: key-hash prefix selecting one "
                            "point's trace")
    p_tel.add_argument("--out", default=None, metavar="PATH",
                       help="export: destination path for the Chrome "
                            "trace JSON")
    p_tel.set_defaults(func=cmd_telemetry)

    p_serve = sub.add_parser(
        "serve",
        help="serve cached sweep results over HTTP; coalesce and batch "
             "cold misses into single fill runs (docs/SERVING.md)",
        parents=[cache_dir],
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8321,
                         help="listen port (default 8321; 0 = ephemeral)")
    p_serve.add_argument("--workers", type=int, default=1,
                         help="process-pool width of each fill batch "
                              "(default 1)")
    p_serve.add_argument("--batch-window", type=float, default=0.0,
                         metavar="SECONDS",
                         help="how long a first miss waits for concurrent "
                              "distinct misses to share its fill run "
                              "(default 0: fill at once; misses arriving "
                              "during a fill share the next one)")
    p_serve.set_defaults(func=cmd_serve)

    p_cache = sub.add_parser(
        "cache", help="inspect or maintain the sweep result cache",
        parents=[cache_dir],
    )
    p_cache.add_argument("action", choices=["stats", "clear", "prune"])
    p_cache.add_argument("--sweep", default=None,
                         help="sweep name for prune")
    p_cache.set_defaults(func=cmd_cache)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
