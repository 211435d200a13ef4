"""Parallel sweep engine with on-disk result caching.

Typical use::

    from repro.sweep import SweepPoint, SweepSpec, run_sweep

    points = [
        SweepPoint(key=packet,
                   config=base.with_packet_size(packet),
                   params={"m": 128, "k": 128, "n": 128})
        for packet in (64, 256, 1024)
    ]
    report = run_sweep(SweepSpec("packets", points), workers=4)
    for key, result in report.results().items():
        print(key, result.seconds)

See docs/SWEEPS.md for the full story (worker selection, the cache
directory, and how ``REPRO_FULL`` interacts with cache keys).
"""

from repro.sweep.cache import (
    CACHE_DIR_ENV,
    NullCache,
    ResultCache,
    code_version,
    default_cache_dir,
    fresh_code_version,
    point_key,
)
from repro.sweep.engine import (
    WORKERS_ENV,
    SweepOutcome,
    SweepReport,
    iter_sweep,
    parse_shard,
    point_params,
    resolve_workers,
    run_points,
    run_sweep,
    run_sweeps,
    shard_points,
)
from repro.sweep.spec import (
    RUNNERS,
    SWEEPS,
    SweepPoint,
    SweepSpec,
    build_sweep,
    derive_seed,
    gemm_points,
    register_runner,
    register_sweep,
    resolve_runner,
)

# Importing the experiments module registers every named figure/table
# sweep in SWEEPS as a side effect; it also holds the JSON-override
# decoder the result server's queries use.
from repro.sweep.experiments import apply_overrides  # noqa: E402

__all__ = [
    "SweepPoint",
    "SweepSpec",
    "SweepOutcome",
    "SweepReport",
    "run_sweep",
    "run_sweeps",
    "run_points",
    "iter_sweep",
    "point_params",
    "build_sweep",
    "apply_overrides",
    "register_sweep",
    "register_runner",
    "resolve_runner",
    "resolve_workers",
    "parse_shard",
    "shard_points",
    "gemm_points",
    "derive_seed",
    "ResultCache",
    "NullCache",
    "point_key",
    "code_version",
    "fresh_code_version",
    "default_cache_dir",
    "RUNNERS",
    "SWEEPS",
    "CACHE_DIR_ENV",
    "WORKERS_ENV",
]
