"""The shard worker: claim, simulate, report, repeat.

``python -m repro orchestrate --worker <run-dir>`` runs this loop.  A
worker is stateless and interchangeable: it verifies the run manifest
(refusing on any code/spec version mismatch), then repeatedly claims the
lowest-index pending shard, executes that ``--shard I/N`` slice of every
sweep in the manifest against the shared result cache, ships the
per-shard outcome records next to the lease, and marks the lease done.
When nothing is claimable it exits; the dispatcher spawns replacements
if expired leases later need hands.

Crash safety falls out of the cache: every finished point is already an
atomic content-addressed cache entry, so a worker killed mid-shard
loses only its lease (which the dispatcher expires and reassigns) --
the replacement replays the dead worker's finished points as cache hits
and simulates only the remainder.
"""

from __future__ import annotations

import os
import socket
import sys
import traceback
from typing import List, Optional

from repro.sweep.cache import ResultCache, atomic_write_json
from repro.sweep.engine import run_sweeps, shard_points
from repro.orchestrate.lease import (
    DONE,
    FAILED,
    PENDING,
    Heartbeat,
    ShardLease,
    lease_lock,
    read_lease,
    read_leases,
    report_path,
    try_claim,
    write_lease,
)
from repro.orchestrate.manifest import RunManifest

#: Exit code for a version-mismatch refusal (distinguishable from a
#: crash so fleet tooling can tell "wrong tree" from "broken worker").
EXIT_VERSION_MISMATCH = 3


def default_worker_id(suffix: str = "") -> str:
    host = socket.gethostname().split(".", 1)[0] or "host"
    tag = f"{host}-{os.getpid()}"
    return f"{tag}-{suffix}" if suffix else tag


def _shard_telemetry_summary(spec_records) -> Optional[dict]:
    """Summarize telemetry captured while running this shard.

    The per-point artifacts (trace/metrics/profile files) already live
    under the session's trace directory; the shard report only carries
    the bookkeeping the dispatcher folds into ``report.json``
    provenance: how many points this shard captured and where the
    artifacts went.  None when no telemetry session is active.
    """
    from repro.telemetry.state import active

    settings = active()
    if settings is None or not settings.enabled:
        return None
    captured = sum(
        1
        for record in spec_records
        for point in record.get("points", ())
        if "telemetry" in point or "diagnostics" in point
    )
    return {
        "captured_points": captured,
        "trace_dir": settings.trace_dir,
    }


def _write_shard_report(run_dir, lease: ShardLease, reports) -> None:
    """Atomically persist this shard's outcome records."""
    spec_records = [report.to_record() for report in reports]
    payload = {
        "index": lease.index,
        "total": lease.total,
        "attempt": lease.attempt,
        "owner": lease.owner,
        "spec_records": spec_records,
    }
    telemetry = _shard_telemetry_summary(spec_records)
    if telemetry is not None:
        payload["telemetry"] = telemetry
    atomic_write_json(report_path(run_dir, lease.index), payload)


def _lease_still_ours(run_dir, lease: ShardLease) -> bool:
    """Is ``lease`` still this worker's to write?  Checked before every
    terminal state write -- the heartbeat only samples at its interval,
    so a reassignment can land between its last beat and shard end."""
    current = read_lease(run_dir, lease.index)
    return (current is not None
            and current.attempt == lease.attempt
            and current.owner == lease.owner)


def _run_shard(
    run_dir,
    manifest: RunManifest,
    specs,
    lease: ShardLease,
    inner_workers: Optional[int],
) -> bool:
    """Execute one claimed shard end to end; True on success."""
    lease.total_points = sum(
        len(shard_points(spec.points, (lease.index, lease.total)))
        for spec in specs
    )
    write_lease(run_dir, lease)
    beat = Heartbeat(
        run_dir, lease,
        interval=min(5.0, max(0.05, manifest.lease_ttl / 4.0)),
    )
    counters = {"hits": 0, "misses": 0, "done": 0}

    def on_outcome(outcome) -> None:
        counters["done"] += 1
        counters["hits" if outcome.cached else "misses"] += 1
        beat.update_progress(counters["hits"], counters["misses"],
                             counters["done"])

    beat.start()
    try:
        reports = run_sweeps(
            specs,
            workers=inner_workers,
            cache=ResultCache(manifest.cache_dir),
            shard=(lease.index, lease.total),
            on_outcome=on_outcome,
        )
    except Exception:
        beat.stop()
        # Same ownership discipline as the success path: a worker that
        # stalled past the TTL, was replaced, and *then* failed must
        # not write ``failed`` over its replacement's lease.
        with lease_lock(run_dir, lease.index):
            if not beat.lost and _lease_still_ours(run_dir, lease):
                lease.state = FAILED
                lease.error = traceback.format_exc(limit=20)
                write_lease(run_dir, lease)
        return False
    beat.stop()
    with lease_lock(run_dir, lease.index):
        if not beat.lost and not _lease_still_ours(run_dir, lease):
            # Never write ``done`` over a replacement's ledger entry.
            beat.lost = True
        if not beat.lost:
            _write_shard_report(run_dir, lease, reports)
            lease.state = DONE
            lease.hits = sum(report.hits for report in reports)
            lease.misses = sum(report.misses for report in reports)
            lease.done_points = lease.hits + lease.misses
            write_lease(run_dir, lease)
    if beat.lost:
        # The dispatcher reassigned this shard under us (we looked
        # dead).  Our cache entries stand; the ledger belongs to the
        # replacement worker now.
        print(
            f"orchestrate worker: lease on shard "
            f"{lease.index}/{lease.total} was reassigned; dropping it",
            file=sys.stderr,
        )
        return False
    return True


def run_worker(
    run_dir,
    worker_id: Optional[str] = None,
    inner_workers: Optional[int] = 1,
) -> int:
    """The worker main loop; returns a process exit code.

    ``inner_workers`` is the per-shard process-pool width (default 1:
    orchestration parallelism comes from shard fan-out, not nested
    pools; pass ``None`` to re-enable the ``$REPRO_SWEEP_WORKERS``
    default for fat hosts).
    """
    owner = worker_id or default_worker_id()
    try:
        manifest = RunManifest.load(run_dir)
        manifest.verify_code()
        specs = manifest.build_specs(verify=True)
    except Exception as exc:
        from repro.orchestrate.manifest import VersionMismatchError

        print(f"orchestrate worker {owner}: refusing to start: {exc}",
              file=sys.stderr)
        return (EXIT_VERSION_MISMATCH
                if isinstance(exc, VersionMismatchError) else 1)

    completed: List[int] = []
    while True:
        claimed = None
        leases = read_leases(run_dir)
        for index in sorted(leases):
            lease = leases[index]
            if lease.state == PENDING and try_claim(run_dir, lease, owner):
                claimed = lease
                break
        if claimed is None:
            # Nothing claimable right now.  Running shards belong to
            # live peers (or will be expired and respawned by the
            # dispatcher); either way this process is surplus.
            break
        if _run_shard(run_dir, manifest, specs, claimed, inner_workers):
            completed.append(claimed.index)
    print(
        f"orchestrate worker {owner}: exiting "
        f"({len(completed)} shard(s) -> see {run_dir})",
        file=sys.stderr,
    )
    return 0
