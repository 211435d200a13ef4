"""Shard leases: crash-evident work-unit state on a shared filesystem.

Every work unit (one ``--shard I/N`` slice of the run's sweeps) owns one
JSON state file under ``<run-dir>/shards/``.  The life cycle is

    pending --claim--> running --success--> done
                          |
                          +--error----------> failed
                          +--silence--------> (expired back to pending)

All writes are whole-file atomic (temp + ``os.replace``), so readers on
other machines never see a torn state.  Mutual exclusion for *claiming*
does not rely on read-modify-write of the state file (racy on a shared
FS); instead a claim is the ``O_CREAT | O_EXCL`` creation of a marker
file keyed on ``(shard index, attempt)`` under ``<run-dir>/claims/`` --
exactly one process can win each attempt, and attempts only ever
increase (the dispatcher bumps the attempt when it expires a dead
lease), so stale claim markers can never block a reassignment.

While a worker runs a shard, a daemon :class:`Heartbeat` thread rewrites
the state file with a fresh timestamp and live progress counters.  The
dispatcher declares a lease dead when its heartbeat is older than the
manifest's ``lease_ttl`` (or sooner, when the backend knows the owning
process has exited).  A worker whose lease was reassigned under it
notices -- the heartbeat re-reads the file and finds a different
attempt/owner -- and drops the shard without marking anything, so a
slow-but-alive worker can never corrupt the ledger of its replacement
(both would have produced bit-identical cache entries anyway; the
content-addressed cache makes double execution harmless).

Every read-check-write of a state file (a heartbeat, an expiry, a
claim's ``running`` write, a worker's final ``done``/``failed``) runs
under :func:`lease_lock`, an exclusive ``flock`` on a sibling lock
file.  Without it a dispatcher's expiry could land between a
heartbeat's ownership check and its write, and the stale attempt's
lease would overwrite the new one.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional

from repro.sweep.cache import atomic_write_json

#: Legal lease states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
STATES = (PENDING, RUNNING, DONE, FAILED)

SHARDS_DIR = "shards"
CLAIMS_DIR = "claims"


@dataclass
class ShardLease:
    """One work unit's on-disk state."""

    index: int                     # 1-based shard index I
    total: int                     # shard total N
    state: str = PENDING
    attempt: int = 1               # monotonic; bumped on every reassign
    owner: str = ""                # worker id holding the lease
    heartbeat: float = 0.0         # unix time of the last liveness write
    claimed_at: float = 0.0
    hits: int = 0                  # cache hits so far this attempt
    misses: int = 0                # points simulated so far this attempt
    done_points: int = 0
    total_points: int = 0
    error: str = ""

    def heartbeat_age(self, now: Optional[float] = None) -> float:
        stamp = self.heartbeat or self.claimed_at
        return (now if now is not None else time.time()) - stamp


def shards_dir(run_dir: os.PathLike) -> Path:
    return Path(run_dir) / SHARDS_DIR


def lease_path(run_dir: os.PathLike, index: int) -> Path:
    return shards_dir(run_dir) / f"shard-{index:04d}.json"


@contextlib.contextmanager
def lease_lock(run_dir: os.PathLike, index: int) -> Iterator[None]:
    """Hold shard ``index``'s lease lock: one read-check-write at a time.

    An exclusive ``flock`` on ``shard-NNNN.lock`` beside the state file.
    Each entry opens the file anew, so threads of one process exclude
    each other as well as processes do.
    """
    path = shards_dir(run_dir) / f"shard-{index:04d}.lock"
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)  # releases the lock


def report_path(run_dir: os.PathLike, index: int) -> Path:
    """Where a worker ships shard ``index``'s outcome records."""
    return shards_dir(run_dir) / f"shard-{index:04d}.report.json"


def write_lease(run_dir: os.PathLike, lease: ShardLease) -> None:
    """Atomically persist ``lease`` (directory is created on demand).

    Uses :func:`~repro.sweep.cache.atomic_write_json`, whose unique
    temp names matter here: a worker's heartbeat thread and the
    dispatcher's expiry can legitimately write the same lease at the
    same moment, and with a shared temp name one of them would find its
    temp file stolen by the other's ``os.replace``.  Last atomic write
    wins, but neither writer can crash.
    """
    atomic_write_json(lease_path(run_dir, lease.index), asdict(lease))


def read_lease(run_dir: os.PathLike, index: int) -> Optional[ShardLease]:
    """The current lease for shard ``index``, or None if unreadable."""
    try:
        data = json.loads(
            lease_path(run_dir, index).read_text(encoding="utf-8")
        )
        known = {f for f in ShardLease.__dataclass_fields__}
        return ShardLease(**{k: v for k, v in data.items() if k in known})
    except (OSError, json.JSONDecodeError, TypeError):
        return None


def read_leases(run_dir: os.PathLike) -> Dict[int, ShardLease]:
    """Every readable shard lease, keyed by shard index."""
    leases: Dict[int, ShardLease] = {}
    root = shards_dir(run_dir)
    if not root.is_dir():
        return leases
    for path in sorted(root.glob("shard-*.json")):
        if path.name.endswith(".report.json") or path.name.startswith("."):
            continue
        try:
            index = int(path.stem.split("-", 1)[1])
        except (IndexError, ValueError):
            continue
        lease = read_lease(run_dir, index)
        if lease is not None:
            leases[index] = lease
    return leases


def claim_marker_path(run_dir: os.PathLike, index: int,
                      attempt: int) -> Path:
    return (Path(run_dir) / CLAIMS_DIR
            / f"shard-{index:04d}.attempt-{attempt:04d}")


def claim_age(run_dir: os.PathLike, lease: ShardLease) -> Optional[float]:
    """Seconds since ``lease``'s current attempt was claimed, or None.

    A *pending* lease whose current attempt already has an old claim
    marker means a claimant died between winning the marker and writing
    the ``running`` state -- that attempt is burned and the dispatcher
    must bump it or the shard can never be claimed again.
    """
    try:
        mtime = claim_marker_path(run_dir, lease.index,
                                  lease.attempt).stat().st_mtime
    except OSError:
        return None
    return time.time() - mtime


def try_claim(run_dir: os.PathLike, lease: ShardLease, owner: str) -> bool:
    """Attempt to claim ``lease`` for ``owner``; True iff we won.

    The claim is the exclusive creation of a marker file keyed on
    ``(index, attempt)``; losing means another worker already owns this
    attempt.  On success the state file is rewritten to ``running``.
    """
    claims = Path(run_dir) / CLAIMS_DIR
    claims.mkdir(parents=True, exist_ok=True)
    marker = claim_marker_path(run_dir, lease.index, lease.attempt)
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        handle.write(owner)
    now = time.time()
    lease.state = RUNNING
    lease.owner = owner
    lease.claimed_at = now
    lease.heartbeat = now
    lease.error = ""
    with lease_lock(run_dir, lease.index):
        write_lease(run_dir, lease)
    return True


def expire_lease(run_dir: os.PathLike, lease: ShardLease) -> ShardLease:
    """Reassign a dead (or failed) lease: pending again, attempt + 1.

    Only the dispatcher calls this.  The attempt bump invalidates the
    previous owner's claim -- its heartbeat thread will observe the
    change and stand down.

    Guarded against the caller's snapshot being stale: the lease is
    re-read first, and if it moved on in the meantime -- the "dead"
    worker actually finished (``done``) or another writer already
    advanced the attempt -- the current state is returned untouched
    instead of being stomped back to pending.  A finished shard must
    never be redone because the dispatcher raced its completion.
    """
    with lease_lock(run_dir, lease.index):
        current = read_lease(run_dir, lease.index)
        if current is not None and (
            current.state == DONE
            or current.attempt != lease.attempt
            or current.owner != lease.owner
        ):
            return current
        lease.state = PENDING
        lease.attempt += 1
        lease.owner = ""
        lease.heartbeat = 0.0
        lease.claimed_at = 0.0
        lease.hits = lease.misses = lease.done_points = 0
        write_lease(run_dir, lease)
    return lease


class Heartbeat:
    """Daemon thread keeping one running lease visibly alive.

    Re-reads the state file before every write: if the attempt or owner
    changed (the dispatcher expired us and someone else claimed the
    shard), sets :attr:`lost` and stops writing -- the worker checks the
    flag before marking the shard done.
    """

    def __init__(self, run_dir: os.PathLike, lease: ShardLease,
                 interval: float) -> None:
        self.run_dir = run_dir
        self.lease = lease
        self.interval = max(0.05, interval)
        self.lost = False
        self._progress = {"hits": 0, "misses": 0, "done_points": 0,
                          "total_points": lease.total_points}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"lease-hb-{lease.index}", daemon=True
        )

    def update_progress(self, hits: int, misses: int,
                        done_points: int) -> None:
        with self._lock:
            self._progress["hits"] = hits
            self._progress["misses"] = misses
            self._progress["done_points"] = done_points

    def _still_ours(self) -> bool:
        current = read_lease(self.run_dir, self.lease.index)
        return (
            current is not None
            and current.attempt == self.lease.attempt
            and current.owner == self.lease.owner
            and current.state == RUNNING
        )

    def _beat(self) -> bool:
        """One liveness write; False if the lease is no longer ours."""
        with lease_lock(self.run_dir, self.lease.index):
            if not self._still_ours():
                self.lost = True
                return False
            with self._lock:
                self.lease.hits = self._progress["hits"]
                self.lease.misses = self._progress["misses"]
                self.lease.done_points = self._progress["done_points"]
            self.lease.heartbeat = time.time()
            write_lease(self.run_dir, self.lease)
        return True

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            if not self._beat():
                return

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
