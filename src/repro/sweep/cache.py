"""Content-addressed on-disk cache for sweep results.

Every cache entry is one JSON file named by the sha256 of the point's
identity: the runner name, the full canonical :class:`SystemConfig`, the
workload parameters, and a *code version* fingerprint (a digest over the
``repro`` package sources).  Changing any configuration field, workload
parameter, or simulator source line therefore changes the key and forces
a re-simulation; nothing is ever served stale.  A long-running server
re-checks the digest against the tree on disk through a stat
fingerprint (:class:`SourceDigest`), re-reading sources only when a
file's size or mtime, or a directory's mtime, moved.

The cache directory defaults to ``$REPRO_SWEEP_CACHE_DIR`` or
``~/.cache/repro/sweeps``.  Writes go through a temp file + ``os.replace``
so concurrent workers never observe a half-written entry.  In-flight
temp files carry a ``.part`` suffix (never ``.json``) so the maintenance
surface -- ``entries``/``summarize``/``prune``/``clear``/``len`` -- can
run concurrently with writers on a shared directory without ever
observing, counting, or *deleting* a write in progress (deleting a temp
file between its write and its rename would make the writer's
``os.replace`` fail and silently drop the finished result).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
import threading
import time
import types
from pathlib import Path
from typing import Optional

import repro
from repro.core.config import canonical_value

from repro.sweep.spec import SweepPoint, resolve_runner

#: Environment override for the default cache location.
CACHE_DIR_ENV = "REPRO_SWEEP_CACHE_DIR"
#: Bump to invalidate every existing entry on a format change.
CACHE_FORMAT = 1


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro" / "sweeps"


class SourceDigest:
    """The source digest of one package tree, re-hashed only on change.

    A full hash reads every ``*.py`` file under ``root`` (default: the
    ``repro`` package).  Before reading, it takes a *stat fingerprint*:
    each file's ``(st_size, st_mtime_ns)`` and the ``st_mtime_ns`` of
    every directory holding one, plus ``root``.  Adding, deleting or
    renaming a file moves its directory's mtime; an ordinary edit moves
    the file's.  :meth:`digest` re-stats those paths and returns the
    remembered digest while the fingerprint holds; on any change, or
    when a path is gone (``OSError``), it re-hashes in full.

    Blind spot: an edit that keeps both a file's size and its
    ``mtime_ns`` leaves the old digest in place until some other change
    moves the fingerprint -- one landing within a single coarse kernel
    timestamp tick of the last hash, or made by a tool that restores
    mtimes.
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = (Path(root).resolve() if root is not None
                     else Path(repro.__file__).resolve().parent)
        #: ((files, dirs), fingerprint, digest) of the last full hash.
        self._last: Optional[tuple] = None

    @staticmethod
    def _fingerprint(files, dirs) -> tuple:
        return (tuple((st.st_size, st.st_mtime_ns)
                      for st in map(os.stat, files)),
                tuple(os.stat(path).st_mtime_ns for path in dirs))

    def digest(self) -> str:
        """The tree's digest, re-hashed only if its fingerprint moved."""
        # One read: a concurrent re-hash replaces the whole tuple, so a
        # racing caller at worst hashes the tree twice.
        last = self._last
        if last is not None:
            stat_paths, fingerprint, digest = last
            try:
                if self._fingerprint(*stat_paths) == fingerprint:
                    return digest
            except OSError:
                pass  # a file or directory went away: re-hash
        return self._rehash()

    def _rehash(self) -> str:
        files = sorted(self.root.rglob("*.py"))
        dirs = sorted({path.parent for path in files} | {self.root})
        stat_paths = (tuple(map(str, files)), tuple(map(str, dirs)))
        # Stat before reading: an edit racing the read then leaves a
        # stale fingerprint, which forces the next call to re-hash.
        fingerprint = self._fingerprint(*stat_paths)
        digest = hashlib.sha256()
        digest.update(getattr(repro, "__version__", "0").encode("utf-8"))
        for path in files:
            digest.update(str(path.relative_to(self.root)).encode("utf-8"))
            digest.update(path.read_bytes())
        hexdigest = digest.hexdigest()
        self._last = (stat_paths, fingerprint, hexdigest)
        return hexdigest


#: The ``repro`` tree behind :func:`code_version` and
#: :func:`fresh_code_version`.
_REPRO_SOURCES = SourceDigest()


@functools.lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of every ``repro`` source file (plus the package version).

    Computed once per process; any edit to the simulator invalidates all
    cached results, which keeps "cached" synonymous with "bit-identical
    to a fresh run of this tree".  The first call also seeds the stat
    fingerprint :func:`fresh_code_version` checks against.
    """
    return _REPRO_SOURCES.digest()


def fresh_code_version() -> str:
    """The source digest of the tree on disk now, bypassing the memo.

    :func:`code_version` is cached for the life of the process, which is
    exactly right for batch sweeps (the code cannot change under a
    running run) and exactly wrong for a *long-running server*: an
    edited source tree would keep serving fills keyed on the stale
    digest.  The result server pins :func:`code_version` at startup and
    calls this before every fill run, refusing to simulate when the
    tree on disk no longer matches the pin (docs/SERVING.md).

    This stats the ~115 source files and directories rather than
    reading them: the digest is recomputed only when the
    :class:`SourceDigest` stat fingerprint moved, with its blind spot
    (an edit keeping both size and ``mtime_ns``).
    """
    return _REPRO_SOURCES.digest()


def _runner_fingerprint(runner) -> str:
    """An identity for the runner that keys the cache honestly.

    Runners living inside the ``repro`` package are covered by
    :func:`code_version`, so their dotted name suffices.  External
    runners (bare callables, user-registered ones) additionally digest
    their code object: editing such a runner's logic, or aliasing two
    different callables under one ``__name__``, must miss the cache.

    Known limit: only the runner's *own* code is digested, not helpers
    it calls or globals it reads -- editing those keeps the old key.
    When iterating on an external runner's support code, pass
    ``cache=False`` (or clear the cache dir); see docs/SWEEPS.md.
    """
    fn = runner.run
    module = getattr(fn, "__module__", "") or ""
    ident = f"{module}.{getattr(fn, '__qualname__', runner.name)}"
    if module != "repro" and not module.startswith("repro."):
        code = getattr(fn, "__code__", None)
        if code is not None:
            digest = hashlib.sha256()
            _digest_code(code, digest)
            ident += f":{digest.hexdigest()[:16]}"
    return ident


def _digest_code(code, digest) -> None:
    """Feed a code object into ``digest``, stable across processes.

    Nested code objects (lambdas, comprehensions) recurse on their
    bytecode -- their ``repr`` embeds a memory address and frozenset
    consts iterate in hash-randomized order, so naive ``repr(co_consts)``
    would change every interpreter run.
    """
    digest.update(code.co_code)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            _digest_code(const, digest)
        elif isinstance(const, frozenset):
            digest.update(repr(sorted(const, key=repr)).encode("utf-8"))
        else:
            digest.update(repr(const).encode("utf-8"))


def point_key(point: SweepPoint, runner, params: Optional[dict] = None) -> str:
    """The content hash identifying one simulation point on disk.

    ``params`` defaults to the point's own parameters; the engine passes
    the seed-augmented set so auto-seeded runs key on the actual seed.
    """
    runner = resolve_runner(runner)
    rest = json.dumps({
        "format": CACHE_FORMAT,
        "params": canonical_value(dict(params if params is not None
                                       else point.params)),
        "runner": runner.name,
        "runner_src": _runner_fingerprint(runner),
    }, sort_keys=True, separators=(",", ":"))
    # The identity is one sorted-key JSON object; "code" and "config"
    # sort ahead of every other key, so the config's stored canonical
    # text is spliced in rather than the whole tree serialised again.
    payload = (f'{{"code":{json.dumps(code_version())},'
               f'"config":{point.config.canonical_json},{rest[1:]}')
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: Suffix for in-flight write temp files.  Deliberately not ``.json``:
#: ``Path.glob("*.json")`` matches dot-prefixed names too, so a shared
#: suffix would expose half-written entries to every maintenance walk.
TMP_SUFFIX = ".part"

#: A temp file older than this is abandoned (its writer crashed between
#: write and rename); younger ones may belong to a live writer and are
#: never touched, even by :meth:`ResultCache.clear`.
STALE_TMP_SECONDS = 3600.0


def _fsync_dir(path: Path) -> None:
    """Best-effort directory fsync so a rename survives power loss.

    Some filesystems refuse ``open``/``fsync`` on directories; losing
    durability there is acceptable, silently losing the rename on
    filesystems that need it is not.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _mkstemp(directory: Path):
    return tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=TMP_SUFFIX)


def atomic_write_json(path: os.PathLike, payload) -> None:
    """Whole-file atomic durable JSON write: temp file + ``os.replace``.

    The single writer-side primitive behind the result cache and the
    telemetry artifacts.  The temp name is unique per write
    (``mkstemp``), so concurrent writers of the *same* path can never
    steal each other's in-flight file -- the last atomic replace wins
    and neither writer crashes.  On any failure the temp file is
    unlinked, never left masquerading as progress.

    The temp file is flushed and fsynced *before* the rename -- without
    it a crash shortly after ``os.replace`` can leave the final name
    pointing at zero-length data, which readers would see as a corrupt
    cache entry rather than a missing one.  The directory fsync after
    the rename is best-effort (see :func:`_fsync_dir`).

    The payload is encoded compact with sorted keys in one
    ``json.dumps`` call, which the C encoder serves (an ``indent``
    would force the pure-Python one), and written in one ``write``; the
    parent directory is created only when the temp file cannot be, so
    the common case (directory present) costs no ``mkdir``.
    """
    path = Path(path)
    data = json.dumps(payload, sort_keys=True).encode()
    try:
        fd, tmp_name = _mkstemp(path.parent)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = _mkstemp(path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    _fsync_dir(path.parent)


class ResultCache:
    """A directory of ``<hash>.json`` result records.

    Safe for concurrent use by many processes on one directory: writes
    are atomic (temp file + rename), readers tolerate entries appearing
    and disappearing mid-walk, and maintenance operations never touch
    another writer's in-flight temp file.

    One *instance* is also safe to share across threads: the hit/miss
    counters are lock-protected, because ``self.hits += 1`` is a
    read-modify-write that loses increments when the result server (or
    any threaded caller) drives one cache from its event loop and its
    fill workers at once.
    """

    def __init__(self, cache_dir: Optional[os.PathLike] = None) -> None:
        self.root = Path(cache_dir) if cache_dir else default_cache_dir()
        #: ``root`` plus a separator: :meth:`entry_path` joins entry
        #: paths as strings, keeping pathlib off every warm read.
        self._prefix = os.path.join(self.root, "")
        self.hits = 0
        self.misses = 0
        self._counter_lock = threading.Lock()

    def entry_path(self, key: str) -> str:
        """Where the entry for ``key`` lives (whether or not it exists)."""
        return f"{self._prefix}{key}.json"

    def count_hit(self) -> None:
        """Count one hit served from a caller's own copy of an entry.

        The result server answers repeat queries from record bytes it
        read earlier, after checking the entry's ``stat`` still matches;
        those are hits on this cache in every sense but the read.
        """
        with self._counter_lock:
            self.hits += 1

    def _entry_paths(self):
        """Every *committed* entry file, sorted; temp files excluded."""
        if not self.root.is_dir():
            return []
        return sorted(
            path for path in self.root.glob("*.json")
            if not path.name.startswith(".")
        )

    def get(self, key: str) -> Optional[dict]:
        """The stored record for ``key``, or None (counted as a miss)."""
        try:
            with open(self.entry_path(key), "rb") as handle:
                record = json.loads(handle.read())["record"]
        except (OSError, ValueError, KeyError, TypeError):
            # Unreadable, non-UTF-8, non-JSON, or wrong-shape entries
            # (e.g. from an older format) all degrade to a re-simulation.
            with self._counter_lock:
                self.misses += 1
            return None
        with self._counter_lock:
            self.hits += 1
        return record

    def put(self, key: str, record: dict, meta: Optional[dict] = None) -> None:
        """Atomically persist ``record`` under ``key``."""
        atomic_write_json(self.entry_path(key),
                          {"record": record, "meta": meta or {}})

    def __len__(self) -> int:
        return len(self._entry_paths())

    def entries(self):
        """Yield ``(path, entry)`` for every readable cache entry.

        Unreadable, malformed, or concurrently-deleted files are
        skipped -- maintenance tooling must not fall over the same
        corrupt entry :meth:`get` tolerates, nor over a sibling
        process pruning the directory mid-walk.
        """
        for path in self._entry_paths():
            try:
                entry = json.loads(path.read_bytes())
            except (OSError, ValueError):
                continue
            if not isinstance(entry, dict):
                continue
            yield path, entry

    def summarize(self) -> dict:
        """Aggregate statistics: entry/byte totals and per-sweep counts.

        The per-sweep breakdown comes from each entry's ``meta.sweep``
        tag (written by the engine); entries without one are grouped
        under ``"(untagged)"``.
        """
        per_sweep: dict = {}
        entries = 0
        total_bytes = 0
        for path, entry in self.entries():
            entries += 1
            try:
                total_bytes += path.stat().st_size
            except OSError:
                pass
            meta = entry.get("meta") or {}
            sweep = meta.get("sweep") or "(untagged)"
            per_sweep[sweep] = per_sweep.get(sweep, 0) + 1
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": total_bytes,
            "sweeps": dict(sorted(per_sweep.items())),
        }

    def prune(self, sweep: str) -> int:
        """Delete entries tagged with ``meta.sweep == sweep``.

        Points shared between experiments (e.g. fig8/fig9) are tagged by
        whichever sweep simulated them first; pruning removes the entry
        regardless of who else could replay it.
        """
        removed = 0
        for path, entry in self.entries():
            meta = entry.get("meta") or {}
            if meta.get("sweep") != sweep:
                continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def clear(self) -> int:
        """Delete every entry; returns how many were removed.

        Abandoned ``.part`` temp files are swept as well (not counted
        as entries) -- but only those older than
        :data:`STALE_TMP_SECONDS`: a *young* temp file may be a live
        writer parked between write and rename, and deleting it would
        make that writer's ``os.replace`` crash, dropping its record.
        """
        removed = 0
        for path in self._entry_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        if self.root.is_dir():
            cutoff = time.time() - STALE_TMP_SECONDS
            for path in self.root.glob(f".tmp-*{TMP_SUFFIX}"):
                try:
                    if path.stat().st_mtime < cutoff:
                        path.unlink()
                except OSError:
                    pass
        return removed


class NullCache:
    """Cache interface that stores nothing (``--no-cache``)."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._counter_lock = threading.Lock()

    def get(self, key: str) -> Optional[dict]:
        with self._counter_lock:
            self.misses += 1
        return None

    def put(self, key: str, record: dict, meta: Optional[dict] = None) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def clear(self) -> int:
        return 0
