"""Distributed sweep orchestration: leases, backends, crash recovery,
merge bit-identity, and ResultCache concurrent-writer safety.

The subprocess tests launch real ``python -m repro orchestrate
--worker`` processes, so ``PYTHONPATH`` is arranged to cover both the
``repro`` package and this directory (the manifest's ``extra_imports``
hook pulls :mod:`orchestrate_testsweeps` in on the worker side).
"""

import json
import multiprocessing
import os
import random
import signal
import subprocess
import threading
import time
from pathlib import Path

import pytest

import orchestrate_testsweeps  # noqa: F401  (registers orch-test-slow)
from repro.orchestrate import (
    EXIT_VERSION_MISMATCH,
    Heartbeat,
    LocalBackend,
    OrchestrationError,
    RunManifest,
    ShardLease,
    SlurmBackend,
    SSHBackend,
    VersionMismatchError,
    expire_lease,
    orchestrate_run,
    prepare_run,
    read_lease,
    read_leases,
    resume_run,
    run_worker,
    spec_fingerprint,
    try_claim,
    worker_command,
    write_lease,
)
from repro.orchestrate.lease import DONE, PENDING
from repro.sweep import (
    ResultCache,
    build_sweep,
    merge_report_records,
    run_sweep,
)

TESTS_DIR = Path(__file__).resolve().parent
SRC_DIR = TESTS_DIR.parent / "src"


def _quiet(_message: str) -> None:
    pass


@pytest.fixture
def worker_env(monkeypatch):
    """Subprocess workers must import repro *and* the test sweeps."""
    monkeypatch.setenv(
        "PYTHONPATH", os.pathsep.join([str(SRC_DIR), str(TESTS_DIR)])
    )


def _slow_sweeps(points=6, delay=0.05):
    return [{"name": "orch-test-slow",
             "overrides": {"points": points, "delay": delay}}]


def _serial_records(points=6, delay=0.05):
    spec = build_sweep("orch-test-slow", points=points, delay=delay)
    report = run_sweep(spec, workers=1, cache=False)
    return {repr(o.key): o.record for o in report.outcomes}


# ----------------------------------------------------------------------
# Manifest: pinning and the mixed-version refusal
# ----------------------------------------------------------------------
class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = prepare_run(
            tmp_path / "run", _slow_sweeps(), tmp_path / "cache",
            shards=3, lease_ttl=12.5,
        )
        loaded = RunManifest.load(tmp_path / "run")
        assert loaded.shards == 3
        assert loaded.lease_ttl == 12.5
        assert loaded.code == manifest.code
        assert loaded.fingerprints == manifest.fingerprints
        # One pending lease per shard was materialized.
        leases = read_leases(tmp_path / "run")
        assert sorted(leases) == [1, 2, 3]
        assert all(lease.state == PENDING for lease in leases.values())

    def test_fingerprint_covers_grid(self):
        small = build_sweep("orch-test-slow", points=3)
        large = build_sweep("orch-test-slow", points=4)
        assert spec_fingerprint(small) != spec_fingerprint(large)
        assert spec_fingerprint(small) == spec_fingerprint(
            build_sweep("orch-test-slow", points=3)
        )

    def test_worker_refuses_foreign_code_digest(self, tmp_path):
        prepare_run(tmp_path / "run", _slow_sweeps(), tmp_path / "cache",
                    shards=2)
        path = RunManifest.path(tmp_path / "run")
        data = json.loads(path.read_text())
        data["code"] = "0" * 64
        path.write_text(json.dumps(data))
        assert run_worker(tmp_path / "run") == EXIT_VERSION_MISMATCH
        # The dispatcher refuses the same way.
        with pytest.raises(VersionMismatchError):
            orchestrate_run(tmp_path / "run", LocalBackend(workers=1),
                            log=_quiet)

    def test_rebuilt_spec_must_match_fingerprint(self, tmp_path):
        prepare_run(tmp_path / "run", _slow_sweeps(), tmp_path / "cache",
                    shards=2)
        path = RunManifest.path(tmp_path / "run")
        data = json.loads(path.read_text())
        data["fingerprints"]["orch-test-slow"] = "f" * 64
        path.write_text(json.dumps(data))
        with pytest.raises(VersionMismatchError, match="fingerprint"):
            RunManifest.load(tmp_path / "run").build_specs(verify=True)

    def test_prepare_refuses_existing_run(self, tmp_path):
        prepare_run(tmp_path / "run", _slow_sweeps(), tmp_path / "cache",
                    shards=2)
        with pytest.raises(FileExistsError, match="resume"):
            prepare_run(tmp_path / "run", _slow_sweeps(),
                        tmp_path / "cache", shards=2)


# ----------------------------------------------------------------------
# Leases: atomic claims, expiry, heartbeat loss
# ----------------------------------------------------------------------
class TestLeases:
    def test_claim_is_exclusive_per_attempt(self, tmp_path):
        lease = ShardLease(index=1, total=2)
        write_lease(tmp_path, lease)
        first = read_lease(tmp_path, 1)
        second = read_lease(tmp_path, 1)
        assert try_claim(tmp_path, first, "worker-a")
        assert not try_claim(tmp_path, second, "worker-b")
        assert read_lease(tmp_path, 1).owner == "worker-a"

    def test_expire_bumps_attempt_and_reopens_claim(self, tmp_path):
        lease = ShardLease(index=1, total=2)
        write_lease(tmp_path, lease)
        assert try_claim(tmp_path, read_lease(tmp_path, 1), "worker-a")
        expired = expire_lease(tmp_path, read_lease(tmp_path, 1))
        assert expired.state == PENDING and expired.attempt == 2
        assert try_claim(tmp_path, read_lease(tmp_path, 1), "worker-b")
        assert read_lease(tmp_path, 1).owner == "worker-b"

    def test_expire_never_stomps_a_finished_shard(self, tmp_path):
        """Dispatcher races worker completion: the expiry is based on a
        stale RUNNING snapshot, but the worker marked the shard done in
        the meantime -- the guarded expire must leave DONE alone."""
        lease = ShardLease(index=1, total=1)
        write_lease(tmp_path, lease)
        assert try_claim(tmp_path, lease, "worker-a")
        stale_snapshot = read_lease(tmp_path, 1)   # RUNNING, attempt 1
        finished = read_lease(tmp_path, 1)
        finished.state = DONE
        finished.misses = 3
        write_lease(tmp_path, finished)
        refreshed = expire_lease(tmp_path, stale_snapshot)
        assert refreshed.state == DONE and refreshed.attempt == 1
        assert read_lease(tmp_path, 1).state == DONE

    def test_burned_claim_is_healed_by_dispatcher(self, tmp_path,
                                                  worker_env):
        """A claimant killed between winning the claim marker and
        writing the running state leaves a pending lease whose attempt
        can never be claimed; the poll loop must bump it."""
        from repro.orchestrate.lease import claim_marker_path

        run_dir, cache_dir = tmp_path / "run", tmp_path / "cache"
        prepare_run(run_dir, _slow_sweeps(points=4, delay=0.02),
                    cache_dir, shards=2, lease_ttl=0.5,
                    extra_imports=["orchestrate_testsweeps"])
        marker = claim_marker_path(run_dir, 1, 1)
        marker.parent.mkdir(parents=True, exist_ok=True)
        marker.write_text("corpse")
        ancient = time.time() - 60.0
        os.utime(marker, (ancient, ancient))

        payload = orchestrate_run(
            run_dir, LocalBackend(workers=1), poll_interval=0.1,
            log=_quiet, timeout=180.0,
        )
        final = read_lease(run_dir, 1)
        assert final.state == DONE and final.attempt == 2
        assert payload["simulated_points"] == 4

    def test_heartbeat_stands_down_after_reassignment(self, tmp_path):
        lease = ShardLease(index=1, total=1)
        write_lease(tmp_path, lease)
        mine = read_lease(tmp_path, 1)
        assert try_claim(tmp_path, mine, "worker-a")
        beat = Heartbeat(tmp_path, mine, interval=0.05)
        beat.start()
        time.sleep(0.15)
        assert read_lease(tmp_path, 1).heartbeat > 0
        # Dispatcher reassigns; the usurper claims attempt 2.
        expire_lease(tmp_path, read_lease(tmp_path, 1))
        assert try_claim(tmp_path, read_lease(tmp_path, 1), "worker-b")
        deadline = time.time() + 2.0
        while not beat.lost and time.time() < deadline:
            time.sleep(0.05)
        beat.stop()
        assert beat.lost
        # worker-b's ledger entry was not clobbered by worker-a.
        final = read_lease(tmp_path, 1)
        assert final.owner == "worker-b" and final.attempt == 2

    def test_expiry_inside_a_beat_waits_for_its_write(self, tmp_path):
        """Force the interleaving the lease lock exists for: a
        reassignment started between a beat's ownership check and its
        write must not let the stale attempt-1 write land last."""
        write_lease(tmp_path, ShardLease(index=1, total=1))
        mine = read_lease(tmp_path, 1)
        assert try_claim(tmp_path, mine, "worker-a")

        def reassign() -> None:
            expire_lease(tmp_path, read_lease(tmp_path, 1))
            try_claim(tmp_path, read_lease(tmp_path, 1), "worker-b")

        racers = []

        class RacedHeartbeat(Heartbeat):
            def _still_ours(self) -> bool:
                ours = super()._still_ours()
                if not racers:
                    # The dispatcher acts right after the check; give
                    # it time to finish unless a lock holds it back.
                    racers.append(threading.Thread(target=reassign))
                    racers[0].start()
                    racers[0].join(timeout=0.5)
                return ours

        beat = RacedHeartbeat(tmp_path, mine, interval=60.0)
        assert beat._beat()
        racers[0].join(timeout=10.0)
        assert not racers[0].is_alive()
        final = read_lease(tmp_path, 1)
        assert (final.owner, final.attempt) == ("worker-b", 2), final
        assert not beat._beat() and beat.lost


# ----------------------------------------------------------------------
# Backends: command generation (no remote infrastructure needed)
# ----------------------------------------------------------------------
class TestBackends:
    def test_worker_command_shape(self):
        cmd = worker_command("/runs/r1", "w7")
        assert cmd[1:5] == ["-m", "repro", "orchestrate", "--worker"]
        assert "/runs/r1" in cmd and "w7" in cmd

    def test_ssh_command_includes_prelude_and_host(self):
        backend = SSHBackend(
            hosts=["node-a", "node-b"], workers_per_host=2,
            remote_python="python3.12",
            remote_prelude="cd /shared/repo && export PYTHONPATH=src",
        )
        cmd = backend.command("node-a", "/shared/runs/r1", "w0")
        assert cmd[0] == "ssh" and "node-a" in cmd
        remote = cmd[-1]
        assert remote.startswith("cd /shared/repo")
        assert "python3.12" in remote and "--worker" in remote
        assert backend.describe() == "ssh (2 hosts x 2 workers)"

    def test_ssh_requires_hosts(self):
        with pytest.raises(ValueError, match="host"):
            SSHBackend(hosts=[])

    def test_spawn_retries_transient_errors_with_deterministic_backoff(
        self, tmp_path, monkeypatch
    ):
        import repro.orchestrate.backends as backends_mod

        class FakeProc:
            def poll(self):
                return None

            def terminate(self):
                pass

            def wait(self, timeout=None):
                return 0

        failures = {"left": 2}
        naps = []

        def flaky_popen(*args, **kwargs):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise OSError("transient spawn failure")
            return FakeProc()

        monkeypatch.setattr(backends_mod.subprocess, "Popen", flaky_popen)
        monkeypatch.setattr(backends_mod.time, "sleep", naps.append)
        backend = LocalBackend(workers=1)
        backend._spawn_proc(tmp_path, ["worker"], "w0", env={})
        assert backend.spawn_retries == 2
        # Jitter-free exponential schedule: 0.05 s, then 0.1 s.
        assert naps == [backends_mod.SPAWN_BACKOFF_SECONDS,
                        backends_mod.SPAWN_BACKOFF_SECONDS * 2]
        backend.shutdown()

    def test_spawn_gives_up_after_bounded_attempts(self, tmp_path,
                                                   monkeypatch):
        import repro.orchestrate.backends as backends_mod

        attempts = []

        def always_fails(*args, **kwargs):
            attempts.append(1)
            raise OSError("no such executable")

        monkeypatch.setattr(backends_mod.subprocess, "Popen", always_fails)
        monkeypatch.setattr(backends_mod.time, "sleep", lambda _s: None)
        backend = LocalBackend(workers=1)
        with pytest.raises(OSError, match="no such executable"):
            backend._spawn_proc(tmp_path, ["worker"], "w0", env={})
        assert len(attempts) == backends_mod.SPAWN_RETRY_LIMIT
        assert backend.spawn_retries == backends_mod.SPAWN_RETRY_LIMIT - 1

    def test_slurm_script_is_an_array_job(self, tmp_path):
        backend = SlurmBackend(workers=5, partition="batch",
                               remote_prelude="module load python")
        backend.launch(tmp_path)
        script = (tmp_path / "sbatch.sh").read_text()
        assert "#SBATCH --array=0-4" in script
        assert "#SBATCH --partition=batch" in script
        assert "module load python" in script
        assert "--worker" in script and str(tmp_path) in script
        # Script-only mode holds no liveness claims.
        assert backend.dead_owners() == set()
        assert backend.live_count() == 0


# ----------------------------------------------------------------------
# The acceptance path: two local workers == one serial run
# ----------------------------------------------------------------------
class TestLocalOrchestration:
    def test_two_workers_merge_bit_identical_to_serial(
        self, tmp_path, worker_env
    ):
        run_dir, cache_dir = tmp_path / "run", tmp_path / "cache"
        prepare_run(
            run_dir, _slow_sweeps(points=6, delay=0.05), cache_dir,
            shards=4, lease_ttl=30.0,
            extra_imports=["orchestrate_testsweeps"],
        )
        payload = orchestrate_run(
            run_dir, LocalBackend(workers=2), poll_interval=0.1,
            log=_quiet, timeout=180.0,
        )
        merged = {p["key"]: p["record"]
                  for p in payload["sweeps"][0]["points"]}
        assert merged == _serial_records(points=6, delay=0.05)
        # Every point simulated exactly once, none left for the replay.
        assert payload["simulated_points"] == 6
        assert payload["replay_simulated"] == 0
        assert (run_dir / "report.json").is_file()
        assert len(ResultCache(cache_dir)) == 6
        leases = read_leases(run_dir)
        assert all(lease.state == DONE for lease in leases.values())

    def test_fleet_telemetry_lands_in_shard_provenance(
        self, tmp_path, worker_env, monkeypatch
    ):
        """Workers inherit the telemetry session through the environment
        channel; their shard reports carry capture counts that the
        dispatcher surfaces in ``shard_provenance`` -- while the merged
        point records stay bit-identical to an untraced serial run."""
        from repro.telemetry import TELEMETRY_ENV, TelemetrySettings

        spec = build_sweep("access-modes", size=24)
        serial = {repr(o.key): o.record
                  for o in run_sweep(spec, workers=1, cache=False).outcomes}

        trace_dir = tmp_path / "telemetry"
        settings = TelemetrySettings(trace=True, trace_dir=str(trace_dir),
                                     diagnostics=True)
        monkeypatch.setenv(TELEMETRY_ENV, json.dumps(settings.to_json()))
        run_dir, cache_dir = tmp_path / "run", tmp_path / "cache"
        prepare_run(
            run_dir, [{"name": "access-modes", "overrides": {"size": 24}}],
            cache_dir, shards=2, lease_ttl=30.0,
        )
        payload = orchestrate_run(
            run_dir, LocalBackend(workers=2), poll_interval=0.1,
            log=_quiet, timeout=180.0,
        )
        merged = {p["key"]: p["record"]
                  for p in payload["sweeps"][0]["points"]}
        assert merged == serial
        telemetries = [entry.get("telemetry")
                       for entry in payload["shard_provenance"]]
        captured = sum(t["captured_points"] for t in telemetries if t)
        assert captured == len(serial)
        assert all(t["trace_dir"] == str(trace_dir)
                   for t in telemetries if t)
        # Each simulated point left a Chrome trace artifact on disk.
        assert len(list(trace_dir.glob("*.trace.json"))) == len(serial)

    def test_merge_hooks_reject_conflicting_shards(self):
        base = {"spec": "s", "hits": 0, "misses": 1,
                "points": [{"key": "0", "key_hash": "h", "cached": False,
                            "record": {"v": 1}}]}
        other = json.loads(json.dumps(base))
        other["points"][0]["record"] = {"v": 2}
        with pytest.raises(ValueError, match="disagree"):
            merge_report_records([base, other])
        # Identical duplicates (a reassigned shard) merge fine.
        merged = merge_report_records([base, json.loads(json.dumps(base))])
        assert len(merged["points"]) == 1
        with pytest.raises(ValueError, match="different sweeps"):
            merge_report_records([base, dict(base, spec="t")])

    def test_merge_refuses_malformed_shard_records(self):
        """Counter-less shard records must refuse, not merge as zero.

        Regression: ``merge_report_records`` used to read hit/miss
        counters with ``.get(..., 0)``, so a truncated or wrong-format
        shard file silently contributed nothing and the fleet total
        looked plausible.  Shape mismatches now name the offending
        record and field.
        """
        base = {"spec": "s", "hits": 1, "misses": 2,
                "points": [{"key": "0", "key_hash": "h", "cached": False,
                            "record": {"v": 1}}]}
        for field in ("spec", "points", "hits", "misses"):
            broken = {k: v for k, v in base.items() if k != field}
            with pytest.raises(ValueError) as err:
                merge_report_records([base, broken])
            message = str(err.value)
            assert "#1" in message and field in message
        with pytest.raises(ValueError, match="not a report record"):
            merge_report_records([base, "oops"])
        # Intact records still merge, counters summed exactly.
        twin = dict(base, points=[{"key": "1", "key_hash": "h2",
                                   "cached": True, "record": {"v": 2}}])
        merged = merge_report_records([base, twin])
        assert (merged["hits"], merged["misses"]) == (2, 4)


# ----------------------------------------------------------------------
# Crash injection: SIGKILL a worker mid-shard, resume, verify
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_killed_worker_resume_is_bit_identical_and_incremental(
        self, tmp_path, worker_env
    ):
        run_dir, cache_dir = tmp_path / "run", tmp_path / "cache"
        points, delay = 6, 0.4
        prepare_run(
            run_dir, _slow_sweeps(points=points, delay=delay), cache_dir,
            shards=2, lease_ttl=1.0,
            extra_imports=["orchestrate_testsweeps"],
        )
        cache = ResultCache(cache_dir)
        proc = subprocess.Popen(
            worker_command(run_dir, "victim"),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=dict(os.environ),
        )
        try:
            # Wait for the worker to land its first point, then murder
            # it mid-shard (each shard holds 3 points x 0.4 s).
            deadline = time.time() + 120.0
            while len(cache) < 1:
                if proc.poll() is not None:
                    out = proc.stdout.read().decode(errors="replace")
                    pytest.fail(f"worker exited early:\n{out}")
                if time.time() > deadline:
                    pytest.fail("worker never produced a cache entry")
                time.sleep(0.02)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()
        cached_at_kill = len(cache)
        assert 1 <= cached_at_kill < points
        leases = read_leases(run_dir)
        assert any(lease.state != DONE for lease in leases.values())

        # Resume via the --resume path: fresh local fleet, same cache.
        payload = resume_run(
            run_dir, LocalBackend(workers=2), poll_interval=0.1,
            log=_quiet, timeout=180.0,
        )
        merged = {p["key"]: p["record"]
                  for p in payload["sweeps"][0]["points"]}
        assert merged == _serial_records(points=points, delay=delay)
        # The no-recompute assertion, by cache-hit counters: everything
        # the dead worker finished replays as hits, only the remainder
        # simulates, and the final replay recomputes nothing.
        assert payload["replayed_points"] == cached_at_kill
        assert payload["simulated_points"] == points - cached_at_kill
        assert payload["replay_simulated"] == 0
        assert len(cache) == points

    def test_chaos_hammer_is_bit_identical_to_serial(self, tmp_path,
                                                     worker_env):
        """Seeded chaos rounds: raw workers randomly SIGKILLed or
        SIGSTOP/SIGCONT-paused mid-shard, repeatedly, then the run is
        resumed with a fresh fleet.  The merged report must equal the
        serial ground truth with every point exactly once (no shard
        double-merged, nothing recomputed at merge time) -- the
        at-most-once merge and lease machinery under fire."""
        rng = random.Random(1234)
        run_dir, cache_dir = tmp_path / "run", tmp_path / "cache"
        points, delay = 8, 0.25
        prepare_run(
            run_dir, _slow_sweeps(points=points, delay=delay), cache_dir,
            shards=4, lease_ttl=1.0,
            extra_imports=["orchestrate_testsweeps"],
        )
        cache = ResultCache(cache_dir)

        def spawn(worker_id):
            return subprocess.Popen(
                worker_command(run_dir, worker_id),
                stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT,
                env=dict(os.environ),
            )

        spawned = []
        try:
            for round_no in range(3):
                procs = [spawn(f"chaos-{round_no}-{i}") for i in range(2)]
                spawned.extend(procs)
                # Let the fleet make some progress (or give up claiming:
                # stale RUNNING leases are the dispatcher's to expire).
                baseline = len(cache)
                deadline = time.time() + 60.0
                while time.time() < deadline:
                    if len(cache) > baseline:
                        break
                    if all(proc.poll() is not None for proc in procs):
                        break
                    time.sleep(0.05)
                for proc in procs:
                    if proc.poll() is not None:
                        continue
                    if rng.random() < 0.5:
                        proc.send_signal(signal.SIGKILL)
                    else:
                        # Pause through the lease TTL so the heartbeat
                        # goes stale, wake briefly, then murder anyway.
                        proc.send_signal(signal.SIGSTOP)
                        time.sleep(rng.uniform(0.1, 0.5))
                        proc.send_signal(signal.SIGCONT)
                        proc.send_signal(signal.SIGKILL)
                    proc.wait(timeout=30)
                if len(cache) >= points:
                    break
        finally:
            for proc in spawned:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=30)

        payload = resume_run(
            run_dir, LocalBackend(workers=2), poll_interval=0.1,
            log=_quiet, timeout=180.0,
        )
        merged_points = payload["sweeps"][0]["points"]
        merged = {p["key"]: p["record"] for p in merged_points}
        assert merged == _serial_records(points=points, delay=delay)
        assert len(merged_points) == points   # no shard double-merged
        assert payload["replay_simulated"] == 0
        assert all(lease.state == DONE
                   for lease in read_leases(run_dir).values())

    def test_dispatcher_reassigns_stale_lease_without_a_corpse(
        self, tmp_path, worker_env
    ):
        """A lease whose heartbeat went silent (no process to observe)
        is expired by the poll loop and finished by a live worker."""
        run_dir, cache_dir = tmp_path / "run", tmp_path / "cache"
        prepare_run(
            run_dir, _slow_sweeps(points=4, delay=0.02), cache_dir,
            shards=2, lease_ttl=0.5,
            extra_imports=["orchestrate_testsweeps"],
        )
        # Forge a dead worker: shard 1 claimed long ago, never updated.
        lease = read_lease(run_dir, 1)
        assert try_claim(run_dir, lease, "ghost")
        lease.heartbeat = time.time() - 3600.0
        lease.claimed_at = lease.heartbeat
        write_lease(run_dir, lease)

        payload = orchestrate_run(
            run_dir, LocalBackend(workers=1), poll_interval=0.1,
            log=_quiet, timeout=180.0,
        )
        final = read_lease(run_dir, 1)
        assert final.state == DONE
        assert final.attempt == 2          # reassigned exactly once
        assert final.owner != "ghost"
        assert payload["simulated_points"] == 4

    def test_exhausted_fleet_fails_instead_of_hanging(self, tmp_path,
                                                      worker_env):
        """Workers that all die before claiming anything (e.g. wrong
        tree) must surface as an error, not an eternal poll loop."""
        run_dir = tmp_path / "run"
        prepare_run(run_dir, _slow_sweeps(points=2, delay=0.0),
                    tmp_path / "cache", shards=1, lease_ttl=30.0,
                    extra_imports=["orchestrate_testsweeps"])
        # Stand in for a fleet that always crashes at startup: every
        # spawn is /bin/false, so no worker ever claims a shard.
        backend = LocalBackend(workers=1, max_spawns=2)

        def spawn_false(run_dir_arg):
            worker_id = f"false-w{backend._spawned}"
            backend._spawn_proc(run_dir_arg, ["/bin/false"], worker_id,
                                env=dict(os.environ))

        backend._spawn = spawn_false  # type: ignore[method-assign]
        with pytest.raises(OrchestrationError, match="dying"):
            orchestrate_run(run_dir, backend, poll_interval=0.05,
                            log=_quiet, timeout=60.0)

    def test_out_of_attempts_fails_loudly(self, tmp_path):
        run_dir = tmp_path / "run"
        prepare_run(run_dir, _slow_sweeps(points=2, delay=0.0),
                    tmp_path / "cache", shards=1, lease_ttl=0.2)

        class NoWorkers:
            def describe(self):
                return "black hole"

            def launch(self, run_dir):
                pass

            def maintain(self, run_dir, pending):
                # Claim the shard but never heartbeat: every attempt
                # looks dead and expires.
                for lease in read_leases(run_dir).values():
                    if lease.state == PENDING:
                        if try_claim(run_dir, lease, "void"):
                            stale = read_lease(run_dir, lease.index)
                            stale.heartbeat = time.time() - 60.0
                            write_lease(run_dir, stale)

            def dead_owners(self):
                return set()

            def shutdown(self):
                pass

        with pytest.raises(OrchestrationError, match="giving up"):
            orchestrate_run(run_dir, NoWorkers(), poll_interval=0.05,
                            max_attempts=2, log=_quiet, timeout=60.0)


# ----------------------------------------------------------------------
# ResultCache under concurrent writers + maintenance
# ----------------------------------------------------------------------
def _put_worker(cache_dir, start, count):
    cache = ResultCache(cache_dir)
    for i in range(start, start + count):
        cache.put(f"{i:064x}", {"value": i}, meta={"sweep": "writer"})


class TestResultCacheConcurrency:
    def test_concurrent_writers_survive_prune_and_summarize(self, tmp_path):
        """Two writer processes vs. a maintenance loop: nothing dropped,
        stats never corrupted.  Before the ``.part`` fix, prune/clear
        could delete a writer's in-flight temp file between write and
        rename, making ``os.replace`` fail and silently dropping the
        finished record."""
        cache_dir = tmp_path / "cache"
        cache = ResultCache(cache_dir)
        cache.put("seed" * 16, {"value": -1}, meta={"sweep": "other"})
        per_writer = 120
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        writers = [
            ctx.Process(target=_put_worker,
                        args=(str(cache_dir), w * per_writer, per_writer))
            for w in range(2)
        ]
        for writer in writers:
            writer.start()
        # Maintenance hammering the same directory the whole time.
        while any(writer.is_alive() for writer in writers):
            cache.prune("no-such-sweep")
            summary = cache.summarize()
            assert summary["entries"] >= 0
            len(cache)
        for writer in writers:
            writer.join(timeout=60)
            assert writer.exitcode == 0
        assert len(cache) == 2 * per_writer + 1
        for i in range(2 * per_writer):
            assert cache.get(f"{i:064x}") == {"value": i}
        summary = cache.summarize()
        assert summary["sweeps"]["writer"] == 2 * per_writer

    def test_inflight_temp_files_invisible_to_maintenance(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("a" * 64, {"value": 1}, meta={"sweep": "s"})
        # A writer parked between write and rename: complete JSON, temp
        # name.  Maintenance must neither count nor delete it.
        parked = cache.root / ".tmp-parked.part"
        parked.write_text(json.dumps(
            {"record": {"value": 2}, "meta": {"sweep": "s"}}
        ))
        assert len(cache) == 1
        assert [p.name for p, _ in cache.entries()] == [f"{'a' * 64}.json"]
        assert cache.summarize()["entries"] == 1
        assert cache.prune("s") == 1          # the real entry only
        assert parked.exists()                # in-flight file untouched
        # clear() leaves a *young* temp alone (its writer may be alive)
        # but sweeps one old enough to be abandoned.
        assert cache.clear() == 0
        assert parked.exists()
        ancient = time.time() - 7200.0
        os.utime(parked, (ancient, ancient))
        assert cache.clear() == 0
        assert not parked.exists()

    def test_atomic_write_json_fsyncs_data_before_rename(self, tmp_path,
                                                         monkeypatch):
        """The durability contract: flush + fsync the temp file *before*
        ``os.replace`` (else a crash can leave the final name pointing
        at zero-length data), plus a best-effort directory fsync after."""
        from repro.sweep.cache import atomic_write_json

        synced = []
        real_fsync = os.fsync

        def spy_fsync(fd):
            synced.append(fd)
            return real_fsync(fd)

        real_replace = os.replace

        def spy_replace(src, dst):
            assert synced, "temp file must be fsynced before the rename"
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        target = tmp_path / "entry.json"
        atomic_write_json(target, {"value": 1})
        assert json.loads(target.read_text()) == {"value": 1}
        # One data-file fsync pre-rename, one directory fsync post-rename.
        assert len(synced) == 2

    def test_prune_tolerates_vanishing_files(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        for i in range(5):
            cache.put(f"{i:064x}", {"value": i}, meta={"sweep": "s"})
        # Simulate a racing pruner deleting files mid-walk.
        victims = list(cache._entry_paths())
        for victim in victims[::2]:
            victim.unlink()
        removed = cache.prune("s")
        assert removed == len(victims) - len(victims[::2])
        assert len(cache) == 0


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestOrchestrateCLI:
    def test_cli_local_end_to_end(self, tmp_path, worker_env, capsys):
        from repro.__main__ import main

        run_dir = tmp_path / "run"
        assert main([
            "orchestrate", "--name", "access-modes", "--size", "24",
            "--backend", "local", "--workers", "2", "--shards", "3",
            "--cache-dir", str(tmp_path / "cache"),
            "--run-dir", str(run_dir),
            "--poll-interval", "0.1", "--timeout", "300",
        ]) == 0
        out = capsys.readouterr().out
        assert "3 points merged across 3 shard(s)" in out
        report = json.loads((run_dir / "report.json").read_text())
        assert report["simulated_points"] == 3
        # A plain sweep over the same cache dir replays everything.
        spec = build_sweep("access-modes", size=24)
        replay = run_sweep(spec, workers=1,
                           cache_dir=tmp_path / "cache")
        assert replay.fully_cached

    def test_cli_slurm_script_only(self, tmp_path, capsys):
        from repro.__main__ import main

        run_dir = tmp_path / "run"
        assert main([
            "orchestrate", "--name", "access-modes", "--size", "24",
            "--backend", "slurm", "--workers", "3",
            "--cache-dir", str(tmp_path / "cache"),
            "--run-dir", str(run_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "sbatch" in out and "--resume" in out
        script = (run_dir / "sbatch.sh").read_text()
        assert "#SBATCH --array=0-2" in script

    def test_cli_reused_run_dir_is_a_clean_error(self, tmp_path):
        from repro.__main__ import main

        prepare_run(tmp_path / "run", _slow_sweeps(), tmp_path / "cache",
                    shards=2)
        with pytest.raises(SystemExit, match="resume"):
            main([
                "orchestrate", "--name", "access-modes", "--size", "24",
                "--run-dir", str(tmp_path / "run"),
                "--cache-dir", str(tmp_path / "cache"),
            ])

    def test_cli_resume_without_manifest_is_a_clean_error(self, tmp_path):
        from repro.__main__ import main

        with pytest.raises(SystemExit, match="manifest"):
            main(["orchestrate", "--resume", str(tmp_path / "nowhere")])

    def test_cli_requires_name_or_resume(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit, match="--name"):
            main(["orchestrate"])

    def test_cli_rejects_unknown_sweep(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit, match="unknown sweep"):
            main(["orchestrate", "--name", "no-such-experiment"])
