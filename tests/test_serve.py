"""Tests for the result server (repro.serve).

Covers:

* pinned identity: cache dir and code digest fixed at startup and
  visible in /healthz; a mid-flight env change cannot move the cache,
* warm queries answer from cache; served records are bit-identical to
  what a direct run_sweep writes,
* single-flight coalescing: N concurrent identical cold queries cost
  exactly one simulation (asserted via the cache miss counter and the
  fill-points probe),
* distinct cold misses batch into one fill run,
* SSE progress events, prefetch, HTTP error mapping,
* stale-tree refusal: fills are refused once the source digest drifts
  from the pinned one, while cached queries keep serving; a digest
  check that raises fails its batch with a 500 and the fill loop lives,
* the request parser: strict ``Content-Length`` and a hypothesis fuzz,
* cache-prune hammer: concurrent prunes never corrupt in-flight fills,
* the reply encoder against the sorted ``json.dumps`` oracle, and the
  reply memo: deleted, rewritten and replaced entries, its bound, its
  hit accounting, and the bound on per-``args`` spec indices,
* malformed bodies over a live socket, and a live-socket fuzz: every
  request gets a reply and the server stays up.
"""

import asyncio
import json
import os
import socket
import threading
import time
import http.client
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SystemConfig
from repro.sweep import SWEEPS, ResultCache, register_sweep, run_sweep
from repro.sweep.spec import SweepSpec, gemm_points
from repro.serve import ServeSettings, ServerThread, SingleFlight
from repro.serve.http import MAX_HEADER_BYTES, _HttpError, _read_request

SIZE = 24
PACKETS = (64, 128, 256, 512)
SWEEP = "serve-test"


def _spec(size: int = SIZE) -> SweepSpec:
    base = SystemConfig.table2_baseline()
    configs = {packet: base.with_packet_size(packet) for packet in PACKETS}
    return SweepSpec(name=SWEEP, points=gemm_points(configs, size))


@pytest.fixture(scope="module", autouse=True)
def _registered_sweep():
    register_sweep(SWEEP)(_spec)
    yield
    SWEEPS.pop(SWEEP, None)


@pytest.fixture
def server(tmp_path):
    settings = ServeSettings(port=0, cache_dir=str(tmp_path / "cache"),
                             batch_window=0.02)
    with ServerThread(settings) as st:
        yield st


def request(st, method, path, body=None, timeout=120):
    conn = http.client.HTTPConnection(st.host, st.port, timeout=timeout)
    try:
        conn.request(method, path,
                     body=json.dumps(body) if body is not None else None)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def query(st, key, sweep=SWEEP, timeout=120):
    status, data = request(st, "POST", "/query",
                           {"sweep": sweep, "key": key}, timeout=timeout)
    return status, json.loads(data)


def keys():
    return [repr(point.key) for point in _spec().points]


class TestPinnedIdentity:
    def test_healthz_reports_cache_dir_and_code(self, server):
        from repro.sweep.cache import code_version

        status, data = request(server, "GET", "/healthz")
        health = json.loads(data)
        assert status == 200 and health["status"] == "ok"
        assert health["cache_dir"] == server.service.cache_dir
        assert health["code"] == code_version()

    def test_env_change_after_startup_cannot_move_cache(
        self, tmp_path, monkeypatch
    ):
        pinned = tmp_path / "pinned"
        moved = tmp_path / "moved"
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", str(pinned))
        with ServerThread(ServeSettings(port=0, batch_window=0.0)) as st:
            # The dir was resolved at construction; flipping the env
            # now must not redirect later fills.
            monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", str(moved))
            status, payload = query(st, keys()[0])
            assert status == 200
            assert json.loads(request(st, "GET", "/healthz")[1])[
                "cache_dir"] == str(pinned)
        assert len(ResultCache(pinned)) == 1
        assert not moved.exists() or len(ResultCache(moved)) == 0


class TestQueryPath:
    def test_cold_then_warm_and_bit_identity(self, server, tmp_path):
        key = keys()[0]
        status, cold = query(server, key)
        assert status == 200
        assert cold["cached"] is False and cold["coalesced"] is False
        status, warm = query(server, key)
        assert status == 200
        assert warm["cached"] is True
        assert warm["record"] == cold["record"]
        # Bit-identity against a direct engine run in a fresh cache:
        # the server is a front end over the same records, not a
        # second source of truth.
        direct = run_sweep(_spec(), workers=1,
                           cache_dir=tmp_path / "direct")
        direct_record = direct.outcomes[0].record
        assert cold["record"] == direct_record
        assert (json.dumps(cold["record"], sort_keys=True)
                == json.dumps(direct_record, sort_keys=True))

    def test_non_utf8_entry_is_refilled(self, server):
        key = keys()[0]
        status, cold = query(server, key)
        assert status == 200 and cold["cached"] is False
        cache = server.service.cache
        path = cache.root / f"{cold['key_hash']}.json"
        path.write_bytes(b'{"record": "\xff\xfe"}')
        status, refill = query(server, key)
        assert status == 200
        assert refill["cached"] is False
        assert refill["record"] == cold["record"]
        status, warm = query(server, key)
        assert status == 200 and warm["cached"] is True

    def test_get_query_string_form(self, server):
        from urllib.parse import quote

        key = keys()[0]
        status, payload = request(
            server, "GET",
            f"/query?sweep={SWEEP}&key={quote(key)}")
        assert status == 200
        assert json.loads(payload)["key"] == key

    def test_unknown_sweep_and_point_are_404(self, server):
        status, payload = query(server, keys()[0], sweep="no-such-sweep")
        assert status == 404 and "unknown sweep" in payload["error"]
        status, payload = query(server, "'no-such-point'")
        assert status == 404 and "no point keyed" in payload["error"]

    def test_malformed_requests_are_400(self, server):
        status, data = request(server, "POST", "/query", {"sweep": SWEEP})
        assert status == 400
        status, data = request(server, "POST", "/query",
                               {"sweep": SWEEP, "key": keys()[0],
                                "args": "not-a-dict"})
        assert status == 400
        assert b"args" in data

    def test_negative_content_length_is_400(self, server):
        # http.client refuses to send this header, so speak raw HTTP.
        import socket

        with socket.create_connection((server.host, server.port),
                                      timeout=30) as sock:
            sock.sendall(b"POST /query HTTP/1.1\r\nHost: test\r\n"
                         b"Content-Length: -5\r\n\r\n")
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"negative Content-Length" in reply

    def test_get_and_post_decode_a_percent_key_alike(self, server):
        from urllib.parse import quote

        # A literal '%' must survive one round of percent-decoding.
        key = "(64, '%41')"
        status, data = request(
            server, "GET", f"/query?sweep={SWEEP}&key={quote(key)}")
        post_status, post_payload = query(server, key)
        assert status == post_status == 404
        assert json.loads(data) == post_payload
        assert repr(key) in post_payload["error"]

    def test_stale_domains_arg_is_400(self, server):
        # An argument the sweep factory does not take is a client error:
        # the reply names it instead of surfacing a 500.
        status, data = request(server, "POST", "/query",
                               {"sweep": SWEEP, "key": keys()[0],
                                "args": {"domains": 2}})
        assert status == 400
        assert "domains" in json.loads(data)["error"]

    @pytest.mark.parametrize("dim_scale", [0, float("inf")])
    def test_bad_dim_scale_is_400_and_starts_no_fill(self, server,
                                                     dim_scale):
        # A scale the ViT runner cannot honour is refused while the spec
        # is built, before any point is claimed for a fill.
        status, data = request(server, "POST", "/query",
                               {"sweep": "fig7-transformer",
                                "key": "('base', 'PCIe-8GB')",
                                "args": {"dim_scale": dim_scale}})
        assert status == 400
        assert "dim_scale" in json.loads(data)["error"]
        status, data = request(server, "GET", "/metrics")
        assert "repro_serve_fill_points_total 0\n" in data.decode()


class TestCoalescing:
    def test_concurrent_identical_queries_simulate_once(self, server):
        """Eight identical cold queries -> exactly one simulation.

        Counter accounting is deterministic by construction: the
        in-flight registry is checked before the cache, so one flight
        costs exactly two cache misses (the leader's query-path probe
        plus the fill engine's own lookup) however many clients wait.
        """
        key = keys()[1]
        clients = 8
        with ThreadPoolExecutor(clients) as pool:
            results = list(pool.map(
                lambda _: query(server, key), range(clients)))
        assert all(status == 200 for status, _ in results)
        records = [payload["record"] for _, payload in results]
        assert all(record == records[0] for record in records)
        service = server.service
        assert service.fill_points == 1  # the fill-count probe
        assert service.fill_runs == 1
        assert service.cache.misses == 2
        assert service.singleflight.coalesced == clients - 1
        assert sum(payload["coalesced"]
                   for _, payload in results) == clients - 1

    def test_distinct_misses_share_one_fill_run(self, tmp_path):
        settings = ServeSettings(port=0, cache_dir=str(tmp_path),
                                 batch_window=0.3)
        with ServerThread(settings) as st:
            targets = keys()[:3]
            with ThreadPoolExecutor(len(targets)) as pool:
                results = list(pool.map(lambda k: query(st, k), targets))
            assert all(status == 200 for status, _ in results)
            assert st.service.fill_points == len(targets)
            assert st.service.fill_runs == 1

    def test_prefetch_then_all_warm(self, server):
        status, data = request(server, "POST", "/sweep", {"sweep": SWEEP})
        assert status == 200
        disposition = json.loads(data)
        assert disposition["enqueued"] == len(PACKETS)
        deadline = time.time() + 120
        while server.service.fill_points < len(PACKETS):
            assert time.time() < deadline, "prefetch never completed"
            time.sleep(0.02)
        for key in keys():
            status, payload = query(server, key)
            assert status == 200 and payload["cached"] is True


class TestEventsAndMetrics:
    def test_sse_streams_fill_outcomes(self, server):
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=120)
        conn.request("GET", "/events")
        response = conn.getresponse()
        assert response.status == 200
        assert "text/event-stream" in response.getheader("Content-Type")
        status, _ = query(server, keys()[2])
        assert status == 200
        events, buffer = [], b""
        deadline = time.time() + 120
        while time.time() < deadline:
            chunk = response.read1(4096)
            if chunk:
                buffer += chunk
            # Frames are \n\n-delimited; only parse complete ones.
            while b"\n\n" in buffer:
                frame, buffer = buffer.split(b"\n\n", 1)
                for line in frame.decode().splitlines():
                    if line.startswith("data: "):
                        events.append(json.loads(line[len("data: "):]))
            if any(e.get("type") == "fill-done" for e in events):
                break
        conn.close()
        kinds = [event["type"] for event in events]
        assert "fill-start" in kinds and "fill-done" in kinds
        outcome = next(e for e in events if e["type"] == "outcome")
        assert outcome["sweep"] == SWEEP
        assert outcome["key"] == keys()[2]

    def test_metrics_exposition(self, server):
        query(server, keys()[0])
        query(server, keys()[0])
        status, data = request(server, "GET", "/metrics")
        assert status == 200
        text = data.decode()
        assert "# TYPE repro_serve_queries_total counter" in text
        assert "repro_serve_fill_points_total 1" in text
        assert "repro_serve_query_hits_total 1" in text
        assert text.endswith("\n")


class TestStaleCodeRefusal:
    def test_drifted_tree_refuses_fills_but_serves_cache(
        self, server, monkeypatch
    ):
        warm_key, cold_key = keys()[0], keys()[1]
        assert query(server, warm_key)[0] == 200  # fill while valid
        import repro.serve.service as service_mod

        monkeypatch.setattr(service_mod, "fresh_code_version",
                            lambda: "f" * 64)
        status, payload = query(server, cold_key)
        assert status == 503
        assert "pinned" in payload["error"]
        assert server.service.fill_refused == 1
        # Cached entries keep serving: they match the pinned tree.
        status, payload = query(server, warm_key)
        assert status == 200 and payload["cached"] is True


class TestDigestFailure:
    def test_failed_digest_check_fails_the_batch_not_the_loop(
        self, server, monkeypatch
    ):
        import repro.serve.service as service_mod

        real = service_mod.fresh_code_version
        calls = {"n": 0}

        def vanishing_file():
            calls["n"] += 1
            if calls["n"] == 1:
                raise FileNotFoundError(2, "No such file or directory",
                                        ".swap.py")
            return real()

        monkeypatch.setattr(service_mod, "fresh_code_version",
                            vanishing_file)
        first, second = keys()[0], keys()[1]
        status, payload = query(server, first, timeout=30)
        assert status == 500
        assert "FileNotFoundError" in payload["error"]
        assert ".swap.py" in payload["error"]
        # The fill loop survived: the next cold query is filled.
        status, payload = query(server, second, timeout=30)
        assert status == 200 and payload["cached"] is False
        status, payload = query(server, first, timeout=30)
        assert status == 200 and payload["cached"] is False
        assert server.service.healthz()["in_flight"] == 0


class TestPruneHammer:
    def test_concurrent_prune_never_breaks_in_flight_fills(self, server):
        """`cache prune` racing the server must never 500 a query.

        Fills write atomically and resolve waiters from memory, so a
        prune that deletes an entry between fill and re-query only
        costs a re-simulation -- it can never make an in-flight result
        vanish for its waiters or corrupt a served record.
        """
        stop = threading.Event()
        pruned = {"count": 0}

        def prune_loop():
            hammer = ResultCache(server.service.cache_dir)
            while not stop.is_set():
                pruned["count"] += hammer.prune(SWEEP)
                time.sleep(0.001)

        thread = threading.Thread(target=prune_loop)
        thread.start()
        try:
            baseline = None
            for _ in range(6):
                with ThreadPoolExecutor(4) as pool:
                    results = list(pool.map(
                        lambda k: query(server, k), keys()[:2] * 2))
                for status, payload in results:
                    assert status == 200
                    assert payload["record"]["ticks"] > 0
                if baseline is None:
                    baseline = {p["key"]: p["record"]
                                for _, p in results}
                else:
                    for _, payload in results:
                        assert payload["record"] == baseline[payload["key"]]
        finally:
            stop.set()
            thread.join(30)
        # The hammer actually pruned entries while queries flowed.
        assert pruned["count"] >= 1


class TestSingleFlightUnit:
    def test_claim_wait_resolve(self):
        import asyncio

        async def scenario():
            flights = SingleFlight()
            flight, leader = flights.claim("k")
            assert leader and len(flights) == 1
            same, follower_leads = flights.claim("k")
            assert same is flight and not follower_leads
            assert flights.coalesced == 1

            waiter = asyncio.ensure_future(flights.wait(flight))
            await asyncio.sleep(0)
            flights.resolve("k", {"v": 1})
            assert await waiter == {"v": 1}
            assert "k" not in flights

            # A cancelled waiter must not kill the flight for others.
            flight2, _ = flights.claim("j")
            doomed = asyncio.ensure_future(flights.wait(flight2))
            survivor = asyncio.ensure_future(flights.wait(flight2))
            await asyncio.sleep(0)
            doomed.cancel()
            await asyncio.sleep(0)
            flights.resolve("j", {"v": 2})
            assert await survivor == {"v": 2}
            with pytest.raises(asyncio.CancelledError):
                await doomed

            flight3, _ = flights.claim("x")
            flights.fail("x", RuntimeError("boom"))
            with pytest.raises(RuntimeError, match="boom"):
                await flights.wait(flight3)

        asyncio.run(scenario())


def _parse(chunks, eof=True, timeout=5.0):
    """Run ``_read_request`` over ``chunks`` delivered one per loop turn."""

    async def scenario():
        reader = asyncio.StreamReader(limit=MAX_HEADER_BYTES)

        async def feed():
            for chunk in chunks:
                reader.feed_data(chunk)
                await asyncio.sleep(0)
            if eof:
                reader.feed_eof()

        feeder = asyncio.ensure_future(feed())
        try:
            return await asyncio.wait_for(_read_request(reader), timeout)
        finally:
            await feeder

    return asyncio.run(scenario())


_LENGTHS = ["0", "5", "005", "+5", "1_0", "-5", "-0", " 5", "5 ", "0x5",
            "5.0", "", "\xb2", "\uff15".encode("utf-8").decode("latin-1"),
            "9" * 5000, "0" * 5000 + "5", str(2 * 1024 * 1024)]


@st.composite
def _requests(draw):
    """Bytes shaped like a request, so the fuzz reaches the body path."""
    method = draw(st.sampled_from([b"GET", b"POST", b"get", b"P OST", b""]))
    target = draw(st.sampled_from([b"/query", b"/healthz?x=1", b"", b"*"]))
    line = method + b" " + target + draw(st.sampled_from(
        [b" HTTP/1.1", b"", b" HTTP/1.1 extra"]))
    headers = draw(st.lists(st.sampled_from(
        [b"Host: x", b"Connection: close", b"no-colon", b": empty",
         b"X-Pad: " + b"a" * 64]), max_size=3))
    length = draw(st.one_of(st.none(), st.sampled_from(_LENGTHS)))
    if length is not None:
        headers.append(b"Content-Length: " + length.encode("latin-1"))
    head = b"\r\n".join([line, *headers]) + b"\r\n\r\n"
    return head + draw(st.binary(max_size=16))


class TestHttpParser:
    @pytest.mark.parametrize("value", ["+5", "1_0", " +5", "0x5", "5.0",
                                       "\xb2", "", "5, 5"])
    def test_content_length_must_be_digits(self, value):
        raw = (f"POST /query HTTP/1.1\r\nContent-Length: {value}\r\n\r\n"
               "0123456789").encode("latin-1")
        with pytest.raises(_HttpError) as info:
            _parse([raw])
        assert info.value.status == 400
        assert "Content-Length" in str(info.value)

    def test_leading_zeros_and_huge_values(self):
        raw = b"POST /q HTTP/1.1\r\nContent-Length: 0005\r\n\r\nhello"
        assert _parse([raw])[3] == b"hello"
        for value in ("9" * 5000, "0" * 5000 + "9" * 8):
            head = f"POST /q HTTP/1.1\r\nContent-Length: {value}\r\n\r\n"
            with pytest.raises(_HttpError) as info:
                _parse([head.encode("latin-1")])
            assert info.value.status == 413

    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(st.binary(max_size=200), _requests()),
           cuts=st.lists(st.integers(min_value=0, max_value=300),
                         max_size=4))
    def test_fuzz_returns_a_request_none_or_a_4xx(self, data, cuts):
        bounds = sorted({cut for cut in cuts if 0 < cut < len(data)})
        chunks = [data[a:b] for a, b in
                  zip([0, *bounds], [*bounds, len(data)])]
        try:
            request = _parse(chunks)
        except _HttpError as exc:
            assert 400 <= exc.status < 500, exc.status
            return
        if request is None:
            assert data == b""
            return
        method, target, headers, body = request
        assert method == method.upper() and isinstance(target, str)
        assert all(name == name.lower() for name in headers)
        length = headers.get("content-length", "0")
        assert length.isascii() and length.isdigit(), length
        # int() refuses over 4300 digits; leading zeros are legal.
        assert len(body) == int(length.lstrip("0") or "0")


# ----------------------------------------------------------------------
# Reply encoding and the reply memo
# ----------------------------------------------------------------------
def _oracle(sweep, key, key_hash, record, cached, coalesced) -> bytes:
    """The reply bytes as the whole object's sorted ``json.dumps``."""
    return json.dumps({"sweep": sweep, "key": key, "key_hash": key_hash,
                       "cached": cached, "coalesced": coalesced,
                       "record": record}, sort_keys=True).encode("utf-8")


_FLAGS = [(cached, coalesced) for cached in (False, True)
          for coalesced in (False, True)]


class TestReplyEncoding:
    @pytest.mark.parametrize("sweep", ["packet-size", "access-modes"])
    def test_spliced_reply_equals_sorted_dumps_for_every_point(
        self, sweep, tmp_path
    ):
        from repro.serve.service import reply_body
        from repro.sweep import build_sweep

        report = run_sweep(build_sweep(sweep, size=16), workers=1,
                           cache_dir=tmp_path)
        for outcome in report.outcomes:
            record_json = json.dumps(outcome.record,
                                     sort_keys=True).encode()
            for cached, coalesced in _FLAGS:
                assert reply_body(
                    sweep, repr(outcome.key), outcome.key_hash,
                    record_json, cached=cached, coalesced=coalesced,
                ) == _oracle(sweep, repr(outcome.key), outcome.key_hash,
                             outcome.record, cached, coalesced)

    @settings(max_examples=200, deadline=None)
    @given(sweep=st.text(), key=st.one_of(
        st.text(), st.sampled_from(["'DC'", '"q"', "('a', \"b\")",
                                    "ключ", " \x00\\"])))
    def test_spliced_reply_escapes_like_dumps(self, sweep, key):
        from repro.serve.service import reply_body

        record = {"label": key, "ticks": 7, "nested": {"b": 1, "a": [2.5]}}
        record_json = json.dumps(record, sort_keys=True).encode()
        for cached, coalesced in _FLAGS:
            assert reply_body(sweep, key, "ab" * 32, record_json,
                              cached=cached, coalesced=coalesced) == _oracle(
                sweep, key, "ab" * 32, record, cached, coalesced)

    def test_served_bytes_are_the_sorted_dumps_of_the_reply(self, server):
        key = keys()[0]
        for expect_cached in (False, True, True):
            status, data = request(server, "POST", "/query",
                                   {"sweep": SWEEP, "key": key})
            assert status == 200
            payload = json.loads(data)
            assert payload["cached"] is expect_cached
            assert data == json.dumps(payload, sort_keys=True).encode()


class TestReplyMemo:
    def test_repeat_hits_come_from_the_memo(self, server):
        key = keys()[0]
        assert query(server, key)[1]["cached"] is False
        for _ in range(3):
            status, payload = query(server, key)
            assert status == 200 and payload["cached"] is True
        health = server.service.healthz()
        # The first warm hit reads the entry; the next two are memo hits.
        assert health["reply_memo_entries"] == 1
        assert health["reply_memo_hits"] == 2
        metrics = request(server, "GET", "/metrics")[1].decode()
        assert "repro_serve_reply_memo_entries 1\n" in metrics
        assert "repro_serve_reply_memo_hits_total 2\n" in metrics

    def test_deleted_entry_is_not_served_from_memory(self, server):
        key = keys()[0]
        status, cold = query(server, key)
        query(server, key)
        query(server, key)  # memo hit
        os.remove(server.service.cache.entry_path(cold["key_hash"]))
        status, again = query(server, key)
        assert status == 200 and again["cached"] is False
        assert again["record"] == cold["record"]
        assert server.service.fill_points == 2

    def test_garbage_written_in_place_is_a_miss_then_refilled(self, server):
        key = keys()[0]
        status, cold = query(server, key)
        query(server, key)
        assert query(server, key)[1]["cached"] is True  # memo hit
        path = server.service.cache.entry_path(cold["key_hash"])
        with open(path, "r+b") as handle:  # same inode, new bytes
            handle.write(b"{not json")
            handle.truncate()
        misses = server.service.cache.misses
        status, refill = query(server, key)
        assert status == 200 and refill["cached"] is False
        assert refill["record"] == cold["record"]
        assert server.service.cache.misses == misses + 2
        status, warm = query(server, key)
        assert warm["cached"] is True and warm["record"] == cold["record"]

    def test_atomically_replaced_entry_is_reread(self, server):
        key = keys()[0]
        status, cold = query(server, key)
        query(server, key)
        assert query(server, key)[1]["cached"] is True  # memo hit
        other = dict(cold["record"], ticks=cold["record"]["ticks"] + 1)
        ResultCache(server.service.cache_dir).put(cold["key_hash"], other)
        status, reread = query(server, key)
        assert status == 200 and reread["cached"] is True
        assert reread["record"] == other

    def test_memo_bound_evicts_oldest_first(self, server, monkeypatch):
        import repro.serve.service as service_mod

        monkeypatch.setattr(service_mod, "REPLY_MEMO_ENTRIES", 2)
        first, *rest = keys()[:3]
        for key in (first, *rest):
            query(server, key)  # cold fill
            query(server, key)  # read, remembered
        health = server.service.healthz()
        assert health["reply_memo_entries"] == 2
        assert health["reply_memo_hits"] == 0
        query(server, rest[-1])  # still held
        query(server, first)     # evicted: read again
        health = server.service.healthz()
        assert health["reply_memo_entries"] == 2
        assert health["reply_memo_hits"] == 1

    def test_cache_counters_keep_their_accounting(self, server):
        """Memo hits count as cache hits: the totals are what a server
        reading every warm entry from disk reports."""
        k0, k1 = keys()[:2]
        for key in (k0, k0, k0, k0, k1, k1, k1, k0):
            assert query(server, key)[0] == 200
        # Two flights (2 misses each: query probe + fill engine) and
        # six warm queries.
        health = server.service.healthz()
        assert (health["cache_hits"], health["cache_misses"]) == (6, 4)
        assert (health["query_hits"], health["query_misses"]) == (6, 2)


class TestSpecIndexBound:
    def test_distinct_args_stay_bounded_and_evicted_rebuilds(self, server):
        from repro.serve.service import SPEC_INDEX_ENTRIES

        key = keys()[0]
        body = {"sweep": SWEEP, "key": key, "args": {"size": SIZE}}
        identity = (SWEEP, json.dumps(body["args"], sort_keys=True))
        assert request(server, "POST", "/query", body)[0] == 200  # fill
        status, warm = request(server, "POST", "/query", body)
        assert status == 200 and json.loads(warm)["cached"] is True
        # Every distinct args object builds an index, even one whose
        # query then 404s on the key.
        for size in range(SIZE + 1, SIZE + 1 + 2 * SPEC_INDEX_ENTRIES):
            status, _ = request(server, "POST", "/query", {
                "sweep": SWEEP, "key": "'no-such-point'",
                "args": {"size": size}})
            assert status == 404
        indices = server.service._indices
        assert len(indices) == SPEC_INDEX_ENTRIES
        assert identity not in indices
        status, again = request(server, "POST", "/query", body)
        assert status == 200 and again == warm
        assert identity in server.service._indices


# ----------------------------------------------------------------------
# Malformed bodies over a live socket
# ----------------------------------------------------------------------
class TestMalformedBodies:
    def test_factory_attribute_error_is_400(self, server):
        status, data = request(server, "POST", "/query", {
            "sweep": "packet-size", "key": "'64'", "args": {"base": 5}})
        assert status == 400
        assert "AttributeError" in json.loads(data)["error"]

    def test_oversized_integer_literal_is_400(self, server):
        body = (b'{"sweep": "packet-size", "key": "64", "args": {"size": '
                + b"9" * 5000 + b"}}")
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=60)
        try:
            conn.request("POST", "/query", body=body)
            response = conn.getresponse()
            assert response.status == 400
            assert "not JSON" in json.loads(response.read())["error"]
        finally:
            conn.close()

    def test_unexpected_exception_is_a_json_500(self, server, monkeypatch):
        def broken():
            raise RuntimeError("/some/absolute/path")

        monkeypatch.setattr(server.service, "healthz", broken)
        status, data = request(server, "GET", "/healthz")
        assert status == 500
        error = json.loads(data)["error"]
        assert "RuntimeError" in error and "/some" not in error

    def test_fill_failure_replies_with_its_first_line(self, server):
        status, data = request(server, "POST", "/query", {
            "sweep": "packet-size", "key": "64", "args": {"size": 0}})
        assert status == 500
        error = json.loads(data)["error"]
        assert error.startswith("fill run failed: ")
        assert "GEMM dims must be positive" in error
        assert "\n" not in error and "Traceback" not in error


# ----------------------------------------------------------------------
# Live-socket fuzz: every request gets a reply, the server stays up
# ----------------------------------------------------------------------
def _exchange(st, data: bytes, cuts) -> bytes:
    """Send ``data`` split at ``cuts``, half-close, read to EOF."""
    bounds = sorted({cut for cut in cuts if 0 < cut < len(data)})
    with socket.create_connection((st.host, st.port), timeout=60) as sock:
        try:
            for a, b in zip([0, *bounds], [*bounds, len(data)]):
                sock.sendall(data[a:b])
                time.sleep(0.001)  # separate segments, separate reads
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            # The server answered an early error and closed before
            # reading the rest; its reply is already queued here.
            pass
        received = b""
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                return received
            if not chunk:
                return received
            received += chunk


def _assert_alive(st) -> None:
    status, data = request(st, "GET", "/healthz", timeout=30)
    assert status == 200 and json.loads(data)["status"] == "ok"
    assert not st.service._fill_task.done()


def _status_of(reply: bytes) -> int:
    assert reply.startswith(b"HTTP/1.1 "), reply[:80]
    return int(reply[9:12])


_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(),
              st.integers(min_value=-10**6, max_value=10**6),
              st.floats(allow_nan=False, allow_infinity=False),
              st.text(max_size=8)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=6), inner,
                                            max_size=3)),
    max_leaves=8,
)
#: Factory overrides by name (the packet-size factory takes the first
#: three), with values of any JSON type.
_OVERRIDES = st.dictionaries(
    st.one_of(st.sampled_from(["base", "size", "packets", "dim_scale"]),
              st.text(max_size=6)),
    _JSON_VALUES, min_size=1, max_size=3)
#: Keys never matching a packet-size point: arbitrary args there could
#: ask for an arbitrarily large fill.
_PACKET_KEYS = st.text(max_size=10).filter(
    lambda key: not key.lstrip("-").isdigit())


@st.composite
def _query_bodies(draw):
    if draw(st.booleans()):
        body = {"sweep": SWEEP, "key": draw(st.one_of(
            st.sampled_from(keys()), st.text(max_size=10)))}
        if draw(st.booleans()):
            body["args"] = draw(st.one_of(st.none(), st.just({}),
                                          _JSON_VALUES, _OVERRIDES))
    else:
        body = {"sweep": draw(st.sampled_from(["packet-size", "nope"])),
                "key": draw(_PACKET_KEYS), "args": draw(_OVERRIDES)}
    return json.dumps(body).encode()


@pytest.fixture(scope="class")
def fuzz_server(tmp_path_factory):
    cache = tmp_path_factory.mktemp("fuzz") / "cache"
    with ServerThread(ServeSettings(port=0, cache_dir=str(cache))) as st:
        yield st


class TestLiveFuzz:
    @settings(max_examples=150, deadline=None)
    @given(body=_query_bodies(),
           cuts=st.lists(st.integers(min_value=0, max_value=200),
                         max_size=3))
    def test_query_bodies_always_get_a_json_reply(self, fuzz_server, body,
                                                  cuts):
        head = (b"POST /query HTTP/1.1\r\nContent-Length: "
                + str(len(body)).encode() + b"\r\n\r\n")
        reply = _exchange(fuzz_server, head + body, cuts)
        assert _status_of(reply) in (200, 400, 404), reply[:300]
        json.loads(reply.partition(b"\r\n\r\n")[2])
        _assert_alive(fuzz_server)

    @settings(max_examples=150, deadline=None)
    @given(data=st.one_of(st.binary(min_size=1, max_size=200),
                          _requests()),
           cuts=st.lists(st.integers(min_value=0, max_value=300),
                         max_size=4))
    def test_raw_bytes_always_get_an_http_reply(self, fuzz_server, data,
                                                cuts):
        reply = _exchange(fuzz_server, data, cuts)
        assert _status_of(reply) < 500, reply[:300]
        _assert_alive(fuzz_server)
