"""Stdlib asyncio HTTP/1.1 front end for the sweep result server.

Hand-rolled on ``asyncio.start_server`` because the serving layer is a
hard no-new-deps zone (ROADMAP): the whole wire surface is a handful of
JSON endpoints plus one Server-Sent-Events stream, well within what a
small, careful HTTP/1.1 subset covers.  Keep-alive is supported (the
bench and CI smoke drive warm queries over one connection); requests
are size-capped; anything malformed gets a JSON error and the
connection closed.

Endpoints (docs/SERVING.md):

====================  ==================================================
``GET /healthz``      liveness + pinned identity (cache dir, code digest)
``GET /metrics``      Prometheus text exposition of the server counters
``GET /sweeps``       the queryable sweep namespace
``POST /query``       one point result ``{"sweep", "key", "args"?}``
``GET /query``        same via ``?sweep=...&key=...`` (keys URL-encoded)
``POST /sweep``       prefetch: enqueue a sweep's cold points
``GET /events``       SSE stream of fill progress events
====================  ==================================================
"""

from __future__ import annotations

import asyncio
import json
import logging
import re
import threading
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.serve.service import (
    BadRequestError,
    FillError,
    ServeSettings,
    StaleCodeError,
    SweepService,
    UnknownPointError,
    UnknownSweepError,
)

__all__ = ["ReproServer", "ServerThread", "serve_forever"]

#: Request line + headers cap; bodies are capped separately.
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 1 * 1024 * 1024

_DIGITS = re.compile(r"[0-9]+")

_log = logging.getLogger(__name__)


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """One request off a keep-alive connection; None on clean EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # client closed between requests
        raise _HttpError(400, "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise _HttpError(413, "request head too large") from None
    if len(head) > MAX_HEADER_BYTES:
        raise _HttpError(413, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, _version = lines[0].split(" ", 2)
    except ValueError:
        raise _HttpError(400, f"malformed request line {lines[0]!r}") from None
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise _HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length = headers.get("content-length")
    if length is not None:
        # RFC 9110 section 8.6: Content-Length = 1*DIGIT.  int() alone
        # would also take "+5", "1_0" (as ten) and non-ASCII digits.
        if not _DIGITS.fullmatch(length):
            if length.startswith("-") and _DIGITS.fullmatch(length[1:]):
                raise _HttpError(400, "negative Content-Length")
            raise _HttpError(
                400, f"Content-Length must be decimal digits, got {length!r}")
        # Count digits before int(), which refuses over 4300 of them.
        significant = length.lstrip("0") or "0"
        if (len(significant) > len(str(MAX_BODY_BYTES))
                or int(significant) > MAX_BODY_BYTES):
            raise _HttpError(413, "request body too large")
        n = int(significant)
        if n:
            try:
                body = await reader.readexactly(n)
            except asyncio.IncompleteReadError:
                raise _HttpError(400, "truncated request body") from None
    return method.upper(), target, headers, body


def _json_bytes(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _response(status: int, body: bytes,
              content_type: str = "application/json") -> bytes:
    return (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"\r\n"
    ).encode("latin-1") + body


def _parse_body(body: bytes) -> dict:
    if not body:
        return {}
    try:
        payload = json.loads(body.decode("utf-8"))
    except ValueError as exc:
        # Also covers non-UTF-8 bytes and integer literals longer than
        # int()'s 4300-digit limit, which json.loads refuses with a
        # plain ValueError.
        raise _HttpError(400, f"request body is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise _HttpError(
            400, f"request body must be a JSON object, "
                 f"got {type(payload).__name__}")
    return payload


class ReproServer:
    """Bind a :class:`SweepService` to a listening socket."""

    def __init__(self, service: SweepService) -> None:
        self.service = service
        self._server: Optional[asyncio.base_events.Server] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Start service + listener; returns the bound (host, port)."""
        await self.service.start()
        settings = self.service.settings
        self._server = await asyncio.start_server(
            self._handle, settings.host, settings.port,
            limit=MAX_HEADER_BYTES,
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    @property
    def port(self) -> int:
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()

    async def serve_until(self, stop: asyncio.Event) -> None:
        await stop.wait()
        await self.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _HttpError as exc:
                    writer.write(_response(exc.status, _json_bytes(
                        {"error": str(exc)})))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, target, headers, body = request
                parts = urlsplit(target)
                if parts.path == "/events":
                    # SSE takes over the connection and never returns
                    # to the keep-alive loop.
                    await self._stream_events(writer)
                    break
                status, payload, content_type = await self._route(
                    method, parts.path, parts.query, body)
                writer.write(_response(status, payload, content_type))
                await writer.drain()
                if headers.get("connection", "").lower() == "close":
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _route(
        self, method: str, path: str, query: str, body: bytes
    ) -> Tuple[int, bytes, str]:
        service = self.service
        try:
            if path == "/healthz" and method == "GET":
                return 200, _json_bytes(service.healthz()), "application/json"
            if path == "/metrics" and method == "GET":
                return (200, service.metrics_text().encode("utf-8"),
                        "text/plain; version=0.0.4")
            if path == "/sweeps" and method == "GET":
                return (200, _json_bytes({"sweeps": service.sweeps()}),
                        "application/json")
            if path == "/query":
                if method == "POST":
                    payload = _parse_body(body)
                elif method == "GET":
                    # parse_qs already percent-decodes each value.
                    params = parse_qs(query)
                    payload = {name: params[name][0] if name in params
                               else None for name in ("sweep", "key")}
                else:
                    return (405, _json_bytes(
                        {"error": "use GET or POST on /query"}),
                        "application/json")
                sweep = payload.get("sweep")
                key = payload.get("key")
                if not isinstance(sweep, str) or not isinstance(key, str):
                    raise _HttpError(
                        400, 'query needs {"sweep": <name>, "key": '
                             '<repr of point key>}')
                reply = await service.query(sweep, key, payload.get("args"))
                return 200, reply, "application/json"
            if path == "/sweep" and method == "POST":
                payload = _parse_body(body)
                sweep = payload.get("sweep")
                if not isinstance(sweep, str):
                    raise _HttpError(400, 'prefetch needs {"sweep": <name>}')
                result = service.enqueue_sweep(sweep, payload.get("args"))
                return 200, _json_bytes(result), "application/json"
            return (404, _json_bytes(
                {"error": f"no route {method} {path}"}), "application/json")
        except _HttpError as exc:
            return (exc.status, _json_bytes({"error": str(exc)}),
                    "application/json")
        except (UnknownSweepError, UnknownPointError) as exc:
            return 404, _json_bytes({"error": str(exc)}), "application/json"
        except BadRequestError as exc:
            return 400, _json_bytes({"error": str(exc)}), "application/json"
        except StaleCodeError as exc:
            return 503, _json_bytes({"error": str(exc)}), "application/json"
        except FillError as exc:
            return 500, _json_bytes({"error": str(exc)}), "application/json"
        except Exception as exc:  # noqa: BLE001 - every request gets a reply
            _log.exception("unhandled error answering %s %s", method, path)
            return (500, _json_bytes(
                {"error": f"internal server error: {type(exc).__name__}"}),
                "application/json")

    async def _stream_events(self, writer: asyncio.StreamWriter) -> None:
        """SSE: every fill progress event, one ``data:`` frame each."""
        queue = self.service.subscribe()
        try:
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/event-stream\r\n"
                b"Cache-Control: no-cache\r\n"
                b"Connection: close\r\n"
                b"\r\n"
                b": stream open\n\n"
            )
            await writer.drain()
            while True:
                event = await queue.get()
                frame = f"data: {json.dumps(event, sort_keys=True)}\n\n"
                writer.write(frame.encode("utf-8"))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            self.service.unsubscribe(queue)


async def serve_forever(
    settings: Optional[ServeSettings] = None,
    ready: Optional["threading.Event"] = None,
    stop: Optional[asyncio.Event] = None,
    announce: bool = False,
) -> None:
    """Run the server until cancelled (or ``stop`` is set)."""
    server = ReproServer(SweepService(settings))
    host, port = await server.start()
    if announce:
        health = server.service.healthz()
        print(f"repro serve: listening on http://{host}:{port}", flush=True)
        print(f"repro serve: cache_dir={health['cache_dir']}", flush=True)
        print(f"repro serve: code={health['code'][:12]}...", flush=True)
    if ready is not None:
        ready.set()
    try:
        if stop is not None:
            await server.serve_until(stop)
        else:
            await asyncio.Event().wait()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()


class ServerThread:
    """A live server on a background thread (tests, benches, CI smoke).

    Binds an ephemeral port unless told otherwise; ``start`` blocks
    until the socket is accepting.  One instance per cache directory
    under test.
    """

    def __init__(self, settings: Optional[ServeSettings] = None) -> None:
        self.settings = settings or ServeSettings(port=0)
        self.server: Optional[ReproServer] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    @property
    def service(self) -> SweepService:
        return self.server.service

    def start(self, timeout: float = 30.0) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro.serve.test", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server thread failed to come up")
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self.loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.server = ReproServer(SweepService(self.settings))
        self.host, self.port = await self.server.start()
        self._ready.set()
        await self.server.serve_until(self._stop)

    def stop(self, timeout: float = 30.0) -> None:
        if self.loop is not None:
            self.loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
