"""Stdlib-only asyncio HTTP front end for the query service.

A deliberately small HTTP/1.1 server over ``asyncio.start_server`` —
no framework, matching :mod:`repro.distributed`'s zero-dependency
convention.  Three endpoints:

* ``GET /health`` — liveness probe, ``{"status": "ok"}``;
* ``GET /ask?model=waypoint&side=1024&probability=0.9`` (or ``POST
  /ask`` with the same fields as a JSON body) — one query, answered as
  the JSON form of :class:`~repro.query.service.Answer`;
* ``GET /stats`` — hot-cache occupancy, pending refinements, queue
  state.

Connections are one-shot (``Connection: close``): the serving cost is
dominated by the answer path, and one-shot connections keep the reader
loop trivial.  A client must send its whole request within
:data:`_READ_DEADLINE_SECONDS`; one that stalls is answered ``408`` and
closed, so a silent connection cannot hold a descriptor until shutdown.
Per-endpoint latency lands in ``query.http.<endpoint>_seconds``
histograms next to the service's own ``query.*`` metrics; every other
path shares ``query.http.unrouted_seconds``.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.telemetry import metrics
from repro.query.normalize import Query, QueryError
from repro.query.service import QueryService

__all__ = ["QueryHTTPServer", "parse_query_document"]

#: Bytes one request may total (line + headers + body); queries are tiny.
_MAX_REQUEST_BYTES = 64 * 1024

#: Seconds a client has to send its request line, headers and body.
_READ_DEADLINE_SECONDS = 10.0

_NUMBER_FIELDS = ("side", "probability", "range")

#: The routed paths; each has its own ``query.http.<name>_seconds``.
_ROUTES = ("/ask", "/health", "/stats")


def parse_query_document(document: Dict[str, Any]) -> Query:
    """Build a :class:`Query` from loosely-typed request fields.

    Accepts the JSON body of ``POST /ask`` and the (string-valued) query
    parameters of ``GET /ask`` alike; unknown fields are rejected so a
    typo (``probabilty=``) surfaces as a 400, not a silent default.
    """
    known = {"model", "side", "nodes", "probability", "range"}
    unknown = sorted(set(document) - known)
    if unknown:
        raise QueryError(f"unknown query field(s): {', '.join(unknown)}")
    fields: Dict[str, Any] = {}
    if "model" in document:
        fields["model"] = str(document["model"])
    try:
        for name in _NUMBER_FIELDS:
            if document.get(name) is not None:
                fields[name] = float(document[name])
        if document.get("nodes") is not None:
            fields["nodes"] = int(document["nodes"])
    except (TypeError, ValueError, OverflowError) as error:
        raise QueryError(f"malformed query field: {error}") from None
    return Query(**fields)


async def _read_request(reader: asyncio.StreamReader) -> Tuple[str, str, bytes]:
    """Read one request as ``(method, target, body)``.

    Raises ``ValueError`` for malformed framing, including a line past
    the stream limit (``readline`` raises it), and
    ``asyncio.IncompleteReadError`` for a body shorter than its length.
    """
    request_line = await reader.readline()
    parts = request_line.decode("latin-1").split()
    if len(parts) < 2:
        raise ValueError("malformed request line")
    headers: Dict[str, str] = {}
    total = len(request_line)
    while True:
        line = await reader.readline()
        total += len(line)
        if total > _MAX_REQUEST_BYTES:
            raise ValueError("request too large")
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length") or 0)
    if length < 0:
        raise ValueError(f"negative Content-Length {length}")
    if total + length > _MAX_REQUEST_BYTES:
        raise ValueError("request too large")
    body = await reader.readexactly(length) if length else b""
    return parts[0].upper(), parts[1], body


class QueryHTTPServer:
    """One service bound to one listening socket."""

    def __init__(self, service: QueryService) -> None:
        self.service = service
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def url(self) -> str:
        if self._server is None:
            raise RuntimeError("server is not listening yet")
        host, port = self._server.sockets[0].getsockname()[:2]
        return f"http://{host}:{port}"

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> str:
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle, host=host, port=port
        )
        return self.url

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.close()

    # ------------------------------------------------------------------ #
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, payload = await self._respond(reader)
        except Exception as error:  # a handler bug must not kill the server
            status, payload = 500, {"error": f"internal error: {error!r}"}
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 408: "Request Timeout",
                  500: "Internal Server Error"}
        head = (
            f"HTTP/1.1 {status} {reason.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        try:
            writer.write(head.encode("ascii") + body)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _respond(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, Dict[str, Any]]:
        try:
            async with asyncio.timeout(_READ_DEADLINE_SECONDS):
                method, target, body = await _read_request(reader)
        except TimeoutError:
            return 408, {
                "error": f"request not received within {_READ_DEADLINE_SECONDS} s"
            }
        except (ConnectionError, ValueError, asyncio.IncompleteReadError) as error:
            return 400, {"error": f"unreadable request: {error}"}
        split = urlsplit(target)
        route = split.path.rstrip("/") or "/"
        started = time.perf_counter()
        try:
            if route == "/health":
                return 200, {"status": "ok"}
            if route == "/stats":
                return 200, self.service.stats()
            if route == "/ask":
                if method == "POST":
                    try:
                        document = json.loads(body.decode("utf-8") or "{}")
                    except ValueError:
                        return 400, {"error": "body is not valid JSON"}
                    if not isinstance(document, dict):
                        return 400, {"error": "body must be a JSON object"}
                elif method == "GET":
                    document = dict(parse_qsl(split.query))
                else:
                    return 405, {"error": f"{method} not allowed on /ask"}
                try:
                    query = parse_query_document(document)
                    answer = await self.service.ask(query)
                except QueryError as error:
                    metrics.counter("query.http.bad_requests").add()
                    return 400, {"error": str(error)}
                return 200, answer.to_json()
            return 404, {"error": f"no route {route}"}
        finally:
            # A client picks the path: one histogram per unknown path
            # would let it grow the registry without bound.
            endpoint = route[1:] if route in _ROUTES else "unrouted"
            metrics.histogram(f"query.http.{endpoint}_seconds").observe(
                time.perf_counter() - started
            )
