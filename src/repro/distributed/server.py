"""The HTTP result server: a work queue and one leased task's store verbs.

Stdlib only (:class:`http.server.ThreadingHTTPServer`).  It routes the
requests a campaign sends and nothing else:

=======================================  ================================
``HEAD/GET/PUT /objects/<k>``            contains / get / put of one store
                                         entry.  GET and PUT carry the
                                         *encoded codec payload* bytes
                                         plus ``X-Repro-Kind`` and
                                         ``X-Repro-Sha256`` headers; a PUT
                                         without either is a 400, and the
                                         server recomputes the digest of
                                         every PUT body before accepting
                                         it (422 on mismatch), then
                                         decodes and re-stores through the
                                         local :class:`ResultStore`, which
                                         verifies again on its own read
                                         path.
``POST /quarantine/<k>``                 quarantine a corrupt entry (JSON
                                         ``{"reason": ...}``).
``POST /queue/lease|heartbeat|publish``  the pull-based work queue (absent
                                         → 404 when the server fronts a
                                         store only).
``GET /queue/stats``, ``GET /health``    observability.
=======================================  ================================

Every other request answers 404.  The object verbs are exactly what a
leased task's iteration checkpoint calls (:class:`~repro.store.
checkpoints.StoreIterationCheckpoint`); store maintenance — gc,
eviction, poison records, quarantine listings, staging hygiene — runs
only on the serving host's local store, through ``campaign
gc|status|clean``.

Error mapping: unknown key → 404, integrity failure → 422, malformed
key/arguments → 400.  The :class:`~repro.distributed.remote_store.
RemoteResultStore` client translates these back into ``KeyError`` /
``StoreIntegrityError`` / ``ConfigurationError``, the errors the local
store raises.

Connections are HTTP/1.1 keep-alive, one server thread each:

* every request body is read before routing, so each reply ends at a
  request boundary even when the route never looks at the body; a body
  whose length is unknown gets a 400 and a closed connection, and one
  longer than :data:`MAX_BODY_BYTES` a 413 and a closed connection;
* replies go out with Nagle off — headers and body are two writes, and
  the second would otherwise wait out the client's delayed ACK;
* a connection silent for :data:`IDLE_TIMEOUT` seconds is closed, and a
  peer that resets or times out ends its thread without a traceback;
* ``POST /queue/lease`` long-polls: when nothing can be granted the
  request is held for up to :data:`~repro.distributed.queue.
  IDLE_POLL_SECONDS` and answered the moment the queue changes;
* :meth:`ResultServer.stop` shuts the listening socket and every live
  connection, so a waiting client sees "server left" at once.
"""

from __future__ import annotations

import base64
import hashlib
import json
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Set, Tuple

from repro.exceptions import ConfigurationError
from repro.store.codecs import decode_payload, encode_payload
from repro.store.result_store import ResultStore, StoreIntegrityError

from repro.distributed.queue import IDLE_POLL_SECONDS, WorkQueue

__all__ = ["ResultServer"]

KIND_HEADER = "X-Repro-Kind"
SHA_HEADER = "X-Repro-Sha256"
LABEL_HEADER = "X-Repro-Label"
METADATA_HEADER = "X-Repro-Metadata"

#: Seconds between ``serve_forever``'s shutdown checks.  ``shutdown()``
#: waits for the next check, so the stdlib's 0.5 s would add up to half a
#: second to every :meth:`ResultServer.stop`.
POLL_INTERVAL = 0.05

#: Seconds a keep-alive connection may sit silent before its server
#: thread closes it.  Well above a worker's heartbeat period (a third of
#: the lease), so only an abandoned or wedged client hits it; a client
#: whose pooled connection was closed retries once on a fresh one.
IDLE_TIMEOUT = 60.0

#: Largest request body the server reads.  The largest body a campaign
#: sends is one paper-scale frame-statistics iteration, about 2 MB, so
#: this leaves a 30x margin while refusing a body that would be buffered
#: whole before routing.
MAX_BODY_BYTES = 64 * 2**20


class _HttpFailure(Exception):
    """Internal: abort the current request with (status, message)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Handler(BaseHTTPRequestHandler):
    server: "_Server"
    protocol_version = "HTTP/1.1"
    timeout = IDLE_TIMEOUT
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------ #
    def log_message(self, format: str, *args: Any) -> None:
        pass  # campaign progress is the user-facing channel, not access logs

    def _read_body(self) -> bytes:
        """Consume this request's whole body from the connection."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0 or "Transfer-Encoding" in self.headers:
            # No way to find where the next request starts.
            self.close_connection = True
            raise _HttpFailure(400, "request body needs a Content-Length")
        if length > MAX_BODY_BYTES:
            # Refuse before reading; the unread body ends the connection.
            self.close_connection = True
            raise _HttpFailure(
                413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"
            )
        return self.rfile.read(length) if length else b""

    def _json_body(self) -> Dict[str, Any]:
        raw = self._request_body
        if not raw:
            return {}
        try:
            document = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _HttpFailure(400, f"malformed JSON body: {error}")
        if not isinstance(document, dict):
            raise _HttpFailure(400, "JSON body must be an object")
        return document

    def _reply(
        self,
        status: int,
        payload: bytes,
        content_type: str = "application/json",
        headers: Optional[Dict[str, str]] = None,
        head_only: bool = False,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if self.close_connection:
            self.send_header("Connection", "close")
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        if not head_only:
            self.wfile.write(payload)

    def _reply_json(self, document: Any, status: int = 200) -> None:
        self._reply(
            status, json.dumps(document, sort_keys=True).encode("utf-8")
        )

    def _fail(self, status: int, message: str, head_only: bool = False) -> None:
        self._reply(
            status,
            json.dumps({"error": message}).encode("utf-8"),
            head_only=head_only,
        )

    # ------------------------------------------------------------------ #
    def _route(self, method: str) -> None:
        try:
            self._request_body = self._read_body()
            handled = self._dispatch(method)
        except _HttpFailure as failure:
            self._fail(failure.status, str(failure), head_only=method == "HEAD")
            return
        except ConfigurationError as error:
            self._fail(400, str(error), head_only=method == "HEAD")
            return
        except KeyError as error:
            self._fail(404, f"no entry for {error}", head_only=method == "HEAD")
            return
        except StoreIntegrityError as error:
            self._fail(422, str(error), head_only=method == "HEAD")
            return
        except (ConnectionError, TimeoutError):
            # The client went away mid-request or fell silent mid-body.
            self.close_connection = True
            return
        except Exception as error:  # never kill the serving thread
            self._fail(500, f"{type(error).__name__}: {error}")
            return
        if not handled:
            self._fail(404, f"no route for {method} {self.path}")

    def do_GET(self) -> None:
        self._route("GET")

    def do_HEAD(self) -> None:
        self._route("HEAD")

    def do_PUT(self) -> None:
        self._route("PUT")

    def do_POST(self) -> None:
        self._route("POST")

    def do_DELETE(self) -> None:
        # No route takes DELETE; it still gets its body read and a 404.
        self._route("DELETE")

    # ------------------------------------------------------------------ #
    def _dispatch(self, method: str) -> bool:
        store = self.server.store
        path = self.path.split("?", 1)[0]
        parts = [part for part in path.split("/") if part]

        if parts == ["health"] and method == "GET":
            self._reply_json({"status": "ok"})
            return True
        if len(parts) == 2 and parts[0] == "objects":
            return self._dispatch_object(method, store, parts[1])
        if len(parts) == 2 and parts[0] == "quarantine" and method == "POST":
            reason = str(self._json_body().get("reason", ""))
            self._reply_json(
                {"quarantined": store.quarantine_entry(parts[1], reason=reason)}
            )
            return True
        if parts and parts[0] == "queue":
            return self._dispatch_queue(method, parts)
        return False

    def _dispatch_object(
        self, method: str, store: ResultStore, key: str
    ) -> bool:
        if method == "HEAD":
            if store.contains(key):
                self._reply(200, b"", head_only=True)
            else:
                self._fail(404, f"no entry for {key!r}", head_only=True)
            return True
        if method == "GET":
            value = store.get(key)  # verifies the on-disk digest
            kind, _, payload = encode_payload(value)
            self._reply(
                200,
                payload,
                content_type="application/octet-stream",
                headers={
                    KIND_HEADER: kind,
                    SHA_HEADER: hashlib.sha256(payload).hexdigest(),
                },
            )
            return True
        if method == "PUT":
            payload = self._request_body
            encoding = (self.headers.get("Content-Encoding") or "").lower()
            if encoding and encoding != "identity":
                raise _HttpFailure(
                    400, f"unsupported Content-Encoding {encoding!r}"
                )
            kind = self.headers.get(KIND_HEADER)
            if not kind:
                raise _HttpFailure(400, f"PUT needs a {KIND_HEADER} header")
            declared = self.headers.get(SHA_HEADER)
            if not declared:
                raise _HttpFailure(400, f"PUT needs a {SHA_HEADER} header")
            digest = hashlib.sha256(payload).hexdigest()
            if declared != digest:
                raise _HttpFailure(
                    422,
                    f"payload sha256 {digest} != declared {declared} "
                    f"(corrupted in transit)",
                )
            metadata = self._metadata()
            try:
                value = decode_payload(kind, payload)
            except ConfigurationError:
                raise
            except Exception as error:
                raise _HttpFailure(422, f"undecodable payload: {error}")
            store.put(
                key,
                value,
                metadata=metadata,
                kind=self.headers.get(LABEL_HEADER) or None,
            )
            self._reply_json({"key": key})
            return True
        return False

    def _metadata(self) -> Optional[Dict[str, Any]]:
        """The PUT's entry metadata: absent, or a JSON object.

        The store keeps it verbatim in the entry header, where ``campaign
        gc --campaign`` reads it as a mapping.
        """
        header = self.headers.get(METADATA_HEADER)
        if not header:
            return None
        try:
            metadata = json.loads(header)
        except json.JSONDecodeError as error:
            raise _HttpFailure(400, f"malformed {METADATA_HEADER}: {error}")
        if not isinstance(metadata, dict):
            raise _HttpFailure(400, f"{METADATA_HEADER} must be a JSON object")
        return metadata

    def _dispatch_queue(self, method: str, parts: list) -> bool:
        queue = self.server.queue
        if queue is None:
            raise _HttpFailure(404, "this server fronts a store only")
        if parts == ["queue", "stats"] and method == "GET":
            self._reply_json(queue.stats())
            return True
        if method != "POST" or len(parts) != 2:
            return False
        arguments = self._json_body()
        worker = str(arguments.get("worker", ""))
        if parts[1] == "lease":
            grant = queue.lease(worker, wait=IDLE_POLL_SECONDS)
            if grant["status"] == "ok":
                grant = dict(grant)
                grant["payload"] = base64.b64encode(grant["payload"]).decode(
                    "ascii"
                )
            self._reply_json(grant)
            return True
        task_id = str(arguments.get("task", ""))
        if parts[1] == "heartbeat":
            self._reply_json({"ok": queue.heartbeat(task_id, worker)})
            return True
        if parts[1] == "publish":
            if "error" in arguments:
                accepted = queue.publish_error(
                    task_id, worker, str(arguments["error"])
                )
            else:
                try:
                    payload = base64.b64decode(
                        str(arguments.get("result", "")), validate=True
                    )
                except (ValueError, TypeError) as error:
                    raise _HttpFailure(400, f"malformed result payload: {error}")
                accepted = queue.publish_result(task_id, worker, payload)
            self._reply_json({"ok": accepted})
            return True
        return False


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        store: ResultStore,
        queue: Optional[WorkQueue],
    ) -> None:
        super().__init__(address, _Handler)
        self.store = store
        self.queue = queue
        self._live: Set[socket.socket] = set()
        self._live_lock = threading.Lock()

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._live_lock:
            self._live.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._live_lock:
            self._live.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request: Any, client_address: Any) -> None:
        # A peer that resets or falls silent is routine on keep-alive
        # connections (a worker exiting, a client timing out a long
        # poll); only a genuine server fault deserves a traceback.
        if not isinstance(sys.exc_info()[1], (ConnectionError, TimeoutError)):
            super().handle_error(request, client_address)

    def server_close(self) -> None:
        """Refuse new connections and end the live keep-alive ones.

        The listening socket is shut down, not just closed: a process
        forked after the bind holds a copy of it, which would otherwise
        keep accepting connections into a backlog nobody serves.
        """
        with self._live_lock:
            sockets = [self.socket, *self._live]
        for sock in sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by the peer, or not supported
        super().server_close()


class ResultServer:
    """Owns the HTTP server thread fronting a store (and optional queue).

    ``port=0`` binds an ephemeral port; read the resolved address from
    :attr:`url` after :meth:`start` (the CI smoke writes it to a file the
    workers poll for).
    """

    def __init__(
        self,
        store: ResultStore,
        queue: Optional[WorkQueue] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._server = _Server((host, port), store, queue)
        self._thread: Optional[threading.Thread] = None

    @property
    def store(self) -> ResultStore:
        return self._server.store

    @property
    def queue(self) -> Optional[WorkQueue]:
        return self._server.queue

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ResultServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": POLL_INTERVAL},
            name="repro-result-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving; clients see refused or closed connections at once."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "ResultServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
