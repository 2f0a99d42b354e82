"""The client of one leased task's iteration checkpoint on the result server.

A :class:`~repro.store.checkpoints.StoreIterationCheckpoint` inside a
leased task calls four store verbs — ``contains``, ``get``, ``put`` and,
for a corrupt entry, ``quarantine_entry`` — and :class:`RemoteResultStore`
offers exactly those over :mod:`http.client`, plus ``health``.  Bound to
a :class:`~repro.store.checkpoints.StoreSweepCheckpoint`, it serves that
checkpoint's :meth:`~repro.store.checkpoints.StoreSweepCheckpoint.
iteration_checkpoint`; rows are loaded and saved by the serving process
through its local store.  Payloads cross the wire in their codec
encoding with a sha256 sideband, required and verified on *both* ends:
the server recomputes the digest of every PUT before accepting it, and
:meth:`get` recomputes the digest of every downloaded payload before
decoding — a corrupted transfer surfaces as the same
:class:`StoreIntegrityError` a corrupted disk entry would, and the
checkpoint quarantines and recomputes identically.

Requests travel on keep-alive connections: each thread of each process
holds at most one open connection per server, shared by every client
instance in that thread (a worker's queue client and the checkpoints
unpickled inside its tasks), and each request applies its own client's
timeout.  A *reused* connection that turns out closed — the server's
idle timeout or a restart — is retried once on a fresh connection; the
retry is safe for every verb, because object verbs are idempotent on a
content-addressed store, a lost lease expires and a repeated publish of
a finished task is acknowledged and dropped.

Transport failures (refused connection, reset, timeout) raise
:class:`RemoteStoreError`; they are *not* degradable store errors — a
worker whose server vanished should fail its task (and be charged by
the lease machinery), not silently degrade to in-memory results.

There is no ``root`` and no maintenance verb: gc, eviction, poison
records, quarantine listings and staging hygiene run on the serving
host's local store (``campaign gc|status|clean``), never over the wire.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlsplit

from repro.exceptions import ConfigurationError, ReproError
from repro.store.codecs import decode_payload, encode_payload
from repro.store.result_store import StoreIntegrityError

from repro.distributed.server import (
    KIND_HEADER,
    LABEL_HEADER,
    METADATA_HEADER,
    SHA_HEADER,
)

__all__ = ["RemoteResultStore", "RemoteStoreError"]

#: Seconds one store request may take before the client gives up on it.
REQUEST_TIMEOUT = 60.0

#: Keep-alive connections one thread holds open at most; beyond it the
#: least recently used one is closed, so a process meeting many servers
#: over its life holds a bounded number of sockets.
MAX_POOLED_CONNECTIONS = 8

#: How a reused keep-alive connection that the server already closed
#: fails (``http.client.RemoteDisconnected`` is a ConnectionResetError).
_STALE = (ConnectionResetError, BrokenPipeError)


class RemoteStoreError(ReproError):
    """The result server could not be reached or answered nonsense."""


class _Connections(OrderedDict):
    """One thread's connections by ``(scheme, netloc)``, least recent first.

    Closes them when dropped — a thread's pool state is dropped when the
    thread ends (a worker's per-task heartbeat thread, say).
    """

    def __del__(self) -> None:
        for connection in self.values():
            connection.close()


class _ConnectionPool(threading.local):
    """The calling thread's keep-alive connections, keyed by server.

    Thread-local, so a heartbeat thread never interleaves requests with
    its worker's main thread on one socket.  Stamped with the pid that
    opened the connections, so a forked child opens its own instead of
    writing into its parent's; closing its copies leaves the parent's
    sockets open.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.connections = _Connections()

    def connection(self, scheme: str, netloc: str) -> http.client.HTTPConnection:
        if self.pid != os.getpid():
            # Forked: dropping the inherited copies closes them.
            self.connections = _Connections()
            self.pid = os.getpid()
        key = (scheme, netloc)
        connection = self.connections.get(key)
        if connection is None:
            factory = (
                http.client.HTTPSConnection
                if scheme == "https"
                else http.client.HTTPConnection
            )
            connection = self.connections[key] = factory(netloc)
            while len(self.connections) > MAX_POOLED_CONNECTIONS:
                self.connections.popitem(last=False)[1].close()
        self.connections.move_to_end(key)
        return connection

    def discard(self, scheme: str, netloc: str) -> None:
        connection = self.connections.pop((scheme, netloc), None)
        if connection is not None:
            connection.close()


#: Shared by every client in the process: the checkpoints unpickled
#: inside each task are fresh clients that must still reuse the worker's
#: connection.
_POOL = _ConnectionPool()


class RemoteResultStore:
    """Iteration-checkpoint store client bound to a result server URL."""

    def __init__(self, url: str, timeout: float = REQUEST_TIMEOUT) -> None:
        if not url.startswith(("http://", "https://")):
            raise ConfigurationError(
                f"result-server URL must be http(s), got {url!r}"
            )
        self.url = url.rstrip("/")
        self.timeout = timeout
        parts = urlsplit(self.url)
        self._scheme = parts.scheme
        self._netloc = parts.netloc
        self._prefix = parts.path  # prepended to every request path

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        try:
            return self._exchange(method, path, body, headers)
        except _STALE:
            # A reused connection the server closed while it sat idle
            # (its idle timeout, or a restart): once more, on a fresh one.
            return self._exchange(method, path, body, headers)

    def _exchange(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: Optional[Dict[str, str]],
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One request and response on this thread's pooled connection.

        Raises the raw stale-connection error only when the connection
        was reused; every other failure is a :class:`RemoteStoreError`.
        """
        connection = _POOL.connection(self._scheme, self._netloc)
        reused = connection.sock is not None
        connection.timeout = self.timeout  # applied on (re)connect
        if reused:
            connection.sock.settimeout(self.timeout)
        try:
            connection.request(
                method, self._prefix + path, body=body, headers=headers or {}
            )
            response = connection.getresponse()
            return (
                response.status,
                {k: v for k, v in response.headers.items()},
                response.read(),
            )
        except (OSError, http.client.HTTPException) as error:
            _POOL.discard(self._scheme, self._netloc)
            if reused and isinstance(error, _STALE):
                raise
            raise RemoteStoreError(
                f"result server {self.url} connection failed: {error!r}"
            ) from error

    @staticmethod
    def _error_message(payload: bytes) -> str:
        try:
            return str(json.loads(payload.decode("utf-8")).get("error"))
        except Exception:
            return payload.decode("utf-8", "replace")

    def _raise_for(self, status: int, payload: bytes, key: str) -> None:
        message = self._error_message(payload)
        if status == 404:
            raise KeyError(key)
        if status == 422:
            raise StoreIntegrityError(message)
        if status == 400:
            raise ConfigurationError(message)
        raise RemoteStoreError(
            f"result server {self.url} answered {status}: {message}"
        )

    def _json(
        self,
        method: str,
        path: str,
        document: Optional[Dict[str, Any]] = None,
        key: str = "",
    ) -> Dict[str, Any]:
        body = (
            None
            if document is None
            else json.dumps(document, sort_keys=True).encode("utf-8")
        )
        status, _, payload = self._request(method, path, body=body)
        if status != 200:
            self._raise_for(status, payload, key)
        try:
            parsed = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise RemoteStoreError(
                f"result server {self.url} answered undecodable JSON: {error}"
            ) from error
        if not isinstance(parsed, dict):
            raise RemoteStoreError(
                f"result server {self.url} answered a non-object document"
            )
        return parsed

    # ------------------------------------------------------------------ #
    def contains(self, key: str) -> bool:
        status, _, payload = self._request("HEAD", f"/objects/{key}")
        if status == 200:
            return True
        if status == 404:
            return False
        self._raise_for(status, payload, key)
        raise AssertionError("unreachable")

    def put(
        self,
        key: str,
        value: Any,
        metadata: Optional[Dict[str, Any]] = None,
        kind: Optional[str] = None,
    ) -> str:
        payload_kind, _, payload = encode_payload(value)
        headers = {
            "Content-Type": "application/octet-stream",
            KIND_HEADER: payload_kind,
            SHA_HEADER: hashlib.sha256(payload).hexdigest(),
        }
        if metadata:
            headers[METADATA_HEADER] = json.dumps(metadata, sort_keys=True)
        if kind:
            headers[LABEL_HEADER] = kind
        status, _, answer = self._request(
            "PUT", f"/objects/{key}", body=payload, headers=headers
        )
        if status != 200:
            self._raise_for(status, answer, key)
        return key

    def get(self, key: str) -> Any:
        status, headers, payload = self._request("GET", f"/objects/{key}")
        if status != 200:
            self._raise_for(status, payload, key)
        for header in (KIND_HEADER, SHA_HEADER):
            if not headers.get(header):
                raise RemoteStoreError(
                    f"result server {self.url} sent no {header} for {key}"
                )
        declared = headers[SHA_HEADER]
        digest = hashlib.sha256(payload).hexdigest()
        if digest != declared:
            raise StoreIntegrityError(
                f"store entry {key} failed transfer verification: payload "
                f"sha256 {digest} != declared {declared}"
            )
        try:
            return decode_payload(headers[KIND_HEADER], payload)
        except ConfigurationError:
            raise
        except Exception as error:
            raise StoreIntegrityError(
                f"store entry {key} could not be decoded: {error}"
            ) from error

    def quarantine_entry(self, key: str, reason: str) -> bool:
        return bool(
            self._json(
                "POST", f"/quarantine/{key}", {"reason": reason}, key=key
            ).get("quarantined")
        )

    def health(self) -> bool:
        """``True`` when the server answers ``GET /health``."""
        try:
            return self._json("GET", "/health").get("status") == "ok"
        except (RemoteStoreError, ReproError):
            return False

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RemoteResultStore(url={self.url!r})"
