"""The keep-alive transport between the result server and its clients.

Every test runs a real :class:`ResultServer` on a loopback socket and
counts the TCP connections it accepts, so connection reuse, the single
stale-connection retry, per-thread and per-process isolation, long-poll
leases and the server's connection hygiene are observed on the wire
rather than inferred from the client's internals.
"""

import hashlib
import http.client
import json
import multiprocessing
import socket
import statistics
import struct
import threading
import time

import pytest

from repro.distributed import QueueClient, RemoteResultStore, ResultServer, WorkQueue
from repro.distributed import server as server_module
from repro.distributed.queue import IDLE_POLL_SECONDS
from repro.distributed.remote_store import RemoteStoreError
from repro.store import ResultStore
from repro.supervision import RetryPolicy


def key_of(label):
    return hashlib.sha256(label.encode("utf-8")).hexdigest()


@pytest.fixture
def accepted(monkeypatch):
    """Client addresses of every connection a result server accepts."""
    addresses = []
    original = server_module._Server.get_request

    def counting(self):
        request, address = original(self)
        addresses.append(address)
        return request, address

    monkeypatch.setattr(server_module._Server, "get_request", counting)
    return addresses


@pytest.fixture
def server(tmp_path, accepted):
    with ResultServer(ResultStore(tmp_path / "store")) as running:
        yield running


@pytest.fixture
def queue_server(tmp_path, accepted):
    """A server fronting an unsealed, empty queue: every lease is held."""
    work_queue = WorkQueue(RetryPolicy())
    with ResultServer(ResultStore(tmp_path / "store"), work_queue) as running:
        yield running


def address_of(server):
    host, port = server.url.rsplit("//", 1)[1].split(":")
    return host, int(port)


def _child_round_trip(url):
    # Runs in a forked child holding a copy of its parent's pool.
    raise SystemExit(0 if RemoteResultStore(url).health() else 1)


class TestConnectionReuse:
    def test_sequential_requests_share_one_connection(self, server, accepted):
        remote = RemoteResultStore(server.url)
        key = key_of("reuse")
        remote.put(key, {"l": 1.0})
        for _ in range(10):
            assert remote.get(key) == {"l": 1.0}
            assert remote.contains(key)
        # Another client of the same server, with another timeout, in
        # the same thread rides the same connection.
        assert RemoteResultStore(server.url, timeout=5.0).health()
        assert len(accepted) == 1

    def test_threads_get_separate_connections(self, server, accepted):
        remote = RemoteResultStore(server.url)
        for _ in range(2):
            thread = threading.Thread(
                target=lambda: [remote.health() for _ in range(3)]
            )
            thread.start()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert len(accepted) == 2
        assert accepted[0] != accepted[1]

    def test_forked_child_opens_its_own_connection(self, server, accepted):
        remote = RemoteResultStore(server.url)
        assert remote.health()
        child = multiprocessing.get_context("fork").Process(
            target=_child_round_trip, args=(server.url,)
        )
        child.start()
        child.join(timeout=30.0)
        assert not child.is_alive()
        assert child.exitcode == 0
        assert len(accepted) == 2
        # The child closed only its copy: the parent's connection lives.
        assert remote.health()
        assert len(accepted) == 2


class TestStaleConnections:
    def test_idle_closed_connection_is_retried_on_a_fresh_one(
        self, server, accepted, monkeypatch
    ):
        monkeypatch.setattr(server_module._Handler, "timeout", 0.2)
        remote = RemoteResultStore(server.url)
        key = key_of("stale")
        remote.put(key, {"l": 1.0})
        time.sleep(0.5)  # the server closes the idle connection
        assert remote.get(key) == {"l": 1.0}  # GET
        time.sleep(0.5)
        assert not remote.quarantine_entry(key_of("absent"), reason="stale")  # POST
        time.sleep(0.5)
        remote.put(key_of("stale-put"), {"l": 2.0})  # PUT with a body
        assert len(accepted) == 4

    def test_fresh_connection_failure_is_not_retried(self):
        # A listener that accepts and slams every connection: a request
        # on a fresh connection fails once, with no second connection.
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        slammed = []

        def slam():
            while True:
                try:
                    connection, _ = listener.accept()
                except OSError:
                    return
                slammed.append(1)
                connection.close()

        thread = threading.Thread(target=slam, daemon=True)
        thread.start()
        try:
            with pytest.raises(RemoteStoreError):
                RemoteResultStore(
                    f"http://127.0.0.1:{port}", timeout=5.0
                ).contains(key_of("slammed"))
            assert len(slammed) == 1
        finally:
            listener.shutdown(socket.SHUT_RDWR)  # wakes the accept()
            listener.close()
            thread.join(timeout=5.0)


class TestTimeouts:
    def test_each_request_honours_its_own_clients_timeout(
        self, queue_server, accepted
    ):
        patient = QueueClient(queue_server.url, timeout=5.0)
        hasty = QueueClient(queue_server.url, timeout=0.1)

        started = time.monotonic()
        assert patient.lease("w")["status"] == "wait"  # a full hold
        assert time.monotonic() - started >= IDLE_POLL_SECONDS * 0.9

        # The pooled connection is shared, but not its timeout.
        started = time.monotonic()
        with pytest.raises(RemoteStoreError):
            hasty.lease("w")
        assert time.monotonic() - started < IDLE_POLL_SECONDS * 0.9
        assert len(accepted) == 1

        assert patient.lease("w") == {"status": "wait", "retry_after": 0.0}
        assert len(accepted) == 2  # the timed-out connection was dropped

    def test_server_holds_a_lease_no_longer_than_the_idle_poll(self, queue_server):
        client = QueueClient(queue_server.url, timeout=5.0)
        started = time.monotonic()
        answer = client.lease("w")
        elapsed = time.monotonic() - started
        assert answer == {"status": "wait", "retry_after": 0.0}
        assert IDLE_POLL_SECONDS * 0.9 <= elapsed < IDLE_POLL_SECONDS + 0.25

    def test_nagle_does_not_delay_keep_alive_replies(self, server):
        # Headers and body leave in two writes; with Nagle on, the second
        # waits for the client's delayed ACK (about 40 ms on Linux).
        remote = RemoteResultStore(server.url)
        durations = []
        for _ in range(20):
            started = time.perf_counter()
            assert remote.health()
            durations.append(time.perf_counter() - started)
        assert statistics.median(durations) < 0.020, durations


class TestStop:
    def test_stop_fails_the_next_request_promptly(self, tmp_path):
        server = ResultServer(ResultStore(tmp_path / "store")).start()
        remote = RemoteResultStore(server.url, timeout=5.0)
        assert remote.health()
        server.stop()
        started = time.monotonic()
        with pytest.raises(RemoteStoreError):
            remote.contains(key_of("gone"))
        assert time.monotonic() - started < 1.0

    def test_stop_refuses_clients_of_an_inherited_listener(self, tmp_path):
        # A process forked after the bind holds a copy of the listening
        # socket; stop() must still refuse new connections at once
        # instead of leaving them to queue in a backlog nobody serves.
        server = ResultServer(ResultStore(tmp_path / "store")).start()
        holder = multiprocessing.get_context("fork").Process(
            target=time.sleep, args=(30.0,)
        )
        holder.start()
        try:
            server.stop()
            started = time.monotonic()
            assert not RemoteResultStore(server.url, timeout=5.0).health()
            assert time.monotonic() - started < 1.0
        finally:
            holder.kill()
            holder.join(timeout=5.0)


class TestServerHygiene:
    def test_unread_body_does_not_leak_into_the_next_request(
        self, server, accepted
    ):
        connection = http.client.HTTPConnection(*address_of(server), timeout=5.0)
        try:
            # A store-only server 404s a queue verb before parsing its
            # JSON body; an unread body would parse as the next request.
            connection.request(
                "POST", "/queue/lease", body=json.dumps({"worker": "w" * 64})
            )
            response = connection.getresponse()
            assert response.status == 404
            response.read()
            connection.request("POST", "/no/such/route", body=b"x" * 4096)
            response = connection.getresponse()
            assert response.status == 404
            response.read()
            connection.request("GET", "/health")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read()) == {"status": "ok"}
        finally:
            connection.close()
        assert len(accepted) == 1

    @pytest.mark.parametrize("length", ["banana", "-5"])
    def test_unknown_body_length_is_refused_and_closed(self, server, length):
        connection = http.client.HTTPConnection(*address_of(server), timeout=5.0)
        try:
            connection.putrequest("POST", "/gc")
            connection.putheader("Content-Length", length)
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert response.will_close
            response.read()
        finally:
            connection.close()

    @pytest.mark.parametrize("length", [2**40, 2**30])
    def test_oversized_body_is_refused_unread_and_closed(
        self, server, accepted, length
    ):
        with socket.create_connection(address_of(server), timeout=5.0) as raw:
            started = time.monotonic()
            raw.sendall(
                f"PUT /entries/{key_of('huge')} HTTP/1.1\r\n"
                f"Host: x\r\nContent-Length: {length}\r\n\r\n".encode("ascii")
            )
            raw.settimeout(1.0)
            reply = b""
            while True:
                chunk = raw.recv(4096)
                if not chunk:
                    break  # the server closed the connection
                reply += chunk
            assert time.monotonic() - started < 1.0
        head = reply.split(b"\r\n\r\n", 1)[0].decode("ascii")
        assert head.startswith("HTTP/1.1 413")
        assert "Connection: close" in head
        # A normal PUT on a new connection still succeeds.
        remote = RemoteResultStore(server.url)
        remote.put(key_of("small"), {"l": 1.0})
        assert remote.get(key_of("small")) == {"l": 1.0}
        assert len(accepted) == 2

    @pytest.mark.parametrize(
        "method, path",
        [
            ("PUT", f"/objects/{key_of('huge')}"),
            ("PUT", f"/poison/{key_of('huge')}"),
            ("POST", f"/quarantine/{key_of('huge')}"),
            ("POST", "/gc"),
            ("POST", "/staging/clear"),
            ("POST", "/queue/lease"),
            ("POST", "/no/such/route"),
        ],
        ids=["object", "poison", "quarantine", "gc", "staging", "lease", "unrouted"],
    )
    def test_oversized_body_is_refused_before_routing(self, server, method, path):
        # The length check precedes routing: no route, not even an unknown
        # one, gets to look at (or wait for) an oversized body.
        length = server_module.MAX_BODY_BYTES + 1
        with socket.create_connection(address_of(server), timeout=5.0) as raw:
            raw.sendall(
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: x\r\nContent-Length: {length}\r\n\r\n".encode("ascii")
            )
            raw.settimeout(1.0)
            reply = b""
            while True:
                chunk = raw.recv(4096)
                if not chunk:
                    break
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413")
        assert str(server_module.MAX_BODY_BYTES) in json.loads(body)["error"]

    @pytest.mark.parametrize(
        "extra, status", [(-1, 200), (0, 200), (1, 413)], ids=["below", "at", "above"]
    )
    def test_cap_is_inclusive(self, server, monkeypatch, extra, status):
        monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 1024)
        connection = http.client.HTTPConnection(*address_of(server), timeout=5.0)
        try:
            connection.request("GET", "/health", body=b" " * (1024 + extra))
            response = connection.getresponse()
            response.read()
            assert response.status == status
            assert response.will_close == (status == 413)
            if status == 200:
                # The whole body was consumed: the connection serves on.
                connection.request("GET", "/health")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read()) == {"status": "ok"}
        finally:
            connection.close()

    def test_idle_limit_is_above_the_heartbeat_period(self):
        assert server_module._Handler.timeout == server_module.IDLE_TIMEOUT
        default_lease = WorkQueue(RetryPolicy()).lease_seconds
        assert server_module.IDLE_TIMEOUT > default_lease / 3.0

    def test_silent_client_is_disconnected(self, server, monkeypatch):
        monkeypatch.setattr(server_module._Handler, "timeout", 0.2)
        with socket.create_connection(address_of(server), timeout=5.0) as silent:
            started = time.monotonic()
            assert silent.recv(1) == b""  # the server hung up on us
            assert time.monotonic() - started < 2.0

    def test_peer_resets_and_timeouts_print_no_traceback(
        self, queue_server, capsys
    ):
        # A client that resets its connection mid-request ...
        with socket.create_connection(address_of(queue_server)) as reset:
            reset.sendall(b"GET /hea")
            reset.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        # ... and one that gives up on a held lease before the reply.
        with pytest.raises(RemoteStoreError):
            QueueClient(queue_server.url, timeout=0.1).lease("w")
        time.sleep(IDLE_POLL_SECONDS + 0.2)  # the held reply hits a closed socket
        queue_server.stop()
        assert "Traceback" not in capsys.readouterr().err
