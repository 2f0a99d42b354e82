"""The HTTP result server and its iteration-checkpoint client, end to end.

Every test runs against a real :class:`ResultServer` on a loopback
socket — the same threaded server ``campaign serve`` starts — so the
wire protocol, both-end sha256 verification, error mapping and the
narrowness of the route table are exercised for real, not mocked.
"""

import gzip
import hashlib
import json
import socket
import statistics
import threading
import time

import numpy as np
import pytest

from repro.distributed import RemoteResultStore, ResultServer
from repro.distributed import server as server_module
from repro.distributed.remote_store import RemoteStoreError
from repro.distributed.server import KIND_HEADER, METADATA_HEADER, SHA_HEADER
from repro.exceptions import ConfigurationError
from repro.simulation.results import FrameStatisticsColumns, StepColumns
from repro.simulation.sweep import SweepResult
from repro.store import ResultStore, StoreIntegrityError, StoreSweepCheckpoint
from repro.store.codecs import encode_payload


def key_of(label):
    return hashlib.sha256(label.encode("utf-8")).hexdigest()


def make_sweep():
    return SweepResult(
        parameter_name="l",
        rows=[{"l": 256.0, "r100": 1.2000000000000002}, {"l": 1024.0, "r100": 1.25}],
    )


def make_step_columns():
    return StepColumns(
        connected=np.array([True, False, True]),
        largest_component=np.array([9, 4, 9]),
    )


def make_frame_columns():
    return FrameStatisticsColumns(
        node_count=9,
        critical_ranges=np.array([1.5, 2.25]),
        curve_offsets=np.array([0, 2, 3]),
        curve_ranges=np.array([0.5, 1.5, 2.25]),
        curve_sizes=np.array([4, 9, 9]),
    )


@pytest.fixture
def served(tmp_path):
    store = ResultStore(tmp_path / "store")
    with ResultServer(store) as server:
        yield store, RemoteResultStore(server.url)


class TestRoundTrips:
    @pytest.mark.parametrize(
        "value",
        [make_sweep(), make_step_columns(), make_frame_columns(), {"l": 1.0, "r": 2.5}],
        ids=["sweep", "steps", "frames", "row"],
    )
    def test_all_codec_kinds_round_trip(self, served, value):
        _, remote = served
        key = key_of("round-trip")
        assert not remote.contains(key)
        remote.put(key, value, metadata={"campaign": "t"}, kind="sweep")
        assert remote.contains(key)
        fetched = remote.get(key)
        if isinstance(value, SweepResult):
            assert fetched.rows == value.rows
            assert fetched.parameter_name == value.parameter_name
        else:
            assert fetched == value

    def test_remote_put_is_bit_identical_to_local_put(self, served, tmp_path):
        # The acceptance bar: an entry written over HTTP must be the
        # entry a local put would have produced — same payload digest.
        local, remote = served
        reference = ResultStore(tmp_path / "reference")
        key = key_of("identical")
        remote.put(key, make_sweep())
        reference.put(key, make_sweep())
        assert (
            local.entry(key)["payload_sha256"]
            == reference.entry(key)["payload_sha256"]
        )

    def test_missing_key_raises_keyerror(self, served):
        _, remote = served
        with pytest.raises(KeyError):
            remote.get(key_of("missing"))
        assert not remote.contains(key_of("missing"))
        assert not remote.quarantine_entry(key_of("missing"), reason="absent")

    def test_malformed_key_raises_configuration_error(self, served):
        _, remote = served
        with pytest.raises(ConfigurationError):
            remote.get("not-hex-at-all")

    def test_bad_url_rejected_and_dead_server_unreachable(self, tmp_path):
        with pytest.raises(ConfigurationError):
            RemoteResultStore("ftp://nope")
        store = ResultStore(tmp_path / "store")
        server = ResultServer(store).start()
        url = server.url
        server.stop()
        dead = RemoteResultStore(url, timeout=2.0)
        with pytest.raises(RemoteStoreError):
            dead.get(key_of("gone"))
        assert not dead.health()

    def test_mid_response_disconnect_maps_to_remote_store_error(self):
        # A server that accepts the connection and slams it shut without
        # answering reproduces the shutdown race: urllib leaves that as a
        # raw RemoteDisconnected/ConnectionResetError rather than a
        # URLError, and the client must still map it to RemoteStoreError
        # (run_worker treats post-contact RemoteStoreError as "server
        # gone, exit cleanly").
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def slam():
            connection, _ = listener.accept()
            connection.close()

        thread = threading.Thread(target=slam, daemon=True)
        thread.start()
        try:
            flaky = RemoteResultStore(f"http://127.0.0.1:{port}", timeout=5.0)
            with pytest.raises(RemoteStoreError):
                flaky.contains(key_of("slammed"))
            thread.join(timeout=5.0)
        finally:
            listener.close()


class TestServerLifecycle:
    def test_stop_does_not_wait_out_the_stdlib_poll(self, tmp_path):
        """A serving server stops promptly: ``stop()`` waits for the next
        shutdown check of ``serve_forever``, which must not be the stdlib's
        0.5 s poll (it sat inside every ``campaign serve`` wall)."""
        store = ResultStore(tmp_path / "store")
        cycles = []
        for _ in range(5):
            started = time.perf_counter()
            server = ResultServer(store).start()
            assert RemoteResultStore(server.url).health()
            server.stop()
            cycles.append(time.perf_counter() - started)
        assert statistics.median(cycles) < 0.2, cycles


class TestIntegrity:
    def test_server_rejects_corrupted_upload(self, served):
        # Declare one digest, send different bytes: the server must
        # recompute, answer 422, and leave no entry behind.
        local, remote = served
        key = key_of("transit")
        payload = json.dumps({"schema_version": 1, "row": {"l": 1.0}}).encode()
        status, _, _ = remote._request(
            "PUT",
            f"/objects/{key}",
            body=payload,
            headers={
                KIND_HEADER: "sweep-row",
                SHA_HEADER: hashlib.sha256(b"other bytes").hexdigest(),
            },
        )
        assert status == 422
        assert not local.contains(key)

    def test_client_verifies_downloaded_digest(self, served):
        # Corrupt the payload on disk *without* touching the header —
        # the server streams the damaged bytes with the original digest
        # sideband and the client's own verification catches it.
        local, remote = served
        key = key_of("disk-corrupt")
        remote.put(key, {"l": 1.0, "r": 2.0})
        entry = local.entry(key)
        payload_path = (
            local.root / "objects" / key[:2] / key / entry["payload_file"]
        )
        payload_path.write_bytes(b"garbage")
        with pytest.raises(StoreIntegrityError):
            remote.get(key)

    def test_upload_without_kind_header_rejected(self, served):
        _, remote = served
        status, _, _ = remote._request(
            "PUT", f"/objects/{key_of('kindless')}", body=b"x", headers={}
        )
        assert status == 400

    def test_upload_without_digest_header_rejected(self, served):
        local, remote = served
        key = key_of("digestless")
        kind, _, payload = encode_payload({"l": 1.0})
        status, _, answer = remote._request(
            "PUT", f"/objects/{key}", body=payload, headers={KIND_HEADER: kind}
        )
        assert status == 400
        assert SHA_HEADER in json.loads(answer)["error"]
        assert not local.contains(key)

    def test_client_rejects_download_without_digest_header(
        self, served, monkeypatch
    ):
        _, remote = served
        key = key_of("unsigned-reply")
        remote.put(key, {"l": 1.0})
        reply = server_module._Handler._reply

        def unsigned(handler, status, payload, content_type="application/json",
                     headers=None, head_only=False):
            headers = {
                name: value
                for name, value in (headers or {}).items()
                if name != SHA_HEADER
            }
            reply(handler, status, payload, content_type, headers, head_only)

        monkeypatch.setattr(server_module._Handler, "_reply", unsigned)
        with pytest.raises(RemoteStoreError, match=SHA_HEADER):
            remote.get(key)

    @pytest.mark.parametrize(
        "metadata", ["[1]", "3", '"c"', "null"],
        ids=["list", "number", "string", "null"],
    )
    def test_metadata_must_be_a_json_object(self, served, metadata):
        # The store keeps metadata verbatim; `campaign gc --campaign`
        # reads it as a mapping, so one planted list would break gc for
        # the whole store.
        local, remote = served
        key = key_of("planted-metadata")
        kind, _, payload = encode_payload({"l": 1.0})
        status, _, answer = remote._request(
            "PUT",
            f"/objects/{key}",
            body=payload,
            headers={
                KIND_HEADER: kind,
                SHA_HEADER: hashlib.sha256(payload).hexdigest(),
                METADATA_HEADER: metadata,
            },
        )
        assert status == 400
        assert METADATA_HEADER in json.loads(answer)["error"]
        assert not local.contains(key)
        remote.put(key_of("stamped"), {"l": 2.0}, metadata={"campaign": "c"})
        assert local.gc(campaign="c", dry_run=True).scanned == 1


class TestStoreSurface:
    def test_quarantine_round_trip(self, served):
        # The client only POSTs; the quarantine itself is read where it
        # lives, on the serving host's local store.
        local, remote = served
        key = key_of("quarantine")
        remote.put(key, {"l": 1.0})
        assert remote.quarantine_entry(key, reason="checksum mismatch")
        assert not remote.contains(key)
        assert local.quarantined_entries() == [key]
        assert local.entry_provenance(key)["reason"] == "checksum mismatch"
        assert not remote.quarantine_entry(key_of("other"), reason="absent")

    def test_checkpoint_writes_through_remote_store(self, served, tmp_path):
        # The distributed worker path: a StoreSweepCheckpoint bound to
        # the remote store must land rows a *local* checkpoint over the
        # same payload can read back — and bit-identically so.
        local, remote = served
        payload = {"experiment": "fig2", "scale": "smoke", "seed": 1}
        remote_checkpoint = StoreSweepCheckpoint(remote, payload)
        row = {"l": 256.0, "r100": 1.2000000000000002}
        remote_checkpoint.save(256.0, row)

        local_checkpoint = StoreSweepCheckpoint(local, payload)
        assert local_checkpoint.load(256.0) == row
        key = local_checkpoint.key_for(256.0)
        assert key == remote_checkpoint.key_for(256.0)

        reference_store = ResultStore(tmp_path / "reference")
        StoreSweepCheckpoint(reference_store, payload).save(256.0, row)
        assert (
            local.entry(key)["payload_sha256"]
            == reference_store.entry(key)["payload_sha256"]
        )


#: Every store-maintenance route the server used to offer, with a body
#: that would have done damage.  ``{entry}``, ``{poison}`` and
#: ``{quarantined}`` name the seeded keys.
REMOVED_ROUTES = {
    "delete-object": ("DELETE", "/objects/{entry}", None),
    "entry": ("GET", "/entry/{entry}", None),
    "keys": ("GET", "/keys", None),
    "size": ("GET", "/size", None),
    "gc": ("POST", "/gc", {"max_bytes": 0}),
    "poison-list": ("GET", "/poison", None),
    "poison-get": ("GET", "/poison/{poison}", None),
    "poison-put": ("PUT", "/poison/{entry}", {"error": "planted"}),
    "poison-delete": ("DELETE", "/poison/{poison}", None),
    "quarantine-list": ("GET", "/quarantine", None),
    "quarantine-get": ("GET", "/quarantine/{quarantined}", None),
    "quarantine-delete": ("DELETE", "/quarantine/{quarantined}", None),
    "quarantine-clear": ("POST", "/quarantine-clear", None),
    "staging-clear": ("POST", "/staging/clear", {"older_than": 0.0}),
    "staging-sweep": ("POST", "/staging/sweep", None),
}


@pytest.fixture
def seeded(served):
    """A served store holding an entry, a poison record, a quarantined
    copy and a dead writer's staging directory."""
    local, remote = served
    keys = {
        "entry": key_of("live"),
        "poison": key_of("poisoned"),
        "quarantined": key_of("damaged"),
    }
    local.put(keys["entry"], {"l": 1.0}, metadata={"campaign": "c"})
    local.record_poison(keys["poison"], {"error": "boom"})
    local.put(keys["quarantined"], {"l": 2.0})
    local.quarantine_entry(keys["quarantined"], reason="seeded")
    (local.root / "staging" / "424242-deadbeef").mkdir(parents=True)
    return local, remote, keys


def store_snapshot(store):
    """What a maintenance verb could change: entries, poison, quarantine,
    staging."""
    return (
        {key: store.entry(key)["payload_sha256"] for key in store.keys()},
        store.poison_keys(),
        store.quarantined_entries(),
        sorted(path.name for path in (store.root / "staging").iterdir()),
    )


class TestNarrowedWire:
    @pytest.mark.parametrize("route", list(REMOVED_ROUTES))
    def test_removed_route_answers_404_and_changes_nothing(self, seeded, route):
        local, remote, keys = seeded
        method, path, document = REMOVED_ROUTES[route]
        before = store_snapshot(local)
        status, _, answer = remote._request(
            method,
            path.format(**keys),
            body=None if document is None else json.dumps(document).encode(),
        )
        assert status == 404
        assert json.loads(answer)["error"].startswith("no route")
        assert store_snapshot(local) == before

    def test_gzip_upload_is_refused_unwritten(self, served):
        local, remote = served
        key = key_of("gzipped-upload")
        kind, _, payload = encode_payload({"rows": [{"l": 256.0}] * 400})
        status, _, answer = remote._request(
            "PUT",
            f"/objects/{key}",
            body=gzip.compress(payload),
            headers={
                KIND_HEADER: kind,
                SHA_HEADER: hashlib.sha256(payload).hexdigest(),
                "Content-Encoding": "gzip",
            },
        )
        assert status == 400
        assert "Content-Encoding" in json.loads(answer)["error"]
        assert not local.contains(key)

    def test_download_is_identity_even_when_gzip_is_accepted(self, served):
        _, remote = served
        key = key_of("compressible")
        value = {"rows": [{"l": 256.0, "r100": 1.25}] * 400}
        kind, _, payload = encode_payload(value)
        assert len(payload) >= 1024
        remote.put(key, value)
        status, headers, body = remote._request(
            "GET", f"/objects/{key}", headers={"Accept-Encoding": "gzip"}
        )
        assert status == 200
        assert "Content-Encoding" not in headers
        assert body == payload
        assert headers[SHA_HEADER] == hashlib.sha256(body).hexdigest()

    def test_client_offers_only_the_checkpoint_verbs(self):
        public = {name for name in dir(RemoteResultStore) if not name.startswith("_")}
        assert public == {"contains", "get", "put", "quarantine_entry", "health"}
