"""The HTTP result server and its store-shaped client, end to end.

Every test runs against a real :class:`ResultServer` on a loopback
socket — the same threaded server ``campaign serve`` starts — so the
wire protocol, both-end sha256 verification and error mapping are
exercised for real, not mocked.
"""

import hashlib
import json
import socket
import statistics
import threading
import time

import numpy as np
import pytest

from repro.distributed import RemoteResultStore, ResultServer
from repro.distributed.remote_store import RemoteStoreError
from repro.distributed.server import KIND_HEADER, LABEL_HEADER, SHA_HEADER
from repro.exceptions import ConfigurationError
from repro.simulation.results import FrameStatisticsColumns, StepColumns
from repro.simulation.sweep import SweepResult
from repro.store import ResultStore, StoreIntegrityError, StoreSweepCheckpoint


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

    def test_remote_entry_matches_local_entry(self, served):
        local, remote = served
        key = key_of("entry")
        remote.put(key, {"l": 1.0}, metadata={"who": "remote"}, kind="sweep-row")
        assert remote.entry(key) == local.entry(key)
        assert remote.entry(key)["metadata"] == {"who": "remote"}
        assert remote.entry(key)["kind"] == "sweep-row"

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

    def test_keys_len_size_evict(self, served):
        local, remote = served
        first, second = key_of("one"), key_of("two")
        remote.put(first, {"l": 1.0})
        remote.put(second, {"l": 2.0})
        assert sorted(remote.keys()) == sorted(local.keys())
        assert len(remote) == 2
        assert remote.size_bytes() == local.size_bytes() > 0
        assert remote.evict(first)
        assert not remote.evict(first)
        assert len(remote) == 1

    def test_missing_key_raises_keyerror(self, served):
        _, remote = served
        with pytest.raises(KeyError):
            remote.get(key_of("missing"))
        with pytest.raises(KeyError):
            remote.entry(key_of("missing"))

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
                len(flaky)
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


class TestStoreSurface:
    def test_poison_records_round_trip(self, served):
        local, remote = served
        key = key_of("poison")
        remote.record_poison(key, {"error": "boom", "attempts": 3})
        assert remote.poison_keys() == [key]
        record = remote.poison(key)
        assert record["error"] == "boom" and record["attempts"] == 3
        assert local.poison(key) == record  # verbatim server-side record
        assert remote.clear_poison(key)
        assert remote.poison(key) is None

    def test_quarantine_round_trip(self, served):
        local, remote = served
        key = key_of("quarantine")
        remote.put(key, {"l": 1.0})
        assert remote.quarantine_entry(key, reason="checksum mismatch")
        assert remote.quarantined_entries() == [key]
        provenance = remote.entry_provenance(key)
        assert provenance["reason"] == "checksum mismatch"
        assert remote.entry_provenance(key_of("other")) is None
        assert remote.clear_quarantine() == 1
        assert remote.quarantined_entries() == []

    def test_gc_round_trip(self, served):
        local, remote = served
        remote.put(key_of("gc-a"), {"l": 1.0})
        remote.put(key_of("gc-b"), {"l": 2.0})
        report = remote.gc(max_bytes=0, now=1e12)
        assert report.scanned == 2
        assert report.evicted == 2
        assert report.remaining_bytes == 0
        assert len(remote) == 0

    def test_staging_hygiene_passthrough(self, served):
        local, remote = served
        staging = local.root / "staging" / "424242-deadbeef"
        staging.mkdir(parents=True)
        assert remote.sweep_dead_staging() == 1
        assert remote.clear_staging(older_than=0.0) == 0

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
