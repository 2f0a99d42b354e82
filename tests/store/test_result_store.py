"""Tests for repro.store: codecs, the result store, and checkpoints."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.simulation.results import FrameStatisticsColumns, StepColumns
from repro.simulation.sweep import SweepResult
from repro.store import (
    ResultStore,
    StoreIntegrityError,
    StoreSweepCheckpoint,
    cache_key,
    decode_payload,
    detect_kind,
    encode_payload,
)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


def make_sweep():
    return SweepResult(
        parameter_name="l",
        rows=[
            {"l": 256.0, "r100": 1.2000000000000002, "r90": 0.8},
            {"l": 1024.0, "r100": 1.25},
        ],
    )


def make_step_columns():
    return StepColumns(
        connected=np.array([True, False, True, True, False]),
        largest_component=np.array([9, 4, 9, 9, 3]),
    )


def make_frame_columns():
    return FrameStatisticsColumns(
        node_count=9,
        critical_ranges=np.array([1.5, 2.25, 0.75]),
        curve_offsets=np.array([0, 2, 4, 5]),
        curve_ranges=np.array([0.5, 1.5, 1.0, 2.25, 0.75]),
        curve_sizes=np.array([4, 9, 3, 9, 9]),
    )


class TestCodecs:
    def test_detect_kind(self):
        assert detect_kind(make_sweep()) == "sweep"
        assert detect_kind(make_step_columns()) == "step_columns"
        assert detect_kind(make_frame_columns()) == "frame_statistics"
        assert detect_kind({"l": 1.0}) == "sweep-row"
        with pytest.raises(ConfigurationError):
            detect_kind([1, 2, 3])

    @pytest.mark.parametrize(
        "value",
        [make_sweep(), make_step_columns(), make_frame_columns(), {"l": 1.0, "r": 2.5}],
        ids=["sweep", "steps", "frames", "row"],
    )
    def test_round_trip(self, value):
        kind, filename, payload = encode_payload(value)
        decoded = decode_payload(kind, payload)
        if isinstance(value, SweepResult):
            assert decoded.parameter_name == value.parameter_name
            assert decoded.rows == value.rows
        else:
            assert decoded == value

    def test_round_trip_restores_exact_dtypes(self):
        columns = make_frame_columns()
        kind, _, payload = encode_payload(columns)
        decoded = decode_payload(kind, payload)
        assert decoded.critical_ranges.dtype == np.float64
        assert decoded.curve_offsets.dtype == np.int64
        assert decoded.curve_sizes.dtype == np.int64
        assert np.array_equal(decoded.critical_ranges, columns.critical_ranges)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            decode_payload("no-such-kind", b"{}")


class TestResultStore:
    def test_put_get_contains_evict(self, store):
        key = cache_key("sweep", {"x": 1})
        assert not store.contains(key)
        with pytest.raises(KeyError):
            store.get(key)
        store.put(key, make_sweep())
        assert store.contains(key)
        loaded = store.get(key)
        assert loaded.rows == make_sweep().rows
        assert store.evict(key)
        assert not store.contains(key)
        assert not store.evict(key)

    def test_all_artifact_kinds_round_trip(self, store):
        pairs = [
            (cache_key("sweep", {"k": 1}), make_sweep()),
            (cache_key("steps", {"k": 2}), make_step_columns()),
            (cache_key("frames", {"k": 3}), make_frame_columns()),
            (cache_key("sweep-row", {"k": 4}), {"l": 256.0, "r100": 1.2}),
        ]
        for key, value in pairs:
            store.put(key, value)
        assert len(store) == len(pairs)
        assert sorted(store.keys()) == sorted(key for key, _ in pairs)
        loaded = store.get(pairs[1][0])
        assert loaded == pairs[1][1]

    def test_put_is_idempotent(self, store):
        key = cache_key("sweep", {"x": 1})
        store.put(key, make_sweep())
        store.put(key, make_sweep())
        assert len(store) == 1

    def test_malformed_key_rejected(self, store):
        with pytest.raises(ConfigurationError):
            store.contains("NOT-A-HEX-KEY")

    def test_corrupted_payload_detected(self, store, tmp_path):
        key = cache_key("sweep", {"x": 1})
        store.put(key, make_sweep())
        payload = next((tmp_path / "store").rglob("data.json"))
        payload.write_text('{"tampered": true}')
        with pytest.raises(StoreIntegrityError):
            store.get(key)
        # contains() still reports the entry; eviction clears it.
        assert store.contains(key)
        store.evict(key)
        assert not store.contains(key)

    def test_missing_payload_detected(self, store, tmp_path):
        key = cache_key("sweep", {"x": 1})
        store.put(key, make_sweep())
        next((tmp_path / "store").rglob("data.json")).unlink()
        with pytest.raises(StoreIntegrityError):
            store.get(key)

    def test_unreadable_header_detected(self, store, tmp_path):
        key = cache_key("sweep", {"x": 1})
        store.put(key, make_sweep())
        next((tmp_path / "store").rglob("entry.json")).write_text("{not json")
        with pytest.raises(StoreIntegrityError):
            store.get(key)

    def test_no_partial_entries_left_behind(self, store, tmp_path):
        """A failed encode stages nothing permanent under objects/."""
        key = cache_key("sweep", {"x": 1})
        with pytest.raises(ConfigurationError):
            store.put(key, [1, 2, 3])  # no codec for lists
        assert not store.contains(key)
        assert len(store) == 0

    def test_staging_cleanup(self, store):
        store.put(cache_key("sweep", {"x": 1}), make_sweep())
        # Simulate a killed writer by planting a stale staging directory.
        stale = store.root / "staging" / "deadbeef"
        stale.mkdir(parents=True)
        (stale / "data.json").write_text("{}")
        assert store.clear_staging() == 1
        assert len(store) == 1

    def test_size_bytes(self, store):
        assert store.size_bytes() == 0
        store.put(cache_key("sweep", {"x": 1}), make_sweep())
        assert store.size_bytes() > 0

    def test_metadata_stored_in_entry(self, store):
        key = cache_key("sweep", {"x": 1})
        store.put(key, make_sweep(), metadata={"campaign": "demo"})
        assert store.entry(key)["metadata"]["campaign"] == "demo"

    def test_size_bytes_counts_only_objects(self, store):
        """Telemetry sinks and quarantine records never inflate the size.

        ``gc(max_bytes=)`` budgets against :meth:`size_bytes`; if the
        per-run telemetry JSONL under the same root counted, a quota pass
        would evict live entries to pay for trace files it cannot remove.
        """
        store.put(cache_key("sweep", {"x": 1}), make_sweep())
        objects_only = store.size_bytes()
        assert objects_only > 0
        run_dir = store.root / "telemetry" / "run-0001"
        run_dir.mkdir(parents=True)
        (run_dir / "trace.jsonl").write_text('{"span": "task"}\n' * 4096)
        (run_dir / "metrics.json").write_text("{}")
        store.record_poison(cache_key("sweep", {"x": 2}), {"error": "boom"})
        staging = store.root / "staging"
        staging.mkdir(exist_ok=True)
        (staging / "123-inflight").mkdir()
        (staging / "123-inflight" / "data.json").write_text("{}" * 1024)
        assert store.size_bytes() == objects_only
        # A budget of exactly the objects size therefore evicts nothing.
        report = store.gc(max_bytes=objects_only)
        assert report.evicted == 0
        assert store.size_bytes() == objects_only


class TestSweepDeadStaging:
    def _plant(self, store, name, age_seconds=0.0):
        import os
        import time

        staging = store.root / "staging"
        staging.mkdir(parents=True, exist_ok=True)
        path = staging / name
        path.mkdir()
        (path / "data.json").write_text("{}")
        if age_seconds:
            old = time.time() - age_seconds
            os.utime(path, (old, old))
        return path

    def test_dead_pid_swept_immediately(self, store, monkeypatch):
        from repro.store import result_store

        monkeypatch.setattr(result_store, "_pid_alive", lambda pid: False)
        planted = self._plant(store, "4242-deadwriter")
        assert store.sweep_dead_staging() == 1
        assert not planted.exists()

    def test_live_pid_with_fresh_dir_survives(self, store):
        import os

        planted = self._plant(store, f"{os.getpid()}-inflight")
        assert store.sweep_dead_staging() == 0
        assert planted.exists()

    def test_reused_pid_falls_back_to_age_rule(self, store, monkeypatch):
        """Regression: a recycled pid must not shield an orphan forever.

        ``_pid_alive`` answering ``True`` only proves *some* process owns
        the pid today — after reuse it is an unrelated one.  A staging
        dir older than the stale cutoff is an orphan regardless of what
        its recorded pid looks like.
        """
        from repro.store import result_store
        from repro.store.result_store import STALE_STAGING_SECONDS

        # Every pid looks alive: the crashed writer's pid was recycled by
        # an unrelated long-lived process.
        monkeypatch.setattr(result_store, "_pid_alive", lambda pid: True)
        orphan = self._plant(
            store, "4242-orphan", age_seconds=STALE_STAGING_SECONDS + 60
        )
        fresh = self._plant(store, "4242-fresh")
        assert store.sweep_dead_staging() == 1
        assert not orphan.exists()
        assert fresh.exists()

    def test_unprefixed_dirs_keep_the_age_rule(self, store):
        from repro.store.result_store import STALE_STAGING_SECONDS

        orphan = self._plant(
            store, "legacy", age_seconds=STALE_STAGING_SECONDS + 60
        )
        fresh = self._plant(store, "alsolegacy")
        assert store.sweep_dead_staging() == 1
        assert not orphan.exists()
        assert fresh.exists()


class TestStoreSweepCheckpoint:
    def test_save_then_load(self, store):
        checkpoint = StoreSweepCheckpoint(store, {"experiment": "fig2"})
        assert checkpoint.load(256.0) is None
        row = {"l": 256.0, "r100": 1.5}
        checkpoint.save(256.0, row)
        assert checkpoint.load(256.0) == row

    def test_keys_differ_per_value_and_payload(self, store):
        checkpoint = StoreSweepCheckpoint(store, {"experiment": "fig2"})
        other = StoreSweepCheckpoint(store, {"experiment": "fig3"})
        assert checkpoint.key_for(256.0) != checkpoint.key_for(1024.0)
        assert checkpoint.key_for(256.0) != other.key_for(256.0)

    def test_corrupt_row_is_a_miss_and_evicted(self, store, tmp_path):
        checkpoint = StoreSweepCheckpoint(store, {"experiment": "fig2"})
        checkpoint.save(256.0, {"l": 256.0, "r100": 1.5})
        next((tmp_path / "store").rglob("data.json")).write_text("junk")
        assert checkpoint.load(256.0) is None
        assert not store.contains(checkpoint.key_for(256.0))


class TestGc:
    def _fill(self, store, count, mtimes=None):
        """Write ``count`` sweep entries; optionally pin their mtimes."""
        import os

        keys = []
        for index in range(count):
            key = cache_key("sweep", {"gc": index})
            store.put(key, make_sweep())
            keys.append(key)
        if mtimes is not None:
            for key, mtime in zip(keys, mtimes):
                os.utime(store._entry_dir(key) / "entry.json", (mtime, mtime))
        return keys

    def test_no_bounds_reports_only(self, store):
        self._fill(store, 3)
        report = store.gc()
        assert report.scanned == 3
        assert report.evicted == 0
        assert report.remaining_bytes == store.size_bytes()

    def test_age_eviction(self, store):
        now = 10_000.0
        keys = self._fill(store, 3, mtimes=[now - 500, now - 50, now - 5])
        report = store.gc(max_age=100, now=now)
        assert report.evicted == 1
        assert not store.contains(keys[0])
        assert store.contains(keys[1]) and store.contains(keys[2])

    def test_lru_quota_eviction_drops_oldest_first(self, store):
        now = 10_000.0
        keys = self._fill(store, 4, mtimes=[now - 40, now - 30, now - 20, now - 10])
        sizes = {key: size for key, _, size in store._entry_stats()}
        budget = sizes[keys[2]] + sizes[keys[3]]
        report = store.gc(max_bytes=budget, now=now)
        assert report.evicted == 2
        assert not store.contains(keys[0]) and not store.contains(keys[1])
        assert store.contains(keys[2]) and store.contains(keys[3])
        assert report.remaining_bytes <= budget

    def test_get_refreshes_lru_position(self, store):
        import os

        now = 10_000.0
        keys = self._fill(store, 2, mtimes=[now - 100, now - 50])
        # Read the older entry: it becomes the most recently used.
        store.get(keys[0])
        stats = {key: mtime for key, mtime, _ in store._entry_stats()}
        assert stats[keys[0]] > stats[keys[1]]
        sizes = {key: size for key, _, size in store._entry_stats()}
        report = store.gc(max_bytes=sizes[keys[0]])
        assert report.evicted == 1
        assert store.contains(keys[0])  # survived thanks to the read
        assert not store.contains(keys[1])

    def test_gc_clears_stale_staging_but_spares_live_writers(self, store):
        import os
        import time

        from repro.store.result_store import STALE_STAGING_SECONDS

        self._fill(store, 1)
        staging = store.root / "staging"
        staging.mkdir(parents=True, exist_ok=True)
        (staging / "orphan").mkdir()
        old = time.time() - STALE_STAGING_SECONDS - 60
        os.utime(staging / "orphan", (old, old))
        (staging / "in-flight").mkdir()  # fresh: a live writer mid-put
        store.gc()
        assert not (staging / "orphan").exists()
        assert (staging / "in-flight").exists()
        # clean-style unconditional sweeps still remove everything.
        store.clear_staging()
        assert not list(staging.iterdir())

    def test_zero_byte_budget_empties_the_store(self, store):
        keys = self._fill(store, 3)
        report = store.gc(max_bytes=0)
        assert report.evicted == 3
        assert report.remaining_bytes == 0
        for key in keys:
            assert not store.contains(key)

    def test_rejects_negative_bounds(self, store):
        with pytest.raises(ConfigurationError):
            store.gc(max_bytes=-1)
        with pytest.raises(ConfigurationError):
            store.gc(max_age=-1)

    def test_dry_run_reports_but_does_not_evict(self, store):
        now = 10_000.0
        keys = self._fill(store, 3, mtimes=[now - 500, now - 50, now - 5])
        before = store.size_bytes()
        report = store.gc(max_age=100, now=now, dry_run=True)
        # The report predicts exactly what a real pass would do …
        assert report.scanned == 3
        assert report.evicted == 1
        assert report.freed_bytes > 0
        assert report.remaining_bytes == before - report.freed_bytes
        # … but every entry — and every byte — is still there.
        assert store.size_bytes() == before
        for key in keys:
            assert store.contains(key)
        real = store.gc(max_age=100, now=now)
        assert (real.evicted, real.freed_bytes) == (
            report.evicted,
            report.freed_bytes,
        )
        assert not store.contains(keys[0])

    def test_dry_run_spares_stale_staging(self, store):
        import os
        import time

        from repro.store.result_store import STALE_STAGING_SECONDS

        staging = store.root / "staging"
        staging.mkdir(parents=True, exist_ok=True)
        (staging / "orphan").mkdir()
        old = time.time() - STALE_STAGING_SECONDS - 60
        os.utime(staging / "orphan", (old, old))
        store.gc(dry_run=True)
        assert (staging / "orphan").exists()
        store.gc()
        assert not (staging / "orphan").exists()

    def _fill_campaign(self, store, name, count, offset=0):
        keys = []
        for index in range(count):
            key = cache_key("sweep", {"campaign-gc": name, "i": index + offset})
            store.put(key, make_sweep(), metadata={"campaign": name})
            keys.append(key)
        return keys

    def test_campaign_scope_only_touches_that_campaigns_entries(self, store):
        mine = self._fill_campaign(store, "fig2-smoke", 2)
        other = self._fill_campaign(store, "fig3-full", 2, offset=10)
        loose = self._fill(store, 1)  # no campaign metadata at all
        report = store.gc(max_bytes=0, campaign="fig2-smoke")
        assert report.scanned == 2
        assert report.evicted == 2
        for key in mine:
            assert not store.contains(key)
        for key in other + loose:
            assert store.contains(key)

    def test_campaign_scope_composes_with_dry_run(self, store):
        mine = self._fill_campaign(store, "fig2-smoke", 2)
        report = store.gc(max_bytes=0, campaign="fig2-smoke", dry_run=True)
        assert report.evicted == 2
        for key in mine:
            assert store.contains(key)

    def test_unknown_campaign_scans_nothing(self, store):
        self._fill(store, 2)
        report = store.gc(max_bytes=0, campaign="never-ran")
        assert report.scanned == 0
        assert report.evicted == 0
