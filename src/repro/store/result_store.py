"""The content-addressed on-disk result store.

Layout::

    <root>/
      objects/<key[:2]>/<key>/
        entry.json    # kind, schema_version, payload file name + sha256
        data.json|npz # the encoded artifact
      staging/        # in-flight writes, renamed into place atomically

Every entry directory is written in full under ``staging/`` and moved to
its final path with one :func:`os.replace` — a killed process can leave
stale staging directories (cleaned opportunistically) but never a
half-written entry.  Reads verify the recorded sha256 of the payload
before decoding; a mismatch raises :class:`StoreIntegrityError` so
callers can evict and recompute instead of consuming silent corruption.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import shutil
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, TypeVar, Union

from repro import faults, telemetry
from repro.exceptions import ConfigurationError, ReproError
from repro.store.codecs import SCHEMA_VERSION, decode_payload, encode_payload

PathLike = Union[str, Path]
T = TypeVar("T")

_ENTRY_FILE = "entry.json"
_PROVENANCE_FILE = "provenance.json"

#: Staging directories older than this are certainly orphans of killed
#: writers (a live write stages and renames within seconds); :meth:`
#: ResultStore.gc` only sweeps past this age so it is safe to run
#: against a store a campaign is actively writing to.
STALE_STAGING_SECONDS = 15 * 60

#: Errnos worth retrying in place: the write target is healthy but the
#: operation hiccuped (a device-level I/O blip, an interrupted syscall,
#: a transiently busy file).  Space exhaustion is deliberately absent —
#: retrying ENOSPC burns time without hope; it degrades instead.
TRANSIENT_ERRNOS = frozenset(
    {errno.EIO, errno.EINTR, errno.EAGAIN, errno.EBUSY}
)

#: Errnos that mean "this store cannot accept writes right now, and
#: retrying will not change that": out of space, over quota, read-only.
#: Checkpoint writers downgrade to in-memory operation on these instead
#: of killing the run (see :mod:`repro.store.checkpoints`).
DEGRADABLE_ERRNOS = frozenset(
    code
    for code in (
        errno.ENOSPC,
        getattr(errno, "EDQUOT", None),
        errno.EROFS,
    )
    if code is not None
)

#: Transient-I/O retry shape of :func:`io_retry`: up to ``_IO_RETRIES``
#: re-attempts with a short doubling delay.  Kept deliberately tiny — the
#: wrapper exists to absorb one-off blips, not to poll a dying disk.
_IO_RETRIES = 2
_IO_RETRY_DELAY = 0.05


class StoreIntegrityError(ReproError):
    """A store entry exists but fails its integrity verification."""


class StoreDegradedWarning(UserWarning):
    """A checkpoint writer downgraded to in-memory mode (ENOSPC & co)."""


def is_degradable_error(error: BaseException) -> bool:
    """``True`` when ``error`` should downgrade checkpointing, not kill."""
    return (
        isinstance(error, OSError) and error.errno in DEGRADABLE_ERRNOS
    )


def io_retry(operation: Callable[[], T], what: str) -> T:
    """Run ``operation``, absorbing up to ``_IO_RETRIES`` transient errors.

    Only errnos in :data:`TRANSIENT_ERRNOS` are retried (with a short
    doubling backoff); everything else — including the degradable family
    — propagates immediately to the caller that knows how to handle it.
    """
    for attempt in range(_IO_RETRIES + 1):
        try:
            return operation()
        except OSError as error:
            if error.errno not in TRANSIENT_ERRNOS or attempt == _IO_RETRIES:
                raise
            time.sleep(_IO_RETRY_DELAY * (2.0**attempt))
    raise AssertionError(f"unreachable io_retry fall-through for {what}")


@dataclass(frozen=True)
class GcReport:
    """What one :meth:`ResultStore.gc` pass did (or, dry, would do).

    Attributes:
        scanned: entries examined (only the campaign's entries when the
            pass was campaign-scoped).
        evicted: entries removed by age, then by LRU quota — or, for a
            ``dry_run`` pass, the entries such a pass *would* remove.
        freed_bytes: bytes those entries occupied.
        remaining_bytes: scanned payload bytes left after the pass
            (entry files only — staging leftovers are swept separately).
    """

    scanned: int
    evicted: int
    freed_bytes: int
    remaining_bytes: int


class ResultStore:
    """Content-addressed artifact store with atomic writes.

    Keys are the hex digests of :func:`repro.store.keys.cache_key`; values
    are any type with a codec in :mod:`repro.store.codecs`.  The store is
    safe against concurrent writers of the *same* key (content addressing
    makes their payloads identical; the first rename wins) and against
    being killed at any point (entries appear atomically).
    """

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        self._objects = self.root / "objects"
        self._staging = self.root / "staging"
        self._quarantine_entries = self.root / "quarantine" / "entries"
        self._quarantine_tasks = self.root / "quarantine" / "tasks"

    # ------------------------------------------------------------------ #
    def _entry_dir(self, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ConfigurationError(f"malformed store key {key!r}")
        return self._objects / key[:2] / key

    def contains(self, key: str) -> bool:
        """``True`` if an entry for ``key`` has been fully written."""
        return (self._entry_dir(key) / _ENTRY_FILE).is_file()

    def put(
        self,
        key: str,
        value: Any,
        metadata: Optional[Dict[str, Any]] = None,
        kind: Optional[str] = None,
    ) -> str:
        """Store ``value`` under ``key``; returns ``key``.

        Overwrites nothing: if the entry already exists the write is
        discarded (content addressing guarantees equal payloads for equal
        keys).  ``metadata`` is stored verbatim in the entry header for
        human inspection (``status`` listings); it does not affect reads.
        ``kind`` is the caller-declared key kind (``sweep`` /
        ``sweep-row`` / ``sweep-row-iteration``) labelling the write for
        fault matching only; it defaults to the payload encoding kind.
        """
        started = time.perf_counter()
        try:
            return self._put(key, value, metadata, kind)
        finally:
            telemetry.metrics.histogram("store.put_seconds").observe(
                time.perf_counter() - started
            )

    def _put(
        self,
        key: str,
        value: Any,
        metadata: Optional[Dict[str, Any]],
        kind: Optional[str],
    ) -> str:
        payload_kind, filename, payload = encode_payload(value)
        entry = {
            "kind": payload_kind,
            "schema_version": SCHEMA_VERSION,
            "payload_file": filename,
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "metadata": metadata or {},
        }
        final_dir = self._entry_dir(key)
        if (final_dir / _ENTRY_FILE).is_file():
            return key
        # The injection gate sits inside the transient-retry wrapper, so a
        # transient injected errno (EIO & co) exercises the same in-place
        # retry a real device blip would get; degradable errnos (ENOSPC)
        # propagate immediately to the checkpoint layer.
        fault = io_retry(
            lambda: faults.fire(
                "store.put", context=f"{kind or payload_kind}:{key}"
            ),
            f"write gate of {key}",
        )
        self._staging.mkdir(parents=True, exist_ok=True)
        # Staging names carry the writer's pid so :meth:`sweep_dead_staging`
        # can tell a crashed writer's leftovers from a live in-flight write.
        stage = self._staging / f"{os.getpid()}-{uuid.uuid4().hex}"
        stage.mkdir()
        try:
            io_retry(
                lambda: (stage / filename).write_bytes(payload),
                f"stage payload of {key}",
            )
            (stage / _ENTRY_FILE).write_text(json.dumps(entry, indent=2, sort_keys=True))
            final_dir.parent.mkdir(parents=True, exist_ok=True)
            try:
                io_retry(
                    lambda: os.replace(stage, final_dir),
                    f"publish entry {key}",
                )
            except OSError:
                # A concurrent writer renamed an identical entry first.
                if not self.contains(key):
                    raise
                shutil.rmtree(stage, ignore_errors=True)
        finally:
            if stage.exists() and not self.contains(key):
                shutil.rmtree(stage, ignore_errors=True)
        if fault is not None and fault.action == "corrupt":
            self._corrupt_payload(key)
        return key

    def _corrupt_payload(self, key: str) -> None:
        """Flip payload bytes of ``key`` in place (fault injection only).

        Applied *after* a successful write when an armed ``corrupt``
        fault matched it, producing exactly the damage the integrity
        verification exists to catch: a payload whose sha256 no longer
        matches its recorded digest.
        """
        try:
            header = self.entry(key)
        except (KeyError, StoreIntegrityError):
            return
        payload_path = self._entry_dir(key) / header.get("payload_file", "")
        if not payload_path.is_file():
            return
        data = payload_path.read_bytes()
        if data:
            payload_path.write_bytes(bytes([data[0] ^ 0xFF]) + data[1:])

    def entry(self, key: str) -> Dict[str, Any]:
        """The entry header of ``key`` (kind, digest, metadata).

        Raises:
            KeyError: if no entry exists.
            StoreIntegrityError: if the header itself is unreadable.
        """
        path = self._entry_dir(key) / _ENTRY_FILE
        if not path.is_file():
            raise KeyError(key)
        try:
            header = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise StoreIntegrityError(
                f"unreadable store entry header for {key}: {error}"
            ) from error
        if not isinstance(header, dict) or "kind" not in header:
            raise StoreIntegrityError(f"malformed store entry header for {key}")
        return header

    def get(self, key: str) -> Any:
        """Load and decode the artifact stored under ``key``.

        Raises:
            KeyError: if no entry exists.
            StoreIntegrityError: if the entry is corrupt (bad header,
                missing payload, digest mismatch, undecodable payload).
        """
        started = time.perf_counter()
        try:
            return self._get(key)
        finally:
            telemetry.metrics.histogram("store.get_seconds").observe(
                time.perf_counter() - started
            )

    def _get(self, key: str) -> Any:
        header = self.entry(key)
        payload_path = self._entry_dir(key) / header.get("payload_file", "")
        if not payload_path.is_file():
            raise StoreIntegrityError(f"store entry {key} lost its payload file")

        def read_payload() -> bytes:
            faults.fire("store.get", context=key)
            return payload_path.read_bytes()

        payload = io_retry(read_payload, f"read payload of {key}")
        digest = hashlib.sha256(payload).hexdigest()
        if digest != header.get("payload_sha256"):
            raise StoreIntegrityError(
                f"store entry {key} failed integrity verification: "
                f"payload sha256 {digest} != recorded {header.get('payload_sha256')}"
            )
        try:
            value = decode_payload(header["kind"], payload)
        except Exception as error:
            raise StoreIntegrityError(
                f"store entry {key} could not be decoded: {error}"
            ) from error
        self._touch(key)
        return value

    def _touch(self, key: str) -> None:
        """Refresh the entry header's mtime (best-effort).

        Reads bump the entry to the back of the eviction queue, which is
        what makes :meth:`gc`'s mtime ordering LRU rather than FIFO —
        warm campaign entries survive a quota pass that evicts results
        nothing has read in weeks.
        """
        try:
            os.utime(self._entry_dir(key) / _ENTRY_FILE)
        except OSError:
            pass

    def evict(self, key: str) -> bool:
        """Remove the entry for ``key``; ``True`` if one existed."""
        path = self._entry_dir(key)
        if not path.exists():
            return False
        shutil.rmtree(path)
        return True

    # ------------------------------------------------------------------ #
    # Quarantine: corrupt entries and poison tasks, with provenance
    # ------------------------------------------------------------------ #
    def quarantine_entry(self, key: str, reason: str) -> bool:
        """Move ``key``'s entry into quarantine instead of deleting it.

        The entry directory — header, damaged payload and all — is moved
        under ``quarantine/entries/<key>/`` with a ``provenance.json``
        recording why and when, so corruption can be diagnosed after the
        fact (which disk, which writer, what pattern) while the live key
        space reports a clean miss and recomputes.  Returns ``True`` if
        an entry existed.  Failures fall back to plain eviction: a miss
        must result either way.
        """
        source = self._entry_dir(key)
        if not source.exists():
            return False
        destination = self._quarantine_entries / key
        try:
            self._quarantine_entries.mkdir(parents=True, exist_ok=True)
            if destination.exists():
                shutil.rmtree(destination)  # keep the latest damage only
            os.replace(source, destination)
            (destination / _PROVENANCE_FILE).write_text(
                json.dumps(
                    {
                        "key": key,
                        "reason": reason,
                        "quarantined_at": time.time(),
                        "pid": os.getpid(),
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
        except OSError:
            shutil.rmtree(source, ignore_errors=True)
        return True

    def quarantined_entries(self) -> List[str]:
        """Keys currently held in entry quarantine."""
        if not self._quarantine_entries.is_dir():
            return []
        return sorted(
            path.name for path in self._quarantine_entries.iterdir() if path.is_dir()
        )

    def entry_provenance(self, key: str) -> Optional[Dict[str, Any]]:
        """The provenance record of a quarantined entry, or ``None``."""
        path = self._quarantine_entries / key / _PROVENANCE_FILE
        if not path.is_file():
            return None
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def drop_quarantined_entry(self, key: str) -> bool:
        """Discard one quarantined entry copy; ``True`` if one existed."""
        path = self._quarantine_entries / key
        if not path.is_dir():
            return False
        shutil.rmtree(path, ignore_errors=True)
        return True

    def record_poison(self, key: str, info: Dict[str, Any]) -> None:
        """Record that the task addressing ``key`` was given up on.

        Poison records are how a campaign remembers which tasks exhausted
        their retries: the campaign continues past them, ``status``
        surfaces them per scenario, and ``clean`` (or a successful later
        run) clears them.  ``info`` is stored verbatim plus a timestamp.
        """
        self._quarantine_tasks.mkdir(parents=True, exist_ok=True)
        record = {**info, "key": key, "quarantined_at": time.time()}
        path = self._quarantine_tasks / f"{key}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True))

    def poison(self, key: str) -> Optional[Dict[str, Any]]:
        """The poison record of ``key``, or ``None``."""
        path = self._quarantine_tasks / f"{key}.json"
        if not path.is_file():
            return None
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def poison_keys(self) -> List[str]:
        """Keys of every recorded poison task."""
        if not self._quarantine_tasks.is_dir():
            return []
        return sorted(
            path.stem
            for path in self._quarantine_tasks.iterdir()
            if path.suffix == ".json"
        )

    def clear_poison(self, key: str) -> bool:
        """Drop one poison record; ``True`` if one existed."""
        path = self._quarantine_tasks / f"{key}.json"
        if not path.is_file():
            return False
        try:
            path.unlink()
        except OSError:
            return False
        return True

    # ------------------------------------------------------------------ #
    # Garbage collection
    # ------------------------------------------------------------------ #
    def _entry_stats(
        self, campaign: Optional[str] = None
    ) -> List[Tuple[str, float, int]]:
        """(key, last-use mtime, bytes) of every fully written entry.

        With ``campaign``, only entries whose header metadata records that
        campaign name are listed (the campaign layer stamps every entry it
        writes — sweeps, rows and iteration checkpoints alike).  Reading
        headers does not refresh the LRU mtime.
        """
        stats: List[Tuple[str, float, int]] = []
        for key in self.keys():
            entry_dir = self._entry_dir(key)
            if campaign is not None:
                try:
                    header = self.entry(key)
                except (KeyError, StoreIntegrityError):
                    continue
                metadata = header.get("metadata") or {}
                if metadata.get("campaign") != campaign:
                    continue
            try:
                mtime = (entry_dir / _ENTRY_FILE).stat().st_mtime
                size = sum(
                    path.stat().st_size
                    for path in entry_dir.iterdir()
                    if path.is_file()
                )
            except OSError:
                continue  # evicted by a concurrent writer mid-scan
            stats.append((key, mtime, size))
        return stats

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_age: Optional[float] = None,
        now: Optional[float] = None,
        dry_run: bool = False,
        campaign: Optional[str] = None,
    ) -> GcReport:
        """Evict entries by age and LRU quota; returns a :class:`GcReport`.

        Two passes over the fully written entries (staging directories
        older than :data:`STALE_STAGING_SECONDS` — orphans of killed
        writers — are swept first; younger ones are left alone so gc is
        safe to run while a campaign is writing):

        1. every entry whose last use (header mtime — reads refresh it)
           lies more than ``max_age`` seconds before ``now`` is evicted;
        2. if the remaining entries still occupy more than ``max_bytes``,
           the least recently used are evicted until the total fits.

        Passing neither bound just reports the store size.  Evicting a
        store entry is always safe: the store is a cache, and the
        campaign layer recomputes (and re-stores) missing entries.

        Args:
            max_bytes: byte budget the surviving entries must fit in.
            max_age: maximum seconds since last use.
            now: reference timestamp (defaults to the current time;
                injectable for tests).
            dry_run: report what the pass would evict without removing
                anything — no entry eviction and no staging sweep.
            campaign: restrict the pass to entries the named campaign
                wrote (matched against the ``campaign`` entry metadata
                the campaign layer stamps); other campaigns' entries are
                neither scanned, counted nor evicted.
        """
        if max_bytes is not None and max_bytes < 0:
            raise ConfigurationError(
                f"max_bytes must be non-negative, got {max_bytes}"
            )
        if max_age is not None and max_age < 0:
            raise ConfigurationError(
                f"max_age must be non-negative, got {max_age}"
            )
        if not dry_run:
            self.clear_staging(older_than=STALE_STAGING_SECONDS)

        def remove(key: str) -> bool:
            return True if dry_run else self.evict(key)

        reference = time.time() if now is None else float(now)
        stats = self._entry_stats(campaign=campaign)
        scanned = len(stats)
        evicted = 0
        freed = 0
        survivors: List[Tuple[str, float, int]] = []
        for key, mtime, size in stats:
            if max_age is not None and reference - mtime > max_age:
                if remove(key):
                    evicted += 1
                    freed += size
                continue
            survivors.append((key, mtime, size))
        remaining = sum(size for _, _, size in survivors)
        if max_bytes is not None and remaining > max_bytes:
            survivors.sort(key=lambda item: item[1])  # oldest use first
            for key, _, size in survivors:
                if remaining <= max_bytes:
                    break
                if remove(key):
                    evicted += 1
                    freed += size
                    remaining -= size
        return GcReport(
            scanned=scanned,
            evicted=evicted,
            freed_bytes=freed,
            remaining_bytes=remaining,
        )

    # ------------------------------------------------------------------ #
    def keys(self) -> Iterator[str]:
        """All fully-written keys currently in the store."""
        if not self._objects.is_dir():
            return
        for shard in sorted(self._objects.iterdir()):
            if not shard.is_dir():
                continue
            for entry_dir in sorted(shard.iterdir()):
                if (entry_dir / _ENTRY_FILE).is_file():
                    yield entry_dir.name

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def size_bytes(self) -> int:
        """Total bytes of the fully written entries (``objects/`` only).

        Telemetry sinks, quarantine records and staging leftovers live
        under the same root but are not evictable entries — counting them
        would inflate the size that :meth:`gc`'s ``max_bytes`` budgets
        against, making a quota pass evict live results to pay for
        trace files it can never remove.
        """
        if not self._objects.is_dir():
            return 0
        return sum(
            path.stat().st_size
            for path in self._objects.rglob("*")
            if path.is_file()
        )

    def clear_staging(self, older_than: Optional[float] = None) -> int:
        """Remove leftover staging directories from killed writers.

        With ``older_than`` (seconds), only directories whose mtime is at
        least that old are removed — the grace period that lets
        :meth:`gc` run against a store a live campaign is writing to
        without deleting an in-flight write between its staging and its
        rename.  The default (``None``) removes everything, which is
        right for ``campaign clean`` and other moments when no writer
        can be active.
        """
        if not self._staging.is_dir():
            return 0
        cutoff = None if older_than is None else time.time() - older_than
        removed = 0
        for stale in self._staging.iterdir():
            if cutoff is not None:
                try:
                    if stale.stat().st_mtime > cutoff:
                        continue
                except OSError:
                    continue  # the writer just renamed or removed it
            shutil.rmtree(stale, ignore_errors=True)
            removed += 1
        return removed

    def sweep_dead_staging(self) -> int:
        """Remove staging directories whose writer process is dead.

        Staging names are ``<pid>-<uuid>`` (see :meth:`put`); a name
        whose pid no longer exists belongs to a crashed writer and its
        half-written entry can never be renamed into place.  Unlike the
        age-based :meth:`clear_staging`, this is safe to call *mid-run*
        — the supervised pool calls it after joining a dead or killed
        worker and before retrying its task, so a crash-looping campaign
        cannot accumulate orphaned staging directories.

        A live pid is *not* proof of a live writer: pids recycle, so a
        crashed writer's pid can belong to an unrelated long-lived
        process forever.  Pid-prefixed directories whose "owner" looks
        alive therefore still fall back to the
        :data:`STALE_STAGING_SECONDS` age rule (a real in-flight write
        stages and renames within seconds), as do directories without a
        pid prefix (pre-existing stores).  Only a provably dead pid is
        swept immediately.
        """
        if not self._staging.is_dir():
            return 0
        removed = 0
        cutoff = time.time() - STALE_STAGING_SECONDS
        for stale in self._staging.iterdir():
            pid_text, _, _ = stale.name.partition("-")
            if not pid_text.isdigit() or _pid_alive(int(pid_text)):
                try:
                    if stale.stat().st_mtime > cutoff:
                        continue
                except OSError:
                    continue  # renamed or removed by its (live) writer
            shutil.rmtree(stale, ignore_errors=True)
            removed += 1
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ResultStore(root={str(self.root)!r})"


def _pid_alive(pid: int) -> bool:
    """``True`` when a process with ``pid`` currently exists."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return True  # be conservative: never sweep a live writer
    return True
