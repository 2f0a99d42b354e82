"""Store-backed sweep checkpoints, at value and iteration granularity.

The campaign scheduler loads and saves every value row through a
:class:`StoreSweepCheckpoint`, which keys the row by the sweep's logical
description plus the parameter value, so a killed sweep resumes exactly
at the first value it had not finished, and two sweeps with identical
descriptions — however they are named or parallelised — share their
rows.

Below the value rows sits a second granularity:
:class:`StoreIterationCheckpoint` persists the individual simulation
iterations *inside* one parameter value (one columnar
:class:`~repro.simulation.results.FrameStatisticsColumns` each, through
its codec), keyed by the sweep payload + the value + the iteration index
under their own artifact kind — disjoint from the value-row key space by
construction.  A paper-scale value killed at
iteration ``k`` of 50 therefore resumes at iteration ``k``, not at the
start of the value.  Once a value's row lands, its iteration entries are
subsumed (the row is what every future resume reads) and are evicted to
keep the store's steady-state size unchanged.

The figure measures only use the iteration checkpoint for values that
simulate at least :data:`repro.experiments.figures.
CHECKPOINT_MIN_NODE_FRAMES` node-frames; a smaller value writes no
iteration entries and a kill loses at most its own work.  Iteration
entries an older run left for such a value are never read: the value
recomputes them bit-identically, and the row's save evicts them.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from functools import cached_property
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.store.keys import ITERATION_KIND, ROW_KIND, cache_key, key_document
from repro.store.result_store import (
    ResultStore,
    StoreDegradedWarning,
    StoreIntegrityError,
    is_degradable_error,
)

__all__ = [
    "ITERATION_KIND",
    "ROW_KIND",
    "StoreIterationCheckpoint",
    "StoreSweepCheckpoint",
]


class _DegradationState:
    """Shared graceful-degradation behaviour of the store checkpoints.

    When a checkpoint write fails with a *degradable* errno (ENOSPC,
    EDQUOT, EROFS — see :data:`repro.store.result_store.
    DEGRADABLE_ERRNOS`), killing the run would trade a full disk for
    losing the computation in flight.  Instead the checkpoint downgrades:
    the result is kept in an in-process memory map (so the *current* run
    still resumes, deduplicates and assembles exactly as if the write had
    landed), a :class:`StoreDegradedWarning` is emitted once, and
    ``degraded`` records the reason for structured consumers (the
    campaign layer turns it into a ``StoreDegraded`` progress event).
    Durability across process kills is what is lost — nothing else.
    """

    def __init__(self) -> None:
        self.degraded: Optional[str] = None
        self._memory: Dict[Any, Any] = {}

    def _absorb_write_failure(
        self, error: BaseException, key: Any, result: Any, what: str
    ) -> None:
        if not is_degradable_error(error):
            raise error
        self._memory[key] = result
        if self.degraded is None:
            self.degraded = f"{what} write failed: {error}"
            warnings.warn(
                StoreDegradedWarning(
                    f"{what} checkpoint degraded to in-memory mode "
                    f"({error}); results of this run are kept but will "
                    f"not survive a process kill"
                ),
                stacklevel=3,
            )


class StoreIterationCheckpoint(_DegradationState):
    """Checkpoint one parameter value's simulation iterations.

    Implements the :class:`repro.simulation.runner.IterationCheckpoint`
    protocol against a :class:`ResultStore`.  Instances are handed out by
    :meth:`StoreSweepCheckpoint.iteration_checkpoint` and may be pickled
    into whichever worker process runs the value's measure (the store is
    safe for concurrent writers).

    Args:
        store: destination store.
        payload: the canonical description of the *sweep* the value
            belongs to.
        value: the parameter value whose iterations are checkpointed.
        metadata: optional human-readable context written into each
            entry header.
    """

    def __init__(
        self,
        store: ResultStore,
        payload: Any,
        value: float,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__()
        self.store = store
        self.payload = payload
        self.value = float(value)
        self.metadata = metadata or {}
        self.loaded = 0
        self.saved = 0

    def key_for(self, index: int) -> str:
        """The content address of iteration ``index`` of this value."""
        return cache_key(
            ITERATION_KIND,
            {
                "sweep": self.payload,
                "value": self.value,
                "iteration": int(index),
            },
        )

    def load(self, index: int) -> Optional[Any]:
        """The checkpointed iteration result, or ``None`` to resimulate.

        Corrupt entries are quarantined with provenance and reported as
        misses, like the value-row checkpoint.  That covers a payload
        whose arrays disagree with each other, which the codec refuses
        to decode.
        """
        if index in self._memory:
            self.loaded += 1
            return self._memory[index]
        key = self.key_for(index)
        if not self.store.contains(key):
            return None
        try:
            result = self.store.get(key)
        except (KeyError, StoreIntegrityError) as error:
            self.store.quarantine_entry(key, reason=str(error))
            return None
        self.loaded += 1
        return result

    def save(self, index: int, result: Any) -> None:
        """Persist the freshly simulated iteration ``index``.

        A degradable write failure (ENOSPC & co) downgrades to in-memory
        checkpointing instead of killing the simulation — see
        :class:`_DegradationState`.
        """
        try:
            self.store.put(
                self.key_for(index),
                result,
                metadata={
                    **self.metadata,
                    "value": self.value,
                    "iteration": int(index),
                },
                kind=ITERATION_KIND,
            )
        except OSError as error:
            self._absorb_write_failure(error, int(index), result, "iteration")
        self.saved += 1


class StoreSweepCheckpoint(_DegradationState):
    """Checkpoint one sweep's rows into a :class:`ResultStore`.

    Args:
        store: destination store.
        payload: the canonical description of the sweep (experiment,
            scale, seed, ...); every row key derives from it plus the
            parameter value.
        metadata: optional human-readable context written into each
            entry header.
        iterations: iterations each value's simulation runs, when the
            experiment supports iteration-granular checkpointing;
            ``None`` (default) disables the iteration sub-keys and
            :meth:`iteration_checkpoint` returns ``None``.
    """

    def __init__(
        self,
        store: ResultStore,
        payload: Any,
        metadata: Optional[Dict[str, Any]] = None,
        iterations: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.store = store
        self.payload = payload
        self.metadata = metadata or {}
        self.iterations = iterations

    @cached_property
    def _row_document(self) -> Tuple[str, str]:
        """Every row key's canonical document, split where the value goes.

        Rendered once, around a ``None`` placeholder: the document ends
        ``"value":null},"schema_version":N}``, so its last ``null`` is
        the value's, whatever the sweep payload holds.
        """
        document = key_document(ROW_KIND, {"sweep": self.payload, "value": None})
        head, _, tail = document.rpartition("null")
        return head, tail

    def key_for(self, value: float) -> str:
        """The content address of the row at one parameter value.

        Byte-identical to ``cache_key(ROW_KIND, {"sweep": payload,
        "value": float(value)})``: the value's JSON (the ``repr`` of a
        finite float) is spliced into the document rendered once per
        checkpoint, so a key costs one sha256 and no normalization.
        """
        value = float(value)
        if not math.isfinite(value):
            raise ConfigurationError(
                f"cache keys cannot contain non-finite floats, got {value!r}"
            )
        head, tail = self._row_document
        return hashlib.sha256(f"{head}{value!r}{tail}".encode("utf-8")).hexdigest()

    def with_store(self, store: ResultStore) -> "StoreSweepCheckpoint":
        """This sweep's checkpoint over ``store``: every key is unchanged."""
        return StoreSweepCheckpoint(
            store, self.payload, metadata=self.metadata, iterations=self.iterations
        )

    def load(self, value: float) -> Optional[Dict[str, float]]:
        """The checkpointed row at ``value``, or ``None`` to recompute.

        A corrupt entry is quarantined (with provenance, for post-mortem
        diagnosis) and reported as a miss — resuming from a damaged store
        recomputes the damaged rows instead of returning them.
        """
        if float(value) in self._memory:
            return self._memory[float(value)]
        key = self.key_for(value)
        if not self.store.contains(key):
            return None
        try:
            return self.store.get(key)
        except (KeyError, StoreIntegrityError) as error:
            self.store.quarantine_entry(key, reason=str(error))
            return None

    def save(self, value: float, row: Dict[str, float]) -> None:
        """Persist the freshly measured row at ``value``.

        The value's iteration sub-entries (if iteration granularity is
        enabled) are evicted afterwards: every future resume reads the
        row, so keeping them would only grow the store.  A degradable
        write failure (ENOSPC & co) downgrades to in-memory
        checkpointing instead of killing the sweep — see
        :class:`_DegradationState`.
        """
        try:
            self.store.put(
                self.key_for(value),
                dict(row),
                metadata={**self.metadata, "value": float(value)},
                kind=ROW_KIND,
            )
        except OSError as error:
            self._absorb_write_failure(error, float(value), dict(row), "row")
        self.discard_iterations(value)

    # ------------------------------------------------------------------ #
    # Iteration granularity
    # ------------------------------------------------------------------ #
    def iteration_checkpoint(
        self, value: float
    ) -> Optional[StoreIterationCheckpoint]:
        """Per-iteration checkpoint of ``value``, or ``None`` if disabled."""
        if self.iterations is None:
            return None
        return StoreIterationCheckpoint(
            self.store, self.payload, value, metadata=self.metadata
        )

    def iteration_keys_for(self, value: float) -> List[str]:
        """Content addresses of all of ``value``'s iteration entries."""
        if self.iterations is None:
            return []
        sub = StoreIterationCheckpoint(self.store, self.payload, value)
        return [sub.key_for(index) for index in range(self.iterations)]

    def discard_iterations(self, value: float) -> int:
        """Evict ``value``'s iteration entries; returns how many existed."""
        removed = 0
        for key in self.iteration_keys_for(value):
            if self.store.evict(key):
                removed += 1
        return removed
