"""Canonical cache keys for experiment artifacts.

A cache key must be a pure function of the *logical* description of an
experiment — what is simulated, with which parameters, from which seed —
and independent of how it is executed (worker counts, process layout,
machine).  The helpers here normalise arbitrary nested descriptions
(dataclasses, mappings, sequences, NumPy scalars) into a canonical JSON
document and hash it together with the on-disk schema version, so a key
changes exactly when the described computation or the storage format
changes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, Mapping, Sequence

import numpy as np

from repro.exceptions import ConfigurationError

#: ``ExperimentScale`` fields that select the process layout without
#: affecting results (results are bit-identical for every value); they
#: never enter a key.
EXECUTION_FIELDS = frozenset({"sweep_workers"})

#: The artifact kinds of the store's key space, one per granularity.
#: ``cache_key`` hashes the kind together with the payload, so the three
#: granularities of the same sweep — the complete sweep, one parameter
#: value's row, one iteration of one value's simulation — can never
#: collide even though each payload embeds the one above it.
SWEEP_KIND = "sweep"
ROW_KIND = "sweep-row"
ITERATION_KIND = "sweep-row-iteration"

#: All key kinds, for documentation and the disjointness property tests.
KEY_KINDS = frozenset({SWEEP_KIND, ROW_KIND, ITERATION_KIND})


def normalize(value: Any) -> Any:
    """Normalise ``value`` into canonical JSON-serialisable data.

    Mappings are key-sorted, sequences become lists, dataclasses become
    field mappings (execution-only fields dropped), NumPy scalars become
    Python scalars.  Raises :class:`ConfigurationError` for anything that
    has no canonical form (sets, arbitrary objects) — silent repr-based
    fallbacks would make keys unstable across interpreter runs.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return normalize(
            {
                field.name: getattr(value, field.name)
                for field in dataclasses.fields(value)
                if field.name not in EXECUTION_FIELDS
            }
        )
    if isinstance(value, Mapping):
        normalized: Dict[str, Any] = {}
        for key in sorted(value, key=str):
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"cache-key mappings need string keys, got {key!r}"
                )
            normalized[key] = normalize(value[key])
        return normalized
    if isinstance(value, np.generic):
        return normalize(value.item())
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ConfigurationError(
                f"cache keys cannot contain non-finite floats, got {value!r}"
            )
        return value
    if isinstance(value, np.ndarray):
        return [normalize(item) for item in value.tolist()]
    if isinstance(value, Sequence):
        return [normalize(item) for item in value]
    raise ConfigurationError(
        f"cannot derive a canonical cache key from {type(value).__name__!r}"
    )


def canonical_json(payload: Any) -> str:
    """The canonical JSON document of a normalised payload.

    Key-sorted, minimal separators, no NaN/Infinity — two payloads render
    identically exactly when they normalise identically.
    """
    return json.dumps(
        normalize(payload), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def cache_key(kind: str, payload: Any, schema_version: int | None = None) -> str:
    """The content address of one artifact: sha256 over kind + payload.

    Args:
        kind: artifact kind (``"sweep"``, ``"sweep-row"``, ...); artifacts
            of different kinds never collide even for equal payloads.
        payload: the full logical description of the computation.
        schema_version: on-disk schema version baked into the key; defaults
            to the current :data:`repro.store.codecs.SCHEMA_VERSION`, so
            every format change invalidates the cache wholesale.
    """
    if schema_version is None:
        from repro.store.codecs import SCHEMA_VERSION

        schema_version = SCHEMA_VERSION
    document = canonical_json(
        {"kind": kind, "schema_version": schema_version, "payload": payload}
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def scale_payload(scale: Any) -> Dict[str, Any]:
    """The key payload of an :class:`~repro.experiments.registry.
    ExperimentScale`: its size knobs and seed, without the preset name and
    the execution fields.

    Two scales that run the same grid from the same seed — whatever they
    are called and however many processes they use — share a payload.
    """
    payload = normalize(scale)
    payload.pop("name", None)
    # Scales no longer name a backend; the constant keeps stored keys fixed.
    payload["backend"] = "numpy"
    return payload
