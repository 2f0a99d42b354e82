"""Typed codecs between result objects and on-disk payloads.

Each supported result type has a *kind* string, an encoder producing the
payload file name plus its bytes, and a decoder reconstructing an equal
object.  Tabular artifacts (sweeps, per-value checkpoint rows) are stored
as JSON — human-diffable and exact for Python floats, whose ``repr`` round-
trips bit-identically.  The one columnar artifact, a simulation
iteration's :class:`~repro.simulation.results.FrameStatisticsColumns`,
uses the compact transport of its pickle (minimal integer widths, float64
breakpoints untouched) inside a ``.npz`` archive.  Its decoder checks that
the arrays agree with each other before building the container, so a
truncated or inconsistent payload fails to decode (and the store
quarantines it) instead of loading as a value that breaks its readers.

:data:`SCHEMA_VERSION` is the single on-disk format version shared by the
store and the plain :func:`repro.experiments.io.save_sweep` artifacts; it
is baked into every cache key, so bumping it invalidates stale layouts
instead of misreading them.
"""

from __future__ import annotations

import io
import json
from typing import Any, Callable, Dict, NamedTuple, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.simulation.results import FrameStatisticsColumns, compact_ints
from repro.simulation.sweep import SweepResult

#: On-disk schema version of every persisted artifact.  Version 0 is the
#: pre-versioning ``save_sweep`` JSON layout; version 1 added the store,
#: this field, and the empty-sweep CSV header.
SCHEMA_VERSION = 1


class Codec(NamedTuple):
    """One artifact kind: match by type, encode to bytes, decode back."""

    matches: Callable[[Any], bool]
    filename: str
    encode: Callable[[Any], bytes]
    decode: Callable[[bytes], Any]


def _json_bytes(document: Dict[str, Any]) -> bytes:
    return json.dumps(document, sort_keys=True, indent=2).encode("utf-8")


def _encode_sweep(sweep: SweepResult) -> bytes:
    return _json_bytes(
        {
            "schema_version": SCHEMA_VERSION,
            "parameter_name": sweep.parameter_name,
            "rows": sweep.rows,
        }
    )


def _decode_sweep(payload: bytes) -> SweepResult:
    document = json.loads(payload.decode("utf-8"))
    return SweepResult(
        parameter_name=document["parameter_name"],
        rows=[dict(row) for row in document["rows"]],
    )


def _encode_row(row: Dict[str, float]) -> bytes:
    return _json_bytes({"schema_version": SCHEMA_VERSION, "row": dict(row)})


def _decode_row(payload: bytes) -> Dict[str, float]:
    return dict(json.loads(payload.decode("utf-8"))["row"])


def _npz_bytes(**arrays: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return buffer.getvalue()


def _read_npz(payload: bytes) -> Dict[str, np.ndarray]:
    with np.load(io.BytesIO(payload)) as archive:
        return {name: archive[name] for name in archive.files}


def _encode_frame_columns(columns: FrameStatisticsColumns) -> bytes:
    return _npz_bytes(
        node_count=np.int64(columns.node_count),
        critical_ranges=columns.critical_ranges,
        curve_offsets=compact_ints(columns.curve_offsets),
        curve_ranges=columns.curve_ranges,
        curve_sizes=compact_ints(columns.curve_sizes),
    )


def _decode_frame_columns(payload: bytes) -> FrameStatisticsColumns:
    arrays = _read_npz(payload)
    node_count = int(arrays["node_count"])
    _check_frame_columns(node_count, arrays)
    return FrameStatisticsColumns(
        node_count=node_count,
        critical_ranges=arrays["critical_ranges"],
        curve_offsets=arrays["curve_offsets"],
        curve_ranges=arrays["curve_ranges"],
        curve_sizes=arrays["curve_sizes"],
    )


def _check_frame_columns(node_count: int, arrays: Dict[str, np.ndarray]) -> None:
    """Raise ``ValueError`` unless the decoded arrays form one container.

    Every array is 1-D and the offsets and sizes are integers; the offsets
    start at 0, never decrease, have one entry per frame plus one and end
    at the shared length of the curve columns; every size lies in
    ``[1, node_count]``.  A frame of two or more nodes owns at least one
    breakpoint, since its curve ends at ``(critical_range, node_count)``:
    the engine never builds an empty one, and the vectorized readers of
    :class:`FrameStatisticsColumns` rely on it.  The check runs here,
    once per stored iteration, and not in the constructor, which the
    engine calls once per batch.
    """
    critical_ranges = arrays["critical_ranges"]
    offsets = arrays["curve_offsets"]
    ranges = arrays["curve_ranges"]
    sizes = arrays["curve_sizes"]
    if any(array.ndim != 1 for array in (critical_ranges, offsets, ranges, sizes)):
        raise ValueError("every frame-statistics array must be 1-D")
    if offsets.dtype.kind not in "iu" or sizes.dtype.kind not in "iu":
        raise ValueError("curve_offsets and curve_sizes must hold integers")
    if offsets.shape[0] != critical_ranges.shape[0] + 1:
        raise ValueError(
            f"{offsets.shape[0]} curve_offsets for "
            f"{critical_ranges.shape[0]} frames; expected one more"
        )
    if ranges.shape != sizes.shape:
        raise ValueError(
            f"curve_ranges has {ranges.shape[0]} breakpoints but "
            f"curve_sizes {sizes.shape[0]}"
        )
    offsets = offsets.astype(np.int64)
    if offsets[0] != 0 or offsets[-1] != ranges.shape[0]:
        raise ValueError(
            f"curve_offsets run from {offsets[0]} to {offsets[-1]}, "
            f"not from 0 to {ranges.shape[0]}"
        )
    steps = np.diff(offsets)
    if (steps < 0).any():
        raise ValueError("curve_offsets decrease")
    if node_count >= 2 and (steps == 0).any():
        raise ValueError(
            f"frame {int(np.argmax(steps == 0))} of {node_count} nodes has "
            "no breakpoint"
        )
    if sizes.size and (sizes.min() < 1 or sizes.max() > node_count):
        raise ValueError(
            f"curve_sizes span [{sizes.min()}, {sizes.max()}], "
            f"outside [1, {node_count}]"
        )


#: Kind -> codec.  Order matters for :func:`detect_kind` (dict rows would
#: also "match" a generic mapping test placed earlier).
CODECS: Dict[str, Codec] = {
    "sweep": Codec(
        matches=lambda value: isinstance(value, SweepResult),
        filename="data.json",
        encode=_encode_sweep,
        decode=_decode_sweep,
    ),
    "frame_statistics": Codec(
        matches=lambda value: isinstance(value, FrameStatisticsColumns),
        filename="data.npz",
        encode=_encode_frame_columns,
        decode=_decode_frame_columns,
    ),
    "sweep-row": Codec(
        matches=lambda value: isinstance(value, dict),
        filename="data.json",
        encode=_encode_row,
        decode=_decode_row,
    ),
}


def detect_kind(value: Any) -> str:
    """The artifact kind of ``value``.

    Raises:
        ConfigurationError: if no codec supports the type.
    """
    for kind, codec in CODECS.items():
        if codec.matches(value):
            return kind
    raise ConfigurationError(
        f"no result-store codec for values of type {type(value).__name__!r}"
    )


def encode_payload(value: Any) -> Tuple[str, str, bytes]:
    """Encode ``value`` as ``(kind, payload filename, payload bytes)``."""
    kind = detect_kind(value)
    codec = CODECS[kind]
    return kind, codec.filename, codec.encode(value)


def decode_payload(kind: str, payload: bytes) -> Any:
    """Decode the payload bytes of a ``kind`` artifact."""
    try:
        codec = CODECS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown result-store artifact kind {kind!r}; known: {sorted(CODECS)}"
        ) from None
    return codec.decode(payload)
