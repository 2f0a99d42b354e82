"""Content-addressed persistence of simulation results.

The experiment layer produces expensive, deterministic artifacts: one
parameter sweep costs minutes at ``default`` scale and hours at ``paper``
scale, yet is a pure function of its declarative description (mobility
model and parameters, region, :class:`~repro.simulation.config.
SimulationConfig`, sweep grid, seed entropy and the on-disk schema
version).  This package turns that purity into a cache:

* :mod:`repro.store.keys` — canonical, versioned cache keys derived from
  the full experiment description;
* :mod:`repro.store.codecs` — typed codecs turning :class:`~repro.
  simulation.sweep.SweepResult` and the columnar result containers into
  compact on-disk payloads (JSON for tabular data, ``.npz`` for arrays);
* :mod:`repro.store.result_store` — the :class:`ResultStore` itself:
  atomic write-then-rename entries under a store root, ``get / put /
  contains / evict`` with sha256 integrity verification;
* :mod:`repro.store.checkpoints` — the store-backed sweep checkpoints
  consumed by :func:`repro.simulation.sweep.sweep_parameter` and the
  simulation runners, at per-parameter-value *and* per-iteration
  granularity, which is what makes killed campaigns resumable.
"""

from repro.store.codecs import SCHEMA_VERSION, decode_payload, detect_kind, encode_payload
from repro.store.checkpoints import StoreIterationCheckpoint, StoreSweepCheckpoint
from repro.store.keys import cache_key, canonical_json, scale_payload
from repro.store.result_store import (
    DEGRADABLE_ERRNOS,
    GcReport,
    ResultStore,
    StoreDegradedWarning,
    StoreIntegrityError,
    TRANSIENT_ERRNOS,
    is_degradable_error,
)

__all__ = [
    "DEGRADABLE_ERRNOS",
    "GcReport",
    "ResultStore",
    "SCHEMA_VERSION",
    "StoreDegradedWarning",
    "StoreIntegrityError",
    "StoreIterationCheckpoint",
    "StoreSweepCheckpoint",
    "TRANSIENT_ERRNOS",
    "cache_key",
    "canonical_json",
    "decode_payload",
    "detect_kind",
    "encode_payload",
    "is_degradable_error",
    "scale_payload",
]
