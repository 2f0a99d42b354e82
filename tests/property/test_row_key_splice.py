"""Property tests: a checkpoint's spliced row key equals ``cache_key``'s.

:meth:`StoreSweepCheckpoint.key_for` renders the row document once per
checkpoint and splices each value's JSON into it.  Every stored row is
addressed by that key, so it must equal the key ``cache_key`` derives
from the full document, byte for byte, for any finite value and any
sweep payload — including payloads that themselves hold ``null`` or a
``"value"`` field.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.campaigns.runner import scenario_payload
from repro.exceptions import ConfigurationError
from repro.experiments.registry import get_experiment, scale_by_name
from repro.store import ResultStore
from repro.store.checkpoints import ROW_KIND, StoreSweepCheckpoint
from repro.store.keys import cache_key

FINITE = st.floats(allow_nan=False, allow_infinity=False)

#: JSON-shaped sweep payloads, with the splice's placeholder and field
#: name among the keys and leaves.
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | FINITE
    | st.sampled_from(["null", "value", '"value":null', ""])
    | st.text(max_size=8)
)
PAYLOADS = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(
        st.sampled_from(["value", "sweep", "null", "kind"]) | st.text(max_size=6),
        children,
        max_size=4,
    ),
    max_leaves=12,
)


def reference_key(payload, value):
    return cache_key(ROW_KIND, {"sweep": payload, "value": float(value)})


@pytest.mark.parametrize("experiment_id", ["fig2", "fig3", "fig7"])
@given(value=FINITE)
@example(value=0.0)
@example(value=-0.0)
@example(value=5e-324)
@example(value=2.2250738585072014e-308)
@example(value=1e308)
@example(value=-1e308)
@example(value=256.0)
@example(value=16384.0)
@example(value=1e16)
@example(value=0.1 + 0.2)
@settings(max_examples=200, deadline=None)
def test_scenario_row_keys_equal_cache_key(experiment_id, value):
    experiment = get_experiment(experiment_id)
    payload = scenario_payload(experiment, scale_by_name("smoke"))
    checkpoint = StoreSweepCheckpoint(None, payload)
    assert checkpoint.key_for(value) == reference_key(payload, value)


@given(payload=PAYLOADS, value=FINITE)
@example(payload=None, value=-0.0)
@example(payload={"value": None}, value=1.0)
@example(payload=["null", None, {"value": "null"}], value=0.1 + 0.2)
@settings(max_examples=300, deadline=None)
def test_any_payload_row_keys_equal_cache_key(payload, value):
    checkpoint = StoreSweepCheckpoint(None, payload)
    assert checkpoint.key_for(value) == reference_key(payload, value)
    # A second key reuses the rendered document and still agrees.
    assert checkpoint.key_for(value + 1.0) == reference_key(payload, value + 1.0)


@given(value=st.sampled_from([math.inf, -math.inf, math.nan]))
def test_non_finite_values_are_refused_like_cache_key(value):
    checkpoint = StoreSweepCheckpoint(None, {"experiment": "fig2"})
    with pytest.raises(ConfigurationError, match="non-finite"):
        checkpoint.key_for(value)
    with pytest.raises(ConfigurationError, match="non-finite"):
        reference_key({"experiment": "fig2"}, value)


def test_a_rebound_checkpoint_keeps_its_keys(tmp_path):
    payload = scenario_payload(get_experiment("fig2"), scale_by_name("smoke"))
    keyless = StoreSweepCheckpoint(None, payload, metadata={"m": 1}, iterations=3)
    store = ResultStore(tmp_path / "store")
    bound = keyless.with_store(store)
    assert bound.store is store
    assert (bound.metadata, bound.iterations) == ({"m": 1}, 3)
    assert bound.key_for(256.0) == keyless.key_for(256.0)
