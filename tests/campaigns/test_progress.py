"""Golden-text tests for campaign progress events.

The rendered one-line form of every event class is load-bearing: the
CLI prints it, tests grep it, and the telemetry layer promises that
wrapping a consumer with :func:`repro.telemetry.annotated` changes the
text by zero bytes.  These tests pin each ``render()`` string exactly,
so an accidental rewording fails loudly instead of silently breaking
downstream consumers.
"""

import pytest

from repro.campaigns.progress import (
    CacheHit,
    EntryEvicted,
    ScenarioCompleted,
    StoreDegraded,
    TaskCompleted,
    TaskFailed,
    TaskQuarantined,
    TaskRetried,
    as_text,
    render,
)

GOLDEN = [
    (
        CacheHit(scenario_id="fig2/s=1", key="abcdef0123456789deadbeef"),
        "fig2/s=1: cache hit (abcdef012345)",
    ),
    (
        EntryEvicted(scenario_id="fig2/s=1"),
        "fig2/s=1: unusable entry evicted, recomputing",
    ),
    (
        TaskCompleted(
            scenario_id="fig2/s=1",
            value=256.0,
            values_done=2,
            values_total=5,
        ),
        "fig2/s=1: value 256 done (2/5 values)",
    ),
    (
        TaskCompleted(
            scenario_id="fig2/s=1",
            value=0.5,
            values_done=1,
            values_total=4,
            iterations=30,
        ),
        "fig2/s=1: value 0.5 done (1/4 values; 30 iteration(s))",
    ),
    (
        ScenarioCompleted(
            scenario_id="fig2/s=1", computed_values=3, loaded_values=2
        ),
        "fig2/s=1: computed 3 value(s), resumed 2 from checkpoints",
    ),
    (
        TaskFailed(
            scenario_id="fig2/s=1",
            value=20.0,
            attempt=1,
            error="ValueError('boom')",
        ),
        "fig2/s=1: value 20 failed (attempt 1): ValueError('boom')",
    ),
    (
        TaskRetried(
            scenario_id="fig2/s=1",
            value=20.0,
            attempt=1,
            max_retries=2,
            delay=0.25,
            error="ValueError('boom')",
        ),
        "fig2/s=1: retrying value 20 (attempt 1/3 failed, backoff 0.25s)",
    ),
    (
        TaskQuarantined(
            scenario_id="fig2/s=1",
            value=20.0,
            attempts=3,
            error="ValueError('boom')",
        ),
        "fig2/s=1: value 20 quarantined after 3 attempt(s): "
        "ValueError('boom')",
    ),
    (
        StoreDegraded(
            scenario_id="fig2/s=1",
            scope="row",
            reason="[Errno 28] No space left on device",
        ),
        "fig2/s=1: store degraded to in-memory row checkpoints "
        "([Errno 28] No space left on device)",
    ),
]


@pytest.mark.parametrize(
    "event, expected", GOLDEN, ids=[type(e).__name__ for e, _ in GOLDEN]
)
def test_render_golden_text(event, expected):
    assert event.render() == expected
    assert render(event) == expected


def test_every_event_class_is_covered():
    import repro.campaigns.progress as progress

    covered = {type(event) for event, _ in GOLDEN}
    exported = {
        getattr(progress, name)
        for name in progress.__all__
        if isinstance(getattr(progress, name), type)
    }
    assert covered == exported


def test_as_text_adapts_a_string_sink():
    lines = []
    consume = as_text(lines.append)
    consume(EntryEvicted(scenario_id="scn"))
    consume(CacheHit(scenario_id="scn", key="0123456789abcdef"))
    assert lines == [
        "scn: unusable entry evicted, recomputing",
        "scn: cache hit (0123456789ab)",
    ]
