"""Tests for the theory experiments' per-value random streams (PR 4).

``theorem5-1d`` and ``occupancy-domains`` used to walk one sequential
``default_rng`` across their parameter values, which coupled every value
to all values before it: the sweeps could only cache whole and could not
be decomposed, value-checkpointed or scheduled.  Each value now draws
from its own :func:`repro.stats.rng.value_rng` child stream.  That is a
*deliberate* numbers shift relative to the shared-stream implementation;
the new streams are pinned here so any future accidental change is
caught.
"""

import pickle

import pytest

from repro.experiments.registry import ExperimentScale, get_experiment
from repro.experiments.theory_exp import (
    OccupancyDomainMeasure,
    Theorem5Measure,
    occupancy_cell_count,
    occupancy_payload,
)
from repro.stats.rng import value_rng

TINY = ExperimentScale(
    name="smoke",
    sides=(64.0, 256.0),
    steps=1,
    iterations=1,
    stationary_iterations=25,
    parameter_points=2,
    seed=7,
)


class TestPerValueStreams:
    def test_measures_are_order_invariant(self):
        """The row at one value no longer depends on the values measured
        before it — the property value checkpointing requires."""
        measure = Theorem5Measure(scale=TINY)
        forward = [measure(side) for side in (64.0, 256.0)]
        backward = [measure(side) for side in (256.0, 64.0)]
        assert forward[0] == backward[1]
        assert forward[1] == backward[0]

        occupancy = OccupancyDomainMeasure(scale=TINY)
        assert occupancy(2.0) == occupancy(2.0)
        first = occupancy(0.0)
        occupancy(4.0)
        assert occupancy(0.0) == first

    def test_measures_are_picklable(self):
        for measure, value in (
            (Theorem5Measure(scale=TINY), 64.0),
            (OccupancyDomainMeasure(scale=TINY), 1.0),
        ):
            clone = pickle.loads(pickle.dumps(measure))
            assert clone(value) == measure(value)

    def test_value_rng_is_label_and_value_sensitive(self):
        base = value_rng(7, 64.0, label="a").random(4).tolist()
        assert value_rng(7, 64.0, label="a").random(4).tolist() == base
        assert value_rng(7, 64.0, label="b").random(4).tolist() != base
        assert value_rng(7, 64.5, label="a").random(4).tolist() != base
        assert value_rng(8, 64.0, label="a").random(4).tolist() != base


class TestPinnedStreams:
    """Regression pins for the new per-value streams.

    These constants were produced by the first per-value-stream
    implementation; they intentionally differ from the pre-PR-4
    shared-stream numbers.
    """

    def test_theorem5_pinned(self):
        sweep = get_experiment("theorem5-1d").run(TINY)
        assert sweep.rows[0]["empirical_r99"] == pytest.approx(
            19.97105921539717, rel=1e-12
        )
        assert sweep.rows[1]["empirical_r99"] == pytest.approx(
            25.37235152998548, rel=1e-12
        )
        assert sweep.rows[1]["empirical_rn"] == pytest.approx(
            1623.8304979190707, rel=1e-12
        )

    def test_occupancy_pinned(self):
        sweep = get_experiment("occupancy-domains").run(TINY)
        assert sweep.rows[0]["simulated_mean"] == pytest.approx(56.41, rel=1e-12)
        assert sweep.rows[1]["simulated_mean"] == pytest.approx(44.74, rel=1e-12)
        assert sweep.rows[2]["simulated_variance"] == pytest.approx(
            6.331557788944724, rel=1e-12
        )


class TestCacheInvalidation:
    @pytest.mark.parametrize("identifier", ["theorem5-1d", "occupancy-domains"])
    def test_payloads_tag_the_stream_scheme(self, identifier):
        """The per-value streams shifted the simulated numbers, so the
        payloads carry an rng tag: stores written by the old shared-stream
        implementation (whose keys had no such tag) can never be served
        for the new computation (regression: theorem5-1d originally kept
        its default payload and would have returned stale cached rows)."""
        experiment = get_experiment(identifier)
        assert experiment.cache_payload is not None
        payload = experiment.cache_payload(TINY)
        assert payload["rng"] == "per-value-streams"


class TestOccupancyPayload:
    def test_cell_count_in_payload(self):
        """The cell grid is derived from scale.name, which scale_payload
        drops — the payload must carry it explicitly or smoke- and
        default-named scales with equal fields would collide."""
        smoke = TINY
        renamed = ExperimentScale(
            name="custom",
            sides=TINY.sides,
            steps=TINY.steps,
            iterations=TINY.iterations,
            stationary_iterations=TINY.stationary_iterations,
            parameter_points=TINY.parameter_points,
            seed=TINY.seed,
        )
        assert occupancy_cell_count(smoke) == 64
        assert occupancy_cell_count(renamed) == 256
        assert occupancy_payload(smoke) != occupancy_payload(renamed)
