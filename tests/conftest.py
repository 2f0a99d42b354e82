"""Shared fixtures for the test suite."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.campaigns import CampaignRunner, CampaignSpec
from repro.connectivity import native
from repro.experiments.registry import _REGISTRY, Experiment, scale_by_name
from repro.geometry.region import Region
from repro.placement.strategies import uniform_placement
from repro.store import ResultStore


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def square_region() -> Region:
    """A 2-D region of side 100."""
    return Region.square(100.0)


@pytest.fixture
def line_region() -> Region:
    """A 1-D region of length 1000."""
    return Region.line(1000.0)


@pytest.fixture
def small_placement(square_region, rng) -> np.ndarray:
    """A reproducible uniform placement of 30 nodes in the square region."""
    return uniform_placement(30, square_region, rng)


def require_native_library() -> native.NativeLibrary:
    """The native library; fails when a C compiler is on PATH but it did
    not load, and skips only on a host without a compiler."""
    library = native.load()
    if library is None:
        if native.compiler() is not None:
            pytest.fail("a C compiler is on PATH but the native lane did not load")
        pytest.skip("no C compiler on PATH")
    return library


@pytest.fixture(scope="session")
def native_library() -> native.NativeLibrary:
    return require_native_library()


@pytest.fixture(params=["native", "numpy"])
def kernel_lane(request, monkeypatch):
    """Run a test once per lane of the native library's entry points: the
    MST kernel, the growth-curve sweep, the drunkard walk and the waypoint
    trajectory.

    The ``numpy`` case replaces :func:`repro.connectivity.native.load`
    so every dispatcher takes its NumPy fallback.  A test may choose the
    lane per case by indirect parametrization, where ``None`` leaves the
    lane alone (a case that reaches no native entry point).
    """
    if request.param == "numpy":
        monkeypatch.setattr(native, "load", lambda: None)
    elif request.param == "native":
        require_native_library()
    return request.param


@pytest.fixture
def sweep_experiment(monkeypatch):
    """Register throwaway experiments that sweep given values.

    ``sweep_experiment(parameter_name, values, measure)`` returns an
    :class:`Experiment` whose sweep visits ``values`` with ``measure`` at
    every scale; it leaves the registry when the test ends.
    """
    serial = itertools.count()

    def register(parameter_name, values, measure):
        experiment = Experiment(
            identifier=f"test-sweep-{next(serial)}",
            title="test sweep",
            description="sweeps the values a test hands it",
            paper_reference="(test only)",
            sweep_measure=lambda scale: measure,
            sweep_values=lambda scale: tuple(values),
            parameter_name=parameter_name,
        )
        monkeypatch.setitem(_REGISTRY, experiment.identifier, experiment)
        return experiment

    return register


@pytest.fixture
def serial_sweep(sweep_experiment):
    """``Experiment.run`` of a throwaway sweep: every value in order,
    in this process — the reference the campaign pool is compared to."""

    def run(parameter_name, values, measure):
        experiment = sweep_experiment(parameter_name, values, measure)
        return experiment.run(scale_by_name("smoke"))

    return run


@pytest.fixture
def campaign_sweep(sweep_experiment, tmp_path):
    """The same sweep as value tasks in the campaign scheduler's pool.

    ``campaign_sweep(parameter_name, values, measure, workers)`` runs a
    one-scenario campaign at ``total_workers=workers`` into a fresh store
    and returns its sweep.  The measure must pickle.
    """

    def run(parameter_name, values, measure, workers):
        experiment = sweep_experiment(parameter_name, values, measure)
        spec = CampaignSpec(
            name="pool", experiments=(experiment.identifier,), scale="smoke"
        )
        result = CampaignRunner(
            spec,
            ResultStore(tmp_path / experiment.identifier),
            total_workers=workers,
            telemetry=False,
        ).run()
        return result.sweeps[experiment.identifier]

    return run
