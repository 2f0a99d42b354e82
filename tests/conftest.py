"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.connectivity import native
from repro.geometry.region import Region
from repro.placement.strategies import uniform_placement


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
    """Run a test once per lane of the MST kernel and growth-curve sweep.

    The ``numpy`` case replaces :func:`repro.connectivity.native.load`
    so both dispatchers take their NumPy fallback.
    """
    if request.param == "numpy":
        monkeypatch.setattr(native, "load", lambda: None)
    else:
        require_native_library()
    return request.param
