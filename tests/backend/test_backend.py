"""Tests for :mod:`repro.backend`: the array-backend seam.

Three layers are pinned here:

* the registry contract — names, availability, lazy resolution, caching,
  and the registration/validation split (configs may *name* a backend the
  host cannot resolve);
* the ``numpy-strict`` verification backend — its guarded namespace must
  reject NumPy-isms outside the portable surface while still serving the
  portable names, and its functional idiom helpers must match the NumPy
  in-place forms bitwise;
* kernel parity — the refactored hot-path kernels (distance matrix, Prim
  MST single and batched, frame-statistics reduction) must be
  bit-identical under every available host backend.
"""

from __future__ import annotations

import importlib.util

import numpy as np
import pytest

from repro.backend import (
    DEFAULT_BACKEND,
    NUMPY_BACKEND,
    ArrayBackend,
    available_backends,
    backend_names,
    register_backend,
    resolve_backend,
    validate_backend,
)
from repro.connectivity.critical_range import (
    minimum_spanning_edges_batch,
    minimum_spanning_edges_from_squared,
)
from repro.exceptions import ConfigurationError
from repro.geometry.distance import squared_distance_matrix
from repro.simulation.engine import frame_statistics, frame_statistics_columns

HOST_BACKENDS = [
    name for name in available_backends() if resolve_backend(name).is_host
]


def random_frames(batch: int, n: int, dimension: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((batch, n, dimension)) * 100.0


class TestRegistry:
    def test_default_backend_is_numpy(self):
        assert DEFAULT_BACKEND == "numpy"
        assert resolve_backend(None) is NUMPY_BACKEND
        assert NUMPY_BACKEND.name == "numpy"
        assert NUMPY_BACKEND.is_host
        assert NUMPY_BACKEND.xp is np

    def test_builtin_names_are_registered(self):
        names = backend_names()
        assert names == tuple(sorted(names))
        for name in ("numpy", "numpy-strict", "cupy", "torch"):
            assert name in names

    def test_host_backends_always_available(self):
        available = available_backends()
        assert "numpy" in available
        assert "numpy-strict" in available
        assert set(available) <= set(backend_names())

    def test_resolution_is_cached(self):
        assert resolve_backend("numpy") is resolve_backend("numpy")
        assert resolve_backend("numpy-strict") is resolve_backend("numpy-strict")

    def test_instances_pass_through(self):
        handle = resolve_backend("numpy-strict")
        assert resolve_backend(handle) is handle

    def test_unknown_backend_is_rejected_with_registered_names(self):
        with pytest.raises(ConfigurationError) as excinfo:
            resolve_backend("jax")
        message = str(excinfo.value)
        assert "jax" in message
        assert "numpy" in message

    def test_validation_does_not_require_availability(self):
        # A config naming a GPU backend must build (and produce a cache
        # key) on a GPU-less host; only *resolving* it may fail.
        for name in ("cupy", "torch"):
            assert validate_backend(name) == name

    @pytest.mark.parametrize("name", ["cupy", "torch"])
    def test_missing_accelerator_backend_raises_on_resolve(self, name):
        if importlib.util.find_spec(name) is not None:
            pytest.skip(f"{name} is installed on this host")
        with pytest.raises(ConfigurationError, match=name):
            resolve_backend(name)
        assert name not in available_backends()

    def test_register_backend_replaces_and_invalidates_cache(self):
        class _Probe(ArrayBackend):
            name = "probe"

        try:
            register_backend("probe", _Probe)
            first = resolve_backend("probe")
            assert first.name == "probe"
            assert resolve_backend("probe") is first
            register_backend("probe", _Probe)
            assert resolve_backend("probe") is not first
        finally:
            from repro import backend as backend_module

            backend_module._REGISTRY.pop("probe", None)
            backend_module._RESOLVED.pop("probe", None)
        assert "probe" not in backend_names()

    def test_register_backend_rejects_bad_names(self):
        with pytest.raises(ConfigurationError):
            register_backend("", lambda: NUMPY_BACKEND)


class TestStrictNamespaceGuard:
    @pytest.fixture()
    def strict(self):
        return resolve_backend("numpy-strict")

    def test_portable_names_are_served(self, strict):
        xp = strict.xp
        values = xp.asarray([4.0, 1.0, 9.0])
        assert np.array_equal(xp.sqrt(values), np.sqrt([4.0, 1.0, 9.0]))
        assert xp.sum(values) == 14.0
        joined = xp.concat([values, values])
        assert joined.shape == (6,)

    @pytest.mark.parametrize("name", ["fill_diagonal", "intp", "put_along_axis", "ix_"])
    def test_numpy_only_names_are_rejected(self, strict, name):
        if importlib.util.find_spec("array_api_strict") is not None:
            pytest.skip("real array_api_strict namespace enforces its own surface")
        with pytest.raises(AttributeError, match="portable"):
            getattr(strict.xp, name)

    def test_arrays_are_host_ndarrays(self, strict):
        produced = strict.xp.zeros((2, 3))
        assert isinstance(produced, np.ndarray)
        assert np.array_equal(strict.to_host(produced), produced)
        round_tripped = strict.from_host(np.arange(4.0))
        assert np.array_equal(strict.to_host(round_tripped), np.arange(4.0))

    def test_idiom_helpers_match_numpy_forms(self, strict):
        rng = np.random.default_rng(7)
        for backend_pair in [(NUMPY_BACKEND, strict)]:
            fast, portable = backend_pair
            base = rng.random((4, 5, 5))
            mask = rng.random((4, 5, 5)) < 0.3
            expected = fast.fill_mask(base.copy(), mask, np.inf)
            observed = portable.fill_mask(portable.copy(base), mask, np.inf)
            assert np.array_equal(expected, observed)

            accumulator = rng.random((3, 6))
            update = rng.random((3, 6))
            expected = fast.minimum_update(accumulator.copy(), update)
            observed = portable.minimum_update(portable.copy(accumulator), update)
            assert np.array_equal(expected, observed)

            mask = rng.random((3, 6)) < 0.4
            expected = fast.masked_assign(accumulator.copy(), mask, update)
            observed = portable.masked_assign(portable.copy(accumulator), mask, update)
            assert np.array_equal(expected, observed)
            assert np.array_equal(expected, np.where(mask, update, accumulator))
            labels = rng.integers(0, 9, size=(3, 6))
            chosen = rng.integers(0, 9, size=3)
            assert np.array_equal(
                fast.masked_assign(labels.copy(), mask, chosen[:, None]),
                portable.masked_assign(portable.copy(labels), mask, chosen[:, None]),
            )

            batch_rows = np.arange(3)
            flat = rng.random((3, 25))
            pairs = rng.integers(0, 25, size=3)
            assert np.array_equal(
                fast.take_pairs(flat, batch_rows, pairs),
                portable.take_pairs(flat, batch_rows, pairs),
            )
            filled = fast.put_pairs(flat.copy(), batch_rows, pairs, np.inf)
            assert np.array_equal(
                filled,
                portable.put_pairs(portable.copy(flat), batch_rows, pairs, np.inf),
            )

            lengths = rng.random((2, 9))
            order_fast = fast.stable_argsort(lengths, axis=-1)
            order_portable = portable.stable_argsort(lengths, axis=-1)
            assert np.array_equal(order_fast, order_portable)
            assert np.array_equal(
                fast.take_along(lengths, order_fast, axis=-1),
                portable.take_along(lengths, order_portable, axis=-1),
            )


@pytest.mark.parametrize("backend_name", HOST_BACKENDS)
class TestKernelParity:
    """The refactored kernels are bit-identical across host backends."""

    def test_squared_distance_matrix(self, backend_name):
        backend = resolve_backend(backend_name)
        points = random_frames(1, 17, 3, seed=11)[0]
        expected = squared_distance_matrix(points)
        observed = squared_distance_matrix(points, xp=backend.xp)
        assert np.array_equal(backend.to_host(observed), expected)

    @pytest.mark.parametrize("dimension", [1, 2, 4])
    def test_prim_from_squared(self, backend_name, dimension):
        backend = resolve_backend(backend_name)
        points = random_frames(1, 23, dimension, seed=dimension)[0]
        squared = squared_distance_matrix(points)
        reference = minimum_spanning_edges_from_squared(squared)
        observed = minimum_spanning_edges_from_squared(squared, backend=backend)
        for expected_column, observed_column in zip(reference, observed):
            assert np.array_equal(expected_column, observed_column)

    def test_prim_batch(self, backend_name):
        backend = resolve_backend(backend_name)
        frames = random_frames(5, 19, 2, seed=3)
        reference = minimum_spanning_edges_batch(frames)
        observed = minimum_spanning_edges_batch(
            backend.from_host(frames), backend=backend
        )
        backend.synchronize()
        for expected_column, observed_column in zip(reference, observed):
            assert np.array_equal(
                NUMPY_BACKEND.to_host(expected_column),
                backend.to_host(observed_column),
            )

    def test_frame_statistics_columns(self, backend_name):
        frames = random_frames(6, 14, 2, seed=29)
        reference = frame_statistics_columns(frames)
        observed = frame_statistics_columns(frames, backend=backend_name)
        assert observed.node_count == reference.node_count
        assert np.array_equal(observed.critical_ranges, reference.critical_ranges)
        assert np.array_equal(observed.curve_offsets, reference.curve_offsets)
        assert np.array_equal(observed.curve_ranges, reference.curve_ranges)
        assert np.array_equal(observed.curve_sizes, reference.curve_sizes)

    def test_frame_statistics_columns_matches_per_frame_reference(self, backend_name):
        frames = random_frames(4, 12, 2, seed=41)
        columns = frame_statistics_columns(frames, backend=backend_name)
        for frame, statistics in zip(frames, columns):
            assert statistics == frame_statistics(frame)
