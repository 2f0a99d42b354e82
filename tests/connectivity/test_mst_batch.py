"""The matrix-free batched Prim kernel against the single-frame reference.

:func:`~repro.connectivity.critical_range.minimum_spanning_edges_batch`
computes each Prim row from the coordinates instead of reading it from a
stacked ``(B, n, n)`` squared-distance matrix.  Two properties are pinned
here:

* every row of a batch equals :func:`~repro.connectivity.critical_range.
  minimum_spanning_edges` of that frame bit for bit — same edges, same
  order, same squared lengths — including integer-grid frames full of
  tied and zero distances;
* the kernel's memory is ``O(B * n)``: one paper-scale batch peaks well
  below what a single ``(B, n, n)`` stack would take.

Every test runs on both lanes of the kernel (the ``kernel_lane``
fixture): the native C one and the NumPy fallback.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectivity.critical_range import (
    minimum_spanning_edges,
    minimum_spanning_edges_batch,
)

pytestmark = pytest.mark.usefixtures("kernel_lane")


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    dimension=st.sampled_from([1, 2, 3]),
    batch=st.sampled_from([1, 2, 7, 300]),
    grid_side=st.sampled_from([None, 2, 4]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_rows_equal_the_single_frame_mst(n, dimension, batch, grid_side, seed):
    rng = np.random.default_rng(seed)
    if grid_side is None:
        frames = rng.random((batch, n, dimension)) * 100.0
    else:  # coincident nodes and tied edge lengths
        frames = rng.integers(0, grid_side, size=(batch, n, dimension)).astype(float)
    us, vs, lengths = minimum_spanning_edges_batch(frames)
    for index, frame in enumerate(frames):
        expected_us, expected_vs, expected_lengths = minimum_spanning_edges(frame)
        assert np.array_equal(us[index], expected_us)
        assert np.array_equal(vs[index], expected_vs)
        assert lengths[index].tobytes() == expected_lengths.tobytes()


def test_peak_memory_is_linear_in_batch_times_nodes():
    batch, n = 256, 128
    frames = np.random.default_rng(5).random((batch, n, 2)) * 16384.0
    minimum_spanning_edges_batch(frames[:2])  # warm-up outside the trace
    tracemalloc.start()
    try:
        minimum_spanning_edges_batch(frames)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A (B, n, n) float64 stack alone would be 32 MiB; this bar is 4 MiB.
    assert peak < 16 * batch * n * 8, f"peak {peak / 2**20:.1f} MiB"
