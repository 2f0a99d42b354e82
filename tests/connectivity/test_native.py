"""The native lane of the batched MST kernel and growth-curve sweep.

:mod:`repro.connectivity.native` must be an execution detail:

* each entry point returns exactly the NumPy lane's arrays, bit for bit
  and dtype for dtype, on uniform, tie-heavy integer-grid, all-coincident
  and near-limit frames, float32, integer and non-contiguous inputs, and
  on batch sizes that give the MST kernel full groups of 8 frames (its
  frame-parallel pass, on a CPU with AVX-512), a remainder (its compacted
  pass), or both;
* the kernel sends exactly the full groups of 8 frames of 1 to 3
  dimensions to the frame-parallel pass when the library reports 8
  lanes, and it reports 8 lanes exactly when the CPU has AVX-512F and
  AVX-512DQ;
* the frame-parallel pass sorts each group's edges with one sorting
  network across the 8 frames, which orders them as the compacted pass's
  stable merge sort does, ties of length by Prim position: on every n
  from 2 to 129 (sizes on both sides of each power of two) and on
  tie-heavy integer grids and all-coincident frames;
* a batch with a coordinate that is not finite, or of magnitude at least
  ``COORDINATE_LIMIT``, never reaches the C kernel and gives exactly the
  NumPy lane's output; the sweep reads no coordinate, and takes the C
  lane exactly when every edge it is handed is finite;
* without a compiler, or with a cache that fails to build, load or pass
  the ownership check, the process warns once, counts one
  ``native.fallbacks`` (which reaches ``campaign report``) and keeps the
  NumPy lane's results;
* a build prunes the cache to the ``KEEP_LIBRARIES`` newest libraries
  and drops build temporaries older than ``BUILD_TIMEOUT``, touching
  nothing else, and a failed removal costs nothing but the removal.

The build tests point ``XDG_CACHE_HOME`` at a temporary directory.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.cli import main
from repro.connectivity import native
from repro.connectivity.critical_range import (
    _minimum_spanning_edges_batch_numpy,
    minimum_spanning_edges_batch,
)
from repro.simulation.engine import (
    _growth_curve_columns_numpy,
    frame_statistics_columns,
)
from repro.telemetry import report

requires_compiler = pytest.mark.skipif(
    native.compiler() is None, reason="no C compiler on PATH"
)

TINY_CAMPAIGN = """
name = "native-fallback"
experiments = ["fig2"]
scale = "smoke"

[overrides]
sides = [256.0]
steps = 8
iterations = 1
stationary_iterations = 15
seed = 5
"""


#: The near-limit family's coordinates lie in (-NEAR_LIMIT, NEAR_LIMIT),
#: a tenth of ``native.COORDINATE_LIMIT``: squared distances near 1e298.
NEAR_LIMIT = 1e149


@st.composite
def frame_batches(draw):
    """``(B, n, d)`` frames of every shape, dtype and layout the lanes take.

    B is drawn so that the MST kernel runs only full groups of 8 frames
    (8, 16), only a remainder (1, 7) or both (9, 13, 17).
    """
    n = draw(st.integers(min_value=2, max_value=128))
    dimension = draw(st.integers(min_value=0, max_value=4))
    batch = draw(st.sampled_from([1, 7, 8, 9, 13, 16, 17]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    shape = (batch, n, dimension)
    family = draw(st.sampled_from(["uniform", "grid", "coincident", "near-limit"]))
    if family == "uniform":
        frames = rng.random(shape) * 100.0
    elif family == "grid":  # coincident nodes and tied edge lengths
        frames = rng.integers(0, draw(st.sampled_from([2, 3, 6])), size=shape).astype(float)
    elif family == "coincident":  # every edge of a frame has length 0
        frames = np.broadcast_to(rng.random((batch, 1, dimension)) * 100.0, shape)
    else:
        frames = (rng.random(shape) * 2.0 - 1.0) * NEAR_LIMIT
    if family != "near-limit":  # float32 and int64 cannot hold 1e149
        frames = frames.astype(draw(st.sampled_from([np.float64, np.float32, np.int64])))
    layout = draw(st.sampled_from(["contiguous", "reversed", "fortran"]))
    if layout == "reversed":
        frames = frames[:, ::-1]
    elif layout == "fortran":
        frames = np.asfortranarray(frames)
    return frames


def assert_same_arrays(observed, expected):
    assert len(observed) == len(expected)
    for observed_array, expected_array in zip(observed, expected):
        assert observed_array.dtype == expected_array.dtype
        assert observed_array.shape == expected_array.shape
        assert observed_array.tobytes() == expected_array.tobytes()


def column_arrays(columns):
    return (
        columns.critical_ranges,
        columns.curve_offsets,
        columns.curve_ranges,
        columns.curve_sizes,
    )


def numpy_lane_columns(frames):
    with mock.patch.object(native, "load", return_value=None):
        return frame_statistics_columns(frames)


@pytest.fixture
def fresh_loader(tmp_path, monkeypatch):
    """A loader that has not run yet, over an empty cache in ``tmp_path``.

    Returns the library's cache directory (not created yet).
    """
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_LIBRARY", native._UNSET)
    telemetry.metrics.drain()
    return tmp_path / "cache" / "repro" / "native"


def fallbacks() -> float:
    return telemetry.metrics.drain().get("native.fallbacks", {}).get("value", 0)


class TestParity:
    @settings(max_examples=60, deadline=None)
    @given(frames=frame_batches())
    def test_the_kernel_lanes_agree_bit_for_bit(self, native_library, frames):
        expected = _minimum_spanning_edges_batch_numpy(np.asarray(frames, dtype=np.float64))
        assert_same_arrays(native_library.mst_batch(frames), expected)
        assert_same_arrays(minimum_spanning_edges_batch(frames), expected)

    @settings(max_examples=60, deadline=None)
    @given(frames=frame_batches())
    def test_the_sweep_lanes_agree_bit_for_bit(self, native_library, frames):
        n = frames.shape[1]
        edges = _minimum_spanning_edges_batch_numpy(np.asarray(frames, dtype=np.float64))
        expected = _growth_curve_columns_numpy(*edges, n)
        assert_same_arrays(native_library.growth_curves(*edges, n), expected)
        observed = frame_statistics_columns(frames)
        assert observed.node_count == n
        assert_same_arrays(column_arrays(observed), expected)

    @pytest.mark.parametrize("dimension", [1, 2, 3, 4])
    @pytest.mark.parametrize("batch", [1, 7, 8, 9, 16, 17])
    def test_full_groups_take_the_frame_parallel_pass(
        self, native_library, batch, dimension
    ):
        """Which pass served each frame, seen through a probe outside the
        kernel's contract: node 0 at -1e200 and node 1 at +1e200 on every
        axis, so their squared distance overflows to inf.  The compacted
        pass still picks node 1 (length inf); the frame-parallel pass,
        whose pick starts at inf with a strict "<", keeps node 0's NaN.
        ``takes`` refuses such coordinates, so no caller meets this."""
        frames = np.zeros((batch, 2, dimension))
        frames[:, 0], frames[:, 1] = -1e200, 1e200
        wide = 0
        if native_library.lanes == 8 and dimension <= 3:
            wide = batch - batch % 8
        _, _, lengths = native_library.mst_batch(frames)
        assert np.isnan(lengths[:, 0]).tolist() == [row < wide for row in range(batch)]

    def test_the_public_functions_take_the_native_lane(self, native_library):
        frames = np.random.default_rng(7).random((4, 30, 2)) * 100.0
        with mock.patch.object(
            native.NativeLibrary, "mst_batch", autospec=True,
            side_effect=native.NativeLibrary.mst_batch,
        ) as kernel, mock.patch.object(
            native.NativeLibrary, "growth_curves", autospec=True,
            side_effect=native.NativeLibrary.growth_curves,
        ) as sweep:
            frame_statistics_columns(frames)
        assert kernel.call_count == sweep.call_count == 1

    @pytest.mark.parametrize("n", [2, 33, 128])
    def test_an_empty_batch(self, native_library, n):
        frames = np.zeros((0, n, 2))
        assert_same_arrays(
            column_arrays(frame_statistics_columns(frames)),
            column_arrays(numpy_lane_columns(frames)),
        )


class TestLibraryChecks:
    def test_a_frame_of_one_node_is_refused(self, native_library):
        with pytest.raises(ValueError, match="at least two nodes"):
            native_library.mst_batch(np.zeros((3, 1, 2)))

    @pytest.mark.skipif(
        not (sys.platform.startswith("linux") and platform.machine() == "x86_64"),
        reason="reads the CPU flags from /proc/cpuinfo",
    )
    def test_the_library_reports_8_lanes_exactly_on_avx512(self, native_library):
        flags = set()
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("flags"):
                flags = set(line.split(":", 1)[1].split())
                break
        wide = {"avx512f", "avx512dq"} <= flags
        assert native_library.lanes == (8 if wide else 1)

    def test_edge_arrays_of_the_wrong_shape_are_refused(self, native_library):
        us, vs, lengths = native_library.mst_batch(np.random.default_rng(1).random((3, 6, 2)))
        with pytest.raises(ValueError, match="edge arrays"):
            native_library.growth_curves(us, vs, lengths[:, :-1], 6)
        with pytest.raises(ValueError, match="edge arrays"):
            native_library.growth_curves(us, vs, lengths, 7)

    def test_a_failed_scratch_allocation_raises_memory_error(
        self, native_library, monkeypatch
    ):
        frames = np.random.default_rng(1).random((3, 6, 2))
        us, vs, lengths = native_library.mst_batch(frames)
        monkeypatch.setattr(native_library, "_mst_batch", lambda *args: 1)
        monkeypatch.setattr(native_library, "_growth_curves", lambda *args: 1)
        with pytest.raises(MemoryError):
            native_library.mst_batch(frames)
        with pytest.raises(MemoryError):
            native_library.growth_curves(us, vs, lengths, 6)

    @pytest.mark.parametrize("endpoint", [-1, 6])
    def test_an_edge_endpoint_out_of_range_is_refused(self, native_library, endpoint):
        us, vs, lengths = native_library.mst_batch(np.random.default_rng(1).random((3, 6, 2)))
        vs[2, 4] = endpoint
        with pytest.raises(ValueError, match="outside"):
            native_library.growth_curves(us, vs, lengths, 6)


class TestInputsTheCLaneRefuses:
    @pytest.mark.parametrize(
        "value",
        [np.nan, np.inf, -np.inf, 1e200, -1e200, native.COORDINATE_LIMIT],
        ids=["nan", "inf", "-inf", "1e200", "-1e200", "limit"],
    )
    def test_they_run_the_numpy_lane_end_to_end(self, native_library, value):
        frames = np.random.default_rng(3).random((5, 12, 2)) * 100.0
        frames[2, 7, 1] = value
        assert not native.takes(frames)
        refuse = mock.Mock(side_effect=AssertionError("the C lane ran"))
        with np.errstate(over="ignore", invalid="ignore"):
            expected_edges = _minimum_spanning_edges_batch_numpy(frames)
            expected_columns = numpy_lane_columns(frames)
            with mock.patch.object(native.NativeLibrary, "mst_batch", refuse):
                edges = minimum_spanning_edges_batch(frames)
                if value == native.COORDINATE_LIMIT:
                    # 1e150 squares to a finite 1e300: every edge is
                    # finite, so the C sweep may take them.
                    columns = frame_statistics_columns(frames)
                else:
                    # A NaN, an infinity or a square that overflows gives
                    # edges that are not finite: the C sweep never sees them.
                    with mock.patch.object(
                        native.NativeLibrary, "growth_curves", refuse
                    ):
                        columns = frame_statistics_columns(frames)
        assert_same_arrays(edges, expected_edges)
        assert_same_arrays(column_arrays(columns), column_arrays(expected_columns))

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["+limit", "-limit"])
    @pytest.mark.parametrize("with_nan", [False, True], ids=["finite", "nan"])
    def test_the_sweep_takes_the_c_lane_exactly_for_finite_edges(
        self, native_library, sign, with_nan
    ):
        """One coordinate at +-1e150 (and one NaN in another frame): the
        NumPy kernel serves the batch.  With every edge finite the C
        sweep takes its edges; a NaN edge keeps the Python sweep.  Each
        way, the columns are the NumPy lane's, from one coordinate scan."""
        frames = np.random.default_rng(4).random((9, 20, 2)) * 100.0
        frames[1, 3, 0] = sign * native.COORDINATE_LIMIT
        if with_nan:
            frames[6, 11, 1] = np.nan
        with np.errstate(invalid="ignore"):
            expected = numpy_lane_columns(frames)
            with mock.patch.object(
                native, "takes", autospec=True, side_effect=native.takes
            ) as scans, mock.patch.object(
                native.NativeLibrary, "growth_curves", autospec=True,
                side_effect=native.NativeLibrary.growth_curves,
            ) as sweep:
                columns = frame_statistics_columns(frames)
        assert scans.call_count == 1
        assert sweep.call_count == (0 if with_nan else 1)
        assert_same_arrays(column_arrays(columns), column_arrays(expected))

    def test_the_largest_coordinate_below_the_limit_is_taken(self):
        frames = np.zeros((1, 3, 2))
        frames[0, 1, 0] = -np.nextafter(native.COORDINATE_LIMIT, 0.0)
        assert native.takes(frames)


class TestSortingNetwork:
    """The frame-parallel pass's sort against the NumPy lane's stable
    argsort, at every size class the network pads to a power of two."""

    @pytest.mark.parametrize("family", ["uniform", "grid", "coincident"])
    @pytest.mark.parametrize(
        "n", [2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65, 96, 128, 129]
    )
    @pytest.mark.parametrize("batch", [8, 9, 16, 17])
    def test_the_edges_come_out_as_the_stable_sort_orders_them(
        self, native_library, batch, n, family
    ):
        rng = np.random.default_rng(batch * 1000 + n)
        dimension = 1 + n % 3
        shape = (batch, n, dimension)
        if family == "uniform":
            frames = rng.random(shape) * 100.0
        elif family == "grid":  # many tied lengths, broken by Prim position
            frames = rng.integers(0, 3, size=shape).astype(float)
        else:  # every length 0
            frames = np.broadcast_to(rng.random((batch, 1, dimension)), shape).copy()
        expected = _minimum_spanning_edges_batch_numpy(frames)
        assert_same_arrays(native_library.mst_batch(frames), expected)


class TestBuildAndFallback:
    def test_no_compiler_warns_once_and_counts_one_fallback(
        self, fresh_loader, tmp_path, monkeypatch
    ):
        (tmp_path / "bin").mkdir()
        monkeypatch.setenv("PATH", str(tmp_path / "bin"))
        frames = np.random.default_rng(11).integers(0, 4, size=(6, 20, 2)).astype(float)
        with pytest.warns(RuntimeWarning, match="no C compiler") as caught:
            columns = frame_statistics_columns(frames)
            again = frame_statistics_columns(frames)
        assert len(caught) == 1
        assert fallbacks() == 1
        edges = _minimum_spanning_edges_batch_numpy(frames)
        expected = _growth_curve_columns_numpy(*edges, 20)
        assert_same_arrays(column_arrays(columns), expected)
        assert_same_arrays(column_arrays(again), expected)
        assert not fresh_loader.exists()

    @requires_compiler
    def test_two_processes_building_at_once_leave_one_library(self, tmp_path):
        source_root = Path(native.__file__).resolve().parents[2]
        env = dict(
            os.environ,
            XDG_CACHE_HOME=str(tmp_path / "cache"),
            PYTHONPATH=str(source_root),
        )
        code = (
            "import warnings; warnings.simplefilter('error')\n"
            "from repro.connectivity import native\n"
            "assert native.load() is not None\n"
        )
        processes = [
            subprocess.Popen([sys.executable, "-c", code], env=env) for _ in range(2)
        ]
        assert [process.wait(timeout=120) for process in processes] == [0, 0]
        entries = os.listdir(tmp_path / "cache" / "repro" / "native")
        assert len(entries) == 1
        assert entries[0].startswith("repro_native-") and entries[0].endswith(".so")

    @requires_compiler
    def test_a_build_creates_a_private_directory(self, fresh_loader):
        assert native.load() is not None
        assert fresh_loader.stat().st_mode & 0o777 == 0o700
        assert [path.name for path in fresh_loader.iterdir()] == [
            native.library_path(native.compiler()).name
        ]

    @requires_compiler
    @pytest.mark.parametrize("mode", [0o770, 0o707], ids=["group", "world"])
    def test_a_directory_others_can_write_is_refused(self, fresh_loader, mode):
        fresh_loader.mkdir(parents=True)
        fresh_loader.chmod(mode)
        with pytest.warns(RuntimeWarning, match="writable by group or others"):
            assert native.load() is None
        assert fallbacks() == 1
        assert not list(fresh_loader.iterdir())

    @requires_compiler
    def test_a_directory_of_another_user_is_refused(self, fresh_loader, monkeypatch):
        uid = os.getuid()
        monkeypatch.setattr(native.os, "getuid", lambda: uid + 1)
        with pytest.warns(RuntimeWarning, match="owned by another user"):
            assert native.load() is None
        assert not list(fresh_loader.iterdir())

    @requires_compiler
    def test_a_library_that_fails_to_load_falls_back(self, fresh_loader):
        path = native.library_path(native.compiler())
        fresh_loader.mkdir(mode=0o700, parents=True)
        path.write_bytes(b"not a shared library")
        with pytest.warns(RuntimeWarning, match="native kernel unavailable"):
            assert native.load() is None
        assert fallbacks() == 1

    @requires_compiler
    def test_a_failed_build_falls_back_and_leaves_no_temporary(
        self, fresh_loader, tmp_path, monkeypatch
    ):
        broken = tmp_path / "native.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(native, "SOURCE", broken)
        with pytest.warns(RuntimeWarning, match="exited"):
            assert native.load() is None
        assert fallbacks() == 1
        assert not list(fresh_loader.iterdir())

    def test_fallbacks_reach_the_campaign_report(
        self, fresh_loader, tmp_path, monkeypatch, capsys
    ):
        (tmp_path / "bin").mkdir()
        monkeypatch.setenv("PATH", str(tmp_path / "bin"))
        spec = tmp_path / "spec.toml"
        spec.write_text(TINY_CAMPAIGN)
        store = tmp_path / "store"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["campaign", "run", str(spec), "--store", str(store), "--quiet"]) == 0
        capsys.readouterr()
        assert main(["campaign", "report", "--store", str(store)]) == 0
        assert "native.fallbacks" in capsys.readouterr().out
        built = report.load_or_build_report(report.latest_run_dir(store / "telemetry"))
        assert built["metrics"]["native.fallbacks"]["value"] >= 1


@requires_compiler
class TestCachePruning:
    @staticmethod
    def plant(directory, name, age):
        """A file ``name`` last modified ``age`` seconds ago."""
        path = directory / name
        path.write_bytes(b"stale")
        stamp = time.time() - age
        os.utime(path, (stamp, stamp))
        return path

    def plant_libraries(self, directory, count):
        """``count`` libraries of other source revisions, newest first."""
        directory.mkdir(mode=0o700, parents=True)
        return [
            self.plant(
                directory, f"repro_native-{index:064x}.so", 1000.0 * (index + 1)
            )
            for index in range(count)
        ]

    def test_a_build_keeps_the_newest_libraries_and_nothing_stale(
        self, fresh_loader
    ):
        libraries = self.plant_libraries(fresh_loader, native.KEEP_LIBRARIES + 2)
        killed = self.plant(
            fresh_loader, ".build-killed.so", native.BUILD_TIMEOUT + 60.0
        )
        kept = [
            self.plant(fresh_loader, name, 1e6)
            for name in ("notes.txt", "other.so", "repro_native-old.so.bak")
        ]
        (fresh_loader / "repro_native-directory.so").mkdir()
        (fresh_loader / "repro_native-link.so").symlink_to(libraries[-1])
        assert native.load() is not None
        built = native.library_path(native.compiler()).name
        assert sorted(os.listdir(fresh_loader)) == sorted([
            built,
            *(path.name for path in libraries[:native.KEEP_LIBRARIES - 1]),
            *(path.name for path in kept),
            "repro_native-directory.so",
            "repro_native-link.so",
        ])
        assert not killed.exists()

    def test_a_fresh_build_temporary_is_kept(self, fresh_loader):
        self.plant_libraries(fresh_loader, 0)
        in_flight = self.plant(fresh_loader, ".build-in-flight.so", 5.0)
        killed = self.plant(
            fresh_loader, ".build-killed.so", native.BUILD_TIMEOUT + 1.0
        )
        assert native.load() is not None
        assert in_flight.exists()
        assert not killed.exists()

    def test_an_unlink_failure_still_loads_the_c_lane(
        self, fresh_loader, monkeypatch
    ):
        libraries = self.plant_libraries(fresh_loader, native.KEEP_LIBRARIES + 1)
        unlink = os.unlink

        def refuse_in_cache(path, *args, **kwargs):
            if Path(path).parent == fresh_loader:
                raise PermissionError(f"refused: {path}")
            return unlink(path, *args, **kwargs)

        monkeypatch.setattr(native.os, "unlink", refuse_in_cache)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            library = native.load()
        assert library is not None
        assert fallbacks() == 0
        assert all(path.exists() for path in libraries)
        frames = np.random.default_rng(5).random((3, 9, 2))
        assert_same_arrays(
            column_arrays(frame_statistics_columns(frames)),
            column_arrays(numpy_lane_columns(frames)),
        )
