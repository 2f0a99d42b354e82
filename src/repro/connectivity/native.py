"""Optional native lane of the MST kernel, the sweep and both mobility models.

``native.c`` beside this module holds four entry points that are
bit-identical to the NumPy code they stand in for, each a method of
:class:`NativeLibrary`:

* :meth:`~NativeLibrary.mst_batch`, Prim plus the stable sort of the MST
  edges of a ``(B, n, d)`` batch
  (:func:`repro.connectivity.critical_range.minimum_spanning_edges_batch`);
* :meth:`~NativeLibrary.growth_curves`, the union-find growth-curve sweep
  (:func:`repro.simulation.engine.frame_statistics_columns`);
* :meth:`~NativeLibrary.drunkard_walk`, the decode of the uniform block
  and the step loop of
  :meth:`repro.mobility.drunkard.DrunkardModel.trajectory` in one and two
  dimensions (the draw itself stays one NumPy call);
* :meth:`~NativeLibrary.waypoint_trajectory`, the whole event loop of
  :meth:`repro.mobility.waypoint.RandomWaypointModel.trajectory` in one
  to three dimensions, drawing destinations and speeds from the caller's
  generator through NumPy's public ``bitgen_t`` exactly as
  ``Generator.uniform`` does, under the bit generator's lock.

Those four dispatch here; nothing else changes, so no cache key, golden
key or row digest depends on which lane ran.  The drunkard decode calls
glibc's ``sqrt``, ``sin`` and ``cos``, which return the same bits as
NumPy 2.4's float64 ``np.sqrt``, ``np.sin`` and ``np.cos`` (no difference
in 20 000 000 angles ``2 * pi * u``); were a later NumPy to change those,
the golden row digests of the NumPy lane would move.  NumPy's ``np.log``,
which the Box-Muller decode above two dimensions needs, differs from
glibc's in the last bit of about 0.4% of uniforms, so that decode stays
in NumPy.

The kernel has two Prim passes with the same edges.  On a CPU with
AVX-512F and AVX-512DQ it runs each full group of 8 frames of 1 to 3
dimensions in one frame-parallel pass, one frame per vector lane, and
sorts the 8 frames' edges with one sorting network; the last ``B mod 8``
frames, other dimensions and other CPUs take the compacted one-frame
pass and its merge sort.  The library asks the CPU at run time, and
:attr:`NativeLibrary.lanes` reports the answer (8 or 1).  :data:`FLAGS`
carries no ``-march``: only the frame-parallel functions are compiled
for AVX-512, since the library's cache name records the machine type
but not the CPU's features.

On the first :func:`load` in a process, unless a library built from the
same source is cached already, the system C compiler builds it into
``$XDG_CACHE_HOME/repro/native/`` (``~/.cache/repro/native/`` when the
variable is unset), under a file name carrying a sha256 of the source,
the compiler command and its flags, and the machine type; stdlib
:mod:`ctypes` loads it.  Concurrent first uses (forked pool workers
on a cold cache) each compile to a temporary name and ``os.replace`` it
into place.  After a build, the cache keeps the :data:`KEEP_LIBRARIES`
newest libraries by mtime (several checkouts may share it) and drops
build temporaries a killed compiler left behind.  The loader runs the
code it finds there, so it refuses a cache directory that is group- or
world-writable or owned by another user.  With no compiler, a failed
build or a failed load, the process warns once
(:class:`RuntimeWarning`), adds 1 to the ``native.fallbacks`` telemetry
counter and keeps the NumPy lane: only speed is lost.

Nothing here runs at import time; :mod:`ctypes` itself is imported on
first use.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import time
import warnings
from pathlib import Path
from typing import Any, Optional, Tuple

import numpy as np

__all__ = ["NativeLibrary", "compiler", "library_path", "load", "takes"]

SOURCE = Path(__file__).with_name("native.c")
#: Compilers tried in order; the first one on ``PATH`` builds the library.
COMPILERS = ("cc", "gcc", "clang")
#: Bit-identical IEEE arithmetic: no fused multiply-adds, no -ffast-math,
#: no -march (the AVX-512 pass is chosen at run time, see above).
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
#: The C lane takes only coordinates of smaller magnitude, so that every
#: squared distance is finite (NumPy's argmin returns the first NaN, and a
#: distance that overflows to inf ties with the tree nodes' inf).
COORDINATE_LIMIT = 1e150
#: Libraries the cache keeps after a build, the new one included: the
#: newest by mtime, so checkouts of other source revisions sharing the
#: cache keep theirs for a while.
KEEP_LIBRARIES = 4
#: Seconds a build may take; a build temporary older than this was left
#: by a compiler that was killed before its cleanup ran.
BUILD_TIMEOUT = 120

_UNSET: Any = object()
#: The loaded library, ``None`` after a failed load, or unset.
_LIBRARY: Any = _UNSET


def _pointer(array: np.ndarray) -> int:
    return array.__array_interface__["data"][0]


def _in_place(name: str, array: np.ndarray, dtype: Any, shape: Tuple[int, ...]) -> int:
    """The address of ``array``, which the library writes in place.

    Refuses an array that is not writeable, C-contiguous, of ``dtype``
    and of ``shape``: the library could not fill it, and a copy would
    leave the caller's array as it was.
    """
    if not (
        array.dtype == dtype and array.shape == shape
        and array.flags.c_contiguous and array.flags.writeable
    ):
        raise ValueError(
            f"{name} must be a writeable C-contiguous {np.dtype(dtype).name} "
            f"array of shape {shape}"
        )
    return _pointer(array)


class NativeLibrary:
    """The loaded shared library, with NumPy-shaped calls.

    ``lanes`` is the number of frames one Prim pass of :meth:`mst_batch`
    serves on this CPU: 8 where the frame-parallel pass runs, else 1.
    """

    def __init__(self, path: Path) -> None:
        import ctypes

        library = ctypes.CDLL(str(path))
        lanes = library.repro_mst_lanes
        lanes.argtypes = []
        lanes.restype = ctypes.c_int
        self.lanes: int = lanes()
        pointer, size = ctypes.c_void_p, ctypes.c_int64
        self._mst_batch = library.repro_mst_batch
        self._mst_batch.argtypes = [pointer, size, size, size, pointer, pointer, pointer]
        self._mst_batch.restype = ctypes.c_int
        self._growth_curves = library.repro_growth_curves
        self._growth_curves.argtypes = [
            pointer, pointer, pointer, size, size, pointer, pointer, pointer, pointer,
        ]
        self._growth_curves.restype = ctypes.c_int
        real = ctypes.c_double
        self._drunkard_walk = library.repro_drunkard_walk
        self._drunkard_walk.argtypes = [
            pointer, size, size, size, pointer, pointer, real, real, real,
        ]
        self._drunkard_walk.restype = None
        self._waypoint_trajectory = library.repro_waypoint_trajectory
        self._waypoint_trajectory.argtypes = [
            pointer, size, size, size, *[pointer] * 8, real, real, real, size, pointer,
        ]
        self._waypoint_trajectory.restype = ctypes.c_int

    def mst_batch(
        self, points: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted MST edges ``(us, vs, squared_lengths)``, ``(B, n - 1)`` each.

        ``points`` is a ``(B, n, d)`` batch with ``B >= 1`` and ``n >= 2``
        whose coordinates :func:`takes` accepted.  With 8 :attr:`lanes`
        and ``d`` from 1 to 3, the first ``B - B mod 8`` frames take the
        frame-parallel pass.
        """
        points = np.ascontiguousarray(points, dtype=np.float64)
        batch, n, dimension = points.shape
        if n < 2:
            raise ValueError(f"a frame needs at least two nodes, got {n}")
        us = np.empty((batch, n - 1), dtype=np.int64)
        vs = np.empty((batch, n - 1), dtype=np.int64)
        lengths = np.empty((batch, n - 1), dtype=np.float64)
        status = self._mst_batch(
            _pointer(points), batch, n, dimension,
            _pointer(us), _pointer(vs), _pointer(lengths),
        )
        if status:
            raise MemoryError("native MST kernel could not allocate its scratch")
        return us, vs, lengths

    def growth_curves(
        self, us: np.ndarray, vs: np.ndarray, lengths: np.ndarray, n: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The sweep over ``(B, n - 1)`` sorted MST edges, ``n >= 2``.

        Returns ``(critical_ranges, curve_offsets, curve_ranges,
        curve_sizes)`` with the dtypes of
        :class:`~repro.simulation.results.FrameStatisticsColumns`.
        """
        us = np.ascontiguousarray(us, dtype=np.int64)
        vs = np.ascontiguousarray(vs, dtype=np.int64)
        lengths = np.ascontiguousarray(lengths, dtype=np.float64)
        batch = us.shape[0]
        if n < 2 or not us.shape == vs.shape == lengths.shape == (batch, n - 1):
            raise ValueError(
                f"expected (B, {n - 1}) edge arrays, got {us.shape}, "
                f"{vs.shape} and {lengths.shape}"
            )
        critical = np.empty(batch, dtype=np.float64)
        offsets = np.empty(batch + 1, dtype=np.int64)
        ranges = np.empty(batch * (n - 1), dtype=np.float64)
        sizes = np.empty(batch * (n - 1), dtype=np.int64)
        status = self._growth_curves(
            _pointer(us), _pointer(vs), _pointer(lengths), batch, n,
            _pointer(critical), _pointer(offsets), _pointer(ranges), _pointer(sizes),
        )
        if status == 2:
            raise ValueError(f"an MST edge endpoint lies outside [0, {n})")
        if status:
            raise MemoryError("native growth-curve sweep could not allocate its scratch")
        total = int(offsets[-1])
        return critical, offsets, ranges[:total].copy(), sizes[:total].copy()

    def drunkard_walk(
        self, frames: np.ndarray, uniforms: np.ndarray, stationary: np.ndarray,
        ppause: float, step_radius: float, side: float,
    ) -> None:
        """Fill frames ``1 ..`` of ``frames`` in place from its frame 0.

        ``frames`` is a C-contiguous float64 ``(steps, n, d)`` array with
        ``d`` 1 or 2, ``uniforms`` the ``(steps - 1, n, 3)`` block of pause
        coins, radius and direction uniforms and ``stationary`` the nodes
        that never move; escapees reflect off the walls of ``[0, side]^d``.
        """
        if frames.ndim != 3 or frames.shape[2] not in (1, 2):
            raise ValueError(f"expected (steps, n, 1 or 2) frames, got {frames.shape}")
        steps, n, dimension = frames.shape
        uniforms = np.ascontiguousarray(uniforms, dtype=np.float64)
        stationary = np.ascontiguousarray(stationary, dtype=np.bool_)
        if uniforms.shape != (steps - 1, n, 3) or stationary.shape != (n,):
            raise ValueError(
                f"expected ({steps - 1}, {n}, 3) uniforms and ({n},) stationary, "
                f"got {uniforms.shape} and {stationary.shape}"
            )
        self._drunkard_walk(
            _in_place("frames", frames, np.float64, frames.shape), steps, n,
            dimension, _pointer(uniforms), _pointer(stationary),
            float(ppause), float(step_radius), float(side),
        )

    def waypoint_trajectory(
        self, frames: np.ndarray, legs: Tuple[np.ndarray, ...],
        stationary: np.ndarray, side: float, vmin: float, vmax: float,
        tpause: int, generator: np.random.Generator,
    ) -> None:
        """Fill frames ``1 ..`` of ``frames`` in place from its frame 0.

        ``frames`` is a C-contiguous float64 ``(steps, n, d)`` array with
        ``d`` from 1 to 3.  ``legs`` holds the model's per-node arrays,
        advanced in place: destinations ``(n, d)``, speeds ``(n,)``, pause
        steps left ``(n,)`` int64, leg origins and units ``(n, d)``, leg
        lengths ``(n,)`` and elapsed steps ``(n,)`` int64.  Destinations
        are drawn in ``[0, side]^d`` and speeds in ``[vmin, vmax]`` from
        ``generator``, whose bit generator is locked meanwhile.
        """
        if frames.ndim != 3 or not 1 <= frames.shape[2] <= 3:
            raise ValueError(f"expected (steps, n, 1 to 3) frames, got {frames.shape}")
        steps, n, dimension = frames.shape
        expected = [
            ("destinations", np.float64, (n, dimension)),
            ("speeds", np.float64, (n,)),
            ("pause", np.int64, (n,)),
            ("origins", np.float64, (n, dimension)),
            ("units", np.float64, (n, dimension)),
            ("lengths", np.float64, (n,)),
            ("elapsed", np.int64, (n,)),
        ]
        if len(legs) != len(expected):
            raise ValueError(f"expected {len(expected)} per-node arrays, got {len(legs)}")
        pointers = [
            _in_place(name, array, dtype, shape)
            for (name, dtype, shape), array in zip(expected, legs)
        ]
        stationary = np.ascontiguousarray(stationary, dtype=np.bool_)
        if stationary.shape != (n,):
            raise ValueError(f"expected ({n},) stationary, got {stationary.shape}")
        bit_generator = generator.bit_generator
        with bit_generator.lock:
            status = self._waypoint_trajectory(
                _in_place("frames", frames, np.float64, frames.shape), steps, n,
                dimension, *pointers, _pointer(stationary), float(side),
                float(vmin), float(vmax), int(tpause),
                bit_generator.ctypes.bit_generator.value,
            )
        if status:
            raise MemoryError("native waypoint trajectory could not allocate its scratch")


def takes(points: np.ndarray) -> bool:
    """``True`` when every coordinate is finite and below :data:`COORDINATE_LIMIT`.

    One reduction over the batch; NaN fails the comparison.
    """
    return points.size == 0 or bool(np.abs(points).max() < COORDINATE_LIMIT)


def compiler() -> Optional[str]:
    """The first of :data:`COMPILERS` on ``PATH``, or ``None``."""
    for name in COMPILERS:
        found = shutil.which(name)
        if found:
            return found
    return None


def library_path(command: str) -> Path:
    """Where the library the compiler ``command`` builds from the source lives.

    ``$XDG_CACHE_HOME/repro/native/``, or ``~/.cache/repro/native/``.
    """
    digest = hashlib.sha256(SOURCE.read_bytes())
    for part in (command, *FLAGS, platform.machine()):
        digest.update(b"\0" + part.encode())
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(cache) / "repro" / "native" / f"repro_native-{digest.hexdigest()}.so"


def _safe_directory(directory: Path) -> None:
    """Create ``directory`` (mode 0700) and refuse one others can write."""
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    status = directory.stat()
    if status.st_uid != os.getuid():
        raise OSError(f"{directory} is owned by another user")
    if status.st_mode & 0o022:
        raise OSError(f"{directory} is writable by group or others")


def _build(command: str, target: Path) -> None:
    """Compile the source into ``target`` through a temporary file."""
    descriptor, temporary = tempfile.mkstemp(
        prefix=".build-", suffix=".so", dir=target.parent
    )
    os.close(descriptor)
    try:
        completed = subprocess.run(
            [command, *FLAGS, "-o", temporary, str(SOURCE), "-lm"],
            capture_output=True, text=True, timeout=BUILD_TIMEOUT,
        )
        if completed.returncode != 0:
            raise OSError(
                f"{command} exited {completed.returncode}: {completed.stderr.strip()}"
            )
        os.replace(temporary, target)
    finally:
        if os.path.exists(temporary):
            os.unlink(temporary)


def _open() -> NativeLibrary:
    command = compiler()
    if command is None:
        raise OSError(f"no C compiler on PATH (tried {', '.join(COMPILERS)})")
    path = library_path(command)
    _safe_directory(path.parent)
    if not path.exists():
        _build(command, path)
        _prune(path)
    return NativeLibrary(path)


def _prune(library: Path) -> None:
    """Remove stale files beside the freshly built ``library``.

    Keeps ``library`` and the ``KEEP_LIBRARIES - 1`` newest other
    ``repro_native-*.so`` files by mtime, and removes ``.build-*.so``
    temporaries older than :data:`BUILD_TIMEOUT`.  Only regular files
    matching those names are touched.  Best effort: an ``OSError`` here
    must not turn a loadable library into a NumPy-lane fallback.
    """
    try:
        files = [
            (entry.stat(follow_symlinks=False).st_mtime, entry)
            for entry in os.scandir(library.parent)
            if entry.is_file(follow_symlinks=False) and entry.name.endswith(".so")
        ]
    except OSError:
        return
    others = sorted(
        (
            (mtime, entry) for mtime, entry in files
            if entry.name.startswith("repro_native-") and entry.name != library.name
        ),
        key=lambda pair: pair[0],
        reverse=True,
    )
    deadline = time.time() - BUILD_TIMEOUT
    stale = [entry for _, entry in others[KEEP_LIBRARIES - 1:]] + [
        entry for mtime, entry in files
        if entry.name.startswith(".build-") and mtime < deadline
    ]
    for entry in stale:
        try:
            os.unlink(entry.path)
        except OSError:
            pass


def load() -> Optional[NativeLibrary]:
    """The native library, built on first use; ``None`` means the NumPy lane.

    The outcome is kept for the life of the process, and forked children
    inherit it.  A failure warns once and counts one ``native.fallbacks``.
    """
    global _LIBRARY
    if _LIBRARY is _UNSET:
        _LIBRARY = _try_open()
    return _LIBRARY


def _try_open() -> Optional[NativeLibrary]:
    try:
        return _open()
    except (OSError, subprocess.SubprocessError, AttributeError) as error:
        from repro import telemetry

        warnings.warn(
            f"native kernel unavailable, using the NumPy lane: {error}",
            RuntimeWarning,
            stacklevel=3,
        )
        telemetry.metrics.counter("native.fallbacks").add(1)
        return None
