"""Array-namespace backend seam for the columnar hot path.

The contraction-heavy kernels — batched ``(steps, n, d)`` trajectories,
squared-distance matrices, the matrix-free batched Prim MST — are written
against an array namespace handle ``xp`` instead of the module-level
``numpy``.
:func:`resolve_backend` turns a backend name into an :class:`ArrayBackend`
that bundles that namespace with explicit device/dtype helpers:

``numpy``
    The default.  ``xp`` *is* the ``numpy`` module, transfers are no-ops,
    and every kernel produces bit-identical results to the pre-seam code.

``numpy-strict``
    A verification backend for CPU-only CI.  When ``array_api_strict`` is
    importable its namespace is used directly; otherwise ``xp`` is a
    guard-wrapped NumPy proxy that only exposes an allowlist of
    array-API-portable functions, so a kernel reaching for a NumPy-ism
    (``np.fill_diagonal``, ``out=``, ``np.intp`` …) fails loudly in the
    test lane instead of silently blocking a future device backend.

``cupy`` / ``torch``
    Detected at runtime; resolving them raises a clear
    :class:`~repro.exceptions.ConfigurationError` when the package is not
    installed.  They are *declared* different execution environments: RNG
    draws stay on host NumPy ``Generator`` streams and are transferred
    once per batch (:meth:`ArrayBackend.from_host`), results come back
    through :meth:`ArrayBackend.to_host` at an explicit sync point, and
    the backend name is part of every store cache key
    (:mod:`repro.store.keys`), so results computed on different backends
    can never alias one store entry.

Idioms outside the array-API standard (fancy 2-D gather/scatter, masked
fill and assignment, in-place minimum) live as *methods on the backend
object* rather than in the kernels — the NumPy implementations keep their
fast in-place forms, and a new backend overrides the handful of methods
instead of forking the kernels.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError

#: The default backend name, used wherever no explicit choice is made.
DEFAULT_BACKEND = "numpy"


class ArrayBackend:
    """A named array namespace plus device/dtype/transfer helpers.

    The base class implements every operation with host NumPy semantics;
    device backends subclass it and override the transfer helpers (and
    any idiom helper whose NumPy form does not apply).
    """

    #: Registry name (``"numpy"``, ``"numpy-strict"``, …).
    name: str = "numpy"
    #: Whether arrays of this backend live in host memory.  Host backends
    #: make :meth:`to_host`/:meth:`from_host` no-ops, which is what keeps
    #: the NumPy path allocation-free across the seam.
    is_host: bool = True

    def __init__(self, xp: Any = np) -> None:
        self.xp = xp

    # ------------------------------------------------------------------ #
    # Device / transfer helpers
    # ------------------------------------------------------------------ #
    def from_host(self, array: np.ndarray) -> Any:
        """Move a host NumPy array onto this backend (no-op on host)."""
        return array

    def to_host(self, array: Any) -> np.ndarray:
        """Materialise a backend array as host NumPy.

        Every kernel output that feeds host-side code (union-find sweeps,
        ``StepColumns``, codecs, the store) passes through here — this is
        the single device→host sync point of the hot path.
        """
        return np.asarray(array)

    def synchronize(self) -> None:
        """Block until queued device work is complete (no-op on host)."""

    # ------------------------------------------------------------------ #
    # Idiom helpers: operations outside the portable array-API subset.
    # Kernels call these instead of inlining NumPy-isms so a new backend
    # only has to override methods, never fork kernel code.
    # ------------------------------------------------------------------ #
    def copy(self, array: Any) -> Any:
        """An independent copy of ``array`` on this backend."""
        return array.copy()

    def fill_mask(self, array: Any, mask: Any, value: float) -> Any:
        """Return ``array`` with ``array[mask] = value`` applied.

        The NumPy form mutates in place and returns the same object;
        functional backends may return a fresh array — callers must use
        the return value.
        """
        array[mask] = value
        return array

    def take_pairs(self, array: Any, rows: Any, cols: Any) -> Any:
        """2-D gather ``array[rows, cols]`` (one element per row index)."""
        return array[rows, cols]

    def put_pairs(self, array: Any, rows: Any, cols: Any, value: Any) -> Any:
        """Return ``array`` with ``array[rows, cols] = value`` applied.

        Same in-place-on-NumPy / functional-elsewhere contract as
        :meth:`fill_mask`.
        """
        array[rows, cols] = value
        return array

    def masked_assign(self, array: Any, mask: Any, values: Any) -> Any:
        """Return ``array`` with ``values`` stored wherever ``mask`` holds.

        ``values`` broadcasts against ``array``.  Same in-place-on-NumPy /
        functional-elsewhere contract as :meth:`fill_mask`.
        """
        np.copyto(array, values, where=mask)
        return array

    def minimum_update(self, accumulator: Any, update: Any) -> Any:
        """Return ``elementwise_min(accumulator, update)``.

        NumPy accumulates in place (``out=``); functional backends return
        a fresh array — callers must use the return value.
        """
        return np.minimum(accumulator, update, out=accumulator)

    def stable_argsort(self, values: Any, axis: int = -1) -> Any:
        """Indices of a *stable* ascending sort along ``axis``."""
        return self.xp.argsort(values, axis=axis, stable=True)

    def take_along(self, values: Any, order: Any, axis: int) -> Any:
        """``take_along_axis`` under whatever name the namespace uses."""
        return self.xp.take_along_axis(values, order, axis=axis)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ArrayBackend(name={self.name!r})"


class _NumpyBackend(ArrayBackend):
    name = "numpy"


# --------------------------------------------------------------------------- #
# numpy-strict: portability verification on CPU-only CI
# --------------------------------------------------------------------------- #

#: Namespace functions the kernels may call — the intersection of what the
#: hot path needs with the array API standard (2023+, including
#: ``take_along_axis`` from the 2024 revision).  Attribute constants that
#: the standard also defines are listed alongside.
_PORTABLE_NAMES = frozenset({
    # creation / conversion
    "asarray", "astype", "arange", "empty", "zeros", "ones", "full",
    "linspace", "empty_like", "zeros_like", "ones_like", "full_like",
    # dtypes and inspection
    "bool", "int32", "int64", "float32", "float64", "isdtype", "finfo",
    "iinfo",
    # constants
    "inf", "nan", "pi", "newaxis", "e",
    # manipulation
    "reshape", "stack", "concat", "broadcast_to", "expand_dims", "squeeze",
    "permute_dims", "flip", "roll", "tile", "repeat",
    # elementwise
    "abs", "add", "subtract", "multiply", "divide", "negative", "sign",
    "sqrt", "square", "exp", "log", "log1p", "expm1", "pow", "cos", "sin",
    "tan", "atan2", "floor", "ceil", "trunc", "round", "clip", "hypot",
    "maximum", "minimum", "where", "isfinite", "isinf", "isnan",
    "logical_and", "logical_or", "logical_not", "logical_xor", "equal",
    "not_equal", "less", "less_equal", "greater", "greater_equal",
    "remainder", "copysign",
    # statistical / reduction
    "sum", "prod", "mean", "std", "var", "min", "max", "cumulative_sum",
    "any", "all",
    # searching / sorting / selection
    "argmin", "argmax", "argsort", "sort", "nonzero", "searchsorted",
    "take", "take_along_axis", "count_nonzero",
    # linear algebra entry points used by the kernels
    "matmul", "tensordot", "vecdot",
})

#: NumPy spellings accepted for array-API names that differ (the guard
#: proxy forwards the portable spelling to the NumPy one).
_NUMPY_ALIASES = {
    "concat": "concatenate",
    "permute_dims": "transpose",
    "pow": "power",
    "atan2": "arctan2",
    "cumulative_sum": "cumsum",
    "bool": "bool_",
    "isdtype": "isdtype",
}


class _GuardedNumpyNamespace:
    """A NumPy facade that only answers for array-API-portable names.

    Arrays flowing through it are ordinary ``numpy.ndarray``s — strictness
    polices which *namespace functions* the kernels reach for, which is
    the part of portability a host-only CI can actually verify.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_cache", {})

    def __getattr__(self, name: str) -> Any:
        cache = object.__getattribute__(self, "_cache")
        if name in cache:
            return cache[name]
        if name not in _PORTABLE_NAMES:
            raise AttributeError(
                f"namespace attribute {name!r} is not in the array-API "
                f"portable subset; use a portable spelling or add an "
                f"ArrayBackend idiom helper (repro.backend)"
            )
        value = getattr(np, _NUMPY_ALIASES.get(name, name))
        cache[name] = value
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "<guarded numpy namespace (array-API portable subset)>"


class _StrictBackend(ArrayBackend):
    """Verification backend: portable namespace, portable idiom helpers.

    The idiom helpers are deliberately re-implemented through the guarded
    namespace (no ``out=``, no fancy multi-axis indexing) so the strict
    test lane also exercises the functional fallbacks a device backend
    would rely on.
    """

    name = "numpy-strict"

    def __init__(self, xp: Any) -> None:
        super().__init__(xp)

    def copy(self, array: Any) -> Any:
        return self.xp.asarray(array, copy=True)

    def fill_mask(self, array: Any, mask: Any, value: float) -> Any:
        return self.xp.where(mask, self.xp.asarray(value, dtype=array.dtype), array)

    def take_pairs(self, array: Any, rows: Any, cols: Any) -> Any:
        taken = self.xp.take_along_axis(
            array, self.xp.reshape(cols, (-1, 1)), axis=1
        )
        return self.xp.reshape(taken, (-1,))

    def put_pairs(self, array: Any, rows: Any, cols: Any, value: Any) -> Any:
        width = array.shape[1]
        hit = self.xp.reshape(cols, (-1, 1)) == self.xp.arange(width)
        return self.xp.where(hit, self.xp.asarray(value, dtype=array.dtype), array)

    def masked_assign(self, array: Any, mask: Any, values: Any) -> Any:
        return self.xp.where(mask, values, array)

    def minimum_update(self, accumulator: Any, update: Any) -> Any:
        return self.xp.minimum(accumulator, update)

    def stable_argsort(self, values: Any, axis: int = -1) -> Any:
        return self.xp.argsort(values, axis=axis, stable=True)

    def take_along(self, values: Any, order: Any, axis: int) -> Any:
        return self.xp.take_along_axis(values, order, axis=axis)


def _make_strict_backend() -> ArrayBackend:
    try:  # array-api-strict, when installed, is the stronger check
        xp = importlib.import_module("array_api_strict")
    except ImportError:
        xp = _GuardedNumpyNamespace()
    return _StrictBackend(xp)


# --------------------------------------------------------------------------- #
# Optional device backends, detected at runtime
# --------------------------------------------------------------------------- #
class _CupyBackend(ArrayBackend):
    name = "cupy"
    is_host = False

    def from_host(self, array: np.ndarray) -> Any:
        return self.xp.asarray(array)

    def to_host(self, array: Any) -> np.ndarray:
        return self.xp.asnumpy(array)

    def synchronize(self) -> None:
        self.xp.cuda.get_current_stream().synchronize()

    def minimum_update(self, accumulator: Any, update: Any) -> Any:
        return self.xp.minimum(accumulator, update, out=accumulator)


def _make_cupy_backend() -> ArrayBackend:
    try:
        cupy = importlib.import_module("cupy")
        cupy.cuda.runtime.getDeviceCount()
    except Exception as error:  # ImportError or no usable CUDA device
        raise ConfigurationError(
            f"backend 'cupy' is not available in this environment: {error}"
        ) from error
    return _CupyBackend(cupy)


class _TorchBackend(ArrayBackend):
    name = "torch"
    is_host = False

    def __init__(self, torch: Any) -> None:
        super().__init__(torch)
        self._device = "cuda" if torch.cuda.is_available() else "cpu"

    def from_host(self, array: np.ndarray) -> Any:
        return self.xp.as_tensor(array, device=self._device)

    def to_host(self, array: Any) -> np.ndarray:
        return array.detach().cpu().numpy()

    def synchronize(self) -> None:
        if self._device == "cuda":
            self.xp.cuda.synchronize()

    def copy(self, array: Any) -> Any:
        return array.clone()

    def masked_assign(self, array: Any, mask: Any, values: Any) -> Any:
        return self.xp.where(mask, values, array)

    def stable_argsort(self, values: Any, axis: int = -1) -> Any:
        return self.xp.argsort(values, dim=axis, stable=True)

    def take_along(self, values: Any, order: Any, axis: int) -> Any:
        return self.xp.take_along_dim(values, order, dim=axis)


def _make_torch_backend() -> ArrayBackend:
    try:
        torch = importlib.import_module("torch")
    except ImportError as error:
        raise ConfigurationError(
            f"backend 'torch' is not available in this environment: {error}"
        ) from error
    return _TorchBackend(torch)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_REGISTRY: Dict[str, Callable[[], ArrayBackend]] = {
    "numpy": _NumpyBackend,
    "numpy-strict": _make_strict_backend,
    "cupy": _make_cupy_backend,
    "torch": _make_torch_backend,
}

_RESOLVED: Dict[str, ArrayBackend] = {}


def register_backend(name: str, factory: Callable[[], ArrayBackend]) -> None:
    """Register (or replace) a backend factory under ``name``.

    The factory runs lazily on first :func:`resolve_backend` call and may
    raise :class:`~repro.exceptions.ConfigurationError` when its runtime
    requirements (a package, a device) are missing.
    """
    if not name or not isinstance(name, str):
        raise ConfigurationError(f"backend name must be a non-empty string, got {name!r}")
    _REGISTRY[name] = factory
    _RESOLVED.pop(name, None)


def backend_names() -> Tuple[str, ...]:
    """All registered backend names (available or not), sorted."""
    return tuple(sorted(_REGISTRY))


def available_backends() -> Tuple[str, ...]:
    """The subset of registered backends that resolve on this host."""
    names = []
    for name in backend_names():
        try:
            resolve_backend(name)
        except ConfigurationError:
            continue
        names.append(name)
    return tuple(names)


def validate_backend(name: str) -> str:
    """Check ``name`` is a registered backend; returns it unchanged.

    Used by configuration ``__post_init__`` validation — registration is
    checked eagerly, *availability* only when the backend is resolved, so
    a config naming ``cupy`` can be built (and produce a cache key) on a
    host without a GPU.
    """
    if name not in _REGISTRY:
        raise ConfigurationError(
            f"unknown backend {name!r}; registered backends: "
            f"{', '.join(backend_names())}"
        )
    return name


def resolve_backend(
    backend: Union[str, ArrayBackend, None] = None,
) -> ArrayBackend:
    """Resolve a backend name (or pass an instance through) to a handle.

    ``None`` resolves to the default NumPy backend.  Resolved instances
    are cached per name; an unavailable backend raises
    :class:`~repro.exceptions.ConfigurationError` with the cause.
    """
    if backend is None:
        backend = DEFAULT_BACKEND
    if isinstance(backend, ArrayBackend):
        return backend
    validate_backend(backend)
    if backend not in _RESOLVED:
        _RESOLVED[backend] = _REGISTRY[backend]()
    return _RESOLVED[backend]


#: The process-wide default handle — kernels use it when no backend is
#: passed, which keeps the NumPy path free of per-call resolution cost.
NUMPY_BACKEND: ArrayBackend = resolve_backend("numpy")
