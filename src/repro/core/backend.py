"""Pluggable kernel backends: the array-namespace seam for ``core.kernel``.

Every function in :mod:`repro.core.kernel` — and therefore all four batch
engines — runs against an ambient :class:`KernelBackend`.  A backend names
an array namespace (``xp``, NumPy for every shipping backend) plus the
capability flags the kernel consults on its hot paths:

``numpy``
    The default.  float64/int64 everywhere, pure NumPy: bit-identical to
    the historical kernel, including array dtypes.

``numpy-compact``
    Dtype compaction.  The large persistent matrices — code matrices,
    crossing-index matrices and histograms — are allocated in the
    narrowest dtype that can hold them (:meth:`KernelBackend.code_dtype`
    / :meth:`~KernelBackend.index_dtype` / :meth:`~KernelBackend.hist_dtype`
    size them from ``n_bits`` and the sample count), while reductions and
    transient event-path intermediates stay int64 so nothing can wrap.
    Integer outputs are **bit-identical** to ``numpy`` (same values,
    narrower dtype); float outputs are float64 unless ``compact_floats``
    is set, which opts transfer-curve/linearity intermediates into
    float32 under the *tolerance* equivalence tier.

``numba``
    Optional import.  JIT-compiled event paths
    (:func:`repro.core.kernel_jit` versions of ``packed_crossing_events``
    and ``batch_msb_reference``) on top of the compact dtypes.  Selecting it when numba is not importable raises
    :class:`BackendUnavailableError`.  Documented equivalence tier:
    integer outputs bit-exact, float outputs within ``atol`` (summation
    order may change inside JIT loops).

Selection is ambient and thread-local, mirroring ``abort_scope`` /
``telemetry_session``: engines resolve a concrete backend name in
``prepare()`` (stored on the picklable shard context) and enter
:func:`backend_scope` inside ``run_shard`` so worker processes resolve
identically.  The process-wide default honours the
``REPRO_KERNEL_BACKEND`` environment variable, which is how CI runs the
tier-1 subset under ``numpy-compact`` without touching any call site.
"""

from __future__ import annotations

import importlib.util
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

__all__ = [
    "BackendUnavailableError",
    "KernelBackend",
    "DEFAULT_BACKEND_ENV",
    "available_backends",
    "auto_chunk_size",
    "backend_names",
    "backend_scope",
    "current_backend",
    "default_backend_name",
    "get_backend",
    "register_backend",
    "resolve_backend_name",
]


#: Environment variable naming the process-wide default backend.
DEFAULT_BACKEND_ENV = "REPRO_KERNEL_BACKEND"

#: Working-set budget per engine chunk: the default ``chunk_size`` is the
#: number of device rows whose materialised per-row state fits this many
#: bytes (bounded by [CHUNK_FLOOR, CHUNK_CAP]).  Sized so a chunk's hot
#: arrays stay cache/bandwidth friendly while amortising NumPy call
#: overhead; compacted dtypes shrink the row and therefore widen the
#: default chunk.
CHUNK_BUDGET_BYTES = 32 << 20
CHUNK_FLOOR = 64
CHUNK_CAP = 65536


class BackendUnavailableError(RuntimeError):
    """A registered backend's optional dependency is not importable."""


def auto_chunk_size(row_bytes: int,
                    budget: int = CHUNK_BUDGET_BYTES,
                    floor: int = CHUNK_FLOOR,
                    cap: int = CHUNK_CAP) -> int:
    """Memory-bandwidth-aware default chunk size.

    ``row_bytes`` is the engine's estimate of bytes materialised per
    device row inside one chunk (noise matrices, code matrices, event
    intermediates) under the *active backend's* dtypes — compacted rows
    are smaller, so compact backends get proportionally wider chunks.
    Chunking is RNG-transparent (see :class:`repro.production.execution.
    ExecutionPlan`), so this default can never change results, only the
    working-set size.
    """
    row_bytes = max(int(row_bytes), 1)
    return int(max(floor, min(cap, budget // row_bytes)))


@dataclass(frozen=True)
class KernelBackend:
    """One kernel backend: an array namespace plus capability flags."""

    #: Registry key, e.g. ``"numpy-compact"``.
    name: str
    #: Compact integer dtypes for code/index/histogram matrices.
    compact: bool = False
    #: Dispatch event kernels to the :mod:`repro.core.kernel_jit` loops.
    jit: bool = False
    #: Opt float transfer-curve intermediates into float32.
    compact_floats: bool = False
    #: ``"bit-exact"`` or ``"tolerance"`` — the differential-harness tier.
    equivalence: str = "bit-exact"
    #: Absolute tolerance for float outputs under the tolerance tier.
    atol: float = 0.0
    #: Optional module that must be importable for the backend to work.
    requires: Optional[str] = None

    @property
    def xp(self):
        """The array namespace handle (NumPy for all shipping backends)."""
        return np

    @property
    def available(self) -> bool:
        """Whether the backend's optional dependency is importable."""
        if self.requires is None:
            return True
        try:
            return importlib.util.find_spec(self.requires) is not None
        except (ImportError, ValueError):  # pragma: no cover - env quirks
            return False

    # -- dtype selection -------------------------------------------------
    #
    # Compaction applies only to the large persistent matrices; every
    # helper keeps ×2 headroom above the maximum stored value so in-dtype
    # arithmetic like ``code << 1`` or an off-by-one sentinel can never
    # wrap.  Reductions (flat bincount keys, cumsum counters) stay int64
    # at the call sites.

    def code_dtype(self, n_levels: int) -> np.dtype:
        """Dtype for ADC code matrices holding values in ``[0, n_levels)``."""
        if self.compact:
            if 2 * n_levels <= np.iinfo(np.int16).max:
                return np.dtype(np.int16)
            if 2 * n_levels <= np.iinfo(np.int32).max:
                return np.dtype(np.int32)
        return np.dtype(np.int64)

    def index_dtype(self, n_samples: int) -> np.dtype:
        """Dtype for sample/crossing indices in ``[0, n_samples]``."""
        if self.compact and 2 * (n_samples + 1) <= np.iinfo(np.int32).max:
            return np.dtype(np.int32)
        return np.dtype(np.int64)

    def hist_dtype(self, n_samples: int) -> np.dtype:
        """Dtype for per-code histogram counts (bounded by ``n_samples``)."""
        if self.compact and n_samples + 1 <= np.iinfo(np.uint32).max:
            return np.dtype(np.uint32)
        return np.dtype(np.int64)

    def float_dtype(self) -> np.dtype:
        """Dtype for transfer-curve/linearity floats (float32 is opt-in)."""
        return np.dtype(np.float32 if self.compact_floats else np.float64)

    def require_available(self) -> "KernelBackend":
        """Return ``self`` or raise :class:`BackendUnavailableError`."""
        if not self.available:
            raise BackendUnavailableError(
                f"kernel backend {self.name!r} requires the optional "
                f"dependency {self.requires!r}, which is not installed")
        return self


_REGISTRY: Dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Register ``backend`` under its name (idempotent re-registration)."""
    _REGISTRY[backend.name] = backend
    return backend


def backend_names() -> Tuple[str, ...]:
    """All registered backend names, registration order."""
    return tuple(_REGISTRY)


def available_backends() -> Tuple[str, ...]:
    """Names of registered backends whose dependencies import."""
    return tuple(name for name, b in _REGISTRY.items() if b.available)


def get_backend(name: str) -> KernelBackend:
    """Look up a backend by name; raise if unknown or unavailable."""
    try:
        backend = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; "
            f"registered: {', '.join(backend_names())}") from None
    return backend.require_available()


def resolve_backend_name(name: Optional[str]) -> str:
    """Concrete backend name for an engine: ``name`` or the ambient one.

    Engines call this in ``prepare()`` so the picklable shard context
    carries a concrete, validated name into worker processes.
    """
    if name is None:
        return current_backend().name
    return get_backend(name).name


register_backend(KernelBackend(name="numpy"))
register_backend(KernelBackend(name="numpy-compact", compact=True))
register_backend(KernelBackend(
    name="numba", compact=True, jit=True,
    equivalence="tolerance", atol=1e-9, requires="numba"))


_ACTIVE = threading.local()


def default_backend_name() -> str:
    """The process-wide default backend (``REPRO_KERNEL_BACKEND`` or numpy)."""
    return os.environ.get(DEFAULT_BACKEND_ENV, "numpy")


def current_backend() -> KernelBackend:
    """The ambient backend: innermost :func:`backend_scope`, else default."""
    stack = getattr(_ACTIVE, "stack", None)
    if stack:
        return stack[-1]
    return get_backend(default_backend_name())


@contextmanager
def backend_scope(name: str) -> Iterator[KernelBackend]:
    """Make ``name`` the ambient kernel backend for this thread."""
    backend = get_backend(name)
    stack = getattr(_ACTIVE, "stack", None)
    if stack is None:
        stack = _ACTIVE.stack = []
    stack.append(backend)
    try:
        yield backend
    finally:
        popped = stack.pop()
        assert popped is backend
