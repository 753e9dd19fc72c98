"""Persistent worker pool and zero-copy shared-memory wafer transport.

Before this module existed, every multi-worker dispatch in
:class:`~repro.production.execution.ShardExecutor` built a fresh
``ProcessPoolExecutor`` — forking workers, running a handful of shards,
and tearing the pool down again — and shipped each shard its slice of the
wafer's transition matrix through a pickle pipe.  At small shard sizes the
pool spawn and the per-task pickling dominate the actual screening work
(``BENCH_6.json`` records the collapse).  This module removes both costs:

:class:`WorkerPool`
    A long-lived pool of worker processes.  Spawned once (lazily, on the
    first dispatch), reused by every subsequent dispatch — across engine
    runs, wafers, insertions and whole campaign scenarios — and torn down
    explicitly via :meth:`WorkerPool.close` (or a ``with`` block).  A
    module-level *default pool* (:func:`get_default_pool`) plus an ambient
    override (:func:`shared_pool`) let bare ``run_wafer(plan=...)`` calls
    reuse warm workers without any plumbing.

:class:`SharedWaferBuffer`
    A wafer-sized ``multiprocessing.shared_memory`` segment.  The parent
    copies the transition matrix into the segment once; workers attach
    the same pages read-only and slice their shard out with **zero
    copies and zero pickled arrays** — a task ships a tiny
    :class:`SliceRef` descriptor instead of matrix rows.

:class:`SliceRef`
    The picklable shard descriptor ``(name, offset, shape, dtype)``:
    attach the named segment and take a view.

Determinism is untouched by any of this: a :class:`SliceRef` resolves to
the *bit-identical* rows the old pickle path shipped, worker processes
hold no RNG state between tasks (every shard ships the run's seed and
its first device), and which worker executes which shard remains
irrelevant.  The pool is a scheduling optimisation, not a semantics
change — the invariance grids in ``tests/production`` and
``tests/campaign`` prove it.

Resource hygiene: segments are named ``repro_*`` so leak checks can spot
them, attaching processes never double-register with the multiprocessing
``resource_tracker`` (the classic spurious-"leaked shared_memory"
warning), owners unlink on :meth:`~SharedWaferBuffer.close`, and a
``weakref.finalize`` safety net plus an ``atexit`` hook on the default
pool guarantee nothing outlives the interpreter.
"""

from __future__ import annotations

import atexit
import binascii
import os
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry.core import (
    Telemetry,
    current_telemetry,
    telemetry_session,
)

__all__ = [
    "AUTO_SHARE_MIN_BYTES",
    "PoolBrokenError",
    "SharedWaferBuffer",
    "SliceRef",
    "WorkerPool",
    "as_slice_ref",
    "close_default_pool",
    "current_pool",
    "dispatch_pool",
    "get_default_pool",
    "shared_pool",
    "share_wafer",
    "sweep_stale_segments",
]


class PoolBrokenError(RuntimeError):
    """A pool worker died mid-flight (OOM kill, segfault, SIGKILL).

    Raised instead of the stdlib's opaque ``BrokenProcessPool``.  By the
    time the caller sees it, the broken pool has been closed and evicted
    from both the module default and the ambient :func:`shared_pool`
    stack, so the *next* :func:`get_default_pool` (or plan-based
    dispatch) builds a fresh pool of live workers.  Every shard is
    replayable by ``(seed, shard index)``, so callers such as ``repro
    serve`` recover by rebuilding and re-dispatching the affected shards
    — the error is a retry signal, not a terminal state.
    """

#: Transition matrices at least this large are automatically staged into a
#: transient shared-memory segment when dispatched to a multi-worker pool
#: (one memcpy into the segment instead of one pickled copy per shard).
AUTO_SHARE_MIN_BYTES = 1 << 18

#: Attached-segment cache entries kept per worker process (FIFO eviction).
_ATTACH_CACHE_SIZE = 8


def _multiprocessing_context():
    """The start method used for worker pools.

    ``fork`` when the platform offers it (cheapest, and the engines ship
    no unpicklable state either way), the platform default otherwise.
    """
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and os.name == "posix":
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


# ---------------------------------------------------------------------- #
# Shared-memory segments and slice descriptors
# ---------------------------------------------------------------------- #

#: Segments owned by *this* process, by name -> full matrix view.
#: :func:`as_slice_ref` consults it to recognise array views that are
#: backed by a registered segment.  Guarded by :data:`_SEGMENTS_LOCK`:
#: interleaved campaign scenario threads register segments (auto-staging
#: in ``ShardExecutor.run``) and unregister them (``_cleanup``, also
#: reachable from GC finalizers) while other threads iterate in
#: :func:`as_slice_ref`.
_SEGMENTS: Dict[str, np.ndarray] = {}
_SEGMENTS_LOCK = threading.Lock()

_NAME_LOCK = threading.Lock()
_NAME_COUNTER = 0


def _next_segment_name() -> str:
    """A collision-resistant ``repro_*`` segment name.

    The prefix is load-bearing: the leak checks (tests and the CI
    ``pool-smoke`` job) assert ``/dev/shm`` holds no ``repro_*`` entries
    after pool close, which only works if every segment we create is
    recognisable as ours.
    """
    global _NAME_COUNTER
    with _NAME_LOCK:
        _NAME_COUNTER += 1
        count = _NAME_COUNTER
    token = binascii.hexlify(os.urandom(4)).decode("ascii")
    return f"repro_{os.getpid()}_{count}_{token}"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):  # pragma: no cover - exists
        return True
    return True


def sweep_stale_segments(shm_dir: str = "/dev/shm") -> List[str]:
    """Unlink ``repro_*`` segments whose creating process is dead.

    A SIGKILLed process cannot run cleanup, so its in-flight
    :class:`SharedWaferBuffer` segments survive in ``/dev/shm`` (the
    multiprocessing resource tracker dies with the process group).  The
    segment name embeds the creator pid (``repro_<pid>_<n>_<token>``),
    so a successor — ``repro serve --resume`` is the caller — can
    reclaim the space safely: only segments whose pid no longer exists
    are touched, never this process's own or any live process's.
    Returns the names removed.
    """
    removed: List[str] = []
    try:
        names = os.listdir(shm_dir)
    except OSError:
        return removed
    own = os.getpid()
    for name in names:
        if not name.startswith("repro_"):
            continue
        parts = name.split("_")
        if len(parts) < 4 or not parts[1].isdigit():
            continue
        pid = int(parts[1])
        if pid == own or _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(shm_dir, name))
        except OSError:  # pragma: no cover - concurrent sweep
            continue
        removed.append(name)
    return removed


@dataclass(frozen=True)
class SliceRef:
    """Picklable descriptor of a contiguous row slice of a shared segment.

    ``shape`` rows of ``dtype`` starting ``offset`` bytes into the segment
    ``name``; :meth:`resolve` attaches the segment (read-only, cached per
    process) and returns a zero-copy view.
    """

    name: str
    offset: int
    shape: Tuple[int, ...]
    dtype: str

    def resolve(self) -> np.ndarray:
        """The zero-copy view of the rows this descriptor names."""
        return _attach_view(self.name, self.offset, self.shape,
                            np.dtype(self.dtype))


def as_slice_ref(array: Any) -> Optional[SliceRef]:
    """The descriptor of an array view, if one applies.

    Returns a :class:`SliceRef` when ``array`` is a C-contiguous view
    into a registered :class:`SharedWaferBuffer` segment, else ``None``.
    This is what makes zero-copy transparent: callers keep slicing plain
    ``wafer.transitions[lo:hi]`` arrays and the dispatch layer recognises
    the shared-memory-backed ones by address.
    """
    if not _SEGMENTS or not isinstance(array, np.ndarray):
        return None
    if not array.flags.c_contiguous or array.size == 0:
        return None
    ptr = array.__array_interface__["data"][0]
    with _SEGMENTS_LOCK:
        segments = list(_SEGMENTS.items())
    for name, segment in segments:
        base = segment.__array_interface__["data"][0]
        if array.dtype == segment.dtype and base <= ptr and \
                ptr + array.nbytes <= base + segment.nbytes:
            return SliceRef(name, ptr - base, array.shape, array.dtype.str)
    return None


class SharedWaferBuffer:
    """A transition matrix living in a shared-memory segment.

    Create with :meth:`from_array` (one memcpy of an existing matrix).
    The parent-side :attr:`array` view is registered so
    :func:`as_slice_ref` recognises any slice of it; workers attach the
    same pages read-only.

    The creating process owns the segment: :meth:`close` (or the ``with``
    block, or the garbage-collection safety net) unlinks it.  On Linux,
    unlinking only removes the name — mappings workers already hold stay
    valid until they drop them.
    """

    def __init__(self, shm, shape: Tuple[int, ...], dtype: np.dtype) -> None:
        self._shm = shm
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self._closed = False
        self._array = np.ndarray(self.shape, dtype=self.dtype,
                                 buffer=shm.buf)
        with _SEGMENTS_LOCK:
            _SEGMENTS[self.name] = self._array
        self._finalizer = weakref.finalize(
            self, SharedWaferBuffer._cleanup, shm, self.name)

    @classmethod
    def from_array(cls, array: np.ndarray) -> "SharedWaferBuffer":
        """Copy an existing matrix into a new owned segment (one memcpy)."""
        from multiprocessing import shared_memory

        array = np.asarray(array)
        if array.nbytes <= 0:
            raise ValueError("cannot allocate an empty shared buffer")
        while True:
            name = _next_segment_name()
            try:
                shm = shared_memory.SharedMemory(
                    name=name, create=True, size=array.nbytes)
                break
            except FileExistsError:  # pragma: no cover - pid+token clash
                continue
        buffer = cls(shm, array.shape, array.dtype)
        buffer._array[...] = array
        return buffer

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def array(self) -> np.ndarray:
        """The parent-side matrix view (registered for zero-copy dispatch)."""
        if self._closed:
            raise ValueError("shared wafer buffer is closed")
        return self._array

    def wafer(self, spec: Any, wafer_id: str = "W0"):
        """Wrap the segment as a :class:`~repro.production.lot.Wafer`.

        The wafer's ``transitions`` is the zero-copy segment view, so any
        slice of it dispatches by descriptor.
        """
        from repro.production.lot import Wafer

        return Wafer(spec, self._array, wafer_id=wafer_id)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @staticmethod
    def _cleanup(shm, name: str) -> None:
        with _SEGMENTS_LOCK:
            _SEGMENTS.pop(name, None)
        try:
            shm.close()
        except (BufferError, OSError):  # pragma: no cover - live views
            pass
        try:
            shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover
            pass

    def close(self) -> None:
        """Drop the mapping and unlink the segment.

        Idempotent.  Emits a ``pool.shm_detach`` span when telemetry is
        enabled, the bookend of the workers' ``pool.shm_attach`` spans.
        Outstanding views of :attr:`array` (the caller's problem to drop)
        keep their pages mapped, but the segment's name is removed either
        way — nothing is left in ``/dev/shm``.
        """
        if self._closed:
            return
        self._closed = True
        name, nbytes = self.name, int(np.prod(self.shape)) \
            * self.dtype.itemsize
        # Release the parent view before closing, else the exported
        # memoryview keeps SharedMemory.close() from unmapping.
        self._array = None
        t = current_telemetry()
        if t.enabled:
            with t.span("pool.shm_detach", segment=name, nbytes=nbytes):
                self._finalizer()
        else:
            self._finalizer()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "SharedWaferBuffer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def share_wafer(wafer) -> Tuple[SharedWaferBuffer, Any]:
    """Re-home a wafer's matrix into shared memory.

    Returns ``(buffer, shared_wafer)`` where ``shared_wafer`` is a new
    :class:`~repro.production.lot.Wafer` whose ``transitions`` is the
    zero-copy segment view — every engine slice of it then dispatches by
    descriptor.  The caller owns the buffer and must :meth:`close` it
    after the last dispatch that uses the wafer.
    """
    buffer = SharedWaferBuffer.from_array(wafer.transitions)
    return buffer, buffer.wafer(wafer.spec, wafer_id=wafer.wafer_id)


# ---------------------------------------------------------------------- #
# Worker-side attachment cache
# ---------------------------------------------------------------------- #

#: Per-process cache of attached segments: name -> (keepalive, ndarray).
_ATTACHED: "OrderedDict[str, Tuple[Any, np.ndarray]]" = OrderedDict()


def _attach_readonly(name: str) -> Tuple[Any, np.ndarray]:
    """Attach a named segment read-only, without resource-tracker noise.

    On Linux the segment is mapped straight off ``/dev/shm`` — a plain
    read-only ``mmap`` that the multiprocessing ``resource_tracker``
    never hears about (attaching via ``SharedMemory(name=...)`` would
    *register* the segment in the attaching process and spuriously warn
    about — or worse, unlink — it at shutdown; CPython only grew a
    ``track=False`` escape hatch in 3.13).  Elsewhere it falls back to
    ``SharedMemory`` and best-effort unregisters.
    """
    import mmap

    path = f"/dev/shm/{name}"
    if os.path.exists(path):
        with open(path, "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        flat = np.frombuffer(mapped, dtype=np.uint8)
        return mapped, flat
    from multiprocessing import shared_memory  # pragma: no cover

    shm = shared_memory.SharedMemory(name=name)
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass
    flat = np.frombuffer(shm.buf, dtype=np.uint8)
    return shm, flat


def _attach_view(name: str, offset: int, shape: Tuple[int, ...],
                 dtype: np.dtype) -> np.ndarray:
    """A zero-copy view of ``shape`` rows at ``offset`` in segment ``name``.

    In the owning process the registered array is sliced directly; in a
    worker the segment is attached once (``pool.shm_attach`` span under
    the worker's telemetry) and cached for subsequent shards.
    """
    with _SEGMENTS_LOCK:
        registered = _SEGMENTS.get(name)
    if registered is not None:
        count = int(np.prod(shape))
        flat = np.frombuffer(registered, dtype=dtype, count=count,
                             offset=offset)
        return flat.reshape(shape)
    cached = _ATTACHED.get(name)
    if cached is None:
        t = current_telemetry()
        with t.span("pool.shm_attach", segment=name):
            cached = _attach_readonly(name)
        _ATTACHED[name] = cached
        while len(_ATTACHED) > _ATTACH_CACHE_SIZE:
            _, (keepalive, _flat) = _ATTACHED.popitem(last=False)
            try:
                keepalive.close()
            except (BufferError, OSError):  # pragma: no cover
                pass
    else:
        _ATTACHED.move_to_end(name)
    _keepalive, flat = cached
    count = int(np.prod(shape))
    view = np.frombuffer(flat, dtype=dtype, count=count, offset=offset)
    return view.reshape(shape)


# ---------------------------------------------------------------------- #
# Worker-side trampoline
# ---------------------------------------------------------------------- #

#: Tasks this worker process has executed; ``> 0`` marks a warm worker.
_TASKS_RUN = 0


def _resolve_args(args: Tuple) -> Tuple:
    return tuple(a.resolve() if isinstance(a, SliceRef) else a
                 for a in args)


def _run_instrumented(func: Callable[..., Any], args: Tuple,
                      meta: Optional[dict]) -> Any:
    """Run one shard under the ambient telemetry's per-shard span/timer."""
    t = current_telemetry()
    attrs = dict(meta or {})
    attrs["pid"] = os.getpid()
    with t.span("executor.shard", **attrs) as span:
        result = func(*_resolve_args(args))
    t.record_timer("executor.shard", span.elapsed_s)
    return result


def _pool_task(payload) -> Tuple[bool, Any]:
    """Worker-side trampoline: unpack one shard task and run it.

    Module-level so it pickles by reference under every multiprocessing
    start method.  ``SliceRef`` arguments are resolved here (the shared
    segment attached), so the pipe only ever carried descriptors.  Returns ``(warm, result)`` where ``warm`` flags a
    worker that had already executed at least one task (the parent
    counts these as ``pool.tasks_reused_worker``).

    When the parent's telemetry is enabled (``collect``), the worker runs
    under a fresh collector and ships its snapshot home alongside the
    result; ``start_monotonic`` is read on the system-wide monotonic
    clock so the parent can measure pool queue wait.
    """
    global _TASKS_RUN
    warm = _TASKS_RUN > 0
    _TASKS_RUN += 1
    func, args, collect, meta = payload
    if not collect:
        return warm, func(*_resolve_args(args))
    start_monotonic = time.monotonic()
    with telemetry_session(Telemetry()) as worker_telemetry:
        result = _run_instrumented(func, args, meta)
    record = worker_telemetry.snapshot()
    record["pid"] = os.getpid()
    record["start_monotonic"] = start_monotonic
    return warm, (result, record)


def _sleep_task(seconds: float) -> None:
    time.sleep(seconds)


# ---------------------------------------------------------------------- #
# The persistent pool
# ---------------------------------------------------------------------- #

class WorkerPool:
    """A persistent pool of worker processes for shard dispatch.

    Wraps one long-lived ``ProcessPoolExecutor``: workers are forked on
    the first dispatch (or :meth:`warm_up`) and stay resident — holding
    their attached shared-memory segments and warm interpreter state —
    until :meth:`close`.  Order preservation, telemetry collection and
    queue-wait measurement all live in :meth:`dispatch`, so
    :class:`~repro.production.execution.ShardExecutor` is just the
    shard-planning layer above it.

    Thread-safe: several campaign scenario threads can interleave their
    shards into the one pool concurrently; results only depend on each
    task's own arguments, so scheduling order is irrelevant.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._workers = int(workers)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False
        self._broken = False
        self._lock = threading.Lock()
        self._outstanding = 0

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def broken(self) -> bool:
        """Whether a worker death condemned this pool (it is closed too)."""
        return self._broken

    def _mark_broken(self, exc: BaseException) -> "PoolBrokenError":
        """Condemn this pool after a worker died; return the typed error.

        The broken executor must never serve another dispatch: it is
        closed here, and evicted from the module default and the ambient
        :func:`shared_pool` stack so no later :func:`get_default_pool` or
        plan-based dispatch inherits it.  Concurrent dispatchers of the
        same pool all land here; marking is idempotent.
        """
        self._broken = True
        _evict_pool(self)
        self.close()
        t = current_telemetry()
        if t.enabled:
            t.count("pool.broken")
        return PoolBrokenError(
            f"a worker process of the {self._workers}-worker pool died "
            f"mid-dispatch ({exc}); the pool has been closed and evicted "
            f"— rebuild (get_default_pool / a new WorkerPool) and retry "
            f"the affected shards")

    def _ensure(self) -> ProcessPoolExecutor:
        if self._broken:
            raise PoolBrokenError(
                "worker pool is broken (a worker died); build a new one")
        if self._closed:
            raise RuntimeError("worker pool is closed")
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self._workers,
                    mp_context=_multiprocessing_context())
                t = current_telemetry()
                if t.enabled:
                    t.count("pool.workers_spawned", self._workers)
            return self._executor

    def warm_up(self) -> "WorkerPool":
        """Fork *all* the workers now (they normally spawn on dispatch).

        Useful before starting scenario threads (forking from a moment
        when the parent holds no extra threads is the safe order) and
        before timing a warm-pool benchmark.

        On Python >= 3.11 a fork-context executor launches every worker
        on the first submit, but on 3.9/3.10 workers spawn on demand —
        one per submit with no idle worker — so a single no-op would
        leave the rest to be forked later, mid-campaign, defeating the
        fork-before-threads rationale.  Instead we submit batches of
        short blocking tasks (each concurrent submit forces a fresh
        spawn while no worker is idle) until every worker process
        exists; afterwards the executor is at ``max_workers`` and never
        forks again.
        """
        executor = self._ensure()
        deadline = time.monotonic() + 30.0
        try:
            while True:
                missing = self._workers - len(executor._processes)
                if missing <= 0:
                    break
                futures = [executor.submit(_sleep_task, 0.05)
                           for _ in range(missing)]
                for future in futures:
                    future.result()
                if time.monotonic() > deadline:  # pragma: no cover
                    break
        except BrokenProcessPool as exc:
            raise self._mark_broken(exc) from exc
        return self

    def worker_pids(self) -> List[int]:
        """PIDs of the currently forked workers (diagnostics/tests).

        Defensive on purpose: the executor spawns workers on demand from
        its own management thread, so the process map can gain entries
        (racing ``dict`` iteration) or hold just-constructed processes
        whose ``pid`` is still ``None`` while we look.  Snapshot and
        filter instead of tripping over either.
        """
        executor = self._executor
        if executor is None:
            return []
        try:
            processes = list(executor._processes.values())
        except RuntimeError:  # pragma: no cover - mutated mid-iteration
            return []
        return [p.pid for p in processes
                if p is not None and p.pid is not None]

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #

    def dispatch(self, func: Callable[..., Any],
                 arg_tuples: Sequence[Tuple],
                 metas: Optional[Sequence[Optional[dict]]] = None,
                 progress: Any = None,
                 observer: Optional[Callable[[int, Any], None]] = None
                 ) -> List[Any]:
        """Run ``func(*args)`` for every tuple on the pool, in order.

        Array arguments that are views into registered shared segments
        are shipped as :class:`SliceRef` descriptors automatically; the
        worker trampoline resolves them back to zero-copy views.  With
        telemetry enabled, per-shard worker snapshots are absorbed, the
        submit→start queue wait is timed, warm-worker task counts and the
        ``pool.queue_depth`` gauge are recorded.

        ``observer``, when given, is called as ``observer(i, result)`` for
        every task **in input order** as results are collected (the SPC
        seam of :meth:`ShardExecutor.map`).  An observer that raises
        cancels every not-yet-started task of this dispatch before the
        exception propagates, so remaining shards genuinely never run.
        """
        t = current_telemetry()
        executor = self._ensure()
        tasks = [tuple(as_slice_ref(a) or a for a in args)
                 for args in arg_tuples]
        collect = bool(t.enabled)
        if collect:
            t.count("pool.tasks_dispatched", len(tasks))
        if metas is None:
            metas = [None] * len(tasks)
        submit_at: List[float] = []
        futures: List[Any] = []
        try:
            for i, args in enumerate(tasks):
                submit_at.append(time.monotonic())
                future = executor.submit(
                    _pool_task, (func, args, collect, metas[i]))
                futures.append(future)
                with self._lock:
                    self._outstanding += 1
                    depth = self._outstanding
                future.add_done_callback(self._task_done)
                if collect:
                    t.set_gauge("pool.queue_depth", depth)
            if progress is not None and progress.active:
                index_of = {future: i for i, future in enumerate(futures)}
                for future in as_completed(futures):
                    progress.step(index_of[future])
            results = []
            warm_tasks = 0
            for i, future in enumerate(futures):
                warm, value = future.result()
                if warm:
                    warm_tasks += 1
                if collect:
                    value, record = value
                    queue_wait = max(
                        0.0, record["start_monotonic"] - submit_at[i])
                    t.absorb_worker(record, queue_wait)
                if observer is not None:
                    observer(i, value)
                results.append(value)
        except BaseException as exc:
            for future in futures:
                future.cancel()
            if collect:
                # This dispatch abandons its queue: without the reset the
                # gauge would keep reporting the last pre-failure depth
                # forever (nothing else writes it until the next
                # dispatch).  Concurrent dispatchers re-assert the true
                # depth on their next submit.
                t.set_gauge("pool.queue_depth", 0)
            if isinstance(exc, BrokenProcessPool):
                raise self._mark_broken(exc) from exc
            raise
        if collect and warm_tasks:
            t.count("pool.tasks_reused_worker", warm_tasks)
        return results

    def _task_done(self, _future) -> None:
        with self._lock:
            self._outstanding -= 1

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Shut the workers down and release the pool.  Idempotent."""
        self._closed = True
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# Ambient and default pools
# ---------------------------------------------------------------------- #

#: The ambient-pool stack and the module default are process globals
#: shared across threads (scenario threads read the pool the main thread
#: installed), so mutations go through :data:`_POOL_LOCK` — otherwise
#: two threads dispatching concurrently could each create a default pool
#: (one leaking its workers until atexit) or interleave ambient
#: push/pop from concurrent :func:`shared_pool` blocks.
_AMBIENT: List[WorkerPool] = []
_DEFAULT: Optional[WorkerPool] = None
_ATEXIT_REGISTERED = False
_POOL_LOCK = threading.Lock()


def current_pool() -> Optional[WorkerPool]:
    """The innermost :func:`shared_pool` pool, if one is installed.

    The stack is process-global: a pool installed by one thread (the
    campaign driver) is deliberately visible to every other thread
    (the scenario threads it spawns).
    """
    with _POOL_LOCK:
        return _AMBIENT[-1] if _AMBIENT else None


@contextmanager
def shared_pool(workers: Optional[int] = None,
                pool: Optional[WorkerPool] = None):
    """Install a pool as the ambient dispatch target for a ``with`` block.

    Every plan-based dispatch inside the block (any engine, any wafer,
    any scenario) reuses the one pool instead of consulting the module
    default.  Pass an existing ``pool`` to borrow it (left open on exit),
    or a ``workers`` count to create one for the block (closed on exit).
    """
    created = pool is None
    if created:
        if workers is None:
            raise ValueError("shared_pool needs a worker count or a pool")
        pool = WorkerPool(workers)
    with _POOL_LOCK:
        _AMBIENT.append(pool)
    try:
        yield pool
    finally:
        # Remove by identity: concurrent shared_pool blocks on other
        # threads may have pushed since, so ours need not be last.
        with _POOL_LOCK:
            for i in range(len(_AMBIENT) - 1, -1, -1):
                if _AMBIENT[i] is pool:
                    del _AMBIENT[i]
                    break
        if created:
            pool.close()


def get_default_pool(workers: int) -> WorkerPool:
    """The module-level default pool, grown to at least ``workers``.

    Created on first use and kept warm across calls — this is what lets a
    bare ``engine.run_wafer(..., plan=ExecutionPlan(workers=4))`` reuse
    the workers a previous call (or a whole previous campaign) already
    forked.  A request for more workers than the current default carries
    closes and respawns it at the larger size; a smaller request reuses
    the existing pool as-is (scheduling only — results are identical by
    construction).  An ``atexit`` hook guarantees shutdown.
    """
    global _DEFAULT, _ATEXIT_REGISTERED
    with _POOL_LOCK:
        if _DEFAULT is not None and not _DEFAULT.closed \
                and _DEFAULT.workers >= workers:
            return _DEFAULT
        stale, _DEFAULT = _DEFAULT, WorkerPool(workers)
        if not _ATEXIT_REGISTERED:
            atexit.register(close_default_pool)
            _ATEXIT_REGISTERED = True
        pool = _DEFAULT
    if stale is not None:
        stale.close()
    return pool


def dispatch_pool(workers: int) -> WorkerPool:
    """The pool a ``workers``-wide dispatch runs on.

    The innermost open :func:`shared_pool` pool if there is one (a
    running campaign or ``with`` block), else the default pool grown to
    ``workers`` — both left open for the next dispatch.
    """
    ambient = current_pool()
    if ambient is not None and not ambient.closed:
        return ambient
    return get_default_pool(workers)


def close_default_pool() -> None:
    """Shut down the module default pool (idempotent; CLI/test teardown)."""
    global _DEFAULT
    with _POOL_LOCK:
        stale, _DEFAULT = _DEFAULT, None
    if stale is not None:
        stale.close()


def _evict_pool(pool: WorkerPool) -> None:
    """Remove a (broken) pool from the default slot and the ambient stack.

    Without the eviction a dead default pool would be handed to every
    subsequent :func:`get_default_pool` caller (``closed`` guards reject
    it only after :meth:`WorkerPool.close`, and a broken executor is not
    closed by the stdlib), and an ambient :func:`shared_pool` block would
    keep feeding it until exit.  The ``shared_pool`` context managers
    tolerate the early removal: their exit path deletes by identity and
    simply finds nothing.
    """
    global _DEFAULT
    with _POOL_LOCK:
        if _DEFAULT is pool:
            _DEFAULT = None
        _AMBIENT[:] = [p for p in _AMBIENT if p is not pool]
