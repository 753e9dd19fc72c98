"""Deterministic scale-out execution: sharded, multi-worker batch runs.

Every batch engine in :mod:`repro.production` is an array program over the
device axis built on one skeleton, :class:`WaferEngine`: it owns the entry
points, the chunk loop with its noise draw and quantisation, the telemetry
and the merge, and each engine supplies only its per-run
:class:`ShardContext` and its chunk kernel.  This module is also the
execution layer that scales any of them out: an :class:`ExecutionPlan`
describes *how* a wafer is executed (worker count, per-chunk memory
budget, shard granularity) and a :class:`ShardExecutor` runs the engine —
``prepare`` once, ``run_shard`` per device slice (possibly in parallel
worker processes), ``merge`` the per-shard results back into one
wafer-level result.

Every engine run goes through this layer (``plan=None`` means
``ExecutionPlan()``), and its result does not depend on the plan:

* **Noise is keyed by device** (:class:`repro.core.noise.DeviceNoise`):
  device ``d`` of a run draws from substream ``d`` of the run's seed,
  whichever shard, chunk or worker process it lands in.  A shard ships
  ``(seed, first device)``, never a generator.
* **Shards are fixed-size device blocks** (``plan.shard_devices``), not
  "the wafer divided by the worker count", merged back in shard order.
  The shard size sets the dispatch granularity and, when an SPC monitor
  is installed, the subgroup it charts (a policy input of the adaptive
  flow); it changes no draw.
* **Chunking only bounds memory**: a chunk fills the rows of its own
  devices, so the chunk size never changes a result either.

So an engine run is bit-identical for every ``(workers, chunk_size,
shard_devices)``, and a device's verdict is the one the scalar engine
gives it under its device key.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.kernel import batch_quantise_rows, code_dtype
from repro.core.noise import DeviceNoise, NoiseSeed, noise_seed
from repro.production.pool import (
    AUTO_SHARE_MIN_BYTES,
    SharedWaferBuffer,
    _run_instrumented,
    as_slice_ref,
    dispatch_pool,
)
from repro.telemetry.core import current_telemetry
from repro.telemetry.log import ShardProgress

if TYPE_CHECKING:
    from repro.production.lot import Wafer

__all__ = [
    "DEFAULT_SHARD_DEVICES",
    "ConcatResult",
    "ExcursionAbort",
    "ExecutionAborted",
    "ExecutionPlan",
    "ShardContext",
    "ShardExecutor",
    "WaferEngine",
    "abort_scope",
    "check_abort",
    "current_abort",
    "current_journal",
    "current_monitor",
    "iter_slices",
    "journal_scope",
    "run_digest",
    "spc_scope",
]

#: Devices per shard: the granularity of work dispatch (and of an SPC
#: monitor's subgroups).  A fixed default rather than "devices / workers"
#: keeps the shard stream the same for any worker count.
DEFAULT_SHARD_DEVICES = 1024


def iter_slices(n: int, size: int) -> Iterator[Tuple[int, int]]:
    """Yield ``(lo, hi)`` bounds covering ``range(n)`` in blocks of ``size``.

    The canonical chunk loop of the production subsystem; every engine's
    intra-shard memory chunking goes through here instead of a hand-rolled
    ``for lo in range(0, n, size)``.
    """
    if size < 1:
        raise ValueError("slice size must be positive")
    for lo in range(0, n, size):
        yield lo, min(lo + size, n)


# ---------------------------------------------------------------------- #
# Cooperative abort and shard-result journaling (ambient, per-thread)
# ---------------------------------------------------------------------- #

class ExecutionAborted(RuntimeError):
    """The ambient abort signal fired: stop submitting shards.

    Raised by :func:`check_abort` between shard batches when the
    installed :class:`threading.Event` is set — the cooperative
    cancellation a campaign uses to stop sibling scenario threads
    promptly once one of them failed.  Purely a scheduling interruption:
    no partial results are published.
    """


class ExcursionAbort(ExecutionAborted):
    """An installed SPC monitor flagged an excursion: stop this wafer.

    Raised by a :func:`spc_scope` monitor while the executor streams
    shard results through it; the dispatch layer cancels every
    not-yet-started shard of the run before the exception propagates.
    Unlike the plain scheduling :class:`ExecutionAborted`, this abort
    *does* publish partial results: :meth:`ShardExecutor.run` attaches
    the merged contiguous prefix of completed shards (``partial``,
    including the shard that tripped the chart) plus ``devices_done`` /
    ``devices_total`` before re-raising, so the screening line can
    disposition the aborted wafer.
    """

    def __init__(self, shard: int, statistic: str, value: float,
                 threshold: float, wafer_id: str = "") -> None:
        super().__init__(
            f"excursion detected at shard {shard}"
            f"{f' of wafer {wafer_id}' if wafer_id else ''}: "
            f"{statistic} statistic {value:.4g} breached its control "
            f"limit {threshold:.4g}; remaining shards aborted")
        self.shard = int(shard)
        self.statistic = str(statistic)
        self.value = float(value)
        self.threshold = float(threshold)
        self.wafer_id = str(wafer_id)
        #: Merged result of the completed shard prefix (attached by
        #: :meth:`ShardExecutor.run`); ``None`` outside an engine run.
        self.partial: Any = None
        self.devices_done: int = 0
        self.devices_total: int = 0


#: This thread's executor seams: ``abort``, ``journal`` and ``monitor``.
_SEAMS = threading.local()


@contextmanager
def _seam(name: str, value: Any):
    """Install ``value`` as this thread's ``name`` seam for a block.

    The previous value comes back on exit, so scopes nest; ``None`` is a
    no-op, keeping call sites branch-free.
    """
    if value is None:
        yield
        return
    previous = getattr(_SEAMS, name, None)
    setattr(_SEAMS, name, value)
    try:
        yield
    finally:
        setattr(_SEAMS, name, previous)


def abort_scope(event: Optional[threading.Event]):
    """Install an abort event for every executor run on *this* thread.

    Deliberately thread-local (unlike the process-global ambient pool):
    each scenario/request thread installs the event it answers to, so
    one campaign's abort cannot leak into an unrelated thread's runs.
    ``None`` is accepted and is a no-op, keeping call sites branch-free.
    """
    return _seam("abort", event)


def current_abort() -> Optional[threading.Event]:
    """The innermost abort event installed on this thread, if any."""
    return getattr(_SEAMS, "abort", None)


def check_abort() -> None:
    """Raise :class:`ExecutionAborted` if this thread's abort event is set.

    Called by :meth:`ShardExecutor.map` before every shard batch and
    between inline serial shards — the granularity at which a signalled
    thread stops submitting work.
    """
    event = current_abort()
    if event is not None and event.is_set():
        raise ExecutionAborted(
            "execution aborted: the abort signal was set (a sibling "
            "scenario failed or the campaign was cancelled)")


def journal_scope(journal: Any):
    """Install a shard-result journal for this thread's executor runs.

    The checkpoint/resume seam of the streaming service: while a journal
    is installed, :meth:`ShardExecutor.map` asks it for already-completed
    shard results (``lookup``) before dispatching and reports fresh ones
    back (``record``).  The journal protocol is duck-typed —
    ``begin_run(n_tasks, digest) -> key``, ``lookup(key, index) -> (hit,
    value)``, ``record(key, index, value)`` — see
    :class:`repro.serve.checkpoint.RequestJournal` for the implementation
    that persists results to the serve checkpoint file.  ``None`` is a
    no-op.

    Correctness rests on the determinism contract: every shard result is
    a pure function of its arguments, and the *sequence* of executor
    runs a given screening makes is a pure function of its (scenario,
    seed), so ``(run index, shard index)`` names the same unit of work
    in the run that journaled it and in the run that replays it.  An
    engine run also hands ``begin_run`` the :func:`run_digest` of its
    inputs, so a journal can refuse to replay shards that another
    configuration, seed or geometry recorded (``None`` for a bare
    :meth:`ShardExecutor.map`).
    """
    return _seam("journal", journal)


def current_journal() -> Any:
    """The innermost shard journal installed on this thread, if any."""
    return getattr(_SEAMS, "journal", None)


def spc_scope(monitor: Any):
    """Install an SPC monitor for this thread's executor runs.

    The wafer-level early-abort seam of the adaptive flows: while a
    monitor is installed, :meth:`ShardExecutor.map` feeds it every shard
    result — in **absolute shard order**, as a contiguous prefix,
    regardless of worker completion order or journal replay — via
    ``monitor.observe(shard_index, result)``.  A monitor that raises
    :class:`ExcursionAbort` (see :class:`repro.flows.spc.SpcMonitor`)
    stops the run's remaining shards.  ``None`` is a no-op.

    Thread-local like :func:`abort_scope`: each scenario thread monitors
    its own wafers.
    """
    return _seam("monitor", monitor)


def current_monitor() -> Any:
    """The innermost SPC monitor installed on this thread, if any."""
    return getattr(_SEAMS, "monitor", None)


class _MonitorFeed:
    """Deliver shard results to an SPC monitor as a contiguous prefix.

    Results may arrive out of absolute order (journal hits before fresh
    dispatches); the feed buffers them and advances a pointer, calling
    ``monitor.observe`` strictly in shard order so chart state — and the
    abort decision — is independent of the execution geometry.  The
    contiguous observed prefix is retained for the partial merge an
    :class:`ExcursionAbort` carries back.
    """

    def __init__(self, monitor: Any) -> None:
        self._monitor = monitor
        self._buffer: dict = {}
        self._next = 0
        self.observed: List[Any] = []

    def push(self, index: int, value: Any) -> None:
        self._buffer[index] = value
        while self._next in self._buffer:
            result = self._buffer.pop(self._next)
            shard = self._next
            self._next += 1
            self.observed.append(result)
            self._monitor.observe(shard, result)


@dataclass(frozen=True)
class ExecutionPlan:
    """How a wafer-scale run is executed: sharding, chunking, workers.

    Parameters
    ----------
    workers:
        Worker processes the shards are spread over.  ``1`` (the default)
        runs every shard inline in the calling process — the serial
        fallback, bit-identical to any multi-worker execution.  More
        workers dispatch through a persistent
        :class:`~repro.production.pool.WorkerPool`: the innermost open
        :func:`~repro.production.pool.shared_pool` pool, else the module
        default pool, kept warm across runs
        (:func:`~repro.production.pool.dispatch_pool`).
    chunk_size:
        Devices materialised per intra-shard chunk (bounds the transient
        ``(devices, samples)`` matrices).  ``None`` keeps each engine's
        own default, which is memory-bandwidth aware: the engine divides
        a working-set budget by its estimate of the bytes materialised
        per device row under the kernel's compact dtypes (see
        :func:`repro.core.kernel.auto_chunk_size`).  Purely a
        memory/throughput knob: it never changes results.
    shard_devices:
        Devices per shard: the unit of dispatch, and the subgroup size of
        an SPC monitor installed with :func:`spc_scope` (a policy input
        of the adaptive flow).  Noise is keyed by device, so it changes
        no draw.
    """

    workers: int = 1
    chunk_size: Optional[int] = None
    shard_devices: int = DEFAULT_SHARD_DEVICES

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if self.shard_devices < 1:
            raise ValueError("shard_devices must be >= 1")

    def shard_bounds(self, n_devices: int) -> List[Tuple[int, int]]:
        """Device bounds of every shard of an ``n_devices`` run."""
        if n_devices < 0:
            raise ValueError("n_devices must be non-negative")
        return list(iter_slices(n_devices, self.shard_devices))


#: Result fields that count rows: summed by :meth:`ConcatResult.merge`.
_ROW_COUNT_FIELDS = ("n_devices", "n_chips")


class ConcatResult:
    """Merge for per-device result dataclasses: concatenate the parts.

    Every batch result (full, chip, partial, histogram, dynamic) inherits
    this one ``merge``, which joins per-chunk results into a shard result
    and per-shard results into a wafer result.
    """

    @classmethod
    def merge(cls, parts: Sequence[Any]) -> Any:
        """Concatenate results (in device order) into one result.

        Array fields are concatenated, the row count (``n_devices`` or
        ``n_chips``) is summed, and every other field must be equal across
        the parts, or a :class:`ValueError` names the field.
        """
        parts = list(parts)
        if not parts:
            raise ValueError("cannot merge an empty shard list")
        kind = type(parts[0])
        values = {}
        for field in fields(kind):
            name = field.name
            column = [getattr(part, name) for part in parts]
            first = column[0]
            if name in _ROW_COUNT_FIELDS:
                values[name] = sum(column)
            elif isinstance(first, np.ndarray):
                values[name] = np.concatenate(column)
            elif all(value is first or value == first for value in column):
                values[name] = first
            else:
                raise ValueError(f"shards disagree on {name}")
        return kind(**values)


@dataclass(frozen=True)
class ShardContext:
    """Per-run state shared by every shard of one engine run.

    Built once by :meth:`WaferEngine.prepare` in the parent and shipped
    (pickled) to each shard, so it holds no per-device state.  Engines
    extend it with whatever their chunk kernel needs.
    """

    #: The shared noise-free stimulus, one voltage per sample.
    stimulus: np.ndarray
    #: Standard deviation of the acquisition noise in volts (0: none).
    noise_volts: float
    #: Whether chunks run on crossing events instead of sample matrices.
    event_path: bool
    #: Devices per chunk when the caller passes no ``chunk_size``.
    default_chunk: int

    @property
    def n_samples(self) -> int:
        """Length of the acquisition record."""
        return int(self.stimulus.size)


class WaferEngine:
    """The skeleton every shardable batch engine is built on.

    A subclass supplies a telemetry ``name`` (counters and spans are
    ``engine.<name>.*``), a ``seed`` (the default noise seed) and two
    methods:

    ``_context(transitions, full_scale, sample_rate)``
        Validate the batch and derive its :class:`ShardContext`.
    ``_run_chunk(context, transitions, codes)``
        The chunk kernel: the decisions for a slice of devices, as a
        :class:`ConcatResult` dataclass.  ``codes`` is the quantised
        ``(devices, samples)`` acquisition, or ``None`` on the event
        path.

    The base class owns everything else:

    ``run_wafer`` / ``run_transitions``
        Hand the run to :class:`ShardExecutor` under the given plan, or
        ``ExecutionPlan()`` without one.
    ``prepare(transitions, full_scale, sample_rate)``
        ``_context`` inside an ``engine.<name>.prepare`` span.  Runs once,
        in the parent.
    ``run_shard(context, transitions, rng, chunk_size, first)``
        Run the engine on a contiguous device slice whose first row is
        device ``first`` of the run seeded by ``rng``.  Depends only on
        its arguments — never on which process or in which order it
        runs.
    ``merge(shard_results)``
        Combine per-shard results (in shard order) with
        :meth:`ConcatResult.merge`.
    """

    name = ""
    seed: Optional[int] = None

    def _context(self, transitions: np.ndarray, full_scale: float,
                 sample_rate: float) -> ShardContext:
        raise NotImplementedError

    def _run_chunk(self, context: Any, transitions: np.ndarray,
                   codes: Optional[np.ndarray]) -> Any:
        raise NotImplementedError

    def _resolve_seed(self, rng: NoiseSeed) -> Any:
        """The noise seed of a run: ``rng``, else the engine's ``seed``."""
        return noise_seed(self.seed if rng is None else rng)

    def run_wafer(self, wafer: "Wafer", rng: NoiseSeed = None,
                  chunk_size: Optional[int] = None,
                  plan: Optional[ExecutionPlan] = None) -> Any:
        """Run the engine on every die of a wafer."""
        spec = wafer.spec
        return self.run_transitions(wafer.transitions,
                                    full_scale=spec.full_scale,
                                    sample_rate=spec.sample_rate,
                                    rng=rng, chunk_size=chunk_size,
                                    plan=plan)

    def run_transitions(self, transitions: np.ndarray,
                        full_scale: float = 1.0,
                        sample_rate: float = 1e6,
                        rng: NoiseSeed = None,
                        chunk_size: Optional[int] = None,
                        plan: Optional[ExecutionPlan] = None) -> Any:
        """Run the engine on a ``(devices, transitions)`` matrix.

        Parameters
        ----------
        transitions:
            Transition-voltage matrix, one row per device under test.
        full_scale, sample_rate:
            Geometry/clock shared by the batch (one test insertion).
        rng:
            Seed of the acquisition noise (an integer, a
            :class:`~numpy.random.SeedSequence` or ``None`` for the
            engine's ``seed``); row ``d`` draws device ``d``'s keyed
            stream (:class:`repro.core.noise.DeviceNoise`).  A
            :class:`~numpy.random.Generator` raises :class:`ValueError`.
        chunk_size:
            Devices processed per chunk (bounds the transient
            ``(devices, samples)`` matrices); ``None`` keeps the plan's,
            else the engine's default.
        plan:
            The :class:`ExecutionPlan` scaling the run out over worker
            processes; ``None`` means ``ExecutionPlan()``.  Results are
            bit-identical for any plan.
        """
        if plan is None:
            plan = ExecutionPlan()
        return ShardExecutor(plan).run(
            self, np.asarray(transitions, dtype=float), full_scale,
            sample_rate, rng=rng, chunk_size=chunk_size)

    def prepare(self, transitions: np.ndarray, full_scale: float = 1.0,
                sample_rate: float = 1e6) -> ShardContext:
        """Validate a batch and derive the shared per-run context."""
        with current_telemetry().span(f"engine.{self.name}.prepare",
                                      devices=int(transitions.shape[0])):
            return self._context(transitions, full_scale, sample_rate)

    def run_shard(self, context: ShardContext, transitions: np.ndarray,
                  rng: NoiseSeed = None, chunk_size: Optional[int] = None,
                  first: int = 0) -> Any:
        """Run one contiguous device slice of a prepared batch.

        Row ``i`` of ``transitions`` is device ``first + i`` of the run
        whose noise seed is ``rng`` (``None``: the engine's seed), and
        draws that device's keyed stream, so no split of a run into
        shards or chunks changes a row.  ``normal(0, σ)`` is ``0 + σ·z``
        for the same standard normals ``z``, so drawing ``z`` in place,
        scaling it and adding the stimulus reproduces ``stimulus +
        normal(0, σ)`` bit for bit.  The voltage and code buffers are
        allocated once per shard and reused by every chunk; no result
        keeps a view of them.
        """
        transitions = np.asarray(transitions, dtype=float)
        if chunk_size is None:
            chunk_size = context.default_chunk
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        n_devices, n_levels = transitions.shape
        n_samples = context.n_samples
        t = current_telemetry()
        if t.enabled:
            t.count(f"engine.{self.name}.shards")
            t.count(f"engine.{self.name}.devices", n_devices)
            t.count(f"engine.{self.name}.samples", n_devices * n_samples)
            path = "event" if context.event_path else "stream"
            t.count(f"engine.{self.name}.{path}_path_devices", n_devices)
        with t.span(f"engine.{self.name}.run_shard", devices=n_devices):
            # An empty slice still yields one (empty) chunk result.
            bounds = list(iter_slices(n_devices, chunk_size)) or [(0, 0)]
            if context.event_path:
                return ConcatResult.merge(
                    [self._run_chunk(context, transitions[lo:hi], None)
                     for lo, hi in bounds])
            shape = (min(chunk_size, n_devices), n_samples)
            codes = np.empty(shape, dtype=code_dtype(n_levels + 1))
            noise = keyed = None
            if context.noise_volts > 0.0:
                noise = np.empty(shape)
                keyed = DeviceNoise(self._resolve_seed(rng))
            parts = []
            for lo, hi in bounds:
                if noise is None:
                    voltages = np.broadcast_to(context.stimulus,
                                               (hi - lo, n_samples))
                else:
                    voltages = keyed.fill(noise[:hi - lo], first + lo)
                    voltages *= context.noise_volts
                    voltages += context.stimulus
                chunk = transitions[lo:hi]
                parts.append(self._run_chunk(
                    context, chunk,
                    batch_quantise_rows(chunk, voltages, context.stimulus,
                                        out=codes[:hi - lo])))
            return ConcatResult.merge(parts)

    def merge(self, shard_results: Sequence[Any]) -> Any:
        """Combine per-shard results (in shard order) into one result."""
        with current_telemetry().span(f"engine.{self.name}.merge",
                                      shards=len(shard_results)):
            return ConcatResult.merge(shard_results)


def run_digest(*parts: Any) -> str:
    """A digest of an executor run's inputs, for journal verification.

    Hashes a canonical encoding of ``parts`` — type names, object and
    dataclass attributes, array dtypes, shapes and bytes, exact scalar
    reprs — so it depends only on values, never on object identity, the
    process or the hash seed.
    """
    digest = hashlib.sha256()
    _feed_digest(digest, parts)
    return digest.hexdigest()


#: Digest of each engine's configuration and prepared context, by the
#: inputs ``prepare`` derives the context from, so a replayed run only
#: hashes its shard bounds and seed.  Engines are not reconfigured after
#: construction.
_PREPARED_DIGESTS: "weakref.WeakKeyDictionary[Any, dict]" = \
    weakref.WeakKeyDictionary()


def _prepared_digest(engine: "WaferEngine", context: ShardContext,
                     *inputs: Any) -> str:
    digests = _PREPARED_DIGESTS.setdefault(engine, {})
    if inputs not in digests:
        digests[inputs] = run_digest(type(engine).__qualname__,
                                     vars(engine), context)
    return digests[inputs]


def _feed_digest(digest: Any, value: Any) -> None:
    if isinstance(value, np.ndarray):
        digest.update(f"<{value.dtype.str}{value.shape}>".encode())
        digest.update(np.ascontiguousarray(value).data)
    elif value is None or isinstance(value, (bool, int, float, str,
                                             np.generic)):
        digest.update(f"<{type(value).__name__} {value!r}>".encode())
    elif isinstance(value, (tuple, list, dict)):
        items = value.items() if isinstance(value, dict) else value
        digest.update(f"<{type(value).__name__} {len(value)}>".encode())
        for item in items:
            _feed_digest(digest, item)
    elif isinstance(value, np.random.SeedSequence):
        _feed_digest(digest, ("SeedSequence", value.entropy,
                              value.spawn_key))
    elif hasattr(value, "__dict__"):
        digest.update(f"<{type(value).__qualname__}>".encode())
        _feed_digest(digest, vars(value))
    else:
        raise TypeError(f"cannot digest a {type(value).__name__}")


class ShardExecutor:
    """Run a :class:`WaferEngine` over a wafer according to a plan.

    The executor owns the one scheduling loop of the production subsystem:
    split the device axis into the plan's shards, ship each shard the
    run's seed and its first device, dispatch the shards (inline for
    ``workers=1``, over a process pool otherwise) and merge the results
    in shard order.
    """

    def __init__(self, plan: ExecutionPlan) -> None:
        self.plan = plan

    # ------------------------------------------------------------------ #
    # Generic engine runs
    # ------------------------------------------------------------------ #

    def run(self, engine: "WaferEngine", transitions: np.ndarray,
            full_scale: float = 1.0, sample_rate: float = 1e6,
            rng: NoiseSeed = None,
            chunk_size: Optional[int] = None) -> Any:
        """Execute ``engine`` over the whole transition matrix.

        ``rng`` is the run's noise seed (``None``: the engine's ``seed``;
        with neither, fresh entropy drawn once and shipped to every
        shard).  The result is bit-identical for any plan.

        Multi-worker dispatch is zero-copy whenever it can be: a matrix
        already backed by a registered
        :class:`~repro.production.pool.SharedWaferBuffer` ships shard
        *descriptors*; a large private matrix is staged into a transient
        segment first (one memcpy instead of one pickled copy per shard).
        """
        t = current_telemetry()
        transitions = np.asarray(transitions)
        with t.span("executor.run", engine=type(engine).__name__,
                    devices=int(transitions.shape[0]),
                    workers=self.plan.workers):
            context = engine.prepare(transitions, full_scale, sample_rate)
            bounds = self.plan.shard_bounds(transitions.shape[0])
            seed = engine._resolve_seed(rng)
            chunk = (chunk_size if chunk_size is not None
                     else self.plan.chunk_size)
            digest = None
            if current_journal() is not None:
                digest = run_digest(
                    _prepared_digest(engine, context, transitions.shape[1],
                                     full_scale, sample_rate),
                    bounds, seed)
            staged = None
            view = transitions
            if (self.plan.workers > 1 and len(bounds) > 1
                    and transitions.nbytes >= AUTO_SHARE_MIN_BYTES
                    and as_slice_ref(transitions) is None):
                staged = SharedWaferBuffer.from_array(transitions)
                view = staged.array
            try:
                results = self.map(
                    engine.run_shard,
                    [(context, view[lo:hi], seed, chunk, lo)
                     for lo, hi in bounds],
                    task_sizes=[hi - lo for lo, hi in bounds],
                    digest=digest)
            except ExcursionAbort as exc:
                # Publish what the completed shard prefix measured so the
                # caller can disposition the aborted wafer.
                prefix = getattr(exc, "prefix_results", None) or []
                if exc.partial is None and prefix:
                    exc.partial = engine.merge(prefix)
                    exc.devices_done = sum(
                        hi - lo for lo, hi in bounds[:len(prefix)])
                exc.devices_total = int(transitions.shape[0])
                raise
            finally:
                if staged is not None:
                    staged.close()
            return engine.merge(results)

    # ------------------------------------------------------------------ #
    # Low-level shard dispatch
    # ------------------------------------------------------------------ #

    def map(self, func: Callable[..., Any],
            arg_tuples: Sequence[Tuple],
            task_sizes: Optional[Sequence[int]] = None,
            digest: Optional[str] = None) -> List[Any]:
        """Run ``func(*args)`` for every tuple, preserving input order.

        The deterministic core of the executor: results come back in task
        order no matter how the pool schedules them.  One worker runs the
        tasks inline; more dispatch them through
        :func:`~repro.production.pool.dispatch_pool`.

        ``task_sizes`` (devices per task, same order as ``arg_tuples``)
        feeds the per-shard telemetry spans and the rolling devices/sec
        progress line; it never affects scheduling or results.  Each
        ``executor.shard`` span carries its task's index in
        ``arg_tuples``, also when a journal replays the other tasks.
        ``digest`` (see :func:`run_digest`) is handed to an installed
        journal's ``begin_run``.

        Honours the three ambient per-thread seams: an installed
        :func:`abort_scope` event aborts before (and, serially, between)
        shards; an installed :func:`journal_scope` journal replays
        already-recorded shard results and records fresh ones, so a
        resumed run dispatches only the shards the killed run never
        finished; and an installed :func:`spc_scope` monitor observes
        every result in absolute shard order and may abort the run's
        remaining shards with :class:`ExcursionAbort`.  All default to
        no-ops.
        """
        check_abort()
        tasks = list(arg_tuples)
        monitor = current_monitor()
        feed = _MonitorFeed(monitor) if monitor is not None else None
        try:
            return self._map_journaled(func, tasks, task_sizes, feed,
                                       digest)
        except ExcursionAbort as exc:
            if feed is not None and getattr(exc, "prefix_results",
                                            None) is None:
                exc.prefix_results = list(feed.observed)
            raise

    def _map_journaled(self, func: Callable[..., Any],
                       tasks: List[Tuple],
                       task_sizes: Optional[Sequence[int]],
                       feed: Optional["_MonitorFeed"],
                       digest: Optional[str]) -> List[Any]:
        journal = current_journal()
        observer = feed.push if feed is not None else None
        if journal is None:
            return self._map(func, tasks, range(len(tasks)), task_sizes,
                             observer=observer)
        key = journal.begin_run(len(tasks), digest)
        results: List[Any] = [None] * len(tasks)
        pending: List[int] = []
        for i in range(len(tasks)):
            hit, value = journal.lookup(key, i)
            if hit:
                results[i] = value
                # Replayed results re-feed the charts: a resumed run
                # re-detects the excursion at the same shard it first
                # tripped on (the abort decision is part of the
                # deterministic output, not of the schedule).
                if feed is not None:
                    feed.push(i, value)
            else:
                pending.append(i)
        if pending:
            sub_sizes = (None if task_sizes is None
                         else [task_sizes[i] for i in pending])
            sub_observer = None
            if feed is not None:
                # Journal pending indices ascend, so feeding by absolute
                # index keeps the monitor's contiguous-prefix order.
                sub_observer = (
                    lambda j, value: feed.push(pending[j], value))
            fresh = self._map(func, [tasks[i] for i in pending], pending,
                              sub_sizes, observer=sub_observer)
            for i, value in zip(pending, fresh):
                journal.record(key, i, value)
                results[i] = value
        return results

    def _map(self, func: Callable[..., Any],
             tasks: List[Tuple],
             shards: Sequence[int],
             task_sizes: Optional[Sequence[int]] = None,
             observer: Optional[Callable[[int, Any], None]] = None
             ) -> List[Any]:
        """Run ``tasks`` (absolute shard indices ``shards``) in order."""
        t = current_telemetry()
        if t.enabled:
            t.count("executor.tasks", len(tasks))
        progress = ShardProgress(len(tasks), t.progress_every, task_sizes)
        metas = [{"shard": shard} for shard in shards]
        if task_sizes is not None:
            for meta, size in zip(metas, task_sizes):
                meta["devices"] = int(size)
        if min(self.plan.workers, len(tasks)) > 1:
            return dispatch_pool(self.plan.workers).dispatch(
                func, tasks, metas=metas, progress=progress,
                observer=observer)
        # Inline serial path (no pool, no descriptors).
        results = []
        for i, args in enumerate(tasks):
            check_abort()
            if t.enabled:
                results.append(_run_instrumented(func, args, metas[i]))
            else:
                results.append(func(*args))
            if observer is not None:
                # An observer that raises stops the loop here:
                # remaining inline shards never run.
                observer(i, results[-1])
            if progress.active:
                progress.step(i)
        return results
