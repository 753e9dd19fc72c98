"""Production-line subsystem: batched BIST over wafers and lots.

The paper's argument is economic — on-chip BIST shrinks off-chip data so a
tester floor can screen more converters per second.  This subpackage is the
floor itself: it simulates screening *populations* of converters the way a
production line processes them, with the device axis vectorised end to end.

Overview
--------

:mod:`repro.production.lot` — :class:`WaferSpec`, :class:`Wafer`,
    :class:`Lot`.  A wafer holds its dies as one transition-voltage matrix,
    drawn in a single call to
    :func:`~repro.adc.population.correlated_code_widths` (the paper's
    ladder statistics: sigma 0.16–0.21 LSB, pairwise correlation
    ``-1/(N-1)``), without materialising per-device converter objects.
    Any die can still be materialised for the scalar engine, bit-identical
    to its matrix row.

:mod:`repro.production.batch_engine` — :class:`BatchBistEngine`, the
    vectorised full BIST.  In the nominal noise-free configuration it works
    purely on transition-crossing events (each transition level's crossing
    index into the shared ramp, computed from the ramp equation by
    :func:`repro.core.kernel.shared_crossing_indices`), never materialising
    the ``(devices, samples)`` code matrix; with noise or a deglitch filter
    it falls back to chunked 2-D quantisation of the shared ramp.  Both paths
    reproduce the scalar :class:`~repro.core.engine.BistEngine` decisions
    bit for bit — they share the count-limit kernel in
    :mod:`repro.core.decision` — while running orders of magnitude faster,
    which makes million-device Table-1 Monte-Carlo runs feasible.

:mod:`repro.production.partial_batch` — :class:`BatchPartialBistEngine`,
    the vectorised partial BIST (``q`` LSBs captured off-chip, upper bits
    verified on-chip, code reconstruction and histogram DNL/INL over the
    device axis).  Like the full-BIST batch engine it is a thin layer over
    the shared kernel in :mod:`repro.core.kernel` and matches the scalar
    :class:`~repro.core.partial_engine.PartialBistEngine` bit for bit.

:mod:`repro.production.analysis_batch` — :class:`BatchHistogramTest` and
    :class:`BatchDynamicSuite`, the *conventional* production tests (ramp
    code-density histogram, single-tone FFT suite) vectorised over the
    device axis and bit-exact against their scalar counterparts — the
    other half of the paper's BIST-vs-conventional comparison, now
    runnable at wafer scale on the same kernel.

:mod:`repro.production.execution` — :class:`WaferEngine`, the skeleton
    all four engines above are built on (entry points, chunk loop with the
    noise draw, telemetry, merge), plus :class:`ExecutionPlan` and
    :class:`ShardExecutor`, the deterministic scale-out layer every
    engine run goes through.  Noise is keyed by device
    (:class:`repro.core.noise.DeviceNoise`), so the results are
    bit-identical for any plan, with ``workers=1`` as the in-process
    serial fallback.

:mod:`repro.production.pool` — :class:`WorkerPool`,
    :class:`SharedWaferBuffer` and :class:`SliceRef`, the persistent
    zero-copy dispatch substrate under the executor.  Workers are forked
    once and reused across dispatches (the module default pool, or a
    :func:`shared_pool` block); wafer matrices live in
    ``multiprocessing.shared_memory`` segments and travel to workers as
    slice *descriptors* instead of pickled rows.  Purely a scheduling
    layer: a pool forked for one run, a warm pool kept across runs and
    the serial path all produce byte-identical results.

:mod:`repro.production.line` — :class:`ScreeningLine`, the station chain
    (screening → optional retest → quality binning) with per-station yield
    and throughput accounting, costed against a tester model via
    :mod:`repro.economics`.  Built from one
    :class:`~repro.campaign.scenario.Scenario`, it screens under any
    (architecture, method, q) point: full or partial BIST, the
    conventional histogram test or the dynamic suite (``method``), single
    converters or multi-converter ICs (``devices_per_ic``), flash, SAR or
    pipeline wafers.

:mod:`repro.production.store` — :class:`ResultStore`, the floor ledger:
    a list of per-lot reports rendered with :mod:`repro.reporting.tables`;
    every per-group view (:meth:`ResultStore.campaign_table` pivots a
    campaign per scenario) reads one :func:`~repro.production.store.rollup`.

The declarative front door over all of this lives in :mod:`repro.campaign`:
a frozen :class:`~repro.campaign.scenario.Scenario` describes a run,
:func:`~repro.campaign.factory.make_engine` is the only place engines are
constructed (the line and the CLI are wired onto it), and
:class:`~repro.campaign.driver.Campaign` screens whole scenario grids.

Quick start
-----------

>>> from repro.campaign import Scenario
>>> from repro.production import (Lot, WaferSpec, ScreeningLine,
...                               ResultStore)
>>> lot = Lot.draw(WaferSpec(n_devices=1000), n_wafers=2, seed=7)
>>> line = ScreeningLine(Scenario(counter_bits=7, dnl_spec_lsb=1.0))
>>> store = ResultStore([line.screen_lot(lot, rng=0)])
>>> print(store.summary())          # doctest: +SKIP

See ``examples/wafer_screening.py`` for a complete walk-through and
``benchmarks/test_bench_production.py`` for the scalar-vs-batch
devices-per-second comparison.
"""

from repro.production.analysis_batch import (
    BatchDynamicResult,
    BatchDynamicSuite,
    BatchHistogramResult,
    BatchHistogramTest,
)
from repro.production.execution import (
    DEFAULT_SHARD_DEVICES,
    ExecutionPlan,
    ShardExecutor,
    WaferEngine,
)
from repro.production.batch_engine import (
    BatchBistEngine,
    BatchBistResult,
    BatchChipBistResult,
    BatchLsbProcessor,
    BatchLsbResult,
    batch_deglitch,
    chip_grouping,
)
from repro.production.line import (
    DEFAULT_BIN_EDGES_LSB,
    SCREENING_METHODS,
    LotScreeningReport,
    ScreeningLine,
    StationStats,
)
from repro.production.lot import Lot, Wafer, WaferSpec
from repro.production.partial_batch import (
    BatchPartialBistEngine,
    BatchPartialBistResult,
)
from repro.production.pool import (
    AUTO_SHARE_MIN_BYTES,
    PoolBrokenError,
    SharedWaferBuffer,
    SliceRef,
    WorkerPool,
    as_slice_ref,
    close_default_pool,
    current_pool,
    get_default_pool,
    share_wafer,
    shared_pool,
    sweep_stale_segments,
)
from repro.production.store import ResultStore

__all__ = [
    "BatchBistEngine",
    "BatchBistResult",
    "BatchChipBistResult",
    "BatchDynamicResult",
    "BatchDynamicSuite",
    "BatchHistogramResult",
    "BatchHistogramTest",
    "BatchLsbProcessor",
    "BatchLsbResult",
    "BatchPartialBistEngine",
    "BatchPartialBistResult",
    "batch_deglitch",
    "chip_grouping",
    "DEFAULT_SHARD_DEVICES",
    "ExecutionPlan",
    "ShardExecutor",
    "WaferEngine",
    "AUTO_SHARE_MIN_BYTES",
    "PoolBrokenError",
    "SharedWaferBuffer",
    "SliceRef",
    "WorkerPool",
    "as_slice_ref",
    "close_default_pool",
    "current_pool",
    "get_default_pool",
    "share_wafer",
    "shared_pool",
    "sweep_stale_segments",
    "DEFAULT_BIN_EDGES_LSB",
    "SCREENING_METHODS",
    "LotScreeningReport",
    "ScreeningLine",
    "StationStats",
    "Lot",
    "Wafer",
    "WaferSpec",
    "ResultStore",
]
