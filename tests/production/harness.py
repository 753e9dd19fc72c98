"""Shared scalar↔batch differential-test harness.

Every batch engine in :mod:`repro.production` carries the same contract:
on the same population it must reproduce its scalar counterpart's
decisions (and estimates) bit for bit, on every execution path.  The
helpers here state that contract once, per engine family, so the
equivalence suites — full BIST, partial BIST, and the conventional
histogram/dynamic analysis layer — all pin it through one door instead of
re-deriving the scalar loop in every test file.

Conventions shared by all helpers:

* the scalar reference is an explicit Python loop over
  ``wafer.devices()``, running device ``d`` on its keyed noise stream
  (``DeviceNoise(seed).generator(d)``) — exactly the stream each batch
  row draws;
* every helper asserts decision equality (and the family's estimate
  arrays) with exact ``assert_array_equal``, never ``allclose``: the
  engines share kernels, so the numbers must be identical, not close;
* helpers return ``(scalar, batch)`` so callers can layer scenario-
  specific assertions (accept-fraction sanity, reconstruction quality, …)
  on top.

``DIFFERENTIAL_GRID`` is the standing parameter grid (architecture ×
noise × q × device count) that ``test_differential_grid.py`` sweeps over
all engine families.  ``PLAN_GRID`` is its scale-out sibling: the
(workers × chunk_size) execution geometries every engine must be
bit-invariant under, swept by ``test_execution.py`` through
:func:`assert_plan_invariant`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core import (
    BistConfig,
    BistEngine,
    DeviceNoise,
    PartialBistConfig,
    PartialBistEngine,
)
from repro.production import (
    BatchBistEngine,
    BatchDynamicSuite,
    BatchHistogramTest,
    BatchPartialBistEngine,
    ExecutionPlan,
    Wafer,
    WaferSpec,
)

#: (architecture, transition_noise_lsb, q, n_devices) scenarios every
#: engine family is swept over.  Noise 0 exercises the event fast paths,
#: noise > 0 the stream paths; q only applies to the partial BIST.
DIFFERENTIAL_GRID = [
    ("flash", 0.0, 1, 120),
    ("flash", 0.05, 2, 60),
    ("sar", 0.0, 2, 90),
    ("sar", 0.03, 3, 50),
    ("pipeline", 0.0, 3, 90),
    ("pipeline", 0.05, 1, 50),
]

#: (workers, chunk_size) execution geometries every engine must be
#: bit-invariant under.  The first entry is the serial reference; a small
#: shard size in the plans (set by assert_plan_invariant) forces several
#: shards even on the small test wafers.
PLAN_GRID = [
    (1, None),
    (1, 17),
    (2, None),
    (2, 23),
]


def assert_batch_results_identical(reference, candidate) -> None:
    """Field-wise bit-exact equality of two batch result dataclasses.

    Array fields must be identical (NaNs compare positionally equal, as a
    rejected device's NaN estimate must survive sharding too); scalar and
    nested-dataclass fields must compare equal.
    """
    assert type(reference) is type(candidate)
    for field in dataclasses.fields(reference):
        a = getattr(reference, field.name)
        b = getattr(candidate, field.name)
        if isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, b, err_msg=field.name)
        else:
            assert a == b, field.name


def assert_plan_invariant(run, shard_devices: int = 64,
                          plan_grid=PLAN_GRID):
    """One engine run must be bit-identical across the whole plan grid.

    ``run`` is a callable taking an :class:`ExecutionPlan` (with
    ``chunk_size`` already folded in) and returning a batch result; the
    grid's first geometry is the serial reference the others are compared
    against, field for field.  Returns the reference result so callers
    can layer scenario assertions on top.
    """
    workers0, chunk0 = plan_grid[0]
    reference = run(ExecutionPlan(workers=workers0, chunk_size=chunk0,
                                  shard_devices=shard_devices))
    for workers, chunk in plan_grid[1:]:
        candidate = run(ExecutionPlan(workers=workers, chunk_size=chunk,
                                      shard_devices=shard_devices))
        assert_batch_results_identical(reference, candidate)
    return reference


def draw_wafer(n_devices: int = 150, architecture: str = "flash",
               seed: int = 7, sigma: float = 0.21,
               n_bits: int = 6) -> Wafer:
    """A seeded wafer of the requested architecture and size."""
    return Wafer.draw(WaferSpec(n_bits=n_bits,
                                sigma_code_width_lsb=sigma,
                                n_devices=n_devices,
                                architecture=architecture), rng=seed)


def _device_generators(rng, default):
    """Device ``d``'s keyed noise generator, for ``d = 0, 1, ...``.

    ``rng`` (else the engine's ``default`` seed) seeds the run, as it
    seeds the batch engine under test.
    """
    noise = DeviceNoise(default if rng is None else rng)
    d = 0
    while True:
        yield noise.generator(d)
        d += 1


def assert_full_bist_equivalent(config: BistConfig, wafer: Wafer,
                                rng=0):
    """Scalar loop and batched full BIST must agree device for device."""
    scalar = BistEngine(config).run_population(wafer.devices(), rng=rng)
    batch = BatchBistEngine(config).run_population(wafer, rng=rng)
    np.testing.assert_array_equal(scalar.accepted, batch.accepted)
    np.testing.assert_array_equal(scalar.truly_good, batch.truly_good)
    assert scalar.n_devices == batch.n_devices
    return scalar, batch


def scalar_partial_results(config: PartialBistConfig, wafer: Wafer,
                           rng=None):
    """Per-device scalar partial-BIST results under their device keys."""
    engine = PartialBistEngine(config)
    return [engine.run(device, rng=generator)
            for device, generator in zip(
                wafer.devices(), _device_generators(rng, config.seed))]


def assert_partial_equivalent(config: PartialBistConfig, wafer: Wafer,
                              rng=None):
    """Scalar loop and batched partial BIST must agree on everything."""
    scalar = scalar_partial_results(config, wafer, rng=rng)
    batch = BatchPartialBistEngine(config).run_wafer(wafer, rng=rng)
    np.testing.assert_array_equal(
        np.array([r.passed for r in scalar]), batch.passed)
    np.testing.assert_array_equal(
        np.array([r.linearity_passed for r in scalar]),
        batch.linearity_passed)
    np.testing.assert_array_equal(
        np.array([r.reconstruction_error_rate for r in scalar]),
        batch.reconstruction_error_rate)
    np.testing.assert_array_equal(
        np.array([r.linearity.max_dnl for r in scalar]),
        batch.measured_max_dnl_lsb)
    assert scalar[0].samples_taken == batch.samples_taken
    assert scalar[0].partition == batch.partition
    return scalar, batch


def assert_histogram_equivalent(test: BatchHistogramTest, wafer: Wafer,
                                rng=None):
    """Scalar loop and batched histogram test must agree on everything."""
    scalar = [test.scalar.run(device, rng=generator)
              for device, generator in zip(
                  wafer.devices(), _device_generators(rng, test.seed))]
    batch = test.run_wafer(wafer, rng=rng)
    np.testing.assert_array_equal(
        np.array([r.passed for r in scalar]), batch.passed)
    np.testing.assert_array_equal(
        np.vstack([r.counts for r in scalar]), batch.counts)
    np.testing.assert_array_equal(
        np.array([r.max_dnl for r in scalar]),
        batch.measured_max_dnl_lsb)
    np.testing.assert_array_equal(
        np.array([r.max_inl for r in scalar]),
        batch.measured_max_inl_lsb)
    assert scalar[0].samples_taken == batch.samples_taken
    assert scalar[0].bits_transferred == batch.bits_transferred_per_device
    return scalar, batch


def assert_dynamic_equivalent(suite: BatchDynamicSuite, wafer: Wafer,
                              rng=None):
    """Scalar loop and batched dynamic suite must agree on everything."""
    analyzer = suite.analyzer
    scalar = [analyzer.measure(device,
                               target_frequency=suite.target_frequency,
                               amplitude_fraction=suite.amplitude_fraction,
                               transition_noise_lsb=suite.transition_noise_lsb,
                               rng=generator)
              for device, generator in zip(
                  wafer.devices(), _device_generators(rng, suite.seed))]
    batch = suite.run_wafer(wafer, rng=rng)
    spec = suite.resolved_spec(wafer.spec.n_bits)
    np.testing.assert_array_equal(
        np.array([r.enob for r in scalar]), batch.enob)
    np.testing.assert_array_equal(
        np.array([r.sinad_db for r in scalar]), batch.sinad_db)
    np.testing.assert_array_equal(
        np.array([r.snr_db for r in scalar]), batch.snr_db)
    np.testing.assert_array_equal(
        np.array([r.thd_db for r in scalar]), batch.thd_db)
    np.testing.assert_array_equal(
        np.array([r.sfdr_db for r in scalar]), batch.sfdr_db)
    np.testing.assert_array_equal(
        np.array([spec.passes(r) for r in scalar]), batch.passed)
    assert batch.samples_taken == analyzer.n_samples
    return scalar, batch
