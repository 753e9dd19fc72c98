"""Shard-invariance suite for the deterministic scale-out layer.

The contract under test is the execution layer's headline invariant: for
any ``(workers, chunk_size, shard_devices)`` plan geometry, a run of any
batch engine is bit-identical to the serial (``workers=1``) run and to
the planless run — including the noisy stream paths and the
multi-converter chip modes, because every device draws its own keyed
noise.  Plus the plumbing around it: plan validation, shard bounds,
plan-threaded screening lines and the shard-merge of the result store.
"""

import dataclasses

import numpy as np
import pytest

from harness import (
    PLAN_GRID,
    assert_batch_results_identical,
    assert_plan_invariant,
    draw_wafer,
)
from repro.analysis import DynamicAnalyzer, DynamicSpec
from repro.campaign import Scenario
from repro.core import BistConfig, PartialBistConfig
from repro.core.bist_scheme import PartialBistPartition
from repro.production import (
    BatchBistEngine,
    BatchBistResult,
    BatchDynamicSuite,
    BatchHistogramTest,
    BatchPartialBistEngine,
    ExecutionPlan,
    Lot,
    ResultStore,
    ScreeningLine,
    ShardExecutor,
    Wafer,
    WaferSpec,
)
from repro.core.noise import noise_seed
from repro.production.execution import iter_slices
from repro.telemetry import Telemetry, telemetry_session

#: (architecture, transition_noise_lsb) scenarios the invariance grid
#: sweeps per engine: one event/noise-free path, one noisy stream path.
SCENARIOS = [("flash", 0.0), ("sar", 0.03)]


def _bist_config(noise: float, seed=None) -> BistConfig:
    return BistConfig(n_bits=6, counter_bits=7, dnl_spec_lsb=1.0,
                      transition_noise_lsb=noise,
                      deglitch_depth=3 if noise > 0 else 0, seed=seed)


#: The noise level each engine kind runs at in the noisy skeleton tests.
NOISE = {"full": 0.05, "partial": 0.03, "histogram": 0.04, "dynamic": 0.05}


def _engine(kind: str, noise: float, seed=None):
    """A small 6-bit batch engine of one kind at one noise level."""
    if kind == "full":
        return BatchBistEngine(_bist_config(noise, seed))
    if kind == "partial":
        return BatchPartialBistEngine(PartialBistConfig(
            n_bits=6, q=2, dnl_spec_lsb=0.5, transition_noise_lsb=noise,
            seed=seed))
    if kind == "histogram":
        return BatchHistogramTest(samples_per_code=16.0,
                                  transition_noise_lsb=noise, seed=seed)
    return BatchDynamicSuite(analyzer=DynamicAnalyzer(n_samples=1024),
                             spec=DynamicSpec(min_enob=5.0),
                             transition_noise_lsb=noise, seed=seed)


class TestExecutionPlan:
    def test_defaults(self):
        plan = ExecutionPlan()
        assert plan.workers == 1
        assert plan.chunk_size is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionPlan(workers=0)
        with pytest.raises(ValueError):
            ExecutionPlan(chunk_size=0)
        with pytest.raises(ValueError):
            ExecutionPlan(shard_devices=0)

    def test_shard_bounds_cover_the_axis(self):
        bounds = ExecutionPlan(shard_devices=64).shard_bounds(150)
        assert bounds == [(0, 64), (64, 128), (128, 150)]

    def test_shard_bounds_are_worker_independent(self):
        a = ExecutionPlan(workers=1, shard_devices=32).shard_bounds(100)
        b = ExecutionPlan(workers=8, shard_devices=32).shard_bounds(100)
        assert a == b

    def test_iter_slices(self):
        assert list(iter_slices(7, 3)) == [(0, 3), (3, 6), (6, 7)]
        assert list(iter_slices(0, 3)) == []
        with pytest.raises(ValueError):
            list(iter_slices(5, 0))


class TestNoiseSeeds:
    def test_reused_seed_sequence_gives_the_same_run(self):
        """Running twice with the same SeedSequence object gives the same
        noisy results: nothing spawns from (and so advances) it."""
        wafer = draw_wafer(40, "flash", seed=2)
        engine = BatchBistEngine(_bist_config(0.05))
        shared = np.random.SeedSequence(4)
        plan = ExecutionPlan(workers=1, shard_devices=16)
        r1 = engine.run_wafer(wafer, rng=shared, plan=plan)
        r2 = engine.run_wafer(wafer, rng=shared, plan=plan)
        assert_batch_results_identical(r1, r2)

    def test_generator_rejected_and_none_pinned(self):
        with pytest.raises(ValueError):
            noise_seed(np.random.default_rng(0))
        assert noise_seed(3) == 3
        assert isinstance(noise_seed(np.int64(3)), int)
        assert isinstance(noise_seed(None), np.random.SeedSequence)

    def test_unseeded_run_ships_one_seed_to_every_shard(self,
                                                        monkeypatch):
        """With no seed anywhere the run draws fresh entropy once and
        ships it, with each shard's first device, to every shard."""
        engine = BatchBistEngine(_bist_config(0.05))
        original = engine.run_shard
        shipped = []

        def spy(context, transitions, rng=None, chunk_size=None, first=0):
            shipped.append((rng, first))
            return original(context, transitions, rng, chunk_size, first)

        monkeypatch.setattr(engine, "run_shard", spy)
        engine.run_wafer(draw_wafer(40, "flash", seed=2),
                         plan=ExecutionPlan(shard_devices=16))
        assert [first for _, first in shipped] == [0, 16, 32]
        seeds = {id(rng) for rng, _ in shipped}
        assert len(seeds) == 1
        assert isinstance(shipped[0][0], np.random.SeedSequence)


@pytest.mark.parametrize("architecture,noise", SCENARIOS)
class TestShardInvarianceGrid:
    """Every engine × (workers × chunk_size), bit-exact vs the serial run."""

    def test_full_bist(self, architecture, noise):
        wafer = draw_wafer(150, architecture, seed=29)
        engine = BatchBistEngine(_bist_config(noise))
        result = assert_plan_invariant(
            lambda plan: engine.run_wafer(wafer, rng=5, plan=plan))
        assert 0 < result.n_accepted <= result.n_devices

    def test_partial_bist(self, architecture, noise):
        wafer = draw_wafer(150, architecture, seed=29)
        engine = BatchPartialBistEngine(PartialBistConfig(
            n_bits=6, q=2, dnl_spec_lsb=1.0, transition_noise_lsb=noise))
        assert_plan_invariant(
            lambda plan: engine.run_wafer(wafer, rng=5, plan=plan))

    def test_histogram(self, architecture, noise):
        wafer = draw_wafer(150, architecture, seed=29)
        test = BatchHistogramTest(samples_per_code=16.0, dnl_spec_lsb=1.0,
                                  transition_noise_lsb=noise)
        assert_plan_invariant(
            lambda plan: test.run_wafer(wafer, rng=5, plan=plan),
            shard_devices=48)

    def test_dynamic(self, architecture, noise):
        wafer = draw_wafer(60, architecture, seed=29)
        suite = BatchDynamicSuite(analyzer=DynamicAnalyzer(n_samples=1024),
                                  spec=DynamicSpec(min_enob=4.0),
                                  transition_noise_lsb=noise)
        assert_plan_invariant(
            lambda plan: suite.run_wafer(wafer, rng=5, plan=plan),
            shard_devices=16)

    def test_full_bist_chip_mode(self, architecture, noise):
        wafer = draw_wafer(144, architecture, seed=29)
        engine = BatchBistEngine(_bist_config(noise))
        result = assert_plan_invariant(
            lambda plan: engine.run_chips(wafer, 4, rng=11, plan=plan),
            shard_devices=48)
        assert result.n_chips == 36

    def test_partial_chip_mode(self, architecture, noise):
        wafer = draw_wafer(144, architecture, seed=29)
        engine = BatchPartialBistEngine(PartialBistConfig(
            n_bits=6, q=2, dnl_spec_lsb=1.0, transition_noise_lsb=noise))
        result = assert_plan_invariant(
            lambda plan: engine.run_chips(wafer, 4, rng=11, plan=plan),
            shard_devices=48)
        assert result.n_chips == 36


class TestPlanMatchesSingleShot:
    """Noise-free plan runs equal the plain single-shot engine runs."""

    @pytest.mark.parametrize("workers,chunk", PLAN_GRID)
    def test_event_path_equals_legacy(self, workers, chunk):
        wafer = draw_wafer(130, "flash", seed=3)
        engine = BatchBistEngine(_bist_config(0.0))
        legacy = engine.run_wafer(wafer)
        planned = engine.run_wafer(
            wafer, plan=ExecutionPlan(workers=workers, chunk_size=chunk,
                                      shard_devices=50))
        assert_batch_results_identical(legacy, planned)

    def test_generator_rejected_with_plan(self):
        wafer = draw_wafer(20, "flash", seed=3)
        engine = BatchBistEngine(_bist_config(0.05))
        with pytest.raises(ValueError):
            engine.run_wafer(wafer, rng=np.random.default_rng(0),
                             plan=ExecutionPlan(workers=2))

    def test_executor_runs_any_conforming_engine(self):
        wafer = draw_wafer(90, "flash", seed=3)
        engine = BatchBistEngine(_bist_config(0.0))
        executor = ShardExecutor(ExecutionPlan(workers=2, shard_devices=40))
        result = executor.run(engine, wafer.transitions,
                              wafer.spec.full_scale, wafer.spec.sample_rate)
        assert isinstance(result, BatchBistResult)
        assert result.n_devices == 90


class TestScreeningLinePlan:
    def _line(self) -> ScreeningLine:
        return ScreeningLine(Scenario(transition_noise_lsb=0.05,
                                      deglitch_depth=3, retest_attempts=1))

    def test_reports_identical_across_plan_geometries(self):
        lot = Lot.draw(WaferSpec(n_devices=120), n_wafers=2, seed=6)
        reports = []
        stores = []
        for workers, chunk in [(1, None), (2, 31), (2, None)]:
            report = self._line().screen_lot(
                lot, rng=9,
                plan=ExecutionPlan(workers=workers, chunk_size=chunk,
                                   shard_devices=50))
            reports.append(report)
            stores.append(ResultStore([report]))
        base = reports[0]
        for report in reports[1:]:
            assert report.n_accepted == base.n_accepted
            assert report.bin_counts == base.bin_counts
            assert report.type_i == base.type_i
            assert report.type_ii == base.type_ii
            assert report.tester_seconds == base.tester_seconds
        for store in stores[1:]:
            assert store.lot_table() == stores[0].lot_table()
            assert store.method_table() == stores[0].method_table()
            assert store.bin_table() == stores[0].bin_table()

    def test_generator_rejected_with_plan(self):
        lot = Lot.draw(WaferSpec(n_devices=40), n_wafers=1, seed=6)
        with pytest.raises(ValueError):
            self._line().screen_lot(lot, rng=np.random.default_rng(0),
                                    plan=ExecutionPlan(workers=2))


class TestResultStoreMerge:
    def test_sharded_stores_merge_to_the_sequential_tables(self):
        spec = WaferSpec(n_devices=80)
        lots = [Lot.draw(spec, n_wafers=1, seed=s, lot_id=f"L{s}")
                for s in (1, 2, 3)]

        sequential = ResultStore()
        partials = []
        for method, lot in zip(("bist", "histogram", "bist"), lots):
            line = ScreeningLine(Scenario(method=method, dnl_spec_lsb=0.5))
            sequential.add(line.screen_lot(lot, rng=0))
            partials.append(line.screen_lot(lot, rng=0))

        merged = ResultStore(partials)
        assert merged.lot_table() == sequential.lot_table()
        assert merged.method_table() == sequential.method_table()
        assert merged.scenario_table() == sequential.scenario_table()
        assert merged.bin_table() == sequential.bin_table()
        assert merged.total_devices == sequential.total_devices

    def test_scenario_table_splits_architectures(self):
        store = ResultStore()
        for arch in ("flash", "sar"):
            lot = Lot.draw(WaferSpec(n_devices=40, architecture=arch),
                           n_wafers=1, seed=2, lot_id=arch)
            store.add(ScreeningLine(Scenario()).screen_lot(lot, rng=0))
        table = store.scenario_table()
        assert "flash/full" in table
        assert "sar/full" in table


def _merge_case(kind):
    """``(whole, parts, field, bad_value)`` for one result type.

    ``parts`` split ``whole`` by devices (by chips in chip mode); each
    part is a shard run whose ``first`` row keeps every device on its
    keyed noise stream, exactly as in the whole run.  ``field`` is a
    non-array field and ``bad_value`` a value that no part of the run can
    carry.
    """
    if kind == "chip":
        wafer = draw_wafer(64, "flash", seed=1)
        engine = BatchBistEngine(_bist_config(0.0))
        whole = engine.run_chips(wafer, 4)
        parts = [engine.run_chips(
            Wafer(dataclasses.replace(wafer.spec, n_devices=hi - lo),
                  wafer.transitions[lo:hi]), 4)
            for lo, hi in [(0, 24), (24, 64)]]
        return whole, parts, "converters_per_chip", 8
    wafer = draw_wafer(60, "sar", seed=1)
    engine = _engine(kind, NOISE[kind])
    field, bad = {
        "full": ("samples_taken", 1),
        "partial": ("partition", PartialBistPartition(n_bits=6, q=3)),
        "histogram": ("n_bits", 7),
        "dynamic": ("fundamental_hz", 1.0),
    }[kind]
    whole = engine.run_wafer(wafer, rng=5)
    context = engine.prepare(wafer.transitions)
    parts = [engine.run_shard(context, wafer.transitions[lo:hi], 5,
                              first=lo)
             for lo, hi in [(0, 25), (25, 60)]]
    return whole, parts, field, bad


@pytest.mark.parametrize("kind", ["full", "chip", "partial", "histogram",
                                  "dynamic"])
class TestResultMergeClassmethods:
    """One merge serves every result type: the same three rules each."""

    def test_empty_merge_rejected(self, kind):
        whole, _, _, _ = _merge_case(kind)
        with pytest.raises(ValueError):
            type(whole).merge([])

    def test_mismatched_shards_rejected(self, kind):
        whole, parts, field, bad = _merge_case(kind)
        parts[1] = dataclasses.replace(parts[1], **{field: bad})
        with pytest.raises(ValueError, match=field):
            type(whole).merge(parts)

    def test_merge_concatenates_in_shard_order(self, kind):
        whole, parts, _, _ = _merge_case(kind)
        assert_batch_results_identical(whole, type(whole).merge(parts))


class TestChunkDefaults:
    """The default chunk size is a pure memory knob.

    ``chunk_size=None`` resolves to a memory-bandwidth-aware default
    computed from the per-row bytes under the kernel's compact dtypes;
    these tests pin that the default dispatch stays byte-identical to any
    explicit chunk size, and the two full-BIST formulas.
    """

    def _run(self, engine, wafer, chunk_size):
        return engine.run_wafer(wafer, rng=5, chunk_size=chunk_size)

    def test_default_chunk_is_byte_identical_full_bist(self):
        wafer = draw_wafer(90, "flash", seed=3)
        engine = BatchBistEngine(_bist_config(0.05))
        default = self._run(engine, wafer, None)
        explicit = self._run(engine, wafer, 7)
        assert_batch_results_identical(default, explicit)

    def test_default_chunk_is_byte_identical_histogram(self):
        wafer = draw_wafer(70, "flash", seed=3)
        test = BatchHistogramTest(samples_per_code=16.0, dnl_spec_lsb=0.5,
                                  transition_noise_lsb=0.04)
        default = self._run(test, wafer, None)
        explicit = self._run(test, wafer, 11)
        assert_batch_results_identical(default, explicit)

    def test_plan_default_chunk_matches_serial_reference(self):
        # Warm-dispatch path: plan execution with the default chunk must
        # equal the serial in-process run.
        wafer = draw_wafer(120, "flash", seed=3)
        engine = BatchBistEngine(_bist_config(0.0))
        reference = engine.run_wafer(wafer)
        planned = engine.run_wafer(
            wafer, plan=ExecutionPlan(workers=2, shard_devices=32))
        assert_batch_results_identical(reference, planned)

    def test_compact_rows_set_the_full_bist_defaults(self):
        from repro.core.kernel import auto_chunk_size
        from repro.production.batch_engine import (
            STREAM_CHUNK_BUDGET_BYTES,
            _event_chunk_size,
            _stream_chunk_size,
        )

        n_transitions, n_samples = 63, 4369
        # Four int32 index rows per device on the event path ...
        assert _event_chunk_size(n_transitions, n_samples) == \
            auto_chunk_size(4 * n_transitions * 4)
        # ... and 24 float bytes, an int16 code and 3 masks per sample on
        # the stream path.
        assert _stream_chunk_size(n_transitions, n_samples) == \
            auto_chunk_size(n_samples * (24 + 2 + 3),
                            budget=STREAM_CHUNK_BUDGET_BYTES)

    def test_default_chunk_is_byte_identical_partial(self):
        wafer = draw_wafer(70, "sar", seed=3)
        engine = _engine("partial", NOISE["partial"])
        default = self._run(engine, wafer, None)
        explicit = self._run(engine, wafer, 9)
        assert_batch_results_identical(default, explicit)

    def test_default_chunk_is_byte_identical_dynamic(self):
        wafer = draw_wafer(40, "flash", seed=3)
        suite = _engine("dynamic", NOISE["dynamic"])
        default = self._run(suite, wafer, None)
        explicit = self._run(suite, wafer, 6)
        assert_batch_results_identical(default, explicit)


def _run_entry(engine, entry: str, wafer: Wafer, rng, plan):
    """Run one public entry point of a batch engine on a wafer."""
    if entry == "run_transitions":
        spec = wafer.spec
        return engine.run_transitions(wafer.transitions,
                                      full_scale=spec.full_scale,
                                      sample_rate=spec.sample_rate,
                                      rng=rng, plan=plan)
    return getattr(engine, entry)(wafer, rng=rng, plan=plan)


@pytest.mark.parametrize("plan", [None, ExecutionPlan(shard_devices=16)],
                         ids=["planless", "plan"])
@pytest.mark.parametrize("kind,entry", [
    (kind, entry)
    for kind in ("full", "partial", "histogram", "dynamic")
    for entry in ("run_wafer", "run_transitions", "run_population")
    if kind in ("full", "partial") or entry != "run_population"
])
def test_unseeded_run_uses_the_configured_seed(kind, entry, plan):
    """``rng=None`` means the engine's ``seed`` at every entry point.

    The skeleton resolves the seed in one place, so a run without ``rng``
    is reproducible and equals the run seeded with the configured seed,
    with or without a plan.  (Chip mode is pinned in
    ``test_batch_engine.py``.)
    """
    wafer = draw_wafer(40, "sar", seed=2)
    engine = _engine(kind, NOISE[kind], seed=11)
    seeded = _run_entry(engine, entry, wafer, 11, plan)
    for _ in range(2):
        assert_batch_results_identical(
            seeded, _run_entry(engine, entry, wafer, None, plan))
    # The noise shows in every result, so the comparison has teeth.
    with pytest.raises(AssertionError):
        assert_batch_results_identical(
            seeded, _run_entry(engine, entry, wafer, 12, plan))


@pytest.mark.parametrize("plan", [None, ExecutionPlan()],
                         ids=["planless", "plan"])
def test_unseeded_screen_lot_uses_the_configured_seed(plan):
    """``screen_lot`` without ``rng`` falls back to the scenario's
    ``seed``, so two identical calls agree."""
    lot = Lot.draw(WaferSpec(n_devices=256), n_wafers=1, seed=3)
    line = ScreeningLine(Scenario(transition_noise_lsb=0.05,
                                  deglitch_depth=3, retest_attempts=1,
                                  seed=3))
    seeded = dataclasses.replace(line.screen_lot(lot, rng=3, plan=plan),
                                 wall_seconds=0.0)
    for _ in range(2):
        unseeded = line.screen_lot(lot, plan=plan)
        assert dataclasses.replace(unseeded, wall_seconds=0.0) == seeded
    other = line.screen_lot(lot, rng=4, plan=plan)
    assert dataclasses.replace(other, wall_seconds=0.0) != seeded


@pytest.mark.parametrize("kind", ["full", "partial", "histogram", "dynamic"])
@pytest.mark.parametrize("noisy", [False, True], ids=["noise-free", "noisy"])
def test_skeleton_reports_engine_counters_and_spans(kind, noisy):
    """Every engine reports the skeleton's ``engine.<name>.*`` telemetry.

    Three shards of a 40-die wafer: one ``prepare`` span, one
    ``run_shard`` span per shard and one ``merge`` span, and counters
    that add up to the whole wafer on the path the context chose (the
    dynamic suite's sine record always takes the stream path).
    """
    wafer = draw_wafer(40, "flash", seed=4)
    engine = _engine(kind, NOISE[kind] if noisy else 0.0)
    context = engine.prepare(wafer.transitions, wafer.spec.full_scale,
                             wafer.spec.sample_rate)
    with telemetry_session(Telemetry()) as t:
        engine.run_wafer(wafer, rng=3, plan=ExecutionPlan(shard_devices=16))
    prefix = "engine.{}.".format("bist" if kind == "full" else kind)
    path = "stream" if noisy or kind == "dynamic" else "event"
    counters = {name: n for name, n in t.counters.items()
                if name.startswith(prefix)}
    counters.pop("engine.bist.stream_events", None)
    assert counters == {
        prefix + "shards": 3,
        prefix + "devices": 40,
        prefix + "samples": 40 * context.n_samples,
        prefix + f"{path}_path_devices": 40,
    }
    spans = [(span.name[len(prefix):], span.attrs) for span in t.spans
             if span.name.startswith(prefix)]
    assert spans == [("prepare", {"devices": 40}),
                     ("run_shard", {"devices": 16}),
                     ("run_shard", {"devices": 16}),
                     ("run_shard", {"devices": 8}),
                     ("merge", {"shards": 3})]
