"""Kernel benchmark: crossing-index fast path and code-matrix memory.

Two scalars back the kernel's acceptance claims, recorded into the
``BENCH_*.json`` trajectory:

``kernel.event_fast_path_speedup``
    The arithmetic crossing-index fast path
    (:func:`repro.core.kernel.shared_crossing_indices` on a uniform
    ramp: one arithmetic guess per crossing index, kept when the level's
    computed position lies outside a proven rounding band around every
    sample, so the ramp is never read, and sent to ``searchsorted``
    otherwise) against the historical ``np.searchsorted`` per-row
    reference it replaced, same inputs, bit-identical outputs asserted.
    Claim: >= 1.5x.
``kernel.compact_memory_ratio_8bit``
    Bytes of an 8-bit code matrix stored as int64 over the kernel's
    compact code matrix (int16), measured off the actual kernel output.
    Claim: >= 2x (the int16 compaction gives 4x).
``kernel.pipeline_search_speedup``
    A 256-die 6-bit pipeline draw
    (:meth:`repro.adc.PipelineStageBackend.draw_transitions`, whose
    breakpoint search is :func:`repro.adc.pipeline.search_transitions`)
    against the same parameter draw read off the dense sweep
    (:func:`repro.adc.pipeline.dense_transitions`), bit-identical outputs
    asserted.  ``kernel.pipeline_draw_s`` is the draw a ``repro serve``
    pipeline lot waits for.
``kernel.regular_decisions_s``
    The batch engine's event-path decisions for the regular dies of a
    65,536-die 6-bit wafer, from their crossing matrix in shards of
    :data:`~repro.production.DEFAULT_SHARD_DEVICES`, as a default plan
    feeds them: the verdicts from each row's smallest and largest count,
    the max |DNL| from the two extreme widths over the full row's mean.
    Against ``kernel.regular_full_row_s``, every count through
    :func:`repro.core.decision.decide_counts`; equal outputs asserted.
``kernel.max_dnl_extremes_s``
    Truth scoring of the same wafer: :func:`repro.adc.batch_max_dnl`,
    each die's max |DNL| from its mean and its narrowest and widest code.
    Against ``kernel.max_dnl_full_row_s``, every code's |DNL| in the same
    blocks of rows; equal bytes asserted.

Wall-clock thresholds stay out of the gating tier-1 run for the usual
reason: shared CI runners make timing assertions hostage to co-tenant
load, so the committed trajectory is the enforcement point.
"""

import time

import numpy as np

from repro.adc import PipelineStageBackend, backends, batch_max_dnl
from repro.adc.pipeline import dense_transitions
from repro.adc.transfer import SCORING_BLOCK, batch_dnl_from_transitions
from repro.core import BistConfig
from repro.core.decision import decide_counts
from repro.core.kernel import batch_quantise_shared, shared_crossing_indices
from repro.production import DEFAULT_SHARD_DEVICES, BatchBistEngine, \
    Wafer, WaferSpec
from repro.production.batch_engine import _ChunkOutcome
from repro.reporting import format_table

REPEATS = 5


def _best_of(fn, repeats=REPEATS):
    fn()  # warm-up
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_crossing_fast_path_speedup(bench, report):
    rng = np.random.default_rng(17)
    n_devices, n_levels, n_samples = 5000, 63, 4369
    transitions = np.sort(rng.uniform(-0.55, 0.55, (n_devices, n_levels)),
                          axis=1)
    voltages = np.linspace(-0.6, 0.6, n_samples)

    fast = shared_crossing_indices(transitions, voltages)
    reference = np.searchsorted(voltages, transitions)
    np.testing.assert_array_equal(fast, reference)

    t_fast = _best_of(lambda: shared_crossing_indices(transitions, voltages))
    t_ref = _best_of(lambda: np.searchsorted(voltages, transitions))
    speedup = t_ref / t_fast
    bench("kernel.event_fast_path_speedup", speedup)
    bench("kernel.crossing_fast_path_s", t_fast)
    bench("kernel.crossing_searchsorted_s", t_ref)
    report("kernel: crossing-index fast path",
           format_table(
               ["variant", "seconds", "speedup"],
               [["searchsorted (reference)", f"{t_ref:.4f}", "1.00"],
                ["arithmetic fast path", f"{t_fast:.4f}",
                 f"{speedup:.2f}"]],
               title=f"{n_devices} devices x {n_levels} levels, "
                     f"{n_samples}-sample ramp"))


def test_compaction_memory_ratio(bench, report):
    rng = np.random.default_rng(23)
    # An 8-bit converter: 255 transitions, the acceptance target's shape.
    transitions = np.sort(rng.uniform(-0.55, 0.55, (2000, 255)), axis=1)
    voltages = np.linspace(-0.6, 0.6, 255 * 16 + 1)

    narrow = batch_quantise_shared(transitions, voltages)
    wide = narrow.astype(np.int64)
    ratio = wide.nbytes / narrow.nbytes
    bench("kernel.compact_memory_ratio_8bit", ratio)
    bench("kernel.code_matrix_bytes_int64", wide.nbytes)
    bench("kernel.code_matrix_bytes_compact", narrow.nbytes)
    report("kernel: 8-bit code-matrix compaction",
           format_table(
               ["storage", "dtype", "bytes", "ratio"],
               [["int64", str(wide.dtype), str(wide.nbytes), "1.00"],
                ["kernel", str(narrow.dtype), str(narrow.nbytes),
                 f"{ratio:.2f}"]],
               title="2000 devices x (4081 samples as codes)"))


def test_pipeline_draw(bench, report, monkeypatch):
    backend = PipelineStageBackend(6)
    n_devices = 256

    def draw():
        return backend.draw_transitions(n_devices, rng=29)

    searched = draw()
    t_search = _best_of(draw)
    # The same parameter draw, read off the dense sweep.
    monkeypatch.setattr(backends, "search_transitions", dense_transitions)
    np.testing.assert_array_equal(draw(), searched)
    t_dense = _best_of(draw, repeats=3)  # ~0.1 s per call
    speedup = t_dense / t_search
    bench("kernel.pipeline_draw_s", t_search)
    bench("kernel.pipeline_dense_s", t_dense)
    bench("kernel.pipeline_search_speedup", speedup)
    report("kernel: pipeline lot draw",
           format_table(
               ["variant", "seconds", "speedup"],
               [["dense sweep (reference)", f"{t_dense:.4f}", "1.00"],
                ["breakpoint search", f"{t_search:.4f}",
                 f"{speedup:.2f}"]],
               title=f"{n_devices} dies x 6 bits, 64 sweep points per LSB"))


def _full_row_decisions(counts, limits):
    """Every code through ``decide_counts``, then the max |DNL| of the
    readings' widths over their row mean."""
    decision = decide_counts(counts, limits)
    widths = decision.readings * limits.delta_s_lsb
    mean = widths.mean(axis=1)
    mean = np.where(mean == 0.0, 1.0, mean)
    return (decision.dnl_pass.all(axis=1), decision.inl_pass.all(axis=1),
            np.abs(widths / mean[:, None] - 1.0).max(axis=1))


def test_regular_decisions(bench, report):
    wafer = Wafer.draw(WaferSpec(n_bits=6, sigma_code_width_lsb=0.21,
                                 n_devices=65536), rng=31)
    engine = BatchBistEngine(BistConfig(n_bits=6, counter_bits=7,
                                        dnl_spec_lsb=1.0))
    stimulus = engine.prepare(wafer.transitions).stimulus
    crossing = shared_crossing_indices(wafer.transitions, stimulus)
    regular = ((np.diff(crossing, axis=1) > 0).all(axis=1)
               & (crossing[:, 0] >= 1)
               & (crossing[:, -1] <= stimulus.size - 1))
    shards = [crossing[regular][lo:lo + DEFAULT_SHARD_DEVICES]
              for lo in range(0, int(regular.sum()), DEFAULT_SHARD_DEVICES)]

    def extremes():
        outcomes = []
        for shard in shards:
            counts = np.diff(shard, axis=1)
            outcome = _ChunkOutcome.empty(*counts.shape)
            engine._regular_outcome(counts, counts.min(axis=1),
                                    counts.max(axis=1), outcome,
                                    slice(None))
            outcomes.append((outcome.dnl_passed, outcome.inl_passed,
                             outcome.measured_max_dnl_lsb))
        return outcomes

    def full_row():
        return [_full_row_decisions(np.diff(shard, axis=1), engine.limits)
                for shard in shards]

    for fast, reference in zip(extremes(), full_row()):
        for a, b in zip(fast, reference):
            assert a.tobytes() == b.tobytes()
    t_fast = _best_of(extremes)
    t_ref = _best_of(full_row)
    bench("kernel.regular_decisions_s", t_fast)
    bench("kernel.regular_full_row_s", t_ref)
    report("kernel: decisions of regular dies",
           format_table(
               ["variant", "seconds", "speedup"],
               [["every count (reference)", f"{t_ref:.4f}", "1.00"],
                ["row extremes", f"{t_fast:.4f}", f"{t_ref / t_fast:.2f}"]],
               title=f"{int(regular.sum())} regular of 65536 dies x 6 "
                     f"bits in shards of {DEFAULT_SHARD_DEVICES}, 7-bit "
                     f"saturating counter, no INL spec"))


def _full_row_max_dnl(transitions):
    """Every code's |DNL|, the largest per row, in scoring-sized blocks."""
    rows = SCORING_BLOCK // transitions.shape[1]
    return np.concatenate([
        np.abs(batch_dnl_from_transitions(
            transitions[lo:lo + rows])).max(axis=1)
        for lo in range(0, transitions.shape[0], rows)])


def test_truth_scoring(bench, report):
    transitions = Wafer.draw(WaferSpec(n_bits=6, sigma_code_width_lsb=0.21,
                                       n_devices=65536),
                             rng=31).transitions
    assert (batch_max_dnl(transitions).tobytes()
            == _full_row_max_dnl(transitions).tobytes())
    t_fast = _best_of(lambda: batch_max_dnl(transitions))
    t_ref = _best_of(lambda: _full_row_max_dnl(transitions))
    bench("kernel.max_dnl_extremes_s", t_fast)
    bench("kernel.max_dnl_full_row_s", t_ref)
    report("kernel: truth scoring",
           format_table(
               ["variant", "seconds", "speedup"],
               [["every code (reference)", f"{t_ref:.4f}", "1.00"],
                ["mean and extreme widths", f"{t_fast:.4f}",
                 f"{t_ref / t_fast:.2f}"]],
               title="max |DNL| of 65536 dies x 6 bits"))
