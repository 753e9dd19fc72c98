"""Sequential station: engine stops, fixed verdicts and savings.

The contracts of the curtailed sequential flow:

* every device's stop is one code past its first failing per-code
  decision in ramp order (clipped to the inner code count), or the inner
  code count when no code fails — noise-free against
  :func:`code_pass_matrix` and the scalar engine, noisy against the
  scalar engine on the same keyed noise;
* the station keeps the fixed flow's verdicts, so accept count and type
  I/II equal the fixed flow's, and prices only the codes before each
  stop; and
* the observation stream (:func:`code_pass_matrix`) agrees with the
  engine's noise-free fixed verdict.
"""

import numpy as np
import pytest

from repro.campaign import Scenario
from repro.campaign.factory import make_engine
from repro.core.engine import BistConfig, BistEngine
from repro.core.kernel import shared_crossing_indices
from repro.core.noise import DeviceNoise
from repro.flows.sequential import code_pass_matrix, sprt_decide
from repro.production import (
    BatchBistEngine,
    ExecutionPlan,
    ScreeningLine,
    Wafer,
    WaferSpec,
)

#: The baseline process/measurement point: the paper's process sigma
#: (0.21 LSB) under the repo's default spec (DNL 1.0 LSB, 7-bit counter).
BASELINE = dict(n_bits=8, sigma_code_width_lsb=0.21,
                n_devices=400, n_wafers=2, seed=11)

#: The DNL spec of the line-economics lot: at ±0.5 LSB about two dies in
#: three fail a code, which is where a curtailed station saves time.
SPEC_LSB = 0.5


@pytest.fixture(scope="module")
def baseline_reports():
    """(fixed report, sprt report) on the same ±0.5 LSB lot."""
    fixed = Scenario(label="fixed", flow="fixed", dnl_spec_lsb=SPEC_LSB,
                     **BASELINE)
    sprt = fixed.derive(label="sprt", flow="sprt")
    lot = fixed.draw_lot()
    plan = ExecutionPlan(workers=1, shard_devices=64)
    return (ScreeningLine(fixed).screen_lot(lot, plan=plan),
            ScreeningLine(sprt).screen_lot(lot, plan=plan))


def _first_failures(code_ok: np.ndarray, n_codes: int) -> np.ndarray:
    """One past each row's first False, clipped to ``n_codes``;
    ``n_codes`` for an all-True row."""
    failing = ~code_ok
    return np.where(failing.any(axis=1),
                    np.minimum(failing.argmax(axis=1) + 1, n_codes),
                    n_codes)


def _scalar_stop(engine: BistEngine, device, n_codes: int, rng=None) -> int:
    """The scalar engine's stop: its first failing per-code decision."""
    lsb = engine.run(device, rng=rng, keep_record=False).lsb
    code_ok = lsb.dnl_pass_per_code & lsb.inl_pass_per_code
    return int(_first_failures(code_ok[None, :], n_codes)[0])


class TestSprtDecide:
    def test_early_fail_rejects_immediately(self):
        decision = sprt_decide(np.array([1, 100]), 100)
        np.testing.assert_array_equal(decision.decided, [True, False])
        assert decision.n_stopped_early == 1
        assert decision.observed_codes == 101
        assert decision.saved_codes == 99

    def test_quartiles_partition_the_batch(self):
        rng = np.random.default_rng(5)
        decision = sprt_decide(rng.integers(1, 62, size=200), 61)
        assert decision.stop_quartiles().sum() == 200
        assert decision.observed_codes + decision.saved_codes \
            == decision.total_codes

    def test_empty_batch(self):
        decision = sprt_decide(np.empty(0, dtype=np.int16), 10)
        assert decision.n_devices == 0
        assert decision.stop_quartiles().sum() == 0

    def test_rejects_malformed_stops(self):
        with pytest.raises(ValueError, match="one stop per device"):
            sprt_decide(np.ones((2, 5), dtype=np.int16), 5)
        with pytest.raises(ValueError, match="within"):
            sprt_decide(np.array([0, 3]), 5)
        with pytest.raises(ValueError, match="within"):
            sprt_decide(np.array([6]), 5)


#: Engine configurations of the noise-free stop test: the extremes
#: branch (saturating counter, no INL spec), an INL spec and a wrapping
#: counter, which decide on the full rows.
STOP_CONFIGS = {
    "saturating": dict(dnl_spec_lsb=0.5),
    "inl-spec": dict(dnl_spec_lsb=1.0, inl_spec_lsb=0.5),
    "wrapping": dict(dnl_spec_lsb=1.0, counter_bits=5,
                     counter_saturate=False),
}


class TestEngineStops:
    """The engine's stop codes, against references that do not share
    its stop code."""

    @pytest.mark.parametrize("name", sorted(STOP_CONFIGS))
    def test_noise_free_stops_match_references(self, name):
        # sigma 0.6 LSB draws missing codes and folded curves; die 0 is
        # folded by hand.
        wafer = Wafer.draw(WaferSpec(n_devices=300,
                                     sigma_code_width_lsb=0.6), rng=9)
        transitions = wafer.transitions.copy()
        transitions[0] = transitions[0, ::-1]
        wafer = Wafer(spec=wafer.spec, transitions=transitions)
        config = BistConfig(n_bits=6, **STOP_CONFIGS[name])
        engine = BatchBistEngine(config)
        result = engine.run_wafer(wafer)
        n_codes = transitions.shape[1] - 1
        stimulus = engine.prepare(transitions).stimulus
        crossing = shared_crossing_indices(transitions, stimulus)
        regular = ((np.diff(crossing, axis=1) > 0).all(axis=1)
                   & (crossing[:, 0] >= 1)
                   & (crossing[:, -1] <= stimulus.size - 1))
        assert 0 < regular.sum() < regular.size
        assert (result.stop_codes < n_codes).any()
        assert result.stop_codes.dtype == np.int16

        # Regular dies: the first False of the noise-free code matrix.
        code_ok = code_pass_matrix(transitions, stimulus, engine.limits,
                                   saturate=config.counter_saturate)
        np.testing.assert_array_equal(
            result.stop_codes[regular],
            _first_failures(code_ok, n_codes)[regular])
        # Irregular dies: code_pass_matrix fails them from code one, but
        # the counter stream fails where the scalar engine says.
        scalar = BistEngine(config)
        irregular = np.flatnonzero(~regular)
        expected = [_scalar_stop(scalar, wafer.device(i), n_codes)
                    for i in irregular[:40]]
        np.testing.assert_array_equal(result.stop_codes[irregular[:40]],
                                      expected)
        assert result.stop_codes[0] > 1

    def test_no_failing_code_runs_the_record(self):
        """A die rejected on the transition count alone stops at the
        end of the record."""
        wafer = Wafer.draw(WaferSpec(n_devices=8), rng=4)
        transitions = wafer.transitions.copy()
        transitions[0, -1] = 10.0 * wafer.spec.full_scale
        wafer = Wafer(spec=wafer.spec, transitions=transitions)
        result = BatchBistEngine(BistConfig(n_bits=6)).run_wafer(wafer)
        assert not result.passed[0] and not result.transitions_ok[0]
        assert result.stop_codes[0] == transitions.shape[1] - 1

    @pytest.mark.parametrize("deglitch", [0, 3])
    def test_noisy_stops_match_scalar(self, deglitch):
        wafer = Wafer.draw(WaferSpec(n_devices=40,
                                     sigma_code_width_lsb=0.3), rng=2)
        config = BistConfig(n_bits=6, dnl_spec_lsb=0.75,
                            transition_noise_lsb=0.05,
                            deglitch_depth=deglitch)
        result = BatchBistEngine(config).run_wafer(wafer, rng=77)
        n_codes = wafer.transitions.shape[1] - 1
        scalar = BistEngine(config)
        noise = DeviceNoise(77)
        sample = range(0, 40, 3)
        expected = [_scalar_stop(scalar, wafer.device(d), n_codes,
                                 rng=noise.generator(d)) for d in sample]
        np.testing.assert_array_equal(result.stop_codes[list(sample)],
                                      expected)
        assert (result.stop_codes < n_codes).any()


class TestObservationStream:
    def test_matches_engine_fixed_verdict_noise_free(self):
        scenario = Scenario(**BASELINE)
        wafer = scenario.draw_wafer()
        engine = make_engine(scenario)
        result = engine.run_wafer(wafer)
        spec = wafer.spec
        ctx = engine.prepare(wafer.transitions, spec.full_scale,
                             spec.sample_rate)
        code_ok = code_pass_matrix(wafer.transitions, ctx.stimulus,
                                   engine.limits,
                                   saturate=scenario.bist_config()
                                   .counter_saturate)
        np.testing.assert_array_equal(code_ok.all(axis=1), result.passed)

    def test_folded_transitions_fail_every_code(self):
        scenario = Scenario(**BASELINE)
        wafer = scenario.draw_wafer()
        engine = make_engine(scenario)
        spec = wafer.spec
        ctx = engine.prepare(wafer.transitions, spec.full_scale,
                             spec.sample_rate)
        broken = wafer.transitions.copy()
        broken[0] = broken[0, ::-1]  # fold the first device's levels
        code_ok = code_pass_matrix(broken, ctx.stimulus,
                                   engine.limits)
        assert not code_ok[0].any()


class TestLineEconomics:
    def test_sprt_saves_tester_seconds_on_baseline(self, baseline_reports):
        report_fixed, report_sprt = baseline_reports
        assert report_sprt.flow == "sprt"
        assert report_sprt.saved_samples > 0
        assert report_sprt.saved_tester_seconds > 0.0
        assert report_sprt.tester_seconds < report_fixed.tester_seconds
        assert report_sprt.saved_tester_seconds == pytest.approx(
            report_fixed.tester_seconds - report_sprt.tester_seconds)

    def test_sprt_keeps_the_fixed_verdicts(self, baseline_reports):
        report_fixed, report_sprt = baseline_reports
        assert report_sprt.n_accepted == report_fixed.n_accepted
        assert report_sprt.type_i == report_fixed.type_i
        assert report_sprt.type_ii == report_fixed.type_ii
        assert report_sprt.bin_counts == report_fixed.bin_counts

    def test_good_lot_saves_nothing(self):
        """Only a failing code stops a die early: a lot every die of
        which passes runs every record to its end."""
        fixed = Scenario(flow="fixed", **BASELINE)
        lot = fixed.draw_lot()
        reports = [ScreeningLine(s).screen_lot(lot)
                   for s in (fixed, fixed.derive(flow="sprt"))]
        assert reports[0].n_accepted == reports[0].n_devices
        assert reports[1].saved_samples == 0
        assert reports[1].tester_seconds == reports[0].tester_seconds

    def test_fixed_flow_report_is_unchanged(self, baseline_reports):
        report_fixed, _ = baseline_reports
        assert report_fixed.flow == "fixed"
        assert report_fixed.saved_samples == 0
        assert report_fixed.saved_tester_seconds == 0.0
        assert report_fixed.n_aborted == 0

    def test_sequential_station_accounts_economics(self, baseline_reports):
        _, report_sprt = baseline_reports
        station = report_sprt.stations[0]
        assert station.name == "sequential"
        assert station.accounted == report_sprt.n_devices
        assert station.tester_seconds == pytest.approx(
            report_sprt.tester_seconds)
        assert np.isfinite(station.devices_per_hour)
