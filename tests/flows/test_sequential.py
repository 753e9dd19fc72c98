"""Sequential (SPRT) station: degeneration, savings and error bounds.

The three contracts of the tentpole's sequential flow:

* the degenerate policy (both Wald boundaries at infinity) reproduces
  the fixed-count decision **bit-exactly** with zero saved samples;
* on the paper's baseline scenario the SPRT saves tester time (>0
  saved tester-seconds through the TesterModel economics) while its
  measured escape/yield-loss stay within the binomial model's
  predicted bounds; and
* the observation stream (:func:`code_pass_matrix`) agrees with the
  engine's noise-free fixed verdict, so the station decides on the
  same physics the full BIST measured.
"""

import numpy as np
import pytest

from repro.analysis.binomial import (
    BinomialDeviceModel,
    sequential_escape_bound,
    wald_error_bounds,
)
from repro.campaign import Scenario, sequential_policy
from repro.campaign.factory import make_engine
from repro.flows.sequential import (
    SequentialPolicy,
    code_pass_matrix,
    sprt_decide,
)
from repro.production import ExecutionPlan, ScreeningLine

#: The baseline process/measurement point every line-level test screens:
#: the paper's process sigma (0.21 LSB) under the repo's default spec
#: (DNL 1.0 LSB, 7-bit counter) — a high-yield production regime, so the
#: analytic escape bound is small enough to be worth asserting against.
BASELINE = dict(n_bits=8, sigma_code_width_lsb=0.21,
                n_devices=400, n_wafers=2, seed=11)


@pytest.fixture(scope="module")
def baseline_reports():
    """(fixed report, sprt report, policy, per_code) on the same lot."""
    fixed = Scenario(label="fixed", flow="fixed", **BASELINE)
    sprt = Scenario(label="sprt", flow="sprt", **BASELINE)
    lot = fixed.draw_lot()
    plan = ExecutionPlan(workers=1, shard_devices=64)
    report_fixed = ScreeningLine(fixed).screen_lot(
        lot, plan=plan)
    report_sprt = ScreeningLine(sprt).screen_lot(
        lot, plan=plan)
    policy, per_code = sequential_policy(sprt)
    return report_fixed, report_sprt, policy, per_code


class TestPolicy:
    def test_paper_policy_orders_hypotheses(self):
        policy = sequential_policy(Scenario(**BASELINE))[0]
        assert policy.p1 < policy.p0
        assert policy.llr_pass < 0.0 < policy.llr_fail
        assert policy.log_accept < 0.0 < policy.log_reject
        assert 1 <= policy.min_accept_codes <= 16

    def test_fixed_policy_never_stops(self):
        policy = SequentialPolicy.fixed()
        assert policy.llr_pass == 0.0 == policy.llr_fail
        assert policy.min_accept_codes == np.inf

    def test_rejects_inverted_probabilities(self):
        with pytest.raises(ValueError):
            SequentialPolicy(p0=0.2, p1=0.9)

    def test_wald_bounds_are_mild_inflations(self):
        alpha_bound, beta_bound = wald_error_bounds(1e-3, 1e-3)
        assert 1e-3 < alpha_bound < 1.1e-3
        assert 1e-3 < beta_bound < 1.1e-3


class TestSprtDecide:
    def test_degenerate_policy_is_bit_exact_fixed(self):
        rng = np.random.default_rng(3)
        code_ok = rng.random((64, 30)) > 0.1
        fixed = rng.random(64) > 0.5
        decision = sprt_decide(code_ok, SequentialPolicy.fixed(),
                               fixed_decision=fixed)
        np.testing.assert_array_equal(decision.accepted, fixed)
        assert decision.saved_codes == 0
        assert decision.n_stopped_early == 0
        assert (decision.stop_codes == 30).all()

    def test_all_pass_device_accepts_at_min_accept_codes(self):
        policy = sequential_policy(Scenario(**BASELINE))[0]
        decision = sprt_decide(np.ones((1, 100), dtype=bool), policy)
        assert bool(decision.accepted[0])
        assert decision.stop_codes[0] == policy.min_accept_codes

    def test_early_fail_rejects_immediately(self):
        policy = sequential_policy(Scenario(**BASELINE))[0]
        code_ok = np.ones((1, 100), dtype=bool)
        code_ok[0, 0] = False
        decision = sprt_decide(code_ok, policy)
        assert not bool(decision.accepted[0])
        assert decision.stop_codes[0] == 1

    def test_quartiles_partition_the_batch(self):
        policy = sequential_policy(Scenario(**BASELINE))[0]
        rng = np.random.default_rng(5)
        code_ok = rng.random((200, 61)) > 0.02
        decision = sprt_decide(code_ok, policy)
        assert decision.stop_quartiles().sum() == 200
        assert decision.observed_codes + decision.saved_codes \
            == decision.total_codes

    def test_empty_batch(self):
        decision = sprt_decide(np.empty((0, 10), dtype=bool),
                               SequentialPolicy.fixed())
        assert decision.n_devices == 0
        assert decision.stop_quartiles().sum() == 0

    def test_rejects_non_matrix_input(self):
        with pytest.raises(ValueError):
            sprt_decide(np.ones(5, dtype=bool), SequentialPolicy.fixed())


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
        report_fixed, report_sprt, _, _ = baseline_reports
        assert report_sprt.flow == "sprt"
        assert report_sprt.saved_samples > 0
        assert report_sprt.saved_tester_seconds > 0.0
        assert report_sprt.tester_seconds < report_fixed.tester_seconds
        assert report_sprt.saved_tester_seconds == pytest.approx(
            report_fixed.tester_seconds - report_sprt.tester_seconds)

    def test_fixed_flow_report_is_unchanged(self, baseline_reports):
        report_fixed, _, _, _ = baseline_reports
        assert report_fixed.flow == "fixed"
        assert report_fixed.saved_samples == 0
        assert report_fixed.saved_tester_seconds == 0.0
        assert report_fixed.n_aborted == 0

    def test_errors_within_binomial_model_bounds(self, baseline_reports):
        report_fixed, report_sprt, policy, per_code = baseline_reports
        n_codes = Scenario(**BASELINE).wafer_spec().n_inner_codes
        escape_bound = sequential_escape_bound(per_code, n_codes,
                                               policy.min_accept_codes)
        assert report_sprt.type_ii <= escape_bound
        # Noise-free, the SPRT rejects at the first failing observation,
        # so it can only reject a subset of what the fixed flow rejects —
        # plus at most Wald's bound on the design alpha.
        alpha_bound, _ = wald_error_bounds(policy.alpha, policy.beta)
        assert report_sprt.type_i <= report_fixed.type_i + alpha_bound

    def test_sequential_station_accounts_economics(self, baseline_reports):
        _, report_sprt, _, _ = baseline_reports
        station = report_sprt.stations[0]
        assert station.name == "sequential"
        assert station.accounted == report_sprt.n_devices
        assert station.tester_seconds == pytest.approx(
            report_sprt.tester_seconds)
        assert np.isfinite(station.devices_per_hour)

    def test_escape_bound_degenerates_to_fixed_model(self):
        per_code = sequential_policy(Scenario(**BASELINE))[1]
        n_codes = 254
        fixed_type_ii = BinomialDeviceModel(per_code, n_codes).device() \
            .type_ii
        assert sequential_escape_bound(per_code, n_codes, np.inf) \
            == pytest.approx(fixed_type_ii)
