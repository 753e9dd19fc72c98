"""Excursion generators: determinism, identity edges, seed namespacing.

Excursions are applied at draw time in the parent process, so their
whole determinism story is the generator's: the same ``(name, seed,
wafer_index)`` must produce byte-identical perturbations, the clean
cases must return the *same object* (no accidental copies into the
shared-memory path), and the perturbation streams must not alias the
wafer-draw streams of the same scenario seed.
"""

import numpy as np
import pytest

from repro.campaign import Scenario
from repro.flows.excursions import (
    EXCURSIONS,
    _burst,
    _drift,
    _spatial,
    apply_excursion,
    excursion_bounds,
    excursion_perturbs,
    excursion_rng,
)
from repro.production import ExecutionPlan, ScreeningLine
from repro.telemetry import Telemetry, metrics_document, telemetry_session


@pytest.fixture(scope="module")
def clean():
    """One drawn transition matrix and its LSB size."""
    scenario = Scenario(n_devices=600, seed=21)
    wafer = scenario.draw_wafer()
    return wafer.transitions, wafer.spec.lsb


class TestDeterminism:
    @pytest.mark.parametrize("name", EXCURSIONS)
    def test_same_inputs_byte_identical(self, name, clean):
        transitions, lsb = clean
        first = apply_excursion(name, transitions, lsb, 1, seed=21)
        second = apply_excursion(name, transitions, lsb, 1, seed=21)
        np.testing.assert_array_equal(first, second)
        assert first.tobytes() == second.tobytes()

    @pytest.mark.parametrize("name", EXCURSIONS)
    def test_never_mutates_input(self, name, clean):
        transitions, lsb = clean
        before = transitions.copy()
        apply_excursion(name, transitions, lsb, 1, seed=21)
        np.testing.assert_array_equal(transitions, before)

    @pytest.mark.parametrize("name", EXCURSIONS)
    def test_wafer_indices_perturb_independently(self, name, clean):
        transitions, lsb = clean
        one = apply_excursion(name, transitions, lsb, 1, seed=21)
        two = apply_excursion(name, transitions, lsb, 2, seed=21)
        assert one.tobytes() != two.tobytes()


class TestIdentityEdges:
    def test_none_is_the_same_object(self, clean):
        transitions, lsb = clean
        assert apply_excursion(None, transitions, lsb, 0, 21) \
            is transitions
        assert apply_excursion("none", transitions, lsb, 0, 21) \
            is transitions

    def test_drift_wafer_zero_is_the_same_object(self, clean):
        transitions, lsb = clean
        assert apply_excursion("drift", transitions, lsb, 0, 21) \
            is transitions

    def test_unknown_name_raises(self, clean):
        transitions, lsb = clean
        with pytest.raises(ValueError, match="unknown excursion"):
            apply_excursion("meteor", transitions, lsb, 0, 21)


class TestSeedNamespace:
    def test_disjoint_from_wafer_draw_streams(self):
        # The excursion stream of (seed, wafer 0) must not reproduce any
        # wafer-draw child stream of the same seed — drawing a wafer and
        # then excursing it must not reuse entropy.
        draw = np.random.default_rng(
            np.random.SeedSequence(21).spawn(4)[0]).random(64)
        excursion = excursion_rng(21, 0).random(64)
        assert not np.array_equal(draw, excursion)

    def test_pure_function_of_seed_and_index(self):
        a = excursion_rng(5, 3).random(16)
        b = excursion_rng(5, 3).random(16)
        np.testing.assert_array_equal(a, b)


class TestScenarioIntegration:
    def test_excursed_lot_draw_is_deterministic(self):
        scenario = Scenario(n_devices=300, n_wafers=3, seed=8,
                            excursion="spatial")
        first = scenario.draw_lot()
        second = scenario.draw_lot()
        for wafer_a, wafer_b in zip(first, second):
            assert wafer_a.transitions.tobytes() \
                == wafer_b.transitions.tobytes()

    def test_excursed_lot_differs_from_clean(self):
        clean = Scenario(n_devices=300, n_wafers=2, seed=8)
        excursed = clean.derive(excursion="burst", seed=8)
        lots = (clean.draw_lot(), excursed.draw_lot())
        assert lots[0].wafers[0].transitions.tobytes() \
            != lots[1].wafers[0].transitions.tobytes()

    def test_drift_lot_keeps_wafer_zero_clean(self):
        clean = Scenario(n_devices=300, n_wafers=2, seed=8)
        drifted = clean.derive(excursion="drift", seed=8)
        clean_lot, drift_lot = clean.draw_lot(), drifted.draw_lot()
        assert clean_lot.wafers[0].transitions.tobytes() \
            == drift_lot.wafers[0].transitions.tobytes()
        assert clean_lot.wafers[1].transitions.tobytes() \
            != drift_lot.wafers[1].transitions.tobytes()

    def test_bounds_classify_every_registered_name(self):
        assert excursion_bounds(None) == (False, "no excursion configured")
        for name in EXCURSIONS:
            should_trip, reason = excursion_bounds(name)
            assert should_trip
            assert reason


def _transform(name, transitions, lsb, wafer_index):
    """The named transform without ``apply_excursion``'s identity
    shortcut."""
    rng = excursion_rng(21, wafer_index)
    if name == "drift":
        return _drift(transitions, lsb, wafer_index, rng)
    if name == "spatial":
        return _spatial(transitions, lsb, rng)
    return _burst(transitions, rng)


class TestPerturbs:
    @pytest.mark.parametrize("name", EXCURSIONS)
    @pytest.mark.parametrize("wafer_index", [0, 1, 2])
    @pytest.mark.parametrize("n_devices", [1, 2, 600])
    def test_predicate_names_the_wafers_a_transform_changes(
            self, name, wafer_index, n_devices, clean):
        transitions, lsb = clean
        transitions = transitions[:n_devices]
        changed = _transform(name, transitions, lsb, wafer_index)
        assert excursion_perturbs(name, wafer_index, n_devices) == \
            (changed.tobytes() != transitions.tobytes())
        applied = apply_excursion(name, transitions, lsb, wafer_index, 21)
        assert applied.tobytes() == changed.tobytes()

    def test_clean_population_is_never_perturbed(self):
        assert not excursion_perturbs(None, 3, 600)
        assert not excursion_perturbs("none", 3, 600)

    @pytest.mark.parametrize("n_wafers, missed", [(1, 0), (2, 1)])
    def test_line_counts_only_perturbed_wafers_as_missed(self, n_wafers,
                                                         missed):
        """Drift leaves a lot's wafer 0 as drawn, so the monitor letting
        it finish is no miss; letting the drifted wafer 1 finish is."""
        scenario = Scenario(n_devices=256, n_wafers=n_wafers, seed=8,
                            flow="sprt", excursion="drift")
        with telemetry_session(Telemetry()) as t:
            report = ScreeningLine(scenario).screen_lot(
                scenario.draw_lot(),
                plan=ExecutionPlan(workers=1, shard_devices=64))
        counters = metrics_document(t)["counters"]
        assert report.excursions == 0
        assert counters["flow.excursions_missed"] == missed
