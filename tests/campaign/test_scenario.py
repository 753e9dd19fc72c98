"""Unit tests for the declarative Scenario value object."""

import pytest

from repro.campaign import AUTO_Q, Scenario, default_tester, make_engine
from repro.core import BistConfig
from repro.production import (
    BatchBistEngine,
    BatchDynamicSuite,
    BatchHistogramTest,
    BatchPartialBistEngine,
    ScreeningLine,
)


class TestValidation:
    def test_defaults_are_valid(self):
        scenario = Scenario()
        assert scenario.architecture == "flash"
        assert scenario.method == "bist"
        assert scenario.is_full_bist

    def test_unknown_architecture(self):
        with pytest.raises(ValueError):
            Scenario(architecture="delta-sigma")

    def test_pipeline_needs_a_stage(self):
        with pytest.raises(ValueError, match="n_bits >= 3"):
            Scenario(architecture="pipeline", n_bits=2)
        assert Scenario(architecture="flash", n_bits=2).n_bits == 2
        assert Scenario(architecture="pipeline", n_bits=3).n_bits == 3

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            Scenario(method="shmoo")

    def test_q_requires_bist(self):
        with pytest.raises(ValueError):
            Scenario(method="histogram", q=2)

    def test_q_bounds(self):
        with pytest.raises(ValueError):
            Scenario(q=0)
        with pytest.raises(ValueError):
            Scenario(n_bits=6, q=7)
        assert Scenario(n_bits=6, q=6).q == 6
        assert Scenario(q=AUTO_Q).q == AUTO_Q

    def test_q_is_coerced_to_int(self):
        assert Scenario(q="4").q == 4

    def test_deglitch_only_on_full_bist(self):
        Scenario(deglitch_depth=2)  # full BIST: fine
        with pytest.raises(ValueError):
            Scenario(deglitch_depth=2, q=2)
        with pytest.raises(ValueError):
            Scenario(deglitch_depth=2, method="histogram")

    def test_devices_per_ic_must_be_positive(self):
        # Construction-time validation: a line built from the scenario
        # must not fail late, inside the economics of a screened lot.
        with pytest.raises(ValueError, match="devices_per_ic"):
            Scenario(devices_per_ic=0)
        with pytest.raises(ValueError, match="devices_per_ic"):
            Scenario(devices_per_ic=-3)

    def test_retest_attempts_must_be_non_negative(self):
        with pytest.raises(ValueError, match="retest_attempts"):
            Scenario(retest_attempts=-1)
        assert Scenario(retest_attempts=0).retest_attempts == 0

    def test_chips_must_divide_wafer(self):
        with pytest.raises(ValueError):
            Scenario(n_devices=100, devices_per_ic=3)
        assert Scenario(n_devices=100, devices_per_ic=4) is not None

    def test_bin_edges_must_ascend(self):
        with pytest.raises(ValueError):
            Scenario(bin_edges_lsb=(0.5, 0.25))

    def test_bin_edges_coerced_to_tuple(self):
        scenario = Scenario(bin_edges_lsb=[0.1, 0.2])
        assert scenario.bin_edges_lsb == (0.1, 0.2)
        assert isinstance(hash(scenario), int)  # stays hashable

    def test_unknown_tester(self):
        with pytest.raises(ValueError):
            Scenario(tester="quantum")


class TestIdentity:
    def test_names(self):
        assert Scenario().name == "flash/full"
        assert Scenario(q=4, n_bits=8).name == "flash/partial q=4"
        assert Scenario(architecture="sar",
                        method="histogram").name == "sar/histogram"

    def test_resolved_label_prefers_explicit(self):
        assert Scenario(label="baseline").resolved_label == "baseline"
        assert Scenario().resolved_label == "flash/full"

    def test_mode(self):
        assert Scenario().mode == "full"
        assert Scenario(q=2).mode == "partial"
        assert Scenario(method="dynamic").mode == "dynamic"


class TestDerive:
    def test_derive_changes_and_revalidates(self):
        base = Scenario(n_bits=6)
        derived = base.derive(q=3)
        assert derived.q == 3 and base.q is None
        with pytest.raises(ValueError):
            base.derive(q=9)

    def test_derive_clears_explicit_label(self):
        base = Scenario(label="baseline")
        assert base.derive(q=2).label is None
        assert base.derive(q=2, label="kept").label == "kept"


class TestGrid:
    def test_row_major_product(self):
        grid = Scenario(n_bits=8).grid(architecture=["flash", "sar"],
                                       q=[4, 8])
        assert [s.name for s in grid] == [
            "flash/partial q=4", "flash/partial q=8",
            "sar/partial q=4", "sar/partial q=8"]

    def test_q_axis_collapses_for_non_bist_methods(self):
        grid = Scenario(n_bits=8).grid(method=["bist", "histogram"],
                                       q=[4, 8])
        assert [s.name for s in grid] == [
            "flash/partial q=4", "flash/partial q=8", "flash/histogram"]

    def test_scalar_axis_values(self):
        grid = Scenario(n_bits=8).grid(architecture="sar", q=[2, 4])
        assert [s.name for s in grid] == ["sar/partial q=2",
                                          "sar/partial q=4"]

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            Scenario().grid(flavour=["vanilla"])

    def test_empty_axis(self):
        with pytest.raises(ValueError):
            Scenario().grid(q=[])


class TestMaterialisation:
    def test_wafer_spec_mapping(self):
        spec = Scenario(architecture="sar", n_bits=8, n_devices=123,
                        sigma_code_width_lsb=0.18).wafer_spec()
        assert (spec.architecture, spec.n_bits, spec.n_devices,
                spec.sigma_code_width_lsb) == ("sar", 8, 123, 0.18)

    def test_bist_config_mapping(self):
        config = Scenario(n_bits=8, counter_bits=5, dnl_spec_lsb=0.5,
                          inl_spec_lsb=0.75, transition_noise_lsb=0.05,
                          deglitch_depth=3).bist_config()
        assert isinstance(config, BistConfig)
        assert (config.n_bits, config.counter_bits, config.dnl_spec_lsb,
                config.inl_spec_lsb, config.transition_noise_lsb,
                config.deglitch_depth) == (8, 5, 0.5, 0.75, 0.05, 3)

    def test_draw_lot_is_reproducible(self):
        scenario = Scenario(n_devices=50, n_wafers=2, seed=9,
                            label="L")
        lot_a, lot_b = scenario.draw_lot(), scenario.draw_lot()
        assert lot_a.lot_id == "L"
        assert len(lot_a) == 2
        for wafer_a, wafer_b in zip(lot_a, lot_b):
            assert (wafer_a.transitions == wafer_b.transitions).all()

    def test_draw_without_seed_raises(self):
        with pytest.raises(ValueError):
            Scenario().draw_lot()
        assert Scenario().draw_lot(seed=3).n_devices == 2000 * 1


class TestFactory:
    def test_engine_per_method(self):
        assert isinstance(make_engine(Scenario()), BatchBistEngine)
        assert isinstance(make_engine(Scenario(q=2)),
                          BatchPartialBistEngine)
        assert isinstance(make_engine(Scenario(method="histogram")),
                          BatchHistogramTest)
        assert isinstance(make_engine(Scenario(method="dynamic")),
                          BatchDynamicSuite)

    def test_auto_q_derives_equation_one_minimum(self):
        engine = make_engine(Scenario(q=AUTO_Q, samples_per_code=1.0))
        assert engine.config.q is None  # resolved per stimulus at run time

    def test_default_tester_economics(self):
        assert default_tester(Scenario()).name == "digital ATE"
        assert default_tester(Scenario(q=2)).name == "mixed-signal ATE"
        assert default_tester(
            Scenario(method="histogram")).name == "mixed-signal ATE"
        assert default_tester(
            Scenario(tester="mixed")).name == "mixed-signal ATE"
        assert default_tester(
            Scenario(q=2, tester="digital")).name == "digital ATE"


class TestLineFromScenario:
    def test_line_holds_the_scenario(self):
        scenario = Scenario(q=2, retest_attempts=1, devices_per_ic=4,
                            n_devices=100, seed=1)
        line = ScreeningLine(scenario)
        assert line.scenario is scenario
        assert line.config == scenario.bist_config()
        assert line.tester.name == default_tester(scenario).name
        assert line.q == 2
        assert line.describe() == \
            "partial BIST, q=2 LSBs off-chip, DNL spec ±1.0 LSB"
        # The name perfbench wraps is the same constructor.
        assert ScreeningLine.from_scenario(scenario).scenario is scenario

    def test_line_rejects_auto_q(self):
        with pytest.raises(ValueError):
            ScreeningLine(Scenario(q=AUTO_Q))
