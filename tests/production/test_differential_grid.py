"""Standing differential sweep: every batch engine family × the grid.

One parameterised pass over ``harness.DIFFERENTIAL_GRID`` (architecture ×
noise × q × device count) drives all four scalar↔batch contracts — full
BIST, partial BIST, conventional histogram test, dynamic suite — through
the shared harness, so a regression on any execution path of any engine
family shows up as a single failing grid cell.
"""

import pytest

from harness import (
    DIFFERENTIAL_GRID,
    assert_dynamic_equivalent,
    assert_full_bist_equivalent,
    assert_histogram_equivalent,
    assert_partial_equivalent,
    draw_wafer,
)
from repro.analysis import DynamicAnalyzer, DynamicSpec
from repro.core import BistConfig, PartialBistConfig
from repro.production import BatchDynamicSuite, BatchHistogramTest


@pytest.mark.parametrize("architecture,noise,q,n_devices", DIFFERENTIAL_GRID)
class TestDifferentialGrid:
    def test_full_bist(self, architecture, noise, q, n_devices):
        wafer = draw_wafer(n_devices, architecture, seed=29)
        # Noisy full-BIST runs need the deglitch filter, as on a real chip
        # (without it the transition-count check rejects everything).
        config = BistConfig(n_bits=6, counter_bits=7, dnl_spec_lsb=1.0,
                            transition_noise_lsb=noise,
                            deglitch_depth=3 if noise > 0 else 0)
        assert_full_bist_equivalent(config, wafer, rng=5)

    def test_partial_bist(self, architecture, noise, q, n_devices):
        wafer = draw_wafer(n_devices, architecture, seed=29)
        config = PartialBistConfig(n_bits=6, q=q, dnl_spec_lsb=0.5,
                                   inl_spec_lsb=1.0,
                                   transition_noise_lsb=noise)
        assert_partial_equivalent(config, wafer, rng=5)

    def test_histogram(self, architecture, noise, q, n_devices):
        wafer = draw_wafer(n_devices, architecture, seed=29)
        test = BatchHistogramTest(samples_per_code=16.0, dnl_spec_lsb=0.5,
                                  inl_spec_lsb=1.0,
                                  transition_noise_lsb=noise)
        assert_histogram_equivalent(test, wafer, rng=5)

    def test_dynamic(self, architecture, noise, q, n_devices):
        wafer = draw_wafer(min(n_devices, 60), architecture, seed=29)
        suite = BatchDynamicSuite(
            analyzer=DynamicAnalyzer(n_samples=1024),
            spec=DynamicSpec(min_enob=5.0),
            transition_noise_lsb=noise)
        assert_dynamic_equivalent(suite, wafer, rng=5)
