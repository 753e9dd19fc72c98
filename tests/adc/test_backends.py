"""Tests for the pluggable vectorised transfer backends."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adc import (
    FlashLadderBackend,
    PipelineStageBackend,
    SarWeightBackend,
    make_backend,
)
from repro.adc.pipeline import (
    PipelineADC,
    _amplify,
    _decide,
    _sweep_grid,
    dense_transitions,
    search_transitions,
)
from repro.adc.population import DevicePopulation, PopulationSpec
from repro.adc.sar import SarADC
from repro.production import BatchBistEngine, Wafer, WaferSpec
from repro.core import BistConfig, BistEngine


class TestBackendShapes:
    @pytest.mark.parametrize("architecture", ["flash", "sar", "pipeline"])
    def test_matrix_shape_and_monotone_majority(self, architecture):
        backend = make_backend(architecture, n_bits=6)
        matrix = backend.draw_transitions(50, rng=0)
        assert matrix.shape == (50, 63)
        # Healthy mismatch levels: most rows are monotone transfer curves.
        monotone = (np.diff(matrix, axis=1) >= 0).all(axis=1)
        assert monotone.mean() > 0.5

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError):
            make_backend("delta-sigma", n_bits=6)

    def test_pipeline_needs_three_bits(self):
        with pytest.raises(ValueError):
            PipelineStageBackend(2)


class TestBackendScalarAgreement:
    """A one-device draw must reproduce the scalar converter models."""

    def test_sar_single_device_matches_scalar_model(self):
        backend = SarWeightBackend(6, unit_cap_sigma_rel=0.05)
        row = backend.draw_transitions(1, rng=123)[0]
        scalar = SarADC(6, unit_cap_sigma_rel=0.05, rng=123)
        np.testing.assert_allclose(
            row, scalar.transfer_function().transitions, rtol=1e-12)

    @pytest.mark.parametrize("seed", [0, 7, 99, 1997, 31337])
    def test_pipeline_single_device_matches_scalar_model(self, seed):
        backend = PipelineStageBackend(6, gain_error_sigma=0.02,
                                       threshold_sigma_lsb=0.4)
        row = backend.draw_transitions(1, rng=seed)[0]
        scalar = PipelineADC(6, gain_error_sigma=0.02,
                             threshold_sigma_lsb=0.4, rng=seed)
        np.testing.assert_array_equal(
            row, scalar.transfer_function().transitions)


def _nominal_dies(rng, n_bits, n_devices):
    """The backend's default mismatch: gains 2(1 + N(0, 0.03)), thresholds
    -1/4 and +1/4 plus N(0, 0.5 LSB)."""
    shape = (n_devices, n_bits - 2)
    gains = 2.0 * (1.0 + rng.normal(0.0, 0.03, shape))
    thr_sigma = 0.5 / (1 << n_bits)
    low = -0.25 + rng.normal(0.0, thr_sigma, shape)
    high = 0.25 + rng.normal(0.0, thr_sigma, shape)
    return gains, low, high


class TestPipelineBreakpointSearch:
    """The backend's breakpoint search must reproduce the dense sweep."""

    @given(n_bits=st.integers(3, 10), n_devices=st.integers(1, 64),
           gain_sigma=st.floats(0.0, 0.3),
           threshold_sigma_lsb=st.floats(0.0, 8.0),
           non_positive=st.floats(0.0, 0.3),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_search_equals_dense_chain(self, n_bits, n_devices, gain_sigma,
                                       threshold_sigma_lsb, non_positive,
                                       seed):
        rng = np.random.default_rng(seed)
        shape = (n_devices, n_bits - 2)
        gains = 2.0 * (1.0 + rng.normal(0.0, gain_sigma, shape))
        # Force some stage gains to zero or below: their residues stop or
        # fall along the sweep.
        forced = rng.random(shape) < non_positive
        gains[forced] = np.where(rng.random(forced.sum()) < 0.25, 0.0,
                                 -gains[forced])
        thr_sigma = threshold_sigma_lsb / (1 << n_bits)
        low = -0.25 + rng.normal(0.0, thr_sigma, shape)
        high = 0.25 + rng.normal(0.0, thr_sigma, shape)
        np.testing.assert_array_equal(
            search_transitions(gains, low, high),
            dense_transitions(gains, low, high))

    @given(n_bits=st.integers(3, 8), n_devices=st.integers(3, 8),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_row_does_not_depend_on_the_batch(self, n_bits, n_devices,
                                              seed):
        """Dies share branch columns, so the table a die is searched in
        depends on the other dies of the call; its row must not."""
        rng = np.random.default_rng(seed)
        gains, low, high = _nominal_dies(rng, n_bits, n_devices)
        # Die 0 stays nominal, die 1 gets a zero gain and die 2 a negative
        # one, so rising, constant and falling residues share the table;
        # the rest are drawn from the three kinds.
        kind = np.concatenate([[0, 1, 2], rng.integers(0, 3, n_devices - 3)])
        stage = rng.integers(0, n_bits - 2, n_devices)
        rows = np.arange(n_devices)
        gains[rows, stage] = np.select(
            [kind == 1, kind == 2], [0.0, -gains[rows, stage]],
            gains[rows, stage])
        batch = search_transitions(gains, low, high)
        np.testing.assert_array_equal(batch,
                                      dense_transitions(gains, low, high))
        for i in rows:
            np.testing.assert_array_equal(
                batch[i], search_transitions(gains[i:i + 1], low[i:i + 1],
                                             high[i:i + 1])[0])

    @given(n_bits=st.integers(3, 8), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_thresholds_on_exact_residues(self, n_bits, seed):
        """A threshold equal to a die's exact residue at a sweep point, or
        one ulp either side, decides on the comparison itself; no model of
        the residue can settle such a cut."""
        rng = np.random.default_rng(seed)
        n_devices, n_stages = 32, n_bits - 2
        gains, low, high = _nominal_dies(rng, n_bits, n_devices)
        _, x = _sweep_grid(n_bits, 1.0)
        stage = rng.integers(0, n_stages, n_devices)
        residue = x[rng.integers(0, x.size, n_devices)]
        # The residue entering each die's chosen stage, as the dense chain
        # computes it.
        for k in range(n_stages - 1):
            passed = _amplify(residue, _decide(residue, low[:, k],
                                               high[:, k]), gains[:, k])
            residue = np.where(k < stage, passed, residue)
        ulps = rng.integers(-1, 2, n_devices)
        tie = np.where(ulps < 0, np.nextafter(residue, -np.inf),
                       np.where(ulps > 0, np.nextafter(residue, np.inf),
                                residue))
        rows = np.arange(n_devices)
        on_low = rng.random(n_devices) < 0.5
        low[rows[on_low], stage[on_low]] = tie[on_low]
        high[rows[~on_low], stage[~on_low]] = tie[~on_low]
        np.testing.assert_array_equal(search_transitions(gains, low, high),
                                      dense_transitions(gains, low, high))

    def test_ideal_pipeline_ties_on_the_grid(self):
        """Ideal stages put every threshold exactly on a sweep point."""
        shape = (3, 6)
        gains = np.full(shape, 2.0)
        low, high = np.full(shape, -0.25), np.full(shape, 0.25)
        for full_scale in (1.0, 2.5):
            np.testing.assert_array_equal(
                search_transitions(gains, low, high, full_scale),
                dense_transitions(gains, low, high, full_scale))

    def test_flash_backend_reproduces_legacy_wafer_draw(self):
        """Seeded flash wafers must be unchanged by the backend refactor."""
        from repro.adc.population import correlated_code_widths
        from repro.adc.transfer import batch_transitions_from_code_widths
        spec = WaferSpec(n_bits=6, sigma_code_width_lsb=0.21, n_devices=30)
        wafer = Wafer.draw(spec, rng=1997)
        widths = correlated_code_widths(30, 62, 0.21, rng=1997)
        legacy = batch_transitions_from_code_widths(
            widths * spec.lsb, first_transition=spec.lsb)
        np.testing.assert_array_equal(wafer.transitions, legacy)


class TestMatrixBackedPopulations:
    @pytest.mark.parametrize("architecture", ["sar", "pipeline"])
    def test_devices_wrap_matrix_rows(self, architecture):
        pop = DevicePopulation(PopulationSpec(
            size=20, seed=7, architecture=architecture))
        matrix = pop.transition_matrix()
        for i in (0, 9, 19):
            np.testing.assert_array_equal(
                pop[i].transfer_function().transitions, matrix[i])
        widths = pop.code_width_matrix_lsb()
        assert widths.shape == (20, 62)

    @pytest.mark.parametrize("architecture", ["sar", "pipeline"])
    def test_scalar_batch_full_bist_equivalence(self, architecture):
        """The full-BIST batch engine stays bit-exact on the new
        architectures (population and wafer paths)."""
        pop = DevicePopulation(PopulationSpec(
            size=80, seed=5, architecture=architecture))
        config = BistConfig(n_bits=6, counter_bits=7, dnl_spec_lsb=0.5)
        scalar = BistEngine(config).run_population(pop, rng=0)
        batch = BatchBistEngine(config).run_population(pop, rng=0)
        np.testing.assert_array_equal(scalar.accepted, batch.accepted)
        np.testing.assert_array_equal(scalar.truly_good, batch.truly_good)
        assert 0.0 < batch.p_accept < 1.0

    def test_wafer_architecture_dispatch(self):
        sar_wafer = Wafer.draw(WaferSpec(n_devices=40, architecture="sar"),
                               rng=3)
        backend_rows = SarWeightBackend(
            6, unit_cap_sigma_rel=0.06).draw_transitions(40, rng=3)
        np.testing.assert_array_equal(sar_wafer.transitions, backend_rows)

    def test_invalid_wafer_architecture(self):
        with pytest.raises(ValueError):
            WaferSpec(architecture="bogus")

    def test_from_population_propagates_mismatch_parameters(self):
        """The wafer spec must describe the matrix it wraps: architecture
        AND the per-architecture mismatch knobs carry over."""
        pop = DevicePopulation(PopulationSpec(
            size=15, seed=3, architecture="sar", unit_cap_sigma_rel=0.12))
        wafer = Wafer.from_population(pop)
        assert wafer.spec.architecture == "sar"
        assert wafer.spec.unit_cap_sigma_rel == 0.12
        np.testing.assert_array_equal(wafer.transitions,
                                      pop.transition_matrix())
        # Re-drawing from the propagated spec uses the same backend knobs.
        redrawn = Wafer.draw(wafer.spec, rng=3)
        np.testing.assert_array_equal(redrawn.transitions,
                                      pop.transition_matrix())


class TestFlashLadderBackendValidation:
    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            FlashLadderBackend(6, sigma_code_width_lsb=-0.1)

    def test_negative_sar_sigma_rejected(self):
        with pytest.raises(ValueError):
            SarWeightBackend(6, unit_cap_sigma_rel=-1.0)
