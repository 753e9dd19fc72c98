"""Unit tests for Monte-Carlo device populations."""

import warnings

import numpy as np
import pytest

from repro.adc import DevicePopulation, PopulationSpec
from repro.adc.population import correlated_code_widths
from repro.adc.transfer import batch_max_dnl, batch_max_inl
from repro.core.engine import true_goodness
from repro.production import Wafer


class TestCorrelatedCodeWidths:
    def test_shape(self):
        w = correlated_code_widths(10, 62, 0.21, rng=0)
        assert w.shape == (10, 62)

    def test_mean_is_one_lsb(self):
        w = correlated_code_widths(2000, 62, 0.21, rng=1)
        assert w.mean() == pytest.approx(1.0, abs=0.01)

    def test_sigma_matches_request(self):
        w = correlated_code_widths(2000, 62, 0.21, rng=2)
        assert w.std() == pytest.approx(0.21, abs=0.01)

    def test_default_correlation_is_ladder_value(self):
        w = correlated_code_widths(20000, 62, 0.21, rng=3)
        corr = np.corrcoef(w, rowvar=False)
        n = corr.shape[0]
        mean_off_diag = (corr.sum() - n) / (n * (n - 1))
        assert mean_off_diag == pytest.approx(-1.0 / 63, abs=0.01)

    def test_zero_correlation(self):
        w = correlated_code_widths(20000, 30, 0.2, rho=0.0, rng=4)
        corr = np.corrcoef(w, rowvar=False)
        n = corr.shape[0]
        mean_off_diag = (corr.sum() - n) / (n * (n - 1))
        assert abs(mean_off_diag) < 0.01

    def test_positive_correlation(self):
        w = correlated_code_widths(20000, 30, 0.2, rho=0.3, rng=5)
        corr = np.corrcoef(w, rowvar=False)
        n = corr.shape[0]
        mean_off_diag = (corr.sum() - n) / (n * (n - 1))
        assert mean_off_diag == pytest.approx(0.3, abs=0.02)

    def test_sigma_with_negative_correlation(self):
        w = correlated_code_widths(20000, 62, 0.21, rho=-1.0 / 63, rng=6)
        assert w.std() == pytest.approx(0.21, abs=0.01)

    def test_impossible_correlation_rejected(self):
        with pytest.raises(ValueError):
            correlated_code_widths(10, 10, 0.2, rho=-0.5)
        with pytest.raises(ValueError):
            correlated_code_widths(10, 10, 0.2, rho=1.5)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            correlated_code_widths(0, 10, 0.2)
        with pytest.raises(ValueError):
            correlated_code_widths(5, 1, 0.2)


class TestPopulationSpec:
    def test_defaults_match_paper(self):
        spec = PopulationSpec()
        assert spec.n_bits == 6
        assert spec.size == 364
        assert spec.sigma_code_width_lsb == pytest.approx(0.21)

    def test_inner_code_count(self):
        assert PopulationSpec(n_bits=6).n_inner_codes == 62

    def test_invalid_architecture(self):
        with pytest.raises(ValueError):
            PopulationSpec(architecture="bogus")

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            PopulationSpec(size=0)


class TestDevicePopulation:
    def test_len_and_iteration(self, small_population):
        assert len(small_population) == 40
        devices = list(small_population)
        assert len(devices) == 40

    def test_indexing_and_caching(self, small_population):
        a = small_population[3]
        b = small_population[3]
        assert a is b

    def test_negative_index(self, small_population):
        assert small_population[-1] is small_population[len(small_population) - 1]

    def test_out_of_range_index(self, small_population):
        with pytest.raises(IndexError):
            small_population[100]

    def test_devices_have_requested_resolution(self, small_population):
        assert all(d.n_bits == 6 for d in small_population.devices([0, 1, 2]))

    def test_width_matrix_shape(self, small_population):
        matrix = small_population.code_width_matrix_lsb()
        assert matrix.shape == (40, 62)

    def test_empirical_sigma_near_target(self, gaussian_population):
        assert gaussian_population.empirical_sigma_lsb() == pytest.approx(
            0.21, abs=0.02)

    def test_flash_empirical_sigma_near_target(self, small_population):
        assert small_population.empirical_sigma_lsb() == pytest.approx(
            0.21, abs=0.03)

    def test_empirical_correlation_is_small_negative(self):
        pop = DevicePopulation(PopulationSpec(size=800, seed=3,
                                              architecture="gaussian"))
        rho = pop.empirical_correlation()
        assert -0.05 < rho < 0.01

    def test_reproducibility(self):
        a = DevicePopulation(PopulationSpec(size=10, seed=42))
        b = DevicePopulation(PopulationSpec(size=10, seed=42))
        assert np.allclose(a.code_width_matrix_lsb(),
                           b.code_width_matrix_lsb())

    def test_different_seeds_differ(self):
        a = DevicePopulation(PopulationSpec(size=10, seed=1))
        b = DevicePopulation(PopulationSpec(size=10, seed=2))
        assert not np.allclose(a.code_width_matrix_lsb(),
                               b.code_width_matrix_lsb())

    def test_yield_at_stringent_spec_near_paper_value(self):
        pop = DevicePopulation(PopulationSpec(size=2000, seed=9,
                                              architecture="gaussian"))
        y = pop.yield_fraction(dnl_spec_lsb=0.5)
        # The paper reports roughly 30 % good at the ±0.5 LSB specification.
        assert 0.2 < y < 0.45

    def test_yield_at_actual_spec_is_high(self, gaussian_population):
        assert gaussian_population.yield_fraction(dnl_spec_lsb=1.0) > 0.99

    def test_good_mask_with_inl(self, gaussian_population):
        mask_dnl = gaussian_population.good_mask(1.0)
        mask_both = gaussian_population.good_mask(1.0, inl_spec_lsb=0.1)
        # Adding an INL constraint can only reject more devices.
        assert mask_both.sum() <= mask_dnl.sum()

    def test_dnl_matrix_consistency(self, gaussian_population):
        dnl = gaussian_population.dnl_matrix()
        per_device = gaussian_population.max_dnl_per_device()
        assert np.allclose(np.abs(dnl).max(axis=1), per_device)

    def test_paper_batch_defaults(self):
        pop = DevicePopulation.paper_batch(size=5)
        assert len(pop) == 5
        assert pop.spec.n_bits == 6


class TestOneTruth:
    """The population, its wafer and the scalar path score one truth.

    Each die is checked at a spec equal to its own largest |DNL| (or
    |INL|), where a one-ulp difference between two formulas flips the
    verdict.  At full scale 1.0 the LSB is a power of two and every
    formula agrees; at 1.1 and 2.5 it is not.
    """

    @pytest.mark.parametrize("architecture", ["flash", "sar", "pipeline"])
    @pytest.mark.parametrize("full_scale", [1.0, 1.1, 2.5])
    def test_good_masks_agree_on_the_limit(self, architecture, full_scale):
        pop = DevicePopulation(PopulationSpec(
            n_bits=6, size=64, seed=0, full_scale=full_scale,
            architecture=architecture))
        wafer = Wafer.from_population(pop)
        transitions = pop.transition_matrix()
        for index, spec in enumerate(batch_max_dnl(transitions)):
            truth = true_goodness(pop[index], spec)
            assert pop.good_mask(spec)[index] == truth, index
            assert wafer.good_mask(spec)[index] == truth, index
        for index, spec in enumerate(batch_max_inl(transitions)):
            truth = true_goodness(pop[index], 10.0, inl_spec_lsb=spec)
            assert pop.good_mask(10.0, spec)[index] == truth, index
            assert wafer.good_mask(10.0, spec)[index] == truth, index


class TestVectorisedDraw:
    def test_default_path_is_vectorised_and_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            spec = PopulationSpec(size=4)
        np.testing.assert_array_equal(
            DevicePopulation(spec).transition_matrix(),
            spec.backend().draw_transitions(4, rng=spec.seed))
