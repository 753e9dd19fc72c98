"""The one place batch engines are constructed.

:func:`make_engine` turns a :class:`~repro.campaign.scenario.Scenario`
into the matching :class:`~repro.production.execution.WaferEngine`
implementation.  Adding a screening method means extending this factory
(and the ``SCREENING_METHODS`` tuple), nothing else.
"""

from __future__ import annotations

from typing import Union

from repro.analysis.distributions import CodeWidthDistribution
from repro.analysis.error_model import ErrorModel, PerCodeProbabilities
from repro.campaign.scenario import AUTO_Q, Scenario
from repro.core.partial_engine import PartialBistConfig
from repro.economics.cost_model import TesterModel
from repro.production.analysis_batch import (
    BatchDynamicSuite,
    BatchHistogramTest,
)
from repro.production.batch_engine import BatchBistEngine
from repro.production.partial_batch import BatchPartialBistEngine

__all__ = ["BatchEngine", "default_tester", "make_engine",
           "per_code_model"]

#: Union of the engine types :func:`make_engine` can return — every one of
#: them is a :class:`~repro.production.execution.WaferEngine` with the same
#: ``run_wafer``/``run_transitions`` signatures.
BatchEngine = Union[BatchBistEngine, BatchPartialBistEngine,
                    BatchHistogramTest, BatchDynamicSuite]


def make_engine(scenario: Scenario) -> BatchEngine:
    """Build the batch engine a scenario describes.

    ``method``/``q`` select the engine; the measurement fields
    (resolution, specification, counter, noise, deglitch and the ramp
    density) parameterise it.  The dynamic suite runs its default
    4096-sample Hann analyzer with an ENOB floor one bit below the
    resolution.

    Returns
    -------
    One of :class:`~repro.production.batch_engine.BatchBistEngine`,
    :class:`~repro.production.partial_batch.BatchPartialBistEngine`,
    :class:`~repro.production.analysis_batch.BatchHistogramTest` or
    :class:`~repro.production.analysis_batch.BatchDynamicSuite` — all
    built on the :class:`~repro.production.execution.WaferEngine`
    skeleton with identical run signatures, so callers drive them
    uniformly.
    """
    if scenario.method == "histogram":
        return BatchHistogramTest(
            samples_per_code=scenario.samples_per_code,
            dnl_spec_lsb=scenario.dnl_spec_lsb,
            inl_spec_lsb=scenario.inl_spec_lsb,
            transition_noise_lsb=scenario.transition_noise_lsb)
    if scenario.method == "dynamic":
        return BatchDynamicSuite(
            transition_noise_lsb=scenario.transition_noise_lsb)
    if scenario.q is None:
        return BatchBistEngine(scenario.bist_config())
    return BatchPartialBistEngine(PartialBistConfig(
        n_bits=scenario.n_bits,
        q=None if scenario.q == AUTO_Q else scenario.q,
        samples_per_code=scenario.samples_per_code,
        dnl_spec_lsb=scenario.dnl_spec_lsb,
        inl_spec_lsb=scenario.inl_spec_lsb,
        transition_noise_lsb=scenario.transition_noise_lsb))


def per_code_model(scenario: Scenario) -> PerCodeProbabilities:
    """The paper's closed-form per-code model of a scenario's process.

    The scenario's process sigma, DNL spec and counter width feed the
    :class:`~repro.analysis.error_model.ErrorModel`; its per-code accept
    conditionals centre the SPC monitor's p-chart under ``flow="sprt"``.
    """
    return ErrorModel(
        distribution=CodeWidthDistribution(
            sigma_lsb=scenario.sigma_code_width_lsb),
        dnl_spec_lsb=scenario.dnl_spec_lsb,
        counter_bits=scenario.counter_bits).per_code()


def default_tester(scenario: Scenario) -> TesterModel:
    """The tester model a scenario's insertions are priced on.

    An explicit ``scenario.tester`` wins; otherwise the full BIST runs on
    the low-cost digital tester (it needs nothing but digital pins) and
    every method that captures analog-driven output data — partial BIST,
    histogram, dynamic — needs the precision stimulus of a mixed-signal
    tester.
    """
    named = scenario.tester_model()
    if named is not None:
        return named
    if scenario.is_full_bist:
        return TesterModel.digital_only()
    return TesterModel.mixed_signal()
