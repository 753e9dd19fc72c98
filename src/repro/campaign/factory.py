"""The one place batch engines are constructed.

Every path that used to pick an engine by hand — the ``if method ==``
ladder in :class:`~repro.production.line.ScreeningLine`, its copy in the
CLI, ad-hoc constructions in examples — now goes through
:func:`make_engine`: a :class:`~repro.campaign.scenario.Scenario` in, the
matching :class:`~repro.production.execution.WaferEngine` implementation
out.  Adding a screening method means extending this factory (and the
``SCREENING_METHODS`` tuple), nothing else.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.analysis.dynamic import DynamicAnalyzer, DynamicSpec
from repro.campaign.scenario import AUTO_Q, Scenario
from repro.core.engine import BistConfig
from repro.core.partial_engine import PartialBistConfig
from repro.economics.cost_model import TesterModel
from repro.production.analysis_batch import (
    BatchDynamicSuite,
    BatchHistogramTest,
)
from repro.production.batch_engine import BatchBistEngine
from repro.production.partial_batch import BatchPartialBistEngine

__all__ = ["BatchEngine", "default_tester", "make_engine",
           "sequential_policy"]

#: Union of the engine types :func:`make_engine` can return — every one of
#: them is a :class:`~repro.production.execution.WaferEngine` with the same
#: ``run_wafer``/``run_transitions`` signatures.
BatchEngine = Union[BatchBistEngine, BatchPartialBistEngine,
                    BatchHistogramTest, BatchDynamicSuite]


def make_engine(scenario: Scenario, *,
                config: Optional[BistConfig] = None,
                dynamic_analyzer: Optional[DynamicAnalyzer] = None,
                dynamic_spec: Optional[DynamicSpec] = None) -> BatchEngine:
    """Build the batch engine a scenario describes.

    Parameters
    ----------
    scenario:
        The declarative run description; ``method``/``q``/
        ``samples_per_code`` select and parameterise the engine.
    config:
        Optional measurement configuration overriding the scenario-derived
        :meth:`~repro.campaign.scenario.Scenario.bist_config` — the hook
        :class:`~repro.production.line.ScreeningLine` uses to pass its
        caller's full :class:`~repro.core.engine.BistConfig` (stimulus
        imperfections, counter policy, seeds) through unchanged.
    dynamic_analyzer, dynamic_spec:
        FFT configuration and pass/fail limits of the dynamic method —
        rich objects the declarative scenario intentionally does not
        carry.

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
    if config is None:
        config = scenario.bist_config()
    method = scenario.method
    if method == "histogram":
        return BatchHistogramTest(
            samples_per_code=scenario.samples_per_code,
            dnl_spec_lsb=config.dnl_spec_lsb,
            inl_spec_lsb=config.inl_spec_lsb,
            transition_noise_lsb=config.transition_noise_lsb,
            seed=config.seed)
    if method == "dynamic":
        return BatchDynamicSuite(
            analyzer=dynamic_analyzer,
            spec=dynamic_spec,
            transition_noise_lsb=config.transition_noise_lsb,
            seed=config.seed)
    if scenario.q is None:
        return BatchBistEngine(config)
    if config.deglitch_depth > 0:
        raise ValueError(
            "the partial-BIST flow has no deglitch filter; "
            "unset deglitch_depth when using partial_q")
    return BatchPartialBistEngine(PartialBistConfig(
        n_bits=config.n_bits,
        q=None if scenario.q == AUTO_Q else int(scenario.q),
        samples_per_code=scenario.samples_per_code,
        dnl_spec_lsb=config.dnl_spec_lsb,
        inl_spec_lsb=config.inl_spec_lsb,
        check_msb=config.check_msb,
        transition_noise_lsb=config.transition_noise_lsb,
        start_margin_lsb=config.start_margin_lsb,
        seed=config.seed))


def sequential_policy(scenario: Scenario, *,
                      config: Optional[BistConfig] = None):
    """Build the SPRT policy (and per-code model) a scenario implies.

    The construction mirrors :func:`make_engine`: the scenario's process
    sigma plus the measurement configuration's DNL spec and counter width
    feed the paper's closed-form error model, whose per-code accept
    conditionals parameterise the Wald test.  Returns
    ``(SequentialPolicy, PerCodeProbabilities)`` — the same per-code
    object also centres the SPC monitor's p-chart, so both adaptive
    mechanisms share one analytic model of the process.
    """
    from repro.analysis.distributions import CodeWidthDistribution
    from repro.analysis.error_model import ErrorModel
    from repro.flows.sequential import SequentialPolicy

    if config is None:
        config = scenario.bist_config()
    model = ErrorModel(
        distribution=CodeWidthDistribution(
            sigma_lsb=scenario.sigma_code_width_lsb),
        dnl_spec_lsb=config.dnl_spec_lsb,
        counter_bits=config.counter_bits)
    per_code = model.per_code()
    return SequentialPolicy.from_per_code(per_code), per_code


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
