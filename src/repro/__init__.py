"""repro — reproduction of "Built-In Self-Test Methodology for A/D Converters".

This package reproduces the DATE 1997 paper by R. de Vries, T. Zwemstra,
E.M.J.G. Bruls and P.P.L. Regtien.  It contains:

``repro.adc``
    Behavioural A/D-converter models (ideal, flash, SAR, pipeline) with
    process-variation and fault-injection support, plus Monte-Carlo device
    population generation.

``repro.signals``
    Stimulus generation: ramps/sawtooths, sines, noise sources, sampling
    clocks with jitter, and models of imperfect on-chip ramp generators.

``repro.analysis``
    Measurement and statistics: the conventional code-density (histogram)
    test, static linearity extraction (offset, gain, DNL, INL), dynamic FFT
    tests (THD, SNR, SINAD, ENOB, SFDR), and the paper's statistical error
    model for the counting-based BIST (type I / type II error probabilities).

``repro.core``
    The paper's contribution: the partial-BIST partition (``qmin``), the LSB
    processing block, the MSB functionality checker, the deglitch filter,
    count-limit computation and the full :class:`~repro.core.engine.BistEngine`.

``repro.economics``
    Test-cost and parallel-test scheduling models quantifying the test-time
    reduction the paper motivates.

``repro.production``
    The production floor: wafer/lot parameter-matrix models, the vectorised
    batch engines, the deterministic scale-out layer, the screening line
    and the result-store ledger.

``repro.campaign``
    The declarative front door: :class:`~repro.campaign.scenario.Scenario`
    (one frozen value object per run), :func:`~repro.campaign.factory.make_engine`
    (the only engine-construction site) and
    :class:`~repro.campaign.driver.Campaign` (scenario grids fanned over
    the scale-out layer into one ledger).

``repro.reporting``
    Helpers used by the benchmark harness to print the paper's tables and
    figure series.

``repro.telemetry``
    Observability: counters, timers and span traces threaded through the
    executor, engines, screening line and campaign driver — a strict
    no-op unless a :class:`~repro.telemetry.core.Telemetry` session is
    installed — plus the ``repro`` logger hierarchy and schema-versioned
    metrics JSON export.

Quickstart
----------

>>> from repro import FlashADC, BistEngine, BistConfig
>>> adc = FlashADC.from_sigma(n_bits=6, sigma_code_width_lsb=0.21, seed=1)
>>> engine = BistEngine(BistConfig(n_bits=6, counter_bits=7,
...                                dnl_spec_lsb=1.0, inl_spec_lsb=1.0))
>>> result = engine.run(adc)
>>> result.passed  # doctest: +SKIP
True
"""

from repro.adc import (
    ADC,
    FlashADC,
    IdealADC,
    PipelineADC,
    SarADC,
    TransferFunction,
    DevicePopulation,
    PopulationSpec,
)
from repro.analysis import (
    HistogramTest,
    HistogramTestResult,
    CodeWidthDistribution,
    ErrorModel,
    BinomialDeviceModel,
    DynamicAnalyzer,
    LinearityResult,
    linearity_from_code_widths,
)
from repro.core import (
    BistConfig,
    BistEngine,
    BistResult,
    CountLimits,
    LsbProcessor,
    MsbChecker,
    DeglitchFilter,
    SaturatingCounter,
    qmin,
    nl_budget,
)
from repro.signals import (
    RampStimulus,
    SineStimulus,
    SamplingClock,
    NoiseModel,
)
from repro.campaign import (
    Campaign,
    CampaignResult,
    Scenario,
    make_engine,
)
from repro.telemetry import (
    NULL_TELEMETRY,
    Telemetry,
    current_telemetry,
    metrics_document,
    telemetry_session,
)

__all__ = [
    "NULL_TELEMETRY",
    "Telemetry",
    "current_telemetry",
    "metrics_document",
    "telemetry_session",
    "Campaign",
    "CampaignResult",
    "Scenario",
    "make_engine",
    "ADC",
    "FlashADC",
    "IdealADC",
    "PipelineADC",
    "SarADC",
    "TransferFunction",
    "DevicePopulation",
    "PopulationSpec",
    "HistogramTest",
    "HistogramTestResult",
    "CodeWidthDistribution",
    "ErrorModel",
    "BinomialDeviceModel",
    "DynamicAnalyzer",
    "LinearityResult",
    "linearity_from_code_widths",
    "BistConfig",
    "BistEngine",
    "BistResult",
    "CountLimits",
    "LsbProcessor",
    "MsbChecker",
    "DeglitchFilter",
    "SaturatingCounter",
    "qmin",
    "nl_budget",
    "RampStimulus",
    "SineStimulus",
    "SamplingClock",
    "NoiseModel",
]

__version__ = "1.0.0"
