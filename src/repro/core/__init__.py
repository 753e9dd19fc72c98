"""The paper's contribution: the BIST methodology for A/D converters.

* :mod:`repro.core.bist_scheme` — the partial-BIST partition and the
  ``q_min`` criterion (Equations (1) and (2), Figure 2),
* :mod:`repro.core.limits` — count limits of the DNL decision (Equations
  (3)–(5)),
* :mod:`repro.core.counter` — the bit-accurate on-chip counter model,
* :mod:`repro.core.decision` — the vectorised count-limit decision kernel
  shared by the scalar engine and the batch engine in
  :mod:`repro.production`,
* :mod:`repro.core.kernel` — the shared device-axis BIST kernel
  (quantisation, MSB reference counter, code reconstruction, histograms);
  the scalar engines below are batch-of-1 wrappers over it and the
  production engines run it wafer-wide,
* :mod:`repro.core.deglitch` — the digital filter removing LSB toggles,
* :mod:`repro.core.lsb_processor` — the LSB processing block (Figure 4),
* :mod:`repro.core.msb_checker` — the on-chip functionality check of the
  upper bits,
* :mod:`repro.core.engine` — the complete BIST measurement, including the
  population-level Monte-Carlo "measurement" runs,
* :mod:`repro.core.noise` — keyed acquisition noise: device ``d`` of a
  seed draws from its own substream, in every engine,
* :mod:`repro.core.area` — the Figure 1 area/accuracy/fault-sensitivity
  trade-off model.
"""

from repro.core.area import AreaEstimate, AreaModel
from repro.core.bist_scheme import PartialBistPartition, nl_budget, qmin
from repro.core.controller import ChipBistResult, MultiAdcBistController
from repro.core.counter import SaturatingCounter
from repro.core.decision import CountDecision, counter_readings, decide_counts
from repro.core.deglitch import DeglitchFilter
from repro.core.engine import (
    BistConfig,
    BistEngine,
    BistResult,
    PopulationBistResult,
    true_goodness,
)
from repro.core.kernel import (
    batch_code_histogram,
    batch_histogram_linearity,
    batch_msb_reference,
    batch_quantise_rows,
    batch_quantise_shared,
    batch_reconstruct_codes,
    batch_shared_ramp_histogram,
    packed_crossing_events,
)
from repro.core.limits import CountLimits
from repro.core.lsb_processor import LsbProcessor, LsbProcessorResult
from repro.core.msb_checker import MsbChecker, MsbCheckResult
from repro.core.noise import DeviceNoise
from repro.core.partial_engine import (
    PartialBistConfig,
    PartialBistEngine,
    PartialBistResult,
    reconstruct_codes,
)

__all__ = [
    "AreaEstimate",
    "AreaModel",
    "PartialBistPartition",
    "nl_budget",
    "qmin",
    "ChipBistResult",
    "MultiAdcBistController",
    "SaturatingCounter",
    "CountDecision",
    "counter_readings",
    "decide_counts",
    "DeglitchFilter",
    "BistConfig",
    "BistEngine",
    "BistResult",
    "PopulationBistResult",
    "true_goodness",
    "CountLimits",
    "LsbProcessor",
    "LsbProcessorResult",
    "MsbChecker",
    "MsbCheckResult",
    "DeviceNoise",
    "PartialBistConfig",
    "PartialBistEngine",
    "PartialBistResult",
    "reconstruct_codes",
    "batch_code_histogram",
    "batch_histogram_linearity",
    "batch_shared_ramp_histogram",
    "batch_msb_reference",
    "batch_quantise_rows",
    "batch_quantise_shared",
    "batch_reconstruct_codes",
    "packed_crossing_events",
]
