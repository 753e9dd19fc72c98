"""Declarative test scenarios: one value object describing a whole run.

The paper's argument is a *comparison across scenarios* — full BIST versus
partial-``q`` BIST versus the conventional histogram/dynamic tests, across
converter architectures and tester economics.  A :class:`Scenario` is one
such comparison point: a single frozen dataclass naming everything a run
depends on — architecture, method, ``q``, resolution, noise, wafer
geometry, tester choice, seed — that every consumer reads:

* :func:`repro.campaign.factory.make_engine` turns a scenario into the
  right batch engine (the only place engines are constructed);
* :class:`repro.production.line.ScreeningLine` is built from a scenario
  alone, as a fully configured screening line;
* :class:`repro.campaign.driver.Campaign` fans a list (or
  :meth:`Scenario.grid`) of scenarios across the deterministic scale-out
  layer and keeps the reports in one
  :class:`~repro.production.store.ResultStore`.

Because a scenario is frozen and hashable, grids deduplicate naturally:
axes that do not apply to a method (``q`` for the conventional tests)
normalise away instead of multiplying the grid.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import product
from typing import Iterable, List, Optional, Tuple, Union

from repro.adc.backends import ARCHITECTURES
from repro.core.engine import BistConfig
from repro.economics.cost_model import TesterModel
from repro.flows.excursions import EXCURSIONS, apply_excursion
from repro.production.line import DEFAULT_BIN_EDGES_LSB, SCREENING_METHODS
from repro.production.lot import Lot, Wafer, WaferSpec

__all__ = ["AUTO_Q", "FLOWS", "Scenario", "TESTER_CHOICES"]

#: Sentinel ``q`` value: derive the Equation (1) minimum from the stimulus.
AUTO_Q = "auto"

#: Tester selections a scenario can name (``None`` = per-method default).
TESTER_CHOICES = (None, "digital", "mixed")

#: Test-flow selections: the paper's fixed-count flow, or the adaptive
#: sequential flow of :mod:`repro.flows` (first-failing-code stop).
FLOWS = ("fixed", "sprt")

QValue = Union[int, str, None]


@dataclass(frozen=True)
class Scenario:
    """Everything one screening run depends on, as a frozen value object.

    Parameters
    ----------
    architecture:
        Converter architecture of the dies: ``"flash"``, ``"sar"`` or
        ``"pipeline"``.
    method:
        Screening method: ``"bist"`` (default), ``"histogram"`` (the
        conventional ramp code-density test) or ``"dynamic"`` (the
        single-tone FFT suite).
    q:
        LSBs captured off-chip by the BIST.  ``None`` (default) is the
        full BIST (only the pass/fail flag leaves the chip); an integer
        ``1..n_bits`` selects the partial scheme; :data:`AUTO_Q`
        (``"auto"``) derives the Equation (1) minimum from the stimulus at
        run time (engine-level runs only — a
        :class:`~repro.production.line.ScreeningLine` needs a concrete
        ``q`` for its economics).  Only valid with ``method="bist"``.
    n_bits:
        Converter resolution.
    sigma_code_width_lsb:
        Code-width sigma in LSB (flash architecture).
    n_devices:
        Dies per wafer.
    n_wafers:
        Wafers per lot.
    devices_per_ic:
        Converters sharing one IC; must divide ``n_devices``.
    samples_per_code:
        Ramp density of the partial-BIST and histogram stimuli.
    counter_bits:
        LSB-processing counter size (BIST method).
    dnl_spec_lsb, inl_spec_lsb:
        Linearity specification in LSB (``inl_spec_lsb=None`` disables
        the INL check).
    transition_noise_lsb:
        Converter input-referred acquisition noise in LSB.
    deglitch_depth:
        LSB deglitch filter depth; only the full BIST has the filter.
    retest_attempts:
        Re-insertions of rejected dies (0 disables retest).
    bin_edges_lsb:
        Ascending measured-|DNL| edges of the quality bins.
    tester:
        ``"digital"``, ``"mixed"``, or ``None`` for the per-method default
        (digital for the full BIST, mixed-signal for everything that
        captures analog-driven data).
    flow:
        Test flow: ``"fixed"`` (the paper's fixed-count decision,
        default) or ``"sprt"`` — the adaptive sequential flow of
        :mod:`repro.flows`: each device keeps the fixed flow's verdict
        but stops at its first failing code, or at the end of the
        record when it has none (reporting saved tester-seconds), and an
        SPC monitor (p-chart + CUSUM over streaming shard results) aborts
        a wafer's remaining shards on an excursion.  Only valid with the
        full BIST; grids normalise it back to ``"fixed"`` for other
        methods.
    excursion:
        Non-IID population transform applied to each drawn wafer (see
        :mod:`repro.flows.excursions`): ``"drift"`` (lot-to-lot parameter
        drift), ``"spatial"`` (spatially correlated wafer map), ``"burst"``
        (burst fault clusters), or ``None``/``"none"`` for the clean IID
        population.  Deterministically seeded per ``(seed, wafer index)``
        in a namespace disjoint from the wafer draw, so the underlying
        process draw stays bit-identical to the clean scenario's.
    seed:
        Scenario seed for the wafer draw and the acquisition noise.
        ``None`` defers to the campaign, which derives a deterministic
        per-scenario child seed from its own root seed.
    label:
        Human-readable name used in reports; defaults to the canonical
        :attr:`name` (``"flash/partial q=4"``-style).
    """

    architecture: str = "flash"
    method: str = "bist"
    q: QValue = None
    n_bits: int = 6
    sigma_code_width_lsb: float = 0.21
    n_devices: int = 2000
    n_wafers: int = 1
    devices_per_ic: int = 1
    samples_per_code: float = 16.0
    counter_bits: int = 7
    dnl_spec_lsb: float = 1.0
    inl_spec_lsb: Optional[float] = None
    transition_noise_lsb: float = 0.0
    deglitch_depth: int = 0
    retest_attempts: int = 0
    bin_edges_lsb: Tuple[float, ...] = DEFAULT_BIN_EDGES_LSB
    tester: Optional[str] = None
    flow: str = "fixed"
    excursion: Optional[str] = None
    seed: Optional[int] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.architecture not in ARCHITECTURES:
            raise ValueError(
                f"unknown architecture {self.architecture!r}; "
                f"expected one of {ARCHITECTURES}")
        if self.method not in SCREENING_METHODS:
            raise ValueError(f"unknown screening method {self.method!r}; "
                             f"expected one of {SCREENING_METHODS}")
        if self.q is not None:
            if self.method != "bist":
                raise ValueError("q only applies to the BIST method")
            if self.q != AUTO_Q:
                object.__setattr__(self, "q", int(self.q))
                if not 1 <= self.q <= self.n_bits:
                    raise ValueError(
                        f"q must be within [1, {self.n_bits}] or "
                        f"{AUTO_Q!r}")
        if self.n_bits < 2:
            raise ValueError("n_bits must be >= 2")
        if self.architecture == "pipeline" and self.n_bits < 3:
            raise ValueError("the pipeline architecture needs n_bits >= 3")
        if self.n_devices < 1 or self.n_wafers < 1:
            raise ValueError("n_devices and n_wafers must be >= 1")
        if self.devices_per_ic < 1:
            raise ValueError("devices_per_ic must be positive")
        if self.n_devices % self.devices_per_ic != 0:
            raise ValueError(
                f"{self.n_devices} dies per wafer do not fill whole ICs "
                f"of {self.devices_per_ic} converters")
        if self.samples_per_code <= 0:
            raise ValueError("samples_per_code must be positive")
        if self.transition_noise_lsb < 0:
            raise ValueError("transition_noise_lsb must be non-negative")
        if self.deglitch_depth > 0 and not self.is_full_bist:
            raise ValueError(
                "only the full BIST has a deglitch filter; unset "
                "deglitch_depth for partial/histogram/dynamic scenarios")
        if self.retest_attempts < 0:
            raise ValueError("retest_attempts must be non-negative")
        edges = tuple(float(e) for e in self.bin_edges_lsb)
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("bin_edges_lsb must be strictly ascending")
        object.__setattr__(self, "bin_edges_lsb", edges)
        if self.tester not in TESTER_CHOICES:
            raise ValueError(f"unknown tester {self.tester!r}; "
                             f"expected one of {TESTER_CHOICES}")
        if self.flow not in FLOWS:
            raise ValueError(f"unknown flow {self.flow!r}; "
                             f"expected one of {FLOWS}")
        if self.flow != "fixed" and not self.is_full_bist:
            raise ValueError(
                "the sequential flow rides on the full BIST's per-code "
                "stream; use flow='fixed' for partial/histogram/dynamic "
                "scenarios")
        if self.excursion == "none":
            object.__setattr__(self, "excursion", None)
        if self.excursion is not None and self.excursion not in EXCURSIONS:
            raise ValueError(
                f"unknown excursion {self.excursion!r}; "
                f"registered: {', '.join(EXCURSIONS)} (or 'none')")

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #

    @property
    def is_full_bist(self) -> bool:
        """Whether the scenario runs the full BIST (pass/fail flag only)."""
        return self.method == "bist" and self.q is None

    @property
    def mode(self) -> str:
        """Station flavour: BIST ``"full"``/``"partial"``, or the method."""
        if self.method != "bist":
            return self.method
        return "full" if self.q is None else "partial"

    @property
    def name(self) -> str:
        """Canonical (architecture, method/mode) tag of the scenario.

        Matches the format of
        :attr:`repro.production.line.LotScreeningReport.scenario`, so
        campaign tables and per-lot reports agree on naming.
        """
        if self.method != "bist":
            base = f"{self.architecture}/{self.method}"
        elif self.q is None:
            base = f"{self.architecture}/full"
        else:
            base = f"{self.architecture}/partial q={self.q}"
        # Default-flow, clean-population names keep their historical
        # shape; adaptive-flow and excursion variants tag themselves so a
        # grid over those axes cannot collide on labels.
        if self.flow != "fixed":
            base = f"{base} {self.flow}"
        if self.excursion is not None:
            base = f"{base} +{self.excursion}"
        return base

    @property
    def resolved_label(self) -> str:
        """The explicit label, or the canonical name when none was set."""
        return self.label if self.label is not None else self.name

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #

    def derive(self, **changes) -> "Scenario":
        """A new scenario with ``changes`` applied (and re-validated).

        An explicit ``label`` does not survive derivation unless re-given:
        a derived scenario describes a different run, so inheriting the
        parent's human-readable name would mislabel it.
        """
        changes.setdefault("label", None)
        return dataclasses.replace(self, **changes)

    def grid(self, **axes) -> List["Scenario"]:
        """The cartesian product of this scenario over the given axes.

        Each keyword names a field; its value is a single value or an
        iterable of values.  Combinations are emitted in row-major order
        (first axis slowest) with two normalisations that keep grids
        honest: ``q`` collapses to ``None`` for methods it does not apply
        to, and scenarios that normalise to the same value object are
        deduplicated — ``method=["bist", "histogram"], q=[4, 8]`` yields
        the two partial-BIST points plus *one* histogram scenario, not
        two.
        """
        field_names = [f.name for f in dataclasses.fields(self)]
        unknown = set(axes) - set(field_names)
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        names = [name for name in field_names if name in axes]
        value_lists = []
        for name in names:
            values = axes[name]
            if isinstance(values, (str, bytes)) or not isinstance(
                    values, Iterable):
                values = [values]
            else:
                values = list(values)
            if not values:
                raise ValueError(f"axis {name!r} has no values")
            value_lists.append(values)
        scenarios: List[Scenario] = []
        seen = set()
        for combo in product(*value_lists):
            changes = dict(zip(names, combo))
            method = changes.get("method", self.method)
            if method != "bist":
                changes["q"] = None
            q = changes.get("q", self.q)
            flow = changes.get("flow", self.flow)
            if flow != "fixed" and (method != "bist" or q is not None):
                # The sequential flow only exists for the full BIST;
                # other methods collapse to the fixed flow (and then
                # deduplicate) instead of multiplying the grid.
                changes["flow"] = "fixed"
            scenario = self.derive(**changes)
            if scenario in seen:
                continue
            seen.add(scenario)
            scenarios.append(scenario)
        return scenarios

    # ------------------------------------------------------------------ #
    # Materialisation
    # ------------------------------------------------------------------ #

    def wafer_spec(self) -> WaferSpec:
        """The wafer geometry/process spec this scenario screens."""
        return WaferSpec(n_bits=self.n_bits,
                         sigma_code_width_lsb=self.sigma_code_width_lsb,
                         n_devices=self.n_devices,
                         architecture=self.architecture)

    def bist_config(self) -> BistConfig:
        """The measurement configuration the engines are built from."""
        return BistConfig(n_bits=self.n_bits,
                          counter_bits=self.counter_bits,
                          dnl_spec_lsb=self.dnl_spec_lsb,
                          inl_spec_lsb=self.inl_spec_lsb,
                          deglitch_depth=self.deglitch_depth,
                          transition_noise_lsb=self.transition_noise_lsb)

    def tester_model(self) -> Optional[TesterModel]:
        """The explicitly named tester, or ``None`` for the method default."""
        if self.tester == "digital":
            return TesterModel.digital_only()
        if self.tester == "mixed":
            return TesterModel.mixed_signal()
        return None

    def _resolve_seed(self, seed: Optional[int]) -> int:
        if seed is not None:
            return int(seed)
        if self.seed is None:
            raise ValueError(
                "scenario has no seed; set Scenario.seed, pass one "
                "explicitly, or run it through a Campaign (which derives "
                "per-scenario child seeds from its root seed)")
        return int(self.seed)

    def _excurse(self, wafer: Wafer, wafer_index: int,
                 seed: Optional[int]) -> Wafer:
        """Apply this scenario's excursion transform to a drawn wafer.

        Runs in the parent, before any sharding, so excursed populations
        inherit the execution layer's byte-identity across every
        ``(workers, chunk_size)`` geometry for free.
        """
        if self.excursion is None:
            return wafer
        transformed = apply_excursion(
            self.excursion, wafer.transitions, self.wafer_spec().lsb,
            wafer_index, seed)
        if transformed is wafer.transitions:
            return wafer
        return Wafer(wafer.spec, transformed, wafer_id=wafer.wafer_id)

    def draw_wafer(self, seed: Optional[int] = None,
                   wafer_id: Optional[str] = None) -> Wafer:
        """Draw one wafer of this scenario's dies, reproducibly.

        With an ``excursion`` configured the drawn matrix is perturbed by
        the named transform (at wafer index 0 — single-wafer draws are
        the start of the drift axis).
        """
        seed = self._resolve_seed(seed)
        wafer = Wafer.draw(self.wafer_spec(), rng=seed,
                           wafer_id=(wafer_id if wafer_id is not None
                                     else self.resolved_label))
        return self._excurse(wafer, wafer_index=0, seed=seed)

    def draw_lot(self, seed: Optional[int] = None,
                 lot_id: Optional[str] = None) -> Lot:
        """Draw this scenario's lot (``n_wafers`` wafers), reproducibly.

        With an ``excursion`` configured, wafer ``i`` of the lot is
        perturbed at excursion index ``i`` (the drift axis runs along the
        lot), each from its own deterministic perturbation stream.
        """
        seed = self._resolve_seed(seed)
        lot = Lot.draw(self.wafer_spec(), n_wafers=self.n_wafers,
                       seed=seed,
                       lot_id=(lot_id if lot_id is not None
                               else self.resolved_label))
        if self.excursion is None:
            return lot
        return Lot([self._excurse(wafer, i, seed)
                    for i, wafer in enumerate(lot.wafers)],
                   lot_id=lot.lot_id)
