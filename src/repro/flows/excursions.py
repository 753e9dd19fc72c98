"""Non-IID excursion generators: deterministic wafer-map transforms.

The paper's populations are IID: every die draws its parameters from one
stationary process distribution.  Real lines see *excursions* — a stepper
drifting lot to lot, a contaminated zone of a wafer, a burst of gross
defects from a handling event.  This module provides those populations as
pure, deterministically seeded transforms applied to a drawn transition
matrix **in the parent process, before sharding**, so every excursed
population inherits the execution layer's byte-identity across any
``(workers, chunk_size)`` geometry for free.

Each transform is a pure function of ``(spec, wafer_index, seed)``: the
perturbation RNG derives from a dedicated spawn-key namespace of the
scenario seed (never from the wafer-draw children), so an excursed wafer's
underlying process draw is bit-identical to the clean wafer's — the
excursion is strictly additive and attributable.

Transforms
----------
``"drift"``
    Lot-to-lot parameter drift: wafer ``i`` gains code-width jitter with
    sigma proportional to ``i``.  Wafer 0 is **unchanged** (byte-identical
    to the clean draw) — the drift baseline every detector calibrates on.
``"spatial"``
    A spatially correlated wafer map: a smooth low-frequency severity
    field over the die grid scales extra width jitter, so degradation
    clusters in contiguous wafer regions instead of landing IID.
``"burst"``
    Burst fault clusters: short runs of consecutive dies suffer a gross
    defect (a collapsed band of code widths — missing codes), the
    signature of a handling or probe event.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["EXCURSIONS", "apply_excursion", "excursion_perturbs",
           "excursion_rng"]

#: Registered excursion-generator names (the ``Scenario.excursion`` axis).
EXCURSIONS = ("drift", "spatial", "burst")

#: Spawn-key namespace tag separating excursion RNG streams from the
#: wafer-draw children spawned from the same scenario seed.
_EXCURSION_TAG = 0x0EC5

#: Per-wafer-index width-jitter sigma of the drift excursion, in LSB.
DRIFT_SIGMA_PER_WAFER_LSB = 0.12

#: Peak extra width-jitter sigma of the spatial excursion, in LSB.
SPATIAL_SIGMA_LSB = 0.5

#: Fraction of the code range a burst defect collapses.
BURST_CODE_FRACTION = 0.25


def excursion_rng(seed: Optional[int],
                  wafer_index: int) -> np.random.Generator:
    """The perturbation generator of wafer ``wafer_index`` under ``seed``.

    A pure function of ``(seed, wafer_index)`` in a namespace disjoint
    from the wafer-draw children, so excursions neither consume nor
    disturb the process draw's stream.
    """
    root = np.random.SeedSequence(seed)
    child = np.random.SeedSequence(
        entropy=root.entropy,
        spawn_key=root.spawn_key + (_EXCURSION_TAG, int(wafer_index)))
    return np.random.default_rng(child)


def _drift(transitions: np.ndarray, lsb: float, wafer_index: int,
           rng: np.random.Generator) -> np.ndarray:
    """Lot-to-lot drift: jitter sigma grows linearly with the wafer index."""
    sigma = DRIFT_SIGMA_PER_WAFER_LSB * wafer_index * lsb
    noise = rng.normal(0.0, sigma, size=transitions.shape)
    return transitions + np.cumsum(noise, axis=1)


def _smooth_field(n_devices: int, rng: np.random.Generator,
                  coarse: int = 4) -> np.ndarray:
    """A smooth severity field in ``[0, 1]`` over the flattened die grid.

    Dies sit on a row-major ``side x side`` grid (``side = ceil(sqrt(n))``);
    a coarse Gaussian field is bilinearly upsampled so neighbouring dies
    share nearly the same severity — the spatial correlation the IID
    model lacks.
    """
    side = int(np.ceil(np.sqrt(n_devices)))
    grid = rng.normal(size=(coarse, coarse))
    xs = (np.linspace(0.0, coarse - 1.0, side) if side > 1
          else np.zeros(1))
    i0 = np.floor(xs).astype(int)
    i1 = np.minimum(i0 + 1, coarse - 1)
    frac = xs - i0
    rows = grid[i0] * (1.0 - frac)[:, None] + grid[i1] * frac[:, None]
    field = (rows[:, i0] * (1.0 - frac)[None, :]
             + rows[:, i1] * frac[None, :])
    flat = field.ravel()[:n_devices]
    lo, hi = flat.min(), flat.max()
    if hi - lo <= 0.0:
        return np.zeros(n_devices)
    return (flat - lo) / (hi - lo)


def _spatial(transitions: np.ndarray, lsb: float,
             rng: np.random.Generator) -> np.ndarray:
    """Spatially correlated degradation: severity-scaled width jitter."""
    severity = _smooth_field(transitions.shape[0], rng)
    sigma = SPATIAL_SIGMA_LSB * lsb * severity
    noise = rng.normal(0.0, 1.0, size=transitions.shape)
    return transitions + np.cumsum(noise, axis=1) * sigma[:, None]


def _burst(transitions: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Burst fault clusters: contiguous dies lose a band of codes.

    Each cluster collapses a contiguous band of transitions onto the
    band's first level — zero-width (missing) codes the BIST counter
    cannot miss, mimicking a gross local defect.
    """
    n_devices, n_transitions = transitions.shape
    out = transitions.copy()
    n_clusters = max(1, n_devices // 500)
    band = max(2, int(n_transitions * BURST_CODE_FRACTION))
    for _ in range(n_clusters):
        start = int(rng.integers(0, n_devices))
        length = int(rng.integers(8, 33))
        stop = min(start + length, n_devices)
        j0 = int(rng.integers(0, max(1, n_transitions - band)))
        out[start:stop, j0:j0 + band] = out[start:stop, j0][:, None]
    return out


def excursion_perturbs(name: Optional[str], wafer_index: int,
                       n_devices: int) -> bool:
    """Whether the named excursion changes a wafer of ``n_devices`` dies.

    Every registered excursion changes every wafer but two: ``drift``
    leaves wafer 0 as drawn, the baseline it drifts from, and
    ``spatial`` has no field to vary across a single die.  Only a wafer
    this returns True for is an excursion the SPC monitor can miss.
    """
    if name is None or name == "none":
        return False
    if name == "drift":
        return wafer_index > 0
    if name == "spatial":
        return n_devices > 1
    return True


def apply_excursion(name: Optional[str], transitions: np.ndarray,
                    lsb: float, wafer_index: int,
                    seed: Optional[int]) -> np.ndarray:
    """Apply the named excursion to one wafer's transition matrix.

    Parameters
    ----------
    name:
        A registered excursion name, or ``None``/``"none"`` for the
        identity (the clean IID population).
    transitions:
        The drawn ``(devices, transitions)`` matrix; never mutated.
    lsb:
        Ideal LSB size in volts (perturbation magnitudes are spec'd in
        LSB).
    wafer_index:
        Index of the wafer within its lot — the drift axis, and part of
        the perturbation seed so sibling wafers perturb independently.
    seed:
        The scenario seed the perturbation stream derives from.
    """
    if name not in (None, "none") + EXCURSIONS:
        raise ValueError(f"unknown excursion {name!r}; "
                         f"registered: {', '.join(EXCURSIONS)}")
    if not excursion_perturbs(name, wafer_index, transitions.shape[0]):
        return transitions
    rng = excursion_rng(seed, wafer_index)
    if name == "drift":
        return _drift(transitions, lsb, wafer_index, rng)
    if name == "spatial":
        return _spatial(transitions, lsb, rng)
    return _burst(transitions, rng)


def excursion_bounds(name: Optional[str]) -> Tuple[bool, str]:
    """Whether an excursion is expected to trip SPC, and a short reason.

    Used by reporting/tests to classify missed detections: ``"drift"``
    ramps gradually (wafer 0 is clean by construction), while
    ``"spatial"`` and ``"burst"`` concentrate damage that a shard-level
    chart should flag on the affected wafer.
    """
    if name is None or name == "none":
        return False, "no excursion configured"
    if name == "drift":
        return True, "later wafers exceed the reject-fraction limit"
    if name == "spatial":
        return True, "degraded wafer regions exceed shard limits"
    return True, "burst clusters spike the shard reject fraction"
