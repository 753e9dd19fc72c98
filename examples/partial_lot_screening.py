"""Screening a lot of SAR converters with the batched partial BIST.

The paper's claims span three test configurations: the full BIST (q = 1),
the partial BIST with q LSBs captured off-chip (Equation (1)), and the
parallel test of multi-converter ICs.  This example exercises all three at
production scale on a *non-flash* architecture:

1. a lot of SAR converter wafers is drawn through the vectorised transfer
   backend (binary-weighted capacitor mismatch — no per-die objects),
2. the screening line runs the batched partial BIST with q = 2 LSBs
   off-chip, grouping four converters per IC,
3. the same lot is screened with the full BIST (q = 1) for comparison,
4. the floor report shows yield, chip-level yield, quality bins,
   throughput and cost for both scenarios.
"""

from repro.campaign import Scenario
from repro.core import PartialBistConfig
from repro.production import (
    BatchPartialBistEngine,
    Lot,
    ResultStore,
    ScreeningLine,
    WaferSpec,
)


def main() -> None:
    spec = WaferSpec(n_bits=6, n_devices=1500, architecture="sar",
                     unit_cap_sigma_rel=0.06)
    lot = Lot.draw(spec, n_wafers=2, seed=42, lot_id="SAR-42")
    # The lines' scenarios carry the measurement side; the lot above,
    # with its own capacitor mismatch, is what they screen.
    full = Scenario(n_bits=6, counter_bits=7, dnl_spec_lsb=1.0)

    store = ResultStore()

    # --- scenario 1: partial BIST, q = 2, four converters per IC -------- #
    partial_line = ScreeningLine(full.derive(q=2, devices_per_ic=4))
    print(f"scenario A: {partial_line.describe()}, 4 converters/IC")
    report = partial_line.screen_lot(lot, rng=0)
    store.add(report)
    print(f"  accept fraction: {report.accept_fraction:.1%}, "
          f"chip yield: {report.chip_yield:.1%}")
    print(f"  simulation: {report.simulated_devices_per_second:,.0f} "
          f"devices/s (batched engine)")

    # --- scenario 2: full BIST on the same lot -------------------------- #
    full_line = ScreeningLine(full)
    print(f"scenario B: {full_line.describe()}")
    report_full = full_line.screen_lot(lot, rng=0)
    store.add(report_full)
    print(f"  accept fraction: {report_full.accept_fraction:.1%}")

    # --- the floor report ----------------------------------------------- #
    print()
    print(store.lot_table())
    print()
    print(store.station_table())
    print()
    print(store.bin_table())
    print()
    print(store.summary())

    # --- Equation (1) context: what q = 2 buys ------------------------- #
    engine = BatchPartialBistEngine(PartialBistConfig(n_bits=6, q=2))
    partition = engine.partition_for(spec.full_scale, spec.sample_rate)
    print()
    print(f"partition: q = {partition.q} of {partition.n_bits} bits "
          f"off-chip, pin reduction {partition.pin_reduction_factor:.1f}x, "
          f"{partition.on_chip_bits} bits verified on-chip")


if __name__ == "__main__":
    main()
