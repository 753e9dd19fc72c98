"""Walk a production lot through the batched BIST screening line.

The paper's economics only materialise at scale: a tester floor screens
wafers of converters, not single dies.  This example drives the
:mod:`repro.production` subsystem end to end:

1. draw a lot of wafers whose code-width statistics match the paper's
   worst-case process (sigma 0.21 LSB, ladder correlation ``-1/(N-1)``),
2. screen it on a :class:`~repro.production.ScreeningLine` — batched BIST,
   one retest insertion for rejected dies, quality binning on the measured
   linearity — with a small amount of acquisition noise so the retest
   station actually earns its keep,
3. cross-check one die against the scalar engine (the batch decisions are
   bit-identical to running every die individually),
4. print the floor report accumulated in the
   :class:`~repro.production.ResultStore`.
"""

import numpy as np

from repro.campaign import Scenario
from repro.core import BistConfig, BistEngine
from repro.production import (
    BatchBistEngine,
    Lot,
    ResultStore,
    ScreeningLine,
    WaferSpec,
)

# ---------------------------------------------------------------------- #
# 1. The lot: 3 wafers x 1200 dies of 6-bit flash converters.
# ---------------------------------------------------------------------- #
spec = WaferSpec(n_bits=6, sigma_code_width_lsb=0.21, n_devices=1200)
lot = Lot.draw(spec, n_wafers=3, seed=1997, lot_id="LOT-1997")
print(f"lot {lot.lot_id}: {len(lot)} wafers, {lot.n_devices} dies")
for wafer in lot:
    print(f"  {wafer.wafer_id}: true yield at +/-1.0 LSB DNL = "
          f"{wafer.yield_fraction(1.0):.1%}")

# ---------------------------------------------------------------------- #
# 2. The line: BIST -> retest -> binning, on a low-cost digital tester.
# ---------------------------------------------------------------------- #
line = ScreeningLine(Scenario(n_bits=6, counter_bits=7, dnl_spec_lsb=1.0,
                              transition_noise_lsb=0.02, deglitch_depth=2,
                              retest_attempts=1, bin_edges_lsb=(0.45, 0.7)))
report = line.screen_lot(lot, rng=42)
store = ResultStore([report])
print()
print(f"screened {report.n_devices} dies in {report.wall_seconds:.2f} s "
      f"wall clock ({report.simulated_devices_per_second:,.0f} devices/s "
      f"through the batched engine)")
print(f"retest recovered {report.n_recovered} borderline dies")

# ---------------------------------------------------------------------- #
# 3. Spot-check: the batch decision equals the scalar engine's.
# ---------------------------------------------------------------------- #
noise_free = BistConfig(n_bits=6, counter_bits=7, dnl_spec_lsb=1.0)
wafer = lot.wafers[0]
batch = BatchBistEngine(noise_free).run_wafer(wafer)
scalar = BistEngine(noise_free)
die = 17
single = scalar.run(wafer.device(die))
agree = single.passed == bool(batch.passed[die])
print()
print(f"die {die}: scalar verdict "
      f"{'PASS' if single.passed else 'FAIL'}, batch verdict "
      f"{'PASS' if batch.passed[die] else 'FAIL'} "
      f"({'agree' if agree else 'DISAGREE'})")
assert agree

# ---------------------------------------------------------------------- #
# 4. The floor report.
# ---------------------------------------------------------------------- #
print()
print(store.lot_table())
print()
print(store.station_table())
print()
print(store.bin_table())
print()
print(store.summary())

# The same lot on a mixed-signal tester would cost more per insertion;
# the full BIST is what lets the cheap digital tester do the job.
print()
print(f"cost per device on the digital tester: "
      f"{report.cost_per_device:.2e} currency units "
      f"({np.ceil(report.tester_seconds):.0f} s of tester time for the lot)")
