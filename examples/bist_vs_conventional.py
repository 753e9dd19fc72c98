"""Reproduce the paper's BIST-vs-conventional trade-off at production scale.

The paper's concluding claim is a comparison: the quality of the BIST with
a 7-bit counter matches the conventional production histogram test — at a
fraction of the tester data volume and cost.  PR 1/PR 2 made the BIST side
run wafer-wide; with the batched analysis layer the *conventional* side
does too, so the comparison can be staged the way a tester floor would see
it:

1. draw ONE wafer of dies (the shared population: every method screens the
   identical transfer curves, so outcome differences are attributable to
   the test method alone),
2. screen it on three :class:`~repro.production.ScreeningLine`
   configurations — the full BIST, the conventional 64-samples-per-code
   histogram test, and the single-tone dynamic FFT suite,
3. print yield, truth-referenced error rates, tester time and cost per
   method, plus the per-device data-volume table that carries the paper's
   economic argument.
"""

import numpy as np

from repro.campaign import Scenario
from repro.production import (
    ResultStore,
    ScreeningLine,
    Wafer,
    WaferSpec,
)
from repro.reporting import format_table

# ---------------------------------------------------------------------- #
# 1. One shared wafer draw: 2000 six-bit flash dies at the paper's
#    worst-case mismatch, judged at the stringent ±0.5 LSB spec.
# ---------------------------------------------------------------------- #
spec = WaferSpec(n_bits=6, sigma_code_width_lsb=0.21, n_devices=2000)
wafer = Wafer.draw(spec, rng=1997, wafer_id="CMP-1997")
base = Scenario(n_bits=6, counter_bits=7, dnl_spec_lsb=0.5)
print(f"shared wafer {wafer.wafer_id}: {len(wafer)} dies, "
      f"true yield at ±0.5 LSB DNL = {wafer.yield_fraction(0.5):.1%}")
print()

# ---------------------------------------------------------------------- #
# 2. Three screening lines over the same dies.
# ---------------------------------------------------------------------- #
lines = [
    ScreeningLine(base),
    ScreeningLine(base.derive(method="histogram", samples_per_code=64.0)),
    ScreeningLine(base.derive(method="dynamic")),
]
store = ResultStore()
for line in lines:
    method = line.scenario.method
    print(f"{method:>9}: {line.describe()}")
    # A fresh Wafer wrapper per line keeps the shared transition matrix
    # while giving each report its own lot id.
    store.add(line.screen_lot(Wafer(spec, wafer.transitions,
                                    f"{wafer.wafer_id}/{method}"),
                              rng=0))
print()

# ---------------------------------------------------------------------- #
# 3. The trade-off: yield/escapes/cost per method, and data volume.
# ---------------------------------------------------------------------- #
print(store.lot_table())
print()
print(store.method_table())
print()

volume_rows = []
for line, report in zip(lines, store.reports):
    plan = line.test_plan(spec.n_bits, report.samples_per_device,
                          spec.sample_rate)
    volume_rows.append([report.method, report.samples_per_device,
                        plan.data_volume_bits,
                        report.cost_per_device])
print(format_table(
    ["method", "samples/device", "bits captured/device", "cost/device"],
    volume_rows, title="Tester data volume per device"))

bist, histogram = store.reports[0], store.reports[1]
assert bist.p_good == histogram.p_good  # same shared draw
print()
print(f"BIST vs histogram on the shared draw: "
      f"type II {bist.type_ii:.3f} vs {histogram.type_ii:.3f}, "
      f"cost ratio {histogram.cost_per_device / bist.cost_per_device:,.0f}x "
      f"in favour of the BIST")
