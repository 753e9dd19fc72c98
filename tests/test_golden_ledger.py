"""Golden ledger: every ledger rendering pinned byte for byte.

The serve-equals-batch tests compare two outputs built by the same
rollup code, so a change that moved both at once would pass them.  This
test pins the outputs themselves, as recorded in
``tests/data/golden_ledger.txt``:

* every :class:`~repro.production.store.ResultStore` table, the
  ``summary()`` and the full-precision store totals of one campaign run;
* that run's ``CampaignResult.metrics_table()`` and ``to_json()``;
* the store's tables and the metrics table again with every float at 17
  significant digits, so the device-weighted means of multi-lot rows
  are pinned exactly, not to the 4 digits the tables print;
* a serial ``ServeServer`` session over the same scenarios: its
  ``rolling.ledger()`` and every ``result`` and ``excursion`` event line.

``max_inflight=1`` screens one request at a time, so every rolling
snapshot sees the same completed requests on every run.  The JSON lines
carry floats at full precision, and no device count is a power of two,
so a sum taken in another order, or a weighted mean computed another
way, shows.

The rollup adds left to right on every interpreter, where Python 3.12's
compensated ``sum()`` would move one rolling total of this data in its
last digit (0.082056 against 0.08205599999999999), so the recorded bytes
hold on every supported Python.

To rewrite the data file after an intended output change, run
``PYTHONPATH=src python tests/test_golden_ledger.py``.
"""

import asyncio
import contextlib
import functools
import io
import json
import pathlib
import sys

import repro.reporting.tables as tables
from repro.campaign import Campaign, Scenario
from repro.production import ExecutionPlan
from repro.serve import ServeServer
from repro.serve.protocol import scenario_kwargs

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / \
    "golden_ledger.txt"

ROOT_SEED = 11

#: Shard size of every screening; under the sprt flow it is also the SPC
#: subgroup, and the burst lot below aborts both its wafers at this size.
PLAN = ExecutionPlan(workers=1, shard_devices=128)

STORE_VIEWS = ("lot_table", "method_table", "scenario_table",
               "campaign_table", "station_table", "bin_table", "summary")


def golden_scenarios():
    """flash/sar x bist/histogram x q full/2 at 0.05 LSB noise, one retest,
    two converters per IC; the full-BIST points deglitch (without the
    filter the noise rejects every die).  Then two scenarios sharing one
    explicit label, and a 2-wafer sprt lot whose burst excursion the SPC
    monitor aborts."""
    base = Scenario(n_devices=120, dnl_spec_lsb=0.5,
                    transition_noise_lsb=0.05, retest_attempts=1,
                    devices_per_ic=2)
    grid = [s.derive(deglitch_depth=3) if s.is_full_bist else s
            for s in base.grid(architecture=["flash", "sar"],
                               method=["bist", "histogram"],
                               q=[None, 2])]
    twins = [base.derive(n_devices=90, deglitch_depth=3, label="twin"),
             base.derive(n_devices=90, architecture="sar",
                         method="histogram", label="twin")]
    burst = Scenario(n_devices=300, n_wafers=2, devices_per_ic=2,
                     retest_attempts=1, flow="sprt", excursion="burst",
                     seed=1)
    return grid + twins + [burst]


def _section(name, text):
    return f"== {name} ==\n{text}\n"


@contextlib.contextmanager
def _full_precision_tables():
    """Render every ``format_table`` call with 17 significant digits."""
    precise = functools.partial(tables.format_table, float_format=".17g")
    users = [module for name, module in list(sys.modules.items())
             if name.startswith("repro.") and module is not tables
             and getattr(module, "format_table", None)
             is tables.format_table]
    for module in users:
        module.format_table = precise
    try:
        yield
    finally:
        for module in users:
            module.format_table = tables.format_table


def _serve_session(scenarios):
    """Screen the scenarios through one serial serve session."""
    script = "".join(
        json.dumps({"id": f"r{i}", "scenario": scenario_kwargs(s)}) + "\n"
        for i, s in enumerate(scenarios))
    out = io.StringIO()
    server = ServeServer(stdin=io.StringIO(script), out=out, plan=PLAN,
                         seed=ROOT_SEED, max_inflight=1)
    assert asyncio.run(server.run()) == 0
    events = [line for line in out.getvalue().splitlines()
              if json.loads(line)["event"] in ("result", "excursion")]
    return server.rolling.ledger(), events


def golden_dump() -> str:
    """Every pinned rendering, as one text document."""
    scenarios = golden_scenarios()
    result = Campaign(scenarios, seed=ROOT_SEED).run(plan=PLAN)
    store = result.store
    parts = [_section(f"store.{view}", getattr(store, view)())
             for view in STORE_VIEWS]
    totals = [repr(store.total_devices), repr(store.total_accepted),
              repr(store.total_tester_seconds),
              repr(store.overall_accept_fraction),
              repr(store.overall_devices_per_hour),
              repr(store.bin_totals()), repr(store.total_chips()),
              repr(store.total_chips_passed())]
    totals += [repr(station) for station in store.station_totals()]
    parts.append(_section("store totals", "\n".join(totals)))
    parts.append(_section("campaign.metrics_table", result.metrics_table()))
    parts.append(_section("campaign.to_json", result.to_json()))
    with _full_precision_tables():
        parts += [_section(f"store.{view} .17g", getattr(store, view)())
                  for view in STORE_VIEWS[:-1]]
        parts.append(_section("campaign.metrics_table .17g",
                              result.metrics_table()))
    ledger, events = _serve_session(scenarios)
    parts.append(_section("serve.ledger", ledger))
    parts.append(_section("serve.events", "\n".join(events)))
    return "".join(parts)


def test_ledger_renderings_match_the_golden_file():
    assert golden_dump() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(golden_dump(), encoding="utf-8")
    print(f"wrote {GOLDEN}")
