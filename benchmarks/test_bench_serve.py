"""Streaming serve overhead benchmark: front door vs batch, replay vs compute.

``repro serve`` routes every request through parsing, journaling, the
submitter bridge and the rolling ledger — none of which may cost
meaningful throughput relative to the batch :meth:`Campaign.run` of the
same scenarios.  Three wall-clock reads, with the byte-identity of all
ledgers asserted first (overhead comparisons only count when the
answers agree), and the cost of one rolling snapshot:

``serve.streamed_vs_batch_fraction``
    Streamed wall-clock over batch wall-clock for the identical request
    stream (1.0 = free front door; the interesting regressions are
    well above that).
``serve.checkpoint_overhead_ratio``
    Wall-clock of the same stream with a checkpoint journal over
    without it — the price of per-shard durability (1.0 = free).
``serve.replay_speedup``
    Fresh compute over full-journal resume: how much faster a resumed
    server replays finished work than computing it — the reason
    kill-and-resume is cheap.
``serve.rolling_snapshot_56_s`` / ``serve.rolling_snapshot_2016_s``
    Median seconds of one ``RollingStore.snapshot`` after 56 and after
    2,016 completed requests; equal when the snapshot costs O(1).

Wall-clock rows stay report-only (no thresholds; shared CI runners are
hostage to co-tenant load) — the recorded BENCH_*.json trajectory is
the enforcement point.
"""

import asyncio
import io
import json
import statistics
import time

from repro.campaign import Campaign, Scenario
from repro.production import ExecutionPlan
from repro.production.pool import close_default_pool
from repro.reporting import format_table
from repro.production.store import rollup
from repro.serve import ServeServer
from repro.serve.store import _SCENARIO_FIELDS, _TOTAL_FIELDS, RollingStore

N_DEVICES = 512
REPEATS = 3

SCENARIOS = [
    dict(architecture="flash", method="bist", n_bits=6, q=q,
         n_devices=N_DEVICES, transition_noise_lsb=0.05)
    for q in (2, 3, 4)
] + [
    dict(architecture="flash", method="histogram", n_bits=6,
         n_devices=N_DEVICES),
]

REQUESTS = "".join(json.dumps({"scenario": kwargs}) + "\n"
                   for kwargs in SCENARIOS)

_PLAN = ExecutionPlan(workers=1, shard_devices=128)


def _serve_once(checkpoint=None, resume=None):
    server = ServeServer(plan=_PLAN, seed=7,
                         checkpoint=checkpoint, resume=resume,
                         stdin=io.StringIO("" if resume else REQUESTS),
                         out=io.StringIO())
    start = time.perf_counter()
    assert asyncio.run(server.run()) == 0
    return time.perf_counter() - start, server.rolling.ledger()


def _batch_once():
    start = time.perf_counter()
    result = Campaign([Scenario(**kwargs) for kwargs in SCENARIOS],
                      seed=7).run(plan=_PLAN)
    elapsed = time.perf_counter() - start
    return elapsed, (result.store.campaign_table() + "\n\n"
                     + result.store.summary() + "\n")


def _best(fn, repeats=REPEATS):
    elapsed, value = fn()  # warm-up
    for _ in range(repeats):
        t, value = fn()
        elapsed = min(elapsed, t)
    return elapsed, value


class TestServeOverhead:
    def test_streamed_vs_batch_vs_replay(self, report, bench, tmp_path):
        try:
            batch_s, batch_ledger = _best(_batch_once)
            serve_s, serve_ledger = _best(_serve_once)
            assert serve_ledger == batch_ledger

            ckpt = tmp_path / "bench.ckpt"

            def journaled():
                ckpt.unlink(missing_ok=True)
                return _serve_once(checkpoint=str(ckpt))

            journal_s, journal_ledger = _best(journaled)
            assert journal_ledger == batch_ledger

            # One journaled run to replay from (the timed loop above
            # ends with a complete journal in place).
            replay_s, replay_ledger = _best(
                lambda: _serve_once(resume=str(ckpt)))
            assert replay_ledger == batch_ledger
        finally:
            close_default_pool()

        n = len(SCENARIOS)
        streamed_fraction = serve_s / batch_s
        journal_fraction = journal_s / serve_s
        replay_speedup = serve_s / replay_s
        bench("serve.requests_per_s_streamed", n / serve_s)
        bench("serve.streamed_vs_batch_fraction", streamed_fraction)
        bench("serve.checkpoint_overhead_ratio", journal_fraction)
        bench("serve.replay_speedup", replay_speedup)
        report(
            "streaming serve overhead (streamed vs batch vs replay)",
            format_table(
                ["mode", "wall [s]", "requests/s"],
                [["batch campaign", batch_s, n / batch_s],
                 ["served stream", serve_s, n / serve_s],
                 ["served + checkpoint", journal_s, n / journal_s],
                 ["resume (full replay)", replay_s, n / replay_s]],
                title=f"{n} requests x {N_DEVICES} devices, serial plan; "
                      f"streamed/batch {streamed_fraction:.2f}x, "
                      f"checkpoint {journal_fraction:.2f}x, "
                      f"replay speedup {replay_speedup:.1f}x"))


#: Request counts of the rolling-snapshot rows, and timed calls per row.
SNAPSHOT_REQUESTS = (56, 2016)
SNAPSHOT_CALLS = 200


def test_rolling_snapshot_cost(report, bench):
    """One snapshot after 56 and after 2,016 completed requests: eight
    64-die scenario reports, cycled, each under its own label."""
    reports = Campaign(
        Scenario(n_devices=64).grid(architecture=["flash", "sar"],
                                    method=["bist", "histogram"],
                                    dnl_spec_lsb=[0.5, 1.0]),
        seed=7).run().reports
    label = reports[0].lot_id
    rows = []
    for n in SNAPSHOT_REQUESTS:
        store = RollingStore()
        completed = [reports[seq % len(reports)] for seq in range(n)]
        for seq, done in enumerate(completed):
            store.add(seq, done)
        totals = rollup(completed)
        row = rollup([r for r in completed if r.lot_id == label])
        expected = {"requests": totals["lots"],
                    **{name: totals[name] for name in _TOTAL_FIELDS},
                    "scenario": {"label": label, **{
                        name: row[name] for name in _SCENARIO_FIELDS}}}
        assert repr(store.snapshot(label)) == repr(expected)

        times = []
        for _ in range(SNAPSHOT_CALLS):
            start = time.perf_counter()
            store.snapshot(label)
            times.append(time.perf_counter() - start)
        median_s = statistics.median(times)
        bench(f"serve.rolling_snapshot_{n}_s", median_s)
        rows.append([n, median_s * 1e3])
    report("rolling snapshot cost (median of "
           f"{SNAPSHOT_CALLS} calls)",
           format_table(["completed requests", "snapshot [ms]"], rows,
                        title="RollingStore.snapshot with a scenario "
                              "block, 8 labels"))
