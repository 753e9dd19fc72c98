"""The rolling snapshot reads what a rollup of the completed requests reads.

:class:`~repro.serve.store.RollingStore` keeps one running total for the
whole stream and one per label as requests complete, instead of
re-summing every completed request on each snapshot.  The property below
checks that those running totals give the bytes of
:func:`~repro.production.store.rollup` over the stored reports in
completion order, after every completed request, for every label and
for a label no request carried.  A stress test checks that concurrent
adds lose no report from the totals.
"""

import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.production.line import LotScreeningReport
from repro.production.store import rollup
from repro.serve.store import _SCENARIO_FIELDS, _TOTAL_FIELDS, RollingStore

LABELS = ("flash/full", "sar/histogram", "twin")
UNSEEN = "never-screened"

_rates = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def _reports(draw):
    """One completed request's report, with arbitrary float fields."""
    n_devices = draw(st.integers(min_value=1, max_value=5000))
    return LotScreeningReport(
        lot_id=draw(st.sampled_from(LABELS)),
        n_devices=n_devices,
        n_accepted=draw(st.integers(min_value=0, max_value=n_devices)),
        n_recovered=0,
        bin_counts={},
        stations=[],
        tester_seconds=draw(st.floats(min_value=0.0, max_value=50.0)),
        cost_per_device=draw(st.floats(min_value=0.0, max_value=1e-3)),
        p_good=draw(_rates),
        type_i=draw(_rates),
        type_ii=draw(_rates),
        samples_per_device=64,
        saved_tester_seconds=draw(st.floats(min_value=0.0,
                                            max_value=5.0)),
        n_aborted=draw(st.integers(min_value=0, max_value=n_devices)),
        excursions=draw(st.integers(min_value=0, max_value=2)))


def _expected(completed, label):
    """The snapshot dict, built by rollup over the completed reports."""
    totals = rollup(completed)
    row = rollup([r for r in completed if r.lot_id == label])
    return {"requests": totals["lots"],
            **{name: totals[name] for name in _TOTAL_FIELDS},
            "scenario": {"label": label, **{
                name: row[name] for name in _SCENARIO_FIELDS}}}


@settings(max_examples=60, deadline=None)
@given(reports=st.lists(_reports(), min_size=1, max_size=12),
       order=st.randoms(use_true_random=False))
def test_snapshot_equals_rollup_of_the_completed_requests(reports, order):
    """Requests complete out of seq order; after each one, every
    snapshot carries the rollup's bytes (floats compared by repr)."""
    seqs = list(range(len(reports)))
    order.shuffle(seqs)
    store = RollingStore()
    completed = []
    for seq in seqs:
        store.add(seq, reports[seq])
        completed.append(reports[seq])
        for label in LABELS + (UNSEEN,):
            assert repr(store.snapshot(label)) == \
                repr(_expected(completed, label))
        without_label = _expected(completed, UNSEEN)
        del without_label["scenario"]
        assert repr(store.snapshot()) == repr(without_label)
    # The ledger keeps request-seq order, whatever the completion order.
    assert store.merged().reports == reports


def test_concurrent_adds_lose_no_report():
    """Eight threads add at once under a short switch interval; the
    running totals keep every report."""
    reports = [LotScreeningReport(
        lot_id=LABELS[seq % len(LABELS)], n_devices=seq + 1, n_accepted=seq,
        n_recovered=0, bin_counts={}, stations=[], tester_seconds=0.5,
        cost_per_device=1e-6, p_good=0.5, type_i=0.0, type_ii=0.0,
        samples_per_device=64) for seq in range(400)]
    store = RollingStore()

    def add_every_eighth(first):
        for seq in range(first, len(reports), 8):
            store.add(seq, reports[seq])

    threads = [threading.Thread(target=add_every_eighth, args=(first,))
               for first in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    snapshot = store.snapshot(LABELS[0])
    assert snapshot["requests"] == len(reports)
    assert snapshot["devices"] == sum(r.n_devices for r in reports)
    assert snapshot["accepted"] == sum(r.n_accepted for r in reports)
    mine = [r for r in reports if r.lot_id == LABELS[0]]
    assert snapshot["scenario"]["lots"] == len(mine)
    assert snapshot["scenario"]["devices"] == sum(r.n_devices for r in mine)
