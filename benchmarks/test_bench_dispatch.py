"""Dispatch-overhead benchmark: cold pool vs warm pool vs serial.

The persistent :class:`~repro.production.pool.WorkerPool` exists to kill
two per-dispatch costs: forking a fresh worker set on every ``map`` call
(cold-pool churn) and pickling matrix rows over the pipe (replaced by
shared-memory :class:`~repro.production.pool.SliceRef` descriptors).
This bench isolates those costs: the *noise-free event path* screens
devices so fast that dispatch overhead dominates, so devices/second vs
shard size is a direct read of the scheduling layer's fixed costs.

Three modes per shard size, identical results asserted:

``serial``
    ``workers=1`` — the in-process reference, no dispatch at all.
``cold``
    ``workers=4`` inside a fresh :func:`shared_pool` block per timed
    run — the pre-pool behaviour: the pool is forked and torn down
    inside the timed region.
``warm``
    ``workers=4`` inside a warmed :func:`shared_pool` block — workers
    forked once, shards shipped by descriptor.

``dispatch.warm_pool_speedup_small_shards`` (warm/cold at the smallest
shard) is the headline: small shards mean many dispatches, which is
where the persistent pool pays.  Like the scaling bench, the wall-clock
rows stay report-only — this file is collected by the gating tier-1
run, and thresholds on shared CI runners would be hostage to co-tenant
load; the recorded BENCH_*.json trajectory is the enforcement point.
"""

import time

import numpy as np

from repro.core import BistConfig
from repro.production import (
    BatchBistEngine,
    ExecutionPlan,
    Wafer,
    WaferSpec,
    close_default_pool,
    shared_pool,
)
from repro.reporting import format_table

#: Shard sizes swept; 4096 devices / 4096 shard = one shard, which both
#: pool modes run inline — the zero-dispatch sanity row.
SHARD_SIZES = (128, 512, 1024, 4096)

N_DEVICES = 4096
WORKERS = 4
REPEATS = 3

_CONFIG = BistConfig(n_bits=6, counter_bits=7, dnl_spec_lsb=1.0)


def _throughput(run, repeats=REPEATS):
    """Best-of devices/second of ``run()`` over ``repeats`` timed runs
    (post warm-up), plus the last result for the bit-identity
    assertion."""
    result = run()  # warm-up
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return N_DEVICES / best, result


class TestDispatchOverhead:
    def test_cold_vs_warm_vs_serial_across_shard_sizes(self, report,
                                                       bench):
        engine = BatchBistEngine(_CONFIG)
        wafer = Wafer.draw(WaferSpec(n_bits=6, sigma_code_width_lsb=0.21,
                                     n_devices=N_DEVICES), rng=1997)
        rows = []
        speedup_small = None

        def run(plan):
            return engine.run_wafer(wafer, rng=0, plan=plan)

        for shard in SHARD_SIZES:
            serial = ExecutionPlan(workers=1, shard_devices=shard)
            pooled = ExecutionPlan(workers=WORKERS, shard_devices=shard)

            def run_cold():
                # A fresh pool per run: its fork and teardown are timed.
                with shared_pool(workers=WORKERS):
                    return run(pooled)

            serial_tp, reference = _throughput(lambda: run(serial))
            cold_tp, cold_res = _throughput(run_cold)
            with shared_pool(workers=WORKERS) as pool:
                pool.warm_up()
                warm_tp, warm_res = _throughput(lambda: run(pooled))
            close_default_pool()

            # The overhead comparison only counts if the answers are
            # identical in all three modes.
            for candidate in (cold_res, warm_res):
                np.testing.assert_array_equal(reference.passed,
                                              candidate.passed)

            bench(f"dispatch.devices_per_s_serial_shard_{shard}",
                  serial_tp)
            bench(f"dispatch.devices_per_s_cold_shard_{shard}", cold_tp)
            bench(f"dispatch.devices_per_s_warm_shard_{shard}", warm_tp)
            if shard == SHARD_SIZES[0]:
                speedup_small = warm_tp / cold_tp
            rows.append([shard, N_DEVICES // shard, serial_tp, cold_tp,
                         warm_tp, warm_tp / cold_tp])

        bench("dispatch.warm_pool_speedup_small_shards", speedup_small)
        report("dispatch overhead (cold pool vs warm pool vs serial)",
               format_table(
                   ["shard", "dispatches", "serial devices/s",
                    "cold devices/s", "warm devices/s", "warm/cold"],
                   rows,
                   title=f"noise-free event path, {N_DEVICES} devices, "
                         f"{WORKERS} workers; warm pool speedup at "
                         f"shard {SHARD_SIZES[0]}: "
                         f"{speedup_small:.2f}x"))
