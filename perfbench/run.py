"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload event_lot --seed 1 --seconds 25 \
        --trace 0

``--trace 0`` measures every end-to-end metric of BENCHMARK.json with
tracing off.  ``--trace 1`` runs the workload untraced and then traced
with the layer wrappers of ``layers.py``, reports every per-layer metric
and writes the span forest as a Chrome trace-event file under
``.perfbench/``.  Output checks run on every invocation, outside the
timed region.  The last line of standard output is the result object;
the line before it is the report (environment, checks, accept digest).

``--tiny`` shrinks every input (for ``selftest.py``) and ``--corrupt``
damages one result before the checks, which must then fail.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

# One BLAS thread per process: the serve pool already runs one worker per
# core, and extra BLAS threads would measure the scheduler.  Set before
# numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

WORKLOADS = ("event_lot", "noisy_lot", "serve_mixed")

#: Units of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "devices_per_s": "devices/s",
    "requests_per_s": "requests/s",
    "request_latency_p50_s": "s",
    "request_latency_p90_s": "s",
    "resume_requests_per_s": "requests/s",
    "peak_rss_mb": "MiB",
    "tester_s_per_device": "sim_s",
}


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    return parser.parse_args(argv)


@contextmanager
def _tracing():
    """Install the layer wrappers and an in-memory telemetry session."""
    from layers import Tracer
    from repro.telemetry.core import Telemetry, telemetry_session

    tracer = Tracer().install()
    try:
        with telemetry_session(Telemetry()) as telemetry:
            yield telemetry
    finally:
        tracer.uninstall()


def main(argv=None) -> int:
    args = _arguments(argv)
    source = Path("src")
    if not (source / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro is "
              "missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source.resolve()))

    from common import OUT_DIR, AcceptTap, RunLedger, environment, metric

    ledger = RunLedger()
    tap = AcceptTap().install()
    report = {"environment": environment(args.workload, args.seed,
                                         source / "repro")}
    if args.workload == "serve_mixed":
        import serve_mixed as workload
        run_args = (args.seed, args.seconds, args.tiny, args.corrupt,
                    ledger, tap)
    else:
        import lots as workload
        run_args = (args.workload, args.seed, args.seconds, args.tiny,
                    args.corrupt, ledger, tap)

    if args.trace:
        from layers import PER_LAYER_UNITS, SpanForest, layer_metrics, \
            write_chrome_trace

        telemetry, extra, info = workload.run_traced(*run_args, _tracing)
        extra["failed_fraction"] = ledger.failed_fraction
        values = layer_metrics(telemetry, extra)
        trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        write_chrome_trace(SpanForest(telemetry.spans), trace_path,
                           {"workload": args.workload, "seed": args.seed})
        info["trace_file"] = str(trace_path)
        metrics = {name: metric(values[name], unit)
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        values, info = workload.run_untraced(*run_args)
        metrics = {name: metric(values[name], unit)
                   for name, unit in END_TO_END_UNITS.items()}
        info["failed_fraction"] = ledger.failed_fraction
    tap.uninstall()

    report.update(info)
    report["checks"] = ledger.checks
    report["errors"] = ledger.errors
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": ledger.correct,
                      "attempted": max(ledger.attempted, 1),
                      "failed": ledger.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
